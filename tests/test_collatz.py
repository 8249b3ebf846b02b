"""Weak and generalized Collatz maps, orbits, and the loop encoding."""

import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slcterm.analyzer import decide
from slcterm.collatz import (
    GenCollatz,
    ReductionPreconditionError,
    WeakCollatz,
    as_generalized,
    orbit,
    reachability_scan,
    residue_histogram,
    to_slc,
)
from slcterm.poly2 import Ray, contains, decompose

from conftest import SEED

# x/2 on evens, (3x + 1)/2 on odds
CLASSICAL = GenCollatz(2, (1, 3), (0, -1))


def test_weak_validation():
    with pytest.raises(ValueError):
        WeakCollatz(1, 3, 0)
    with pytest.raises(ValueError):
        WeakCollatz(2, 0, 0)
    with pytest.raises(ValueError):
        WeakCollatz(2, 4, 1)
    with pytest.raises(ValueError):
        WeakCollatz(3, -6, 1)


def test_gen_validation():
    with pytest.raises(ValueError):
        GenCollatz(2, (2, 3), (0, 1))  # even multiplier mod 2
    with pytest.raises(ValueError):
        GenCollatz(2, (1, 3), (0,))  # wrong arity
    with pytest.raises(ValueError):
        GenCollatz(2, (1, 3), (0, 0))  # 3*1 - 0 is odd
    with pytest.raises(ValueError):
        GenCollatz(2, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        GenCollatz(1, (1,), (0,))


def test_as_generalized_golden():
    g = as_generalized(WeakCollatz(2, 3, 0))
    assert g.m == (3, 3) and g.r == (0, 1)
    g = as_generalized(WeakCollatz(3, 4, 2))
    assert g.r == (3, 4, 2)


def test_weak_matches_generalized():
    # the branch form reproduces the floor on every residue class
    for d in range(2, 8):
        for m in range(-20, 21):
            if m == 0 or gcd(abs(m), d) != 1:
                continue
            for a in (-10, -3, 0, 1, 7):
                t = WeakCollatz(d, m, a)
                g = as_generalized(t)
                for x in range(-60, 61):
                    assert t(x) == g(x)


@st.composite
def gen_maps(draw):
    d = draw(st.integers(2, 6))
    m, r = [], []
    for i in range(d):
        mi = draw(st.integers(-30, 30).filter(lambda v: v != 0 and gcd(abs(v), d) == 1))
        s = draw(st.integers(-20, 20))
        m.append(mi)
        r.append(mi * i - d * s)  # keeps m_i*i = r_i (mod d)
    return GenCollatz(d, tuple(m), tuple(r))


@given(gen_maps(), st.integers(-(10**9), 10**9))
def test_gen_apply_exact_division(g, x):
    i = x % g.d
    assert g.d * g(x) + g.r[i] == g.m[i] * x


def test_classical_orbit_of_seven():
    res = orbit(CLASSICAL, 7, 1000, 10**18)
    assert res.outcome == "entered-cycle"
    assert res.prefix == (7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1, 2)
    assert res.first_index == 10 and res.period == 2


def test_orbit_exceeded_bound():
    t = WeakCollatz(2, 3, 0)
    res = orbit(t, 4, 100, 50)
    assert res.outcome == "exceeded-bound"
    assert res.prefix == (4, 6, 9, 13, 19, 28, 42, 63)
    assert res.first_index is None and res.period is None
    # the start itself may already sit outside the bound
    res = orbit(t, 1000, 100, 50)
    assert res.outcome == "exceeded-bound" and res.prefix == (1000,)


def test_orbit_exceeded_steps():
    res = orbit(WeakCollatz(2, 3, 0), 3, 5, 10**18)
    assert res.outcome == "exceeded-steps"
    assert res.prefix == (3, 4, 6, 9, 13, 19)


def test_orbit_negative_multiplier():
    # x -> floor(-x/2) funnels into the fixed point 0
    res = orbit(WeakCollatz(2, -1, 0), 5, 100, 10**6)
    assert res.outcome == "entered-cycle"
    assert res.prefix == (5, -3, 1, -1, 0, 0)
    assert res.first_index == 4 and res.period == 1


def test_reach_golden():
    t = WeakCollatz(3, 4, 0)
    res = reachability_scan(t, 3, 100, 10**12)
    assert res.outcome == "reached-target" and res.k == 0 and res.prefix == (3,)
    res = reachability_scan(t, 4, 100, 10**12)
    assert res.outcome == "reached-target" and res.k == 2 and res.prefix == (4, 5, 6)


def test_reach_entered_cycle():
    res = reachability_scan(WeakCollatz(3, -4, -5), 0, 100, 10**12)
    assert res.outcome == "entered-cycle"
    assert res.prefix == (0, 1, 0) and res.first_index == 0 and res.period == 2
    res = reachability_scan(WeakCollatz(3, -5, -2), 0, 100, 10**12)
    assert res.outcome == "entered-cycle"
    assert res.prefix == (0, 0) and res.first_index == 0 and res.period == 1


def test_reach_limits():
    # m*x = a (mod d) asks for even x here; 3 -> 7 -> 17 -> 42
    t = WeakCollatz(2, 5, 0)
    res = reachability_scan(t, 3, 100, 10**12)
    assert res.outcome == "reached-target" and res.k == 3 and res.prefix == (3, 7, 17, 42)
    res = reachability_scan(t, 3, 2, 10**12)
    assert res.outcome == "exceeded-steps" and res.prefix == (3, 7, 17)
    res = reachability_scan(t, 3, 100, 10)
    assert res.outcome == "exceeded-bound" and res.prefix == (3, 7, 17)
    # the target test comes before the bound test, even at the start
    res = reachability_scan(t, 100, 10, 50)
    assert res.outcome == "reached-target" and res.k == 0
    res = reachability_scan(t, 101, 10, 50)
    assert res.outcome == "exceeded-bound" and res.prefix == (101,)


def test_orbit_target():
    # reachability_scan is orbit with the exact-division target
    t = WeakCollatz(2, 5, 0)
    res = orbit(t, 3, 100, 10**12, target=lambda v: v % 2 == 0)
    assert res == reachability_scan(t, 3, 100, 10**12)
    assert res.outcome == "reached-target" and res.k == 3
    # a new value is tested against the target before the bound
    res = orbit(t, 3, 100, 20, target=lambda v: v % 2 == 0)
    assert res.outcome == "reached-target" and res.prefix == (3, 7, 17, 42)
    # without a target the same orbit runs on to the bound
    res = orbit(t, 3, 100, 10**12)
    assert res.outcome == "exceeded-bound" and res.k is None


def test_residue_histogram_golden():
    assert residue_histogram(CLASSICAL, 7, 12) == {0: 6, 1: 6}
    assert residue_histogram(CLASSICAL, 7, 12, alpha=2) == {0: 3, 1: 4, 2: 3, 3: 2}
    assert residue_histogram(CLASSICAL, 7, 1) == {1: 1}
    assert sum(residue_histogram(CLASSICAL, 7, 25).values()) == 25
    with pytest.raises(ValueError):
        residue_histogram(CLASSICAL, 7, 12, alpha=0)


def test_to_slc_rows():
    t = WeakCollatz(3, 4, 0)
    assert [tuple(r) for r in to_slc(t).rows] == [
        (4, -3, 2), (-4, 3, -1), (-1, 0, -1), (1, -1, -1)]
    assert [tuple(r) for r in to_slc(t, "-").rows] == [
        (4, -3, 2), (-4, 3, -1), (1, 0, -1), (-1, 1, -1)]


def test_to_slc_encodes_the_map():
    # integer points are exactly (x, floor(4x/3)) with 3 not dividing 4x
    # and 0 < x < x'
    t = WeakCollatz(3, 4, 0)
    p = to_slc(t)
    for x in range(1, 40):
        for y in range(-5, 60):
            expected = (4 * x) % 3 != 0 and y == (4 * x) // 3 and x < y
            assert contains(p, (x, y)) == expected


def test_to_slc_feeds_the_analyzer():
    # the encoded slab lands in the conjectural ray case
    v = decide(to_slc(WeakCollatz(3, 4, 0)))
    assert v.kind == "unknown" and str(v.label) == "L5.3.3"


def test_to_slc_decomposes_to_the_maps_ray_and_band():
    # the loop of x -> floor((m*x - a)/d) recedes along +-(d, m), and with
    # (p, q) that generator, p*x' - q*x over its vertices spans the band the
    # rows allow: [-a-d+1, -a-1] for sign "+", [a+1, a+d-1] for "-"
    for d in range(2, 40):
        for m in range(d + 1, 41):
            if gcd(d, m) != 1:
                continue
            for a in range(-10, 11):
                for sign, s, band in (("+", 1, (-a - d + 1, -a - 1)), ("-", -1, (a + 1, a + d - 1))):
                    dec = decompose(to_slc(WeakCollatz(d, m, a), sign))
                    assert dec.cone == Ray((s * d, s * m)), (d, m, a, sign)
                    p, q = dec.cone.v
                    vals = [p * vy - q * vx for vx, vy in dec.vertices]
                    assert (min(vals), max(vals)) == band, (d, m, a, sign)


def test_to_slc_preconditions():
    with pytest.raises(ReductionPreconditionError):
        to_slc(WeakCollatz(3, 2, 0))
    with pytest.raises(ReductionPreconditionError):
        to_slc(WeakCollatz(2, -3, 0))
    with pytest.raises(ValueError):
        to_slc(WeakCollatz(2, 3, 0), "x")


def random_gen_map(rng, d):
    m, r = [], []
    for i in range(d):
        while True:
            mi = rng.randint(-9, 9)
            if mi != 0 and gcd(abs(mi), d) == 1:
                break
        m.append(mi)
        r.append(mi * i - d * rng.randint(-6, 6))
    return GenCollatz(d, tuple(m), tuple(r))


def test_orbit_invariants_random():
    rng = random.Random(SEED + 9)
    for _ in range(200):
        g = random_gen_map(rng, rng.randint(2, 5))
        n = rng.randint(-30, 30)
        res = orbit(g, n, 60, 10**9)
        vals = res.prefix
        assert vals[0] == n
        for x, y in zip(vals, vals[1:]):
            assert y == g(x)
        if res.outcome == "entered-cycle":
            assert vals[res.first_index] == vals[-1]
            assert res.period == len(vals) - 1 - res.first_index
            assert res.period >= 1
        elif res.outcome == "exceeded-bound":
            assert abs(vals[-1]) > 10**9
        else:
            assert res.outcome == "exceeded-steps"
            assert len(vals) == 61 and len(set(vals)) == 61
