"""Lattice queries: columns, fraction counts, heights, 2D feasibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcterm.lattice import (
    Height,
    Interval,
    ScanLimitExceededError,
    VerticalRecessionError,
    column,
    count_fractions,
    height,
    integer_bounds,
    integer_point_1d,
    integer_point_2d,
)
from slcterm.poly2 import contains, decompose, hpoly
from conftest import (
    SEED,
    bounded_corpus,
    box_integer_point,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    pair_loop,
    quad_loop,
    random_slc,
    slab_loop,
    thick_loop,
    thin_loop,
)

F = Fraction


def test_column_golden():
    iv = column(slab_loop(), 3)
    assert (iv.lo, iv.hi, iv.empty) == (F(10, 3), F(11, 3), False)
    assert column(slab_loop(), 2).empty
    iv = column(halfplane_loop(), 5)
    assert iv.lo == 6 and iv.hi is None


def test_interval_basics():
    assert Interval.of(F(3), F(2)).empty
    iv = Interval.of(F(1, 2), F(5, 2))
    assert iv.contains(F(2)) and not iv.contains(F(3))
    assert Interval.nothing().empty


def test_integer_bounds():
    assert integer_bounds(Interval.of(F(1, 2), F(5, 2))) == (1, 2, False)
    assert integer_bounds(Interval.of(F(-5, 2), None)) == (-2, None, False)
    assert integer_bounds(Interval.of(F(1, 3), F(2, 3))) == (None, None, True)
    assert integer_bounds(Interval.nothing())[2]


def test_integer_point_1d_tie_break():
    assert integer_point_1d(Interval.of(F(-2), F(2))) == 0
    assert integer_point_1d(Interval.of(F(-3), F(-1))) == -1
    assert integer_point_1d(Interval.of(F(1, 2), F(7, 2))) == 1
    assert integer_point_1d(Interval.of(F(-1), F(1))) == 0
    assert integer_point_1d(Interval.of(F(1, 3), F(2, 3))) is None
    # nonnegative wins the |k| tie
    assert integer_point_1d(Interval.of(F(-1), F(-1))) == -1
    assert integer_point_1d(Interval.of(None, F(-4))) == -4
    assert integer_point_1d(Interval.of(F(4), None)) == 4


def test_count_fractions_golden():
    assert count_fractions(Interval.of(F(10, 3), F(11, 3)), 3) == Height(2)
    assert count_fractions(Interval.of(F(1, 9), F(2, 9)), 3) == Height(0)
    assert count_fractions(Interval.of(F(0), F(2)), 1) == Height(3)
    assert count_fractions(Interval.nothing(), 5) == Height(0)
    assert count_fractions(Interval.of(F(0), None), 2) == Height(None)
    assert not count_fractions(Interval.of(F(0), None), 2).finite


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7),
    st.fractions(min_value=-8, max_value=8),
    st.fractions(min_value=-8, max_value=8),
)
def test_count_fractions_brute(p, lo, hi):
    got = count_fractions(Interval.of(lo, hi), p)
    want = sum(1 for k in range(-100, 101) if lo <= F(k, p) <= hi)
    assert got == Height(want)


def test_height_golden():
    for build, h in ((slab_loop, 2), (thin_loop, 1), (thick_loop, 3)):
        p = build()
        assert height(p, decompose(p), 3) == Height(h)
    # bounded: max over the hull columns
    q = quad_loop()
    assert height(q, decompose(q), 1) == Height(4)


def test_height_vertical_recession_rejected():
    p = hpoly([(1, 0, 3), (-1, 0, -3), (0, -1, -5)])  # vertical ray
    with pytest.raises(VerticalRecessionError):
        height(p, decompose(p), 1)
    for build in (halfplane_loop, lambda: hpoly([(-1, 0, 0), (0, -1, 0)])):
        w = build()  # 2D cones have no column profile
        with pytest.raises(VerticalRecessionError):
            height(w, decompose(w), 1)


def test_height_constant_beyond_vertex_bound():
    # Ray((p, q)) with p, q > 0: column profile repeats past the hull
    for build in (slab_loop, thin_loop, thick_loop):
        p = build()
        d = decompose(p)
        z0 = 4  # above vertex_bound 11/3
        counts = {count_fractions(column(p, z), 3) for z in range(z0, z0 + 10)}
        assert len(counts) == 1
        assert counts.pop() == height(p, d, 3)


# ---------------------------------------------------------------------------
# 2D feasibility
# ---------------------------------------------------------------------------


def test_integer_point_2d_golden():
    assert integer_point_2d(slab_loop()) == (4, 5)
    assert integer_point_2d(thin_loop()) == (4, 5)
    assert integer_point_2d(halfint_loop()) is None
    assert integer_point_2d(quad_loop()) == (0, 0)
    assert integer_point_2d(pair_loop()) == (0, 1)
    assert integer_point_2d(empty_loop()) is None
    assert integer_point_2d(hpoly([])) == (0, 0)
    # vertical line x = 0
    assert integer_point_2d(hpoly([(1, 0, 0), (-1, 0, 0)])) == (0, 0)
    # vertical line x = 1/2 has none
    assert integer_point_2d(hpoly([(2, 0, 1), (-2, 0, -1)])) is None
    # descending ray: the slab mirrored through the origin
    p = hpoly([(-4, 3, 2), (4, -3, -1), (1, 0, -3)])
    assert integer_point_2d(p) == (-4, -5)


def test_integer_point_2d_scan_limit():
    with pytest.raises(ScanLimitExceededError):
        integer_point_2d(halfint_loop(), scan_limit=2)
    # generous limit still finds nothing, no exception
    assert integer_point_2d(halfint_loop(), scan_limit=100) is None


def test_integer_point_2d_against_box_scan():
    # smaller sibling of the acceptance-suite equivalence run
    for p in bounded_corpus(n=120, seed=SEED + 2):
        got = integer_point_2d(p)
        want = box_integer_point(p)
        assert (got is None) == (want is None)
        if got is not None:
            assert contains(p, got)


def test_integer_point_2d_unbounded_instances():
    rng = random.Random(SEED + 3)
    checked = 0
    for _ in range(400):
        p = random_slc(rng, coeff=5)
        got = integer_point_2d(p)
        if got is not None:
            assert contains(p, got)
            checked += 1
        else:
            # scan confirms absence inside a wide window
            assert box_integer_point(p, -200, 200) is None
    assert checked > 50
