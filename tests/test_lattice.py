"""Lattice queries: integer slices, columns, heights, 2D feasibility."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcterm.lattice import (
    Height,
    ScanLimitExceededError,
    VerticalRecessionError,
    column,
    height,
    integer_point_1d,
    integer_point_2d,
    integer_slice,
)
from slcterm.poly2 import EmptyPolyhedronError, contains, decompose, hpoly
from conftest import (
    SEED,
    bounded_corpus,
    box_integer_point,
    column_span,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    pair_loop,
    quad_loop,
    random_slc,
    reflected,
    slab_loop,
    thick_loop,
    thin_loop,
    wedge_loop,
)

F = Fraction


def rational_column(p, z):
    """Exact bounds (lo, hi) of column z of p with None for an unbounded
    side, or None when a row without x' fails."""
    lo = hi = None
    for a1, a2, b in p.rows:
        if a2 == 0:
            if a1 * z > b:
                return None
            continue
        t = F(b - a1 * z, a2)
        if a2 > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = t if lo is None else max(lo, t)
    return lo, hi


def fraction_count(col, pp):
    """|col intersect (1/pp)Z| by enumerating k/pp; None when unbounded."""
    if col is None:
        return 0
    lo, hi = col
    if lo is None or hi is None:
        return None
    # k/pp lies in [lo, hi] iff ln/ld <= k <= hn/hd for these fractions
    (ln, ld), (hn, hd) = (lo * pp).as_integer_ratio(), (hi * pp).as_integer_ratio()
    return sum(1 for k in range(ln // ld - 1, hn // hd + 2) if ln <= k * ld and k * hd <= hn)


def test_column_golden():
    assert column(slab_loop(), 3) is None  # 10/3 <= y <= 11/3
    assert column(slab_loop(), 4) == (5, 5)
    assert column(slab_loop(), 2) is None  # x >= 3 fails
    assert column(halfplane_loop(), 5) == (6, None)


def slice_pairs(pairs):
    # the integers t with c*t <= d for every pair (c, d), as rows (0, c, d)
    return integer_slice(((0, c, d) for c, d in pairs), 0)


def test_integer_slice_golden():
    assert slice_pairs([]) == (None, None)
    # each row rounds on its own: t <= 5/2, t >= -1/3
    assert slice_pairs([(2, 5), (-3, 1)]) == (0, 2)
    assert slice_pairs([(2, 5), (4, 9), (-3, 1), (-1, 2)]) == (0, 2)
    assert slice_pairs([(3, 2), (-3, -1)]) is None  # 1/3 <= t <= 2/3
    assert slice_pairs([(1, 0), (-1, -1)]) is None  # t <= 0, t >= 1
    assert slice_pairs([(0, -1), (1, 5)]) is None  # 0 <= -1
    assert slice_pairs([(0, 0), (-2, 5)]) == (-2, None)
    assert slice_pairs([(7, -15)]) == (None, -3)
    # rows (a1, a2, b) at z: 3 + 2y <= 5 and 3 - y <= 7
    assert integer_slice([(1, 2, 5), (1, -1, 7)], 3) == (-4, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-60, 60)), max_size=6))
def test_integer_slice_matches_rational_rounding(pairs):
    lo = [F(d, c) for c, d in pairs if c < 0]
    hi = [F(d, c) for c, d in pairs if c > 0]
    ilo = math.ceil(max(lo)) if lo else None
    ihi = math.floor(min(hi)) if hi else None
    empty = any(c == 0 and d < 0 for c, d in pairs) or (
        ilo is not None and ihi is not None and ilo > ihi
    )
    assert slice_pairs(pairs) == (None if empty else (ilo, ihi))


def _rational_empty(pairs):
    lo = [F(d, c) for c, d in pairs if c < 0]
    hi = [F(d, c) for c, d in pairs if c > 0]
    return any(c == 0 and d < 0 for c, d in pairs) or (
        bool(lo) and bool(hi) and math.ceil(max(lo)) > math.floor(min(hi))
    )


def _no_pair_after(pairs, stop):
    # yields pairs[:stop + 1], then fails if asked for one more
    yield from pairs[: stop + 1]
    raise AssertionError(f"read a pair after the first conflict (pair {stop})")


def test_integer_slice_stops_at_first_conflict_golden():
    assert slice_pairs(_no_pair_after([(1, 0), (-1, -1), (1, 9)], 1)) is None
    assert slice_pairs(_no_pair_after([(-1, -1), (5, 9), (2, 1), (0, 0)], 2)) is None
    assert slice_pairs(_no_pair_after([(3, 2), (-3, -1), (-1, -50)], 1)) is None
    assert slice_pairs(_no_pair_after([(2, 5), (0, -1), (0, -1)], 1)) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-60, 60)), max_size=8))
def test_integer_slice_reads_no_pair_after_the_first_conflict(pairs):
    first = next((i for i in range(len(pairs)) if _rational_empty(pairs[: i + 1])), None)
    if first is not None:
        assert slice_pairs(_no_pair_after(pairs, first)) is None


_HUGE = 10**30
_COEFF = st.one_of(st.integers(-9, 9), st.integers(_HUGE - 9, _HUGE + 9),
                   st.integers(-_HUGE - 9, -_HUGE + 9))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COEFF, st.one_of(st.just(0), _COEFF), _COEFF), max_size=6),
       st.one_of(st.integers(-20, 20), st.integers(-_HUGE, _HUGE)))
def test_column_rounds_the_exact_rational_bounds(rows, z):
    # a2 = 0 rows are drawn often; they hold or empty the column outright
    want = rational_column(hpoly(rows), z)
    if want is not None:
        lo, hi = want
        want = (None if lo is None else math.ceil(lo), None if hi is None else math.floor(hi))
        if None not in want and want[0] > want[1]:
            want = None
    assert column(hpoly(rows), z) == want


@pytest.mark.parametrize("coeff,zmax", [(7, 40), (10**30, 10**25)])
def test_column_matches_integer_reference(coeff, zmax):
    clip = 10**80  # beyond every finite bound below
    rng = random.Random(SEED + 4)
    hits = 0
    for _ in range(300):
        p = random_slc(rng, max_rows=7, coeff=coeff)
        for _ in range(4):
            z = rng.randint(-zmax, zmax)
            got = column(p, z)
            want = column_span(p, z, -clip, clip)
            if got is not None:
                lo, hi = got
                got = (-clip if lo is None else lo, clip if hi is None else hi)
                hits += 1
            assert got == want
    assert hits > 50


def test_integer_point_1d_tie_break():
    assert integer_point_1d((-2, 2)) == 0
    assert integer_point_1d((-3, -1)) == -1
    assert integer_point_1d((1, 3)) == 1
    assert integer_point_1d((-1, 1)) == 0
    assert integer_point_1d(None) is None
    assert integer_point_1d((-1, -1)) == -1
    assert integer_point_1d((None, -4)) == -4
    assert integer_point_1d((4, None)) == 4
    assert integer_point_1d((None, None)) == 0
    # nonnegative wins the |k| tie
    assert integer_point_1d((None, 0)) == 0 and integer_point_1d((0, None)) == 0


def test_height_counts_golden():
    # line loops c <= 3*(x' - x) <= e: every column is [c/3, e/3]
    for lo3, hi3, pp, want in ((10, 11, 3, 2), (10, 11, 1, 0), (1, 2, 3, 2), (0, 6, 1, 3), (0, 6, 2, 5)):
        p = hpoly([(-3, 3, hi3), (3, -3, -lo3)])
        assert height(p, decompose(p), pp) == Height(want)
    # [1/9, 2/9] holds no point of (1/3)Z
    p = hpoly([(-9, 9, 2), (9, -9, -1)])
    assert height(p, decompose(p), 3) == Height(0)


def test_height_brute():
    # bounded_corpus boxes lie inside [-15, 15]^2
    checked = 0
    for p in bounded_corpus():
        try:
            d = decompose(p)
        except EmptyPolyhedronError:
            continue
        checked += 1
        cols = [rational_column(p, z) for z in range(-15, 16)]
        for pp in range(1, 8):
            assert height(p, d, pp) == Height(max(fraction_count(c, pp) for c in cols))
    assert checked > 100


def test_height_golden():
    for build, h in ((slab_loop, 2), (thin_loop, 1), (thick_loop, 3)):
        p = build()
        assert height(p, decompose(p), 3) == Height(h)
    # bounded: max over the hull columns
    q = quad_loop()
    assert height(q, decompose(q), 1) == Height(4)


def test_height_rejects_a_denominator_below_one():
    p = slab_loop()
    with pytest.raises(ValueError, match="pp must be >= 1"):
        height(p, decompose(p), 0)


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
        counts = {fraction_count(rational_column(p, z), 3) for z in range(z0, z0 + 10)}
        assert len(counts) == 1
        assert Height(counts.pop()) == height(p, d, 3)


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
    # line cones: columns 0, 1, 2 in that order, so 3x' - x = 1 gives
    # (2, 1) and not (-1, 0)
    assert integer_point_2d(hpoly([(-1, 3, 1), (1, -3, -1)])) == (2, 1)
    assert integer_point_2d(hpoly([(2, 3, 1), (-2, -3, -1)])) == (2, -1)  # line (3, -2)
    assert integer_point_2d(hpoly([(2, 3, 7), (-2, -3, -7)])) == (2, 1)
    # half-planes, both orientations
    assert integer_point_2d(halfplane_loop()) == (0, 1)
    assert integer_point_2d(hpoly([(-1, 1, -1)])) == (0, -1)
    assert integer_point_2d(hpoly([(-2, -3, -7)])) == (0, 3)
    assert integer_point_2d(hpoly([(2, 3, -7)])) == (0, -3)
    # wedges: strictly on one side of the vertical, and holding (0, 1)
    assert integer_point_2d(wedge_loop(5)) == (4, 5)
    assert integer_point_2d(reflected(wedge_loop(5))) == (-4, -5)
    assert integer_point_2d(hpoly([(2, -1, -3), (-1, -1, -5)])) == (0, 5)


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
