"""Lattice queries: integer slices, columns, heights, 2D feasibility."""

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcterm import lattice, poly2
from slcterm.analyzer import TraceSeed, Verdict, decide, region_point, witness_trace
from slcterm.lattice import (
    DEFAULT_SCAN_LIMIT,
    Height,
    ScanLimitExceededError,
    _window_order,
    column,
    column_window,
    height,
    integer_point_1d,
    integer_point_2d,
    integer_slice,
)
from slcterm.poly2 import (
    EmptyPolyhedronError,
    Line,
    MWDecomp,
    Plane,
    Ray,
    Zero,
    _FM_ROWS,
    contains,
    cross,
    decompose,
    hpoly,
    intersect,
)
from conftest import (
    SEED,
    bounded_corpus,
    box_integer_point,
    column_span,
    cone_contains,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    line_strips,
    pair_loop,
    quad_loop,
    random_slc,
    reflected,
    slab_loop,
    slc_corpus,
    slope2_wedge,
    tangent_polygon,
    thick_loop,
    thin_loop,
    translated,
    wedge_loop,
)
from test_cli import run_cli

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


def ray_and_line_loops():
    # loops whose cone is a Ray or a Line (a, c) with a != 0, the only cones
    # `height` takes: random loops, line strips, and the strips cut to
    # x >= 3 or to x <= -3
    loops = slc_corpus(2000) + [slab_loop(), thin_loop(), thick_loop()]
    for q in line_strips(40, SEED):
        loops += [q, hpoly(q.rows + ((-1, 0, -3),)), hpoly(q.rows + ((1, 0, -3),))]
    for p in loops:
        try:
            d = decompose(p)
        except EmptyPolyhedronError:
            continue
        if isinstance(d.cone, (Ray, Line)) and d.cone.v[0] != 0:
            yield p, d


def test_height_brute():
    # height reads one column; against it, the most points of (1/pp)Z on
    # exact Fractions in any column from -(bound + 3|a|) to bound + 3|a|,
    # a run of columns past the vertex bound on both sides, for pp a
    # multiple of |a| as the dispatch passes it
    checked = {Ray: 0, Line: 0}
    for p, d in ray_and_line_loops():
        a = abs(d.cone.v[0])
        r = d.extent()[2] + 3 * a
        cols = [rational_column(p, z) for z in range(-r, r + 1)]
        for pp in (a, 2 * a):
            assert height(p, d, pp) == Height(max(fraction_count(c, pp) for c in cols)), p.rows
        checked[type(d.cone)] += 1
    assert checked[Ray] > 30 and checked[Line] > 30, checked


def test_height_golden():
    for build, h in ((slab_loop, 2), (thin_loop, 1), (thick_loop, 3)):
        p = build()
        assert height(p, decompose(p), 3) == Height(h)


def test_height_rejects_a_denominator_below_one():
    p = slab_loop()
    with pytest.raises(ValueError, match="pp must be >= 1"):
        height(p, decompose(p), 0)


def test_height_rejects_a_denominator_off_the_cone_period():
    # 2x' - 3x = 1, cone (2, 3): column 1 holds (1, 2), but for pp = 1 or 3
    # column 0, the one height reads, holds no point of (1/pp)Z
    p = hpoly([(-3, 2, 1), (3, -2, -1)])
    d = decompose(p)
    for pp in (1, 3):
        with pytest.raises(ValueError, match=rf"pp = {pp} is not a multiple of \|a\| = 2"):
            height(p, d, pp)
    assert height(p, d, 2) == height(p, d, 4) == Height(1)


def test_height_vertical_recession_rejected():
    # height takes only a Ray or Line cone that is not vertical: a Zero
    # cone, a vertical ray, a half-plane and a wedge are each a ValueError
    for p in (quad_loop(), hpoly([(1, 0, 3), (-1, 0, -3), (0, -1, -5)]),
              halfplane_loop(), hpoly([(-1, 0, 0), (0, -1, 0)])):
        with pytest.raises(ValueError, match="ray or line cone"):
            height(p, decompose(p), 1)


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


def window_scan(p, scan_limit):
    """Reference for `integer_point_2d`: decompose p, build the whole
    window and read it by |column|, the first column included."""
    try:
        d = decompose(p)
    except EmptyPolyhedronError:
        return None
    for count, z in enumerate(_window_order(*column_window(d)), 1):
        if count > scan_limit:
            raise ScanLimitExceededError(f"column scan exceeded {scan_limit} columns")
        y = integer_point_1d(column(p, z))
        if y is not None:
            return (z, y)
    return None


def _answer(f, *args):
    try:
        return f(*args)
    except ScanLimitExceededError:
        return "limit"


def test_integer_point_2d_matches_the_window_scan():
    # the same point, or the same limit, as the full window scan, on random
    # loops of 0-7 rows, bounded (boxed) and unbounded, their reflections,
    # and their translations by +-10^e; the first column lies above 0,
    # below 0 or at 0, and a miss there falls through to the window
    rng = random.Random(SEED + 26)
    bases = [halfint_loop(), reflected(halfint_loop())]
    for _ in range(500):
        rows = [tuple(rng.randint(-7, 7) for _ in range(3)) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.3:
            c = [rng.randint(0, 9) for _ in range(4)]
            rows = rows[:3] + [(1, 0, c[0]), (-1, 0, c[1]), (0, 1, c[2]), (0, -1, c[3])]
        bases.append(hpoly(rows))
    loops = []
    for p in bases:
        loops += [p, reflected(p)]
        e = rng.randint(0, 30)
        loops += [translated(p, rng.choice((-1, 1)) * 10**e)]
    cases = {"above": 0, "below": 0, "zero": 0, "miss": 0}
    for p in loops:
        for s in (0, 1, 2, DEFAULT_SCAN_LIMIT):
            assert _answer(integer_point_2d, p, s) == _answer(window_scan, p, s), (p.rows, s)
        try:
            first = next(_window_order(*column_window(decompose(p))), None)
        except EmptyPolyhedronError:
            continue
        if first is not None:
            cases["above" if first > 0 else "below" if first < 0 else "zero"] += 1
            cases["miss"] += integer_point_1d(column(p, first)) is None
    assert min(cases.values()) > 20, cases


def test_first_column_answer_counts_against_the_scan_limit():
    # README's L5.3.1 loop: p & I+'s first column holds the seed, and even
    # that one column is counted, so a limit of 0 columns stops the query
    q = intersect(thick_loop(), I_PLUS)
    with pytest.raises(ScanLimitExceededError):
        integer_point_2d(q, scan_limit=0)
    assert integer_point_2d(q, scan_limit=1) == (3, 4)
    code, out, err = run_cli("decide", "-", "--scan-limit", "0", stdin="slc v1\n4 -3 2\n-4 3 0\n-1 0 -3\n")
    assert code == 3 and out == "" and "scan" in err


def test_many_rows_region_query_runs_no_elimination(monkeypatch):
    # 10^4 loosened copies of x >= 1 ahead of a thin wedge: above _FM_ROWS
    # rows the seed query's first column comes from the decomposition, and
    # x_extent's O(k^2) pairs are never built
    calls, real = [], poly2.x_extent

    def x_extent(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(poly2, "x_extent", x_extent)  # is_empty's too
    monkeypatch.setattr(lattice, "x_extent", x_extent)
    p = hpoly([(-1, 0, j - 1) for j in range(1, 10**4 + 1)] + list(wedge_loop(3000).rows))
    assert len(p.rows) > _FM_ROWS
    assert decide(p) == Verdict("non-terminating", "L5.2.1", TraceSeed("ascend", (2999, 3000)))
    assert calls == []


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


# ---------------------------------------------------------------------------
# the column window
# ---------------------------------------------------------------------------


def reference_column_window(d):
    """The window before each side stopped at the polyhedron's own columns:
    every 2D cone centred on 0, whatever side the polyhedron lies on."""
    cone = d.cone
    x_lo, x_hi, bound = d.extent()
    if isinstance(cone, Plane):
        return 0, 0
    if isinstance(cone, Zero) or (isinstance(cone, (Ray, Line)) and cone.v[0] == 0):
        return x_lo, x_hi
    if isinstance(cone, Ray):
        a = cone.v[0]
        return (x_lo, bound + a - 1) if a > 0 else (-bound + a + 1, x_hi)
    if isinstance(cone, Line):
        return 0, cone.v[0] - 1
    if cone_contains(cone, (0, 1)) or cone_contains(cone, (0, -1)):
        extra = 1
    else:
        extra = -(-abs(cone.v1[0] * cone.v2[0]) // abs(cross(cone.v1, cone.v2))) + 1
    return -(bound + extra), bound + extra


# the integer tightening of the open region 0 < x < x'
I_PLUS = hpoly([(-1, 0, -1), (1, -1, -1)])


def _bench_loops():
    # the benchmark's corpora for seeds 1-3, read from bench/workloads.py
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [hpoly(item.rows) for w in mod.WORKLOADS for seed in (1, 2, 3) for item in mod.corpus(w, seed)]


def holds_real_point(p, z):
    col = rational_column(p, z)
    return col is not None and (col[0] is None or col[1] is None or col[0] <= col[1])


def test_column_window_drops_only_empty_columns():
    # the window lies inside the reference one, and every column it drops
    # holds no real point: the real columns of p form an interval, so when
    # lo holds one and lo - 1 does not, no column below lo does (and the
    # same at hi); short dropped runs are also read one by one
    loops = _bench_loops() + slc_corpus(10000, seed=11)
    narrowed = 0
    for p in loops:
        for q in (p, intersect(p, I_PLUS), intersect(reflected(p), I_PLUS)):
            try:
                d = decompose(q)
            except EmptyPolyhedronError:
                continue
            if isinstance(d.cone, Plane):
                # its window grew from 0..0 to -1..1, but column 0 comes
                # first and holds (0, 0), so the scan still reads one column
                assert column_window(d) == (-1, 1) and integer_point_2d(q, scan_limit=1) == (0, 0)
                continue
            (rlo, rhi), (lo, hi) = reference_column_window(d), column_window(d)
            if lo > hi:
                assert (rlo, rhi) == (lo, hi), q.rows
                continue
            assert rlo <= lo and hi <= rhi, q.rows
            assert holds_real_point(q, lo) and holds_real_point(q, hi), q.rows
            dropped = [z for z in (lo - 1, hi + 1) if rlo <= z <= rhi]
            dropped += [*range(rlo, lo - 1)[-50:], *range(hi + 2, rhi + 1)[:50]]
            assert not any(holds_real_point(q, z) for z in dropped), q.rows
            narrowed += (rlo, rhi) != (lo, hi)
    assert narrowed > 1000, narrowed


@pytest.mark.parametrize("k", [10**6, 10**30])
def test_thin_wedge_region_query_reads_one_column(k):
    # I+ cuts wedge_loop(k) to x >= k - 1, whose first column holds (k-1, k)
    assert region_point(wedge_loop(k), "I+", scan_limit=1) == (k - 1, k)
    assert region_point(reflected(wedge_loop(k)), "I-", scan_limit=1) == (1 - k, -k)
    # the slope-2 wedge's real columns start at 1, its integers at k - 1
    with pytest.raises(ScanLimitExceededError):
        region_point(slope2_wedge(k), "I+", scan_limit=1000)


@pytest.mark.parametrize("t", [10**6, 10**30])
def test_translated_wedge_decides_from_its_own_columns(t):
    # x + 1 <= x' <= 2x, x >= 1 moved by (t, t): the same seed, moved too
    base = hpoly([(1, -1, -1), (-2, 1, 0), (-1, 0, -1)])
    assert decide(base) == Verdict("non-terminating", "L5.2.1", TraceSeed("ascend", (1, 2)))
    moved = translated(base, -t)
    for p, sign, mode in ((moved, 1, "ascend"), (reflected(moved), -1, "descend")):
        v = decide(p)
        assert v == Verdict("non-terminating", "L5.2.1", TraceSeed(mode, (sign * (t + 1), sign * (t + 2))))
        trace = witness_trace(p, v, 200)
        assert len(set(trace)) == 200 and trace[0] == sign * (t + 1)


# ---------------------------------------------------------------------------
# MWDecomp.extent: the integers the windows read, made on demand
# ---------------------------------------------------------------------------


def check_extent(p):
    # extent() against the Fraction view: ceil(min x), floor(max x) and the
    # greatest ceil(|coordinate|)
    try:
        d = decompose(p)
    except EmptyPolyhedronError:
        return False
    xs = [x for x, _ in d.vertices]
    bound = max(math.ceil(abs(c)) for v in d.vertices for c in v)
    assert d.extent() == (math.ceil(min(xs)), math.floor(max(xs)), bound), p.rows
    return True


def test_extent_matches_the_view_on_the_bench_corpora():
    loops = _bench_loops()
    assert sum(check_extent(q) for p in loops for q in (p, intersect(p, I_PLUS))) > len(loops)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-10**12, 10**12)),
                min_size=1, max_size=12))
def test_extent_matches_the_view_on_random_rows(rows):
    check_extent(hpoly(rows))


@pytest.fixture
def extent_calls(monkeypatch):
    # the decompositions whose extent is computed, in call order
    calls, real = [], MWDecomp.extent

    def extent(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MWDecomp, "extent", extent)
    return calls


@pytest.mark.parametrize("k", [8, 64, 512])
def test_polygon_decide_computes_no_extent(extent_calls, k):
    # a bounded polygon answers L5.5.2 from its cone alone
    v = decide(tangent_polygon(random.Random(1), k))
    assert v.label == "L5.5.2" and len(extent_calls) == 0


def test_each_lattice_reader_computes_its_extent_once(extent_calls):
    # README's L5.3.1 loop: the height reads p's decomposition once, and
    # the seed query reads none, as p & I+'s first column, taken from its
    # x-range, holds the seed and no window is built
    p = hpoly([(4, -3, 2), (-4, 3, 0), (-1, 0, -3)])
    v = decide(p)
    assert v.label == "L5.3.1"
    assert extent_calls == [decompose(p)]
    assert extent_calls[0] is v.decomposition
    # a stalled growth trace restarts at growth_threshold: one more
    # decomposition, p & I+ again, read once
    p = wedge_loop(30)
    v = decide(p)
    extent_calls.clear()
    assert len(set(witness_trace(p, v, 200))) == 200
    assert extent_calls == [decompose(intersect(p, I_PLUS))]
