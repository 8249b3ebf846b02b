"""Cycle detection, the recession-cone dispatch, and witness traces."""

import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from slcterm import analyzer, poly2
from slcterm.analyzer import (
    _FM_ROWS,
    CYCLE,
    EMPTY,
    CycleWitness,
    NotNonTerminatingError,
    RegionFlags,
    TraceSeed,
    Verdict,
    cone_regions,
    cycle1,
    cycle2,
    decide,
    decide_self_avoiding,
    has_cycle,
    region_point,
    witness_trace,
)
from slcterm.lattice import growth_threshold, integer_point_2d
from slcterm.poly2 import (
    EmptyPolyhedronError,
    HalfPlane,
    Line,
    Plane,
    Pointed2,
    Ray,
    Zero,
    cone_contains,
    cross,
    decompose,
    hpoly,
    intersect,
    swap,
)

from conftest import (
    I_MINUS_ROWS,
    I_PLUS_ROWS,
    SEED,
    bounded_corpus,
    column_span,
    empty_loop,
    greedy_run,
    halfint_loop,
    halfplane_loop,
    inc_loop,
    line_strips,
    meets_open_arc,
    pair_loop,
    quad_loop,
    random_slc,
    reflected,
    restarting_growth_states,
    slab_loop,
    slc_corpus,
    tangent_polygon,
    thick_loop,
    thin_loop,
    translated,
    wedge_loop,
)


def verify_states(p, states):
    # re-check every transition by direct substitution into the rows
    for a, b in zip(states, states[1:]):
        for a1, a2, c in p.rows:
            assert a1 * a + a2 * b <= c


def test_cycle1_golden():
    assert cycle1(quad_loop()) == 0
    assert cycle1(hpoly([(1, -1, 0), (-1, 1, 0)])) == 0  # x' = x
    assert cycle1(pair_loop()) is None  # x + x' = 1 has no integer fixed point
    assert cycle1(slab_loop()) is None
    # -4 <= x + x' <= -2: fixed points in [-2, -1], scan order picks -1
    assert cycle1(hpoly([(1, 1, -2), (-1, -1, 4)])) == -1
    # 0 <= x + x' <= 10 prefers the fixed point closest to zero
    assert cycle1(hpoly([(-1, -1, 0), (1, 1, 10)])) == 0


def test_cycle2_golden():
    assert cycle2(pair_loop()) == (0, 1)
    assert cycle2(quad_loop()) == (0, 0)  # a fixed point is a legal answer
    assert cycle2(slab_loop()) is None
    assert cycle2(inc_loop()) is None
    assert cycle2(halfint_loop()) is None


def _cycle_corpus():
    goldens = [hpoly(rows) for rows, _, _ in DECIDE_GOLDEN + DIRECT_GOLDEN]
    return slc_corpus(1000) + bounded_corpus(500) + goldens


def test_cycle2_matches_the_unguarded_query():
    # cycle2 returns the first integer point of p with its swap, and runs
    # that query only where has_cycle holds: where has_cycle is False the
    # query comes back empty, and where it is True the query hits
    loops = _cycle_corpus()
    cyclic = 0
    for p in loops:
        ref = integer_point_2d(intersect(p, swap(p)))
        assert cycle2(p) == ref
        assert has_cycle(p) == (ref is not None)
        cyclic += ref is not None
    assert 0 < cyclic < len(loops)


def test_has_cycle_makes_no_search(monkeypatch):
    # a loop cycles iff p with its swap holds an integer point; has_cycle
    # decides that from two integer slices, and cycle2 searches only the
    # loops that cycle.  Counted at analyzer's integer_point_2d global.
    real, calls = analyzer.integer_point_2d, []

    def counted(q, *args):
        calls.append(q)
        return real(q, *args)

    monkeypatch.setattr(analyzer, "integer_point_2d", counted)
    for p in _cycle_corpus():
        ref = real(intersect(p, swap(p)))
        calls.clear()
        assert has_cycle(p) == (ref is not None)
        assert not calls
        if cycle2(p) is None:
            assert not calls


@pytest.mark.parametrize("n", [10**3, 10**6, 10**30])
def test_segment_without_integer_points(n):
    # 2x + 2x' = 1 inside |x|, |x'| <= n: its real points are all 2-cycles,
    # but none is an integer pair, and no column of the box is scanned
    p = hpoly([(2, 2, 1), (-2, -2, -1), (1, 0, n), (-1, 0, n), (0, 1, n), (0, -1, n)])
    v = decide(p)
    assert (v.kind, v.label) == ("terminating", "L5.5.2")
    assert cycle1(p) is None and cycle2(p) is None


def test_has_cycle():
    assert has_cycle(quad_loop())
    assert has_cycle(pair_loop())
    for build in (slab_loop, thin_loop, thick_loop, inc_loop,
                  halfint_loop, halfplane_loop, empty_loop):
        assert not has_cycle(build())


def test_cone_regions_golden():
    assert cone_regions(Zero()) == RegionFlags(False, False, False, False)
    assert cone_regions(Plane()) == RegionFlags(True, True, True, True)
    assert cone_regions(Ray((1, 2))) == RegionFlags(True, False, False, False)
    assert cone_regions(Ray((-2, -3))) == RegionFlags(False, True, False, False)
    # boundary directions do not count as meeting the open arcs
    assert cone_regions(Ray((1, 1))) == RegionFlags(False, False, True, False)
    assert cone_regions(Line((1, 1))) == RegionFlags(False, False, True, True)
    assert cone_regions(Line((0, 1))) == RegionFlags(False, False, False, False)
    assert cone_regions(HalfPlane((1, 1), (0, 1))) == RegionFlags(True, False, True, True)
    assert cone_regions(Pointed2((1, 0), (0, 1))) == RegionFlags(True, False, True, False)
    assert cone_regions(Pointed2((1, -2), (2, -1))) == RegionFlags(False, False, False, False)


def _grid_cones(r=4):
    vecs = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if (x, y) != (0, 0)]
    yield Zero()
    yield Plane()
    for v in vecs:
        yield Ray(v)
        if v[0] > 0 or v == (0, 1):
            yield Line(v)
        for w in vecs:
            if cross(v, w) != 0:
                yield HalfPlane(v, w)
                yield Pointed2(v, w)


def _regions_by_membership(c):
    # cone_regions as it was: a generator strictly inside each open arc, or
    # cone_contains on both of its ends; the deltas by cone_contains
    def meets(lo, hi):
        return any(cross(lo, g) > 0 and cross(g, hi) > 0 for g in c.generators()) or (
            cone_contains(c, lo) and cone_contains(c, hi))

    return RegionFlags(meets((1, 1), (0, 1)), meets((-1, -1), (0, -1)),
                       cone_contains(c, (1, 1)), cone_contains(c, (-1, -1)))


def test_cone_regions_match_per_class_reference():
    cones = list(_grid_cones())
    for p in slc_corpus(1000):
        try:
            cones.append(decompose(p).cone)
        except EmptyPolyhedronError:
            pass
    assert {type(c) for c in cones} == {Zero, Plane, Ray, Line, HalfPlane, Pointed2}
    for c in cones:
        flags = cone_regions(c)
        assert flags.i_plus == meets_open_arc(c, (1, 1), (0, 1)), c
        assert flags.i_minus == meets_open_arc(c, (-1, -1), (0, -1)), c
        assert flags == _regions_by_membership(c), c


def test_region_feasible_golden():
    assert region_point(inc_loop(), "I+") is not None
    assert region_point(inc_loop(), "I-") is None
    assert region_point(halfint_loop(), "I+") is None  # x' = x + 3/2 misses Z^2
    assert region_point(quad_loop(), "I+") is None  # 0 < x < x' forces x + x' >= 3
    assert region_point(hpoly([(-1, 1, -2), (1, -1, 2), (1, 0, 0)]), "I-") is not None
    with pytest.raises(ValueError):
        region_point(inc_loop(), "diag")


# decide-level goldens: every dispatch label reachable from decide()
DECIDE_GOLDEN = [
    # 4x - 2 <= 3x' <= 4x - 1, x >= 3: the conjectural slab, h3 = 2
    (((4, -3, 2), (-4, 3, -1), (-1, 0, -3)), "unknown", "L5.3.3"),
    # 3x' = 4x - 1, x >= 3: thin slab, h3 = 1
    (((4, -3, 1), (-4, 3, -1), (-1, 0, -3)), "terminating", "L5.3.4"),
    # 4x - 2 <= 3x' <= 4x, x >= 3: thick slab, h3 = 3
    (((4, -3, 2), (-4, 3, 0), (-1, 0, -3)), "non-terminating", "L5.3.1"),
    # x' = x + 1
    (((1, -1, -1), (-1, 1, 1)), "non-terminating", "L5.4.6"),
    # x' >= x + 1: half-plane cone
    (((1, -1, -1),), "non-terminating", "L5.5.1"),
    # x' = x + 3/2, x >= 1: no integer transitions at all
    (((2, -2, -3), (-2, 2, 3), (-1, 0, -1)), "terminating", "L5.3.8"),
    # bounded box 3 <= x <= 5, 10 <= x' <= 12: zero cone
    (((-1, 0, -3), (1, 0, 5), (0, -1, -10), (0, 1, 12)), "terminating", "L5.5.2"),
    # x = 3, x' >= 5: vertical ray
    (((1, 0, 3), (-1, 0, -3), (0, -1, -5)), "terminating", "L5.3.2"),
    # x + x' = 1/2, x >= 3: anti-diagonal ray, mixed signs
    (((2, 2, 1), (-2, -2, -1), (-1, 0, -3)), "terminating", "L5.3.2"),
    # x = 2x', x >= 4: ray (2, 1) falls faster than it climbs
    (((1, -2, 0), (-1, 2, 0), (-1, 0, -4)), "terminating", "L5.3.6"),
    # x' = x + 2, x >= 0
    (((1, -1, -2), (-1, 1, 2), (-1, 0, 0)), "non-terminating", "L5.3.7"),
    # x' = x - 2, x <= 0
    (((-1, 1, -2), (1, -1, 2), (1, 0, 0)), "non-terminating", "L5.3.9"),
    # x' = x - 3/2, x <= -1
    (((-2, 2, -3), (2, -2, 3), (1, 0, -1)), "terminating", "L5.3.10"),
    # 12x + 1 <= 9x' <= 12x + 2, x >= 1: ray (3, 4) but h3 = 0
    (((12, -9, -1), (-12, 9, 2), (-1, 0, -1)), "terminating", "L5.3.5"),
    # x = 1/2, x' free: vertical line, no integer transitions
    (((2, 0, 1), (-2, 0, -1)), "terminating", "L5.4.10"),
    # x - 3x' = 1: line (3, 1) descends in |x|
    (((1, -3, 1), (-1, 3, -1)), "terminating", "L5.4.5"),
    # 6x - 4x' = 1: line (2, 3) with h2 = 0 (parity obstruction)
    (((6, -4, 1), (-6, 4, -1)), "terminating", "L5.4.4"),
    # 1 <= 3(x' - x) <= 2: diagonal line but no integer transitions
    (((-3, 3, 2), (3, -3, -1)), "terminating", "L5.4.7"),
    # x >= 3, x' >= x + 1: wedge meeting I+
    (((-1, 0, -3), (1, -1, -1)), "non-terminating", "L5.2.1"),
    # 2x + x' >= 4, x + 2x' <= -4: wedge disjoint from both diagonals
    (((-2, -1, -4), (1, 2, -4)), "terminating", "L5.2.2"),
    # x <= x' - 1, x' <= 0: wedge touching Delta- only, I- infeasible
    (((0, 1, 0), (1, -1, -1)), "terminating", "L5.2.4"),
    # 0 <= x' <= x - 1: wedge touching Delta+ only, I+ infeasible
    (((0, -1, 0), (-1, 1, -1)), "terminating", "L5.2.6"),
    # cycles win before the dispatch
    (((1, 1, 1), (-1, -1, 2), (1, -1, 3), (-1, 1, 3)), "non-terminating", "CYCLE"),
    (((1, 1, 1), (-1, -1, -1)), "non-terminating", "CYCLE"),
    # contradictory rows
    (((1, 0, 0), (-1, 0, -1)), "terminating", "EMPTY"),
    # x' = x - 1: the diagonal line reached through I- (I+ is infeasible)
    (((1, -1, 1), (-1, 1, -1)), "non-terminating", "L5.4.6"),
]


@pytest.mark.parametrize("rows,kind,label", DECIDE_GOLDEN)
def test_decide_golden(rows, kind, label):
    v = decide(hpoly(rows))
    assert v.kind == kind
    assert str(v.label) == label
    if kind == "non-terminating":
        assert v.witness is not None
    else:
        assert v.witness is None


def test_decide_witnesses_verify():
    for rows, kind, label in DECIDE_GOLDEN:
        if kind != "non-terminating":
            continue
        p = hpoly(rows)
        v = decide(p)
        trace = witness_trace(p, v, 50)
        assert len(trace) == 50
        verify_states(p, trace)
        if isinstance(v.witness, TraceSeed):
            # self-avoiding: no state may repeat
            assert len(set(trace)) == 50
        else:
            assert isinstance(v.witness, CycleWitness)
            n = len(v.witness.states)
            assert trace[n:2 * n] == trace[:n]


def test_cycle_witness_states():
    v = decide(quad_loop())
    assert v.witness == CycleWitness((0,))
    assert witness_trace(quad_loop(), v, 4) == [0, 0, 0, 0]
    v = decide(pair_loop())
    assert v.witness == CycleWitness((0, 1))
    assert witness_trace(pair_loop(), v, 5) == [0, 1, 0, 1, 0]


# dispatch cases shadowed by diagonal cycles: every instance below has a
# fixed point, so decide() answers CYCLE and the case is only exercised by
# calling decide_self_avoiding directly.  The case analysis itself does not
# depend on cycle-freeness.  The middle column answers "does an infinite
# self-avoiding trace exist" (SA_KIND maps it to the verdict kind).
DIRECT_GOLDEN = [
    # 0 <= x + x' <= 1: band of width 2, alternating trace
    (((-1, -1, 0), (1, 1, 1)), "yes", "L5.4.8"),
    # 0 <= 2(x + x') <= 1: band too thin to alternate
    (((-2, -2, 0), (2, 2, 1)), "no", "L5.4.9"),
    # 3x <= 2x' <= 3x + 1: line (2, 3), h2 = 2, ascending trace
    (((3, -2, 0), (-3, 2, 1)), "yes", "L5.4.1"),
    # -3x <= 2x' <= 1 - 3x: line (2, -3), h2 = 2, outward trace
    (((-3, -2, 0), (3, 2, 1)), "yes", "L5.4.1"),
    # 4x - 1 <= 3x' <= 4x: line (3, 4), h3 = 2, the conjectural strip
    (((4, -3, 1), (-4, 3, 0)), "conjecture-no", "L5.4.2"),
    # 2x' = 3x - 1: line (2, 3) with h2 = 1
    (((3, -2, 1), (-3, 2, -1)), "no", "L5.4.3"),
    # 0 <= x' <= x + 1: wedge touching Delta+ with I+ feasible
    (((0, -1, 0), (-1, 1, 1)), "yes", "L5.2.3"),
    # x - 1 <= x' <= 0: wedge touching Delta- with I- feasible
    (((0, 1, 0), (1, -1, 1)), "yes", "L5.2.5"),
]


SA_KIND = {"yes": "non-terminating", "no": "terminating", "conjecture-no": "unknown"}

# the witness prefix of each DIRECT_GOLDEN verdict, in order (None: no witness)
DIRECT_PREFIXES = [
    (1, -1, 2, -2, 3, -3, 4, -4, 5, -5),
    None,
    (1, 2, 3, 5, 8, 12, 18, 27, 41, 62),
    # outward stalls at column 1, whose one state -1 is no farther out,
    # and restarts at the threshold column a*bound + 1 = 2*1 + 1
    (3, -4, 6, -9, 14, -21, 32, -48, 72, -108),
    None,
    None,
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    (-1, -2, -3, -4, -5, -6, -7, -8, -9, -10),
]


@pytest.mark.parametrize("rows,kind,label", DIRECT_GOLDEN)
def test_self_avoiding_direct(rows, kind, label):
    p = hpoly(rows)
    assert decide(p).label == CYCLE
    v = decide_self_avoiding(p, decompose(p))
    assert v.kind == SA_KIND[kind]
    assert v.label == label
    prefix = DIRECT_PREFIXES[DIRECT_GOLDEN.index((rows, kind, label))]
    assert (v.witness and tuple(witness_trace(p, v, 10))) == prefix
    if kind == "yes":
        assert isinstance(v.witness, TraceSeed)
        # the seed replays to a genuine self-avoiding trace
        trace = witness_trace(p, v, 40)
        assert len(set(trace)) == 40
        verify_states(p, trace)
    else:
        assert v.witness is None


def test_seed_modes_cover_band_and_outward():
    # band: 0 <= x + x' <= 1 alternates 1, -1, 2, -2, ...
    p = hpoly([(-1, -1, 0), (1, 1, 1)])
    v = decide_self_avoiding(p, decompose(p))
    assert v.witness == TraceSeed("band", (0, 1))
    assert witness_trace(p, v, 6) == [1, -1, 2, -2, 3, -3]
    # outward: line (2, -3) flips sign while |x| grows
    p = hpoly([(-3, -2, 0), (3, 2, 1)])
    v = decide_self_avoiding(p, decompose(p))
    assert v.witness == TraceSeed("outward", ())
    trace = witness_trace(p, v, 10)
    mags = [abs(s) for s in trace]
    assert mags == sorted(mags) and len(set(trace)) == len(trace)


def test_witness_trace_rejects_non_nt():
    for build in (thin_loop, slab_loop, empty_loop):
        p = build()
        v = decide(p)
        with pytest.raises(NotNonTerminatingError):
            witness_trace(p, v, 10)


def test_witness_trace_zero_length():
    v = decide(inc_loop())
    assert witness_trace(inc_loop(), v, 0) == []


def test_witness_trace_holds_one_trace(monkeypatch):
    # the transitions are re-checked pair by pair, not over a sliced copy
    # of the trace, so the peak is the returned list alone.  `contains`
    # builds Fractions, which tracemalloc makes slow on 10^6 transitions;
    # the row test on integer states is the same check
    def int_contains(p, pt):
        x, y = pt
        for a1, a2, b in p.rows:
            if a1 * x + a2 * y > b:
                return False
        return True

    p = hpoly([(1, -1, 0), (-1, 1, 0)])  # x' = x
    v = decide(p)
    monkeypatch.setattr(analyzer, "contains", int_contains)
    tracemalloc.start()
    try:
        out = witness_trace(p, v, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 10**6 and set(out) == {0}
    assert peak < 1.5 * sys.getsizeof(out)


def test_assume_conjecture():
    v = decide(slab_loop(), assume_conjecture=True)
    assert v.kind == "terminating" and str(v.label) == "L5.3.3"
    # the flag only affects conjectural cases
    v = decide(thick_loop(), assume_conjecture=True)
    assert v.kind == "non-terminating" and str(v.label) == "L5.3.1"
    v = decide(hpoly([(4, -3, 1), (-4, 3, 0)]), assume_conjecture=True)
    assert v.kind == "non-terminating" and v.label == CYCLE  # cycle still wins


def test_unknown_verdicts_are_conjectural():
    # only the two conjecture-dependent cases may come back unknown
    rng = random.Random(SEED + 7)
    for _ in range(300):
        v = decide(random_slc(rng))
        assert v.kind in ("terminating", "non-terminating", "unknown")
        if v.kind == "unknown":
            assert str(v.label) in ("L5.3.3", "L5.4.2")


def test_one_emptiness_test_per_loop(monkeypatch):
    # is_empty's elimination runs on loops of at most _FM_ROWS rows, and
    # decompose's edge list answers EMPTY above.  Counted at every module
    # global that refers to is_empty or decompose.
    calls = Counter()
    for name in ("is_empty", "decompose"):
        real = getattr(poly2, name)

        def counted(p, _real=real, _name=name):
            calls[_name] += 1
            return _real(p)

        for mod in [m for key, m in sys.modules.items() if key.startswith("slcterm")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    # the centre of seed 1's polygon lies far off the diagonal: no cycle.
    # Fewer of its rows cut out a larger set, so `small` is nonempty too.
    large = tangent_polygon(random.Random(1), _FM_ROWS + 1)
    small = hpoly(large.rows[:_FM_ROWS])
    empty = hpoly(large.rows + ((1, 0, -100),))  # its x-range is about [-18, -7]
    for p, fm_calls in ((small, 1), (large, 0), (empty, 0)):
        calls.clear()
        v = decide(p)
        assert calls["is_empty"] == fm_calls
        if p is empty:
            assert (v.kind, v.label, v.decomposition) == ("terminating", EMPTY, None)
            assert calls["decompose"] == 1
        else:
            assert (v.kind, v.label) == ("terminating", "L5.5.2")
    assert len(small.rows) <= _FM_ROWS < len(large.rows)


def test_decide_on_many_rows_in_bounded_memory():
    # 4,096 rows: elimination alone would build about four million pairs
    p = tangent_polygon(random.Random(1), 4096)
    tracemalloc.start()
    try:
        v = decide(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.kind, v.label) == ("terminating", "L5.5.2")
    assert peak < 32 * 2**20


def test_decide_builds_no_fraction(monkeypatch):
    # every test decide makes is in integers: the elimination up to
    # _FM_ROWS rows, the cycle slices and the 2-cycle's substitution check,
    # the cone flags and the dispatch.  Every module global bound to
    # Fraction fails when called.
    def forbidden(*args):
        raise AssertionError(f"Fraction{args} built by decide")

    for mod in [m for key, m in sys.modules.items() if key.startswith("slcterm")]:
        for name in [n for n, value in vars(mod).items() if value is Fraction]:
            monkeypatch.setattr(mod, name, forbidden)
    goldens = [build() for build in (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop,
                                     pair_loop, halfplane_loop, halfint_loop, empty_loop)]
    rng = random.Random(SEED + 21)
    loops = goldens + [wedge_loop(k) for k in (2, 3, 30)] + slc_corpus(1000)
    loops += [random_slc(rng, max_rows=7) for _ in range(1000)]
    labels = Counter(decide(p).label for p in loops)
    assert labels[EMPTY] > 100 and labels[CYCLE] > 100 and len(labels) > 10
    assert decide(pair_loop()).witness == CycleWitness((0, 1))  # the adjacent pair's 2-cycle
    # seed 1 puts the polygon's centre far off the diagonal for every k
    for k in (8, 64, 512):
        p = tangent_polygon(random.Random(1), k)
        assert len(p.rows) > _FM_ROWS and not has_cycle(p)
        v = decide(p)
        assert (v.kind, v.label, v.decomposition.cone) == ("terminating", "L5.5.2", Zero())
    assert poly2.Fraction is forbidden


def test_decide_deterministic():
    for build in (slab_loop, thick_loop, inc_loop, quad_loop, halfplane_loop):
        p = build()
        assert decide(p) == decide(p)
    rng = random.Random(SEED + 8)
    for _ in range(50):
        p = random_slc(rng)
        assert decide(p) == decide(p)


@pytest.mark.parametrize("c", [10**10, 10**20, -10**12], ids=["10", "20", "-12"])
def test_far_translated_thick_loop(c):
    # thick with every state moved by -c (ids: the signed exponent of c).
    # For c > 0 its integer-point searches have column windows of ~c/3
    # columns; for c < 0 the states start at 3 - c, which the growth trace
    # must reach without walking there from column 1
    p = translated(thick_loop(), c)
    v = decide(p)
    assert (v.kind, str(v.label)) == ("non-terminating", "L5.3.1")
    trace = witness_trace(p, v, 200)
    assert len(trace) == 200
    verify_states(p, trace)
    if c < 0:
        assert trace[:2] == [3 - c, 4 - c]


def _growth_cases():
    # (name, loop, label, seed) for every growth-mode seed the reference
    # test covers
    cases = []
    loops = [(f"wedge{k}", wedge_loop(k)) for k in range(2, 31)]
    loops += [(f"wedge-{k}", reflected(wedge_loop(k))) for k in range(2, 31)]
    loops.append(("halfplane", halfplane_loop()))
    loops += [(f"thick{c:+}", translated(thick_loop(), c)) for c in (10**3, -10**3, 10**6, -10**6)]
    loops += [(f"slc{i}", p) for i, p in enumerate(slc_corpus(1000))]
    for name, p in loops:
        v = decide(p)
        if isinstance(v.witness, TraceSeed) and v.witness.mode in ("ascend", "descend", "outward"):
            cases.append((name, p, v.label, v.witness))
    for rows, _, label in DIRECT_GOLDEN:
        if label == "L5.4.1":
            p = hpoly(rows)
            v = decide_self_avoiding(p, decompose(p))
            cases.append((f"direct{rows}", p, v.label, v.witness))
    return cases


def _threshold(p, mode):
    # the column a stalled growth trace restarts at
    q = p if mode == "outward" else intersect(p, hpoly(I_MINUS_ROWS if mode == "descend" else I_PLUS_ROWS))
    return growth_threshold(decompose(q), -1 if mode == "descend" else 1)


def test_growth_witness_matches_restart_reference():
    # a trace whose first greedy run, from the region point or column 1,
    # reaches its length is the restart loop's; one that stalls restarts
    # once, at the threshold column
    cases = _growth_cases()
    modes = {seed.mode for _, _, _, seed in cases}
    assert modes == {"ascend", "descend", "outward"}
    assert sum(name.startswith("slc") for name, _, _, _ in cases) > 0
    restarted = set()
    for name, p, label, seed in cases:
        v = Verdict("non-terminating", label, seed)
        for n in (1, 2, 10, 50, 200):
            trace = witness_trace(p, v, n)
            if len(greedy_run(p, seed.mode, seed.data[0] if seed.data else 1, n)) == n:
                assert trace == restarting_growth_states(p, seed.mode, n), (name, n)
            else:
                restarted.add(name)
                assert trace == greedy_run(p, seed.mode, _threshold(p, seed.mode), n), (name, n)
                verify_states(p, trace)
    assert restarted


def test_no_growth_run_stalls_from_the_threshold():
    # a 300-state run from the threshold column never stalls, and column 1
    # of every outward verdict holds a state, so outward walks to no seed
    loops = slc_corpus(3000, seed=5) + line_strips(2500, SEED)
    loops += [wedge_loop(k) for k in range(2, 31)] + [reflected(wedge_loop(k)) for k in range(2, 31)]
    modes = Counter()
    for p in loops:
        v = decide(p)
        mode = getattr(v.witness, "mode", None)
        if mode not in ("ascend", "descend", "outward"):
            continue
        modes[mode] += 1
        run = greedy_run(p, mode, _threshold(p, mode), 300)
        assert len(run) == 300, (p, mode)
        verify_states(p, run)
        if mode == "outward":
            assert column_span(p, 1, -math.inf, math.inf) is not None, p
    assert modes["ascend"] and modes["descend"] and modes["outward"] >= 1000, modes


@pytest.mark.parametrize("k", [100, 3000, 10**4])
def test_witness_trace_answers_thin_wedges(k):
    # a thin wedge's columns hold an integer only from about x = k*k on:
    # the trace restarts there once, without walking to it
    for p in (wedge_loop(k), reflected(wedge_loop(k))):
        v = decide(p)
        assert (v.kind, v.label) == ("non-terminating", "L5.2.1")
        trace = witness_trace(p, v, 200)
        assert len(set(trace)) == 200
        verify_states(p, trace)


def test_decide_replays_nothing(monkeypatch):
    # a verdict carries its seed: deciding computes no successor and builds
    # no state, on the random corpus and on every golden
    def forbidden(*args):
        raise AssertionError("a trace was replayed while deciding")

    corpus = slc_corpus(1000)
    want = [decide(p) for p in corpus]
    monkeypatch.setattr(analyzer, "_next_state", forbidden)
    monkeypatch.setattr(analyzer, "_grow_states", forbidden)
    assert [decide(p) for p in corpus] == want
    for rows, kind, label in DECIDE_GOLDEN:
        v = decide(hpoly(rows))
        assert (v.kind, v.label) == (kind, label)
    for rows, kind, label in DIRECT_GOLDEN:
        p = hpoly(rows)
        v = decide_self_avoiding(p, decompose(p))
        assert (v.kind, v.label) == (SA_KIND[kind], label)
