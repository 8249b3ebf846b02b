"""Cycle detection, the recession-cone dispatch, and witness traces."""

import fractions
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from slcterm import analyzer, lattice, poly2
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
from slcterm.lattice import column, column_window, growth_threshold, integer_point_2d
from slcterm.poly2 import (
    EmptyPolyhedronError,
    HalfPlane,
    Line,
    Plane,
    Pointed2,
    Ray,
    Zero,
    cross,
    decompose,
    hpoly,
    intersect,
)

from conftest import (
    I_MINUS_ROWS,
    I_PLUS_ROWS,
    SEED,
    bounded_corpus,
    column_span,
    cone_contains,
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
    swap,
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


def in_both_orders(p, s1, s2):
    return all(a1 * s1 + a2 * s2 <= b and a1 * s2 + a2 * s1 <= b for a1, a2, b in p.rows)


def test_cycle2_matches_the_unguarded_query():
    # the first integer point of p with its swap is the reference for
    # whether a 2-cycle exists at all; cycle2's pair holds in both orders
    # by substitution, and is cycle1's fixed point twice or else the
    # adjacent pair (v, v+1) of least |v|, nonnegative first
    loops = _cycle_corpus()
    adjacent = 0
    for p in loops:
        ref = integer_point_2d(intersect(p, swap(p)))
        got = cycle2(p)
        assert (got is None) == (ref is None)
        assert has_cycle(p) == (ref is not None)
        if got is None:
            continue
        assert in_both_orders(p, *got), (p.rows, got)
        s = cycle1(p)
        if s is not None:
            assert got == (s, s)
            continue
        # every v with |v| <= |got[0]|, by |v| and then nonnegative first
        r = abs(got[0])
        v = min((v for v in range(-r, r + 1) if in_both_orders(p, v, v + 1)),
                key=lambda v: (abs(v), v < 0))
        assert got == (v, v + 1)
        adjacent += 1
    assert 0 < adjacent < len(loops)


def test_has_cycle_makes_no_search(monkeypatch):
    # a loop cycles iff p with its swap holds an integer point; has_cycle
    # decides that from two integer slices, and cycle2 and decide read the
    # cycle off them: no 2D search and no decomposition on a cycling loop.
    # Counted at the analyzer's and the lattice's globals.
    real, calls = analyzer.integer_point_2d, []

    def counted(f):
        def wrapper(q, *args):
            calls.append(f.__name__)
            return f(q, *args)
        return wrapper

    monkeypatch.setattr(analyzer, "integer_point_2d", counted(analyzer.integer_point_2d))
    monkeypatch.setattr(analyzer, "decompose", counted(analyzer.decompose))
    monkeypatch.setattr(lattice, "decompose", counted(lattice.decompose))
    cycling = 0
    for p in _cycle_corpus():
        ref = real(intersect(p, swap(p)))
        calls.clear()
        assert has_cycle(p) == (ref is not None)
        assert not calls
        if ref is None:
            continue
        cycling += 1
        pair, v = cycle2(p), decide(p)
        assert not calls, calls
        assert v.label == CYCLE and set(v.witness.states) == set(pair)
    assert cycling > 100


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


def test_region_point_i_minus_matches_a_direct_scan():
    # I- is answered as the reflected loop's I+ point, negated: the point a
    # scan of p & I- itself finds first
    loops = slc_corpus(1000, seed=SEED + 23) + [reflected(wedge_loop(k)) for k in range(2, 31)]
    hits = 0
    for p in loops:
        pt = region_point(p, "I-")
        assert pt == integer_point_2d(intersect(p, hpoly(I_MINUS_ROWS))), p
        hits += pt is not None
    assert hits > 100


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


# the dispatch outside its precondition: every loop below has a fixed
# point, so decide() answers CYCLE and decide_self_avoiding is called
# directly.  On a ray or line cone (p, q) with 0 < |p| < |q| the case rests
# on the p-height alone, so its answer holds with a cycle too.  A wedge at
# Delta+ or Delta- and an anti-diagonal strip are answered from
# cycle-freeness alone (test_cycle_free_wedges_and_strips_need_no_query);
# the one strip here holds only the integer points (x, -x), so it has no
# self-avoiding trace either.  The middle column answers "does an infinite
# self-avoiding trace exist" (SA_KIND maps it to the verdict kind).
DIRECT_GOLDEN = [
    # 2x - 1 <= x' <= 2x, x >= 0: ray (1, 2), h1 = 2, ascending trace
    (((2, -1, 1), (-2, 1, 0), (-1, 0, 0)), "yes", "L5.3.1"),
    # 0 <= 2(x + x') <= 1: the anti-diagonal strip x + x' = 0
    (((-2, -2, 0), (2, 2, 1)), "no", "L5.4.9"),
    # 3x <= 2x' <= 3x + 1: line (2, 3), h2 = 2, ascending trace
    (((3, -2, 0), (-3, 2, 1)), "yes", "L5.4.1"),
    # -3x <= 2x' <= 1 - 3x: line (2, -3), h2 = 2, outward trace
    (((-3, -2, 0), (3, 2, 1)), "yes", "L5.4.1"),
    # 4x - 1 <= 3x' <= 4x: line (3, 4), h3 = 2, the conjectural strip
    (((4, -3, 1), (-4, 3, 0)), "conjecture-no", "L5.4.2"),
    # 2x' = 3x - 1: line (2, 3) with h2 = 1
    (((3, -2, 1), (-3, 2, -1)), "no", "L5.4.3"),
]


SA_KIND = {"yes": "non-terminating", "no": "terminating", "conjecture-no": "unknown"}

# the witness prefix of each DIRECT_GOLDEN verdict, in order (None: no witness)
DIRECT_PREFIXES = [
    (1, 2, 3, 5, 9, 17, 33, 65, 129, 257),
    None,
    (1, 2, 3, 5, 8, 12, 18, 27, 41, 62),
    # outward stalls at column 1, whose one state -1 is no farther out,
    # and restarts at the threshold column a*bound + 1 = 2*1 + 1
    (3, -4, 6, -9, 14, -21, 32, -48, 72, -108),
    None,
    None,
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


def test_outward_seed_mode_flips_sign_and_grows():
    # line (2, -3) flips sign while |x| grows
    p = hpoly([(-3, -2, 0), (3, 2, 1)])
    v = decide_self_avoiding(p, decompose(p))
    assert v.witness == TraceSeed("outward", ())
    trace = witness_trace(p, v, 10)
    mags = [abs(s) for s in trace]
    assert mags == sorted(mags) and len(set(trace)) == len(trace)


def _small_loops_and_strips():
    # every loop of 1-2 rows with coefficients in [-3, 3] (in [-2, 2] it
    # meets only 360 wedges at Delta+ or Delta-), and the strips
    # a <= k(x + x') <= b for small k, a and b
    rows = list(itertools.product(range(-3, 4), repeat=3))
    loops = [hpoly([r]) for r in rows] + [hpoly(pair) for pair in itertools.combinations(rows, 2)]
    loops += [hpoly([(-k, -k, -a), (k, k, b)]) for k in range(1, 6) for a in range(-5, 6)
              for b in range(a, a + 6)]
    return loops


def test_cycle_free_wedges_and_strips_need_no_query(monkeypatch):
    # a cycle-free wedge at Delta+ (Delta-) has no point in I+ (I-), and a
    # cycle-free anti-diagonal strip holds no integer point: the region
    # query and the column read the dispatch once made there are kept here
    # as the reference, and the dispatch answers without either
    wedges, strips = [], []
    for p in _small_loops_and_strips():
        v = decide(p)
        assert v.label not in ("L5.2.3", "L5.2.5", "L5.4.8"), p
        if v.decomposition is None:  # EMPTY or CYCLE
            continue
        cone = v.decomposition.cone
        if isinstance(cone, Pointed2):
            flags = cone_regions(cone)
            if not (flags.i_plus or flags.i_minus) and (flags.delta_plus or flags.delta_minus):
                assert region_point(p, "I+" if flags.delta_plus else "I-") is None, p
                wedges.append((p, v))
        elif isinstance(cone, Line) and cone.v[0] == -cone.v[1]:
            assert column(p, 0) is None, p
            strips.append((p, v))
    assert len(wedges) >= 1000 and len(strips) >= 20, (len(wedges), len(strips))
    assert {v.label for _, v in wedges} == {"L5.2.4", "L5.2.6"}
    assert {v.label for _, v in strips} == {"L5.4.9"}

    def no_query(*args):
        raise AssertionError("the dispatch made a query")

    monkeypatch.setattr(analyzer, "region_point", no_query)
    monkeypatch.setattr(analyzer, "column", no_query)
    for p, v in wedges + strips:
        assert decide(p) == v, p


def test_witness_trace_rejects_non_nt():
    for build in (thin_loop, slab_loop, empty_loop):
        p = build()
        v = decide(p)
        with pytest.raises(NotNonTerminatingError):
            witness_trace(p, v, 10)


def test_witness_trace_zero_length():
    v = decide(inc_loop())
    assert witness_trace(inc_loop(), v, 0) == []


def int_contains(p, pt):
    # `contains` on integer states: the same row test without Fractions,
    # which tracemalloc makes slow on long traces
    x, y = pt
    for a1, a2, b in p.rows:
        if a1 * x + a2 * y > b:
            return False
    return True


def test_witness_trace_holds_one_trace(monkeypatch):
    # the transitions are re-checked pair by pair, not over a sliced copy
    # of the trace, so the peak is the returned list alone
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


def test_descending_witness_holds_one_trace(monkeypatch):
    # a descending trace is the reflected loop's ascending one, negated in
    # place: its peak is that of the mirrored ascending trace, not two lists
    monkeypatch.setattr(analyzer, "contains", int_contains)
    peaks = {}
    for p in (hpoly([(1, -1, -1)]), reflected(hpoly([(1, -1, -1)]))):  # x' >= x + 1 and x' <= x - 1
        v = decide(p)
        tracemalloc.start()
        try:
            out = witness_trace(p, v, 20000)
            peaks[v.witness.mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(out)) == 20000
    assert peaks["descend"] < 1.1 * peaks["ascend"], peaks


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
    # the cone flags and the dispatch.  No slcterm module holds Fraction as
    # a global (poly2 imports it inside the functions that build one), so
    # with `fractions.Fraction` patched every build fails.
    def forbidden(*args):
        raise AssertionError(f"Fraction{args} built by decide")

    for mod in [m for key, m in sys.modules.items() if key.startswith("slcterm")]:
        assert Fraction not in vars(mod).values(), mod.__name__
    monkeypatch.setattr(fractions, "Fraction", forbidden)
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
    assert not hasattr(poly2, "Fraction") and fractions.Fraction is forbidden


def test_decide_deterministic():
    for build in (slab_loop, thick_loop, inc_loop, quad_loop, halfplane_loop):
        p = build()
        assert decide(p) == decide(p)
    rng = random.Random(SEED + 8)
    for _ in range(50):
        p = random_slc(rng)
        assert decide(p) == decide(p)


# the reflection (x, x') -> (-x, -x') swaps I+ with I- and Delta+ with
# Delta-, so these labels trade places; every other label is its own mirror
MIRRORED_LABELS = {"L5.2.6": "L5.2.4", "L5.3.7": "L5.3.9", "L5.3.8": "L5.3.10"}
MIRRORED_LABELS.update({b: a for a, b in MIRRORED_LABELS.items()})


def _metamorphic_corpus():
    # about 1,500 loops: random, outward strips, thin wedges and the goldens
    loops = slc_corpus(1300, seed=SEED + 21) + line_strips(150, SEED + 21)
    loops += [wedge_loop(k) for k in range(2, 31)] + [hpoly(rows) for rows, _, _ in DECIDE_GOLDEN]
    return loops


def test_reflection_mirrors_the_verdict():
    # R(p) keeps the kind, maps the label through the mirror pairs, and its
    # witness replays; R is built by conftest, not by the analyzer
    labels = Counter()
    for p in _metamorphic_corpus():
        v, r = decide(p), reflected(p)
        w = decide(r)
        assert (w.kind, w.label) == (v.kind, MIRRORED_LABELS.get(v.label, v.label)), p
        labels[v.label] += 1
        if w.kind == "non-terminating":
            trace = witness_trace(r, w, 200)
            assert len(trace) == 200
            verify_states(r, trace)
    assert {"L5.2.1", "L5.3.1", "L5.3.8", "L5.4.1", "CYCLE", "EMPTY"} <= set(labels), labels


def test_permuted_and_scaled_rows_keep_the_verdict():
    # the same point set under row permutation and a positive factor per
    # row gives an equal Verdict, witness included
    rng = random.Random(SEED + 22)
    for p in _metamorphic_corpus():
        v = decide(p)
        rows = rng.sample(p.rows, len(p.rows))
        assert decide(hpoly(rows)) == v, p
        assert decide(hpoly([(s * a1, s * a2, s * b) for a1, a2, b in rows
                             for s in [rng.randint(1, 9)]])) == v, p


def test_translated_loops_keep_kind_and_label():
    # moving every state by +-2^b moves the integer points with it, so the
    # kind and label stay; the witness moves too, so it is not compared
    for p in _metamorphic_corpus():
        v = decide(p)
        for c in (s * 2**b for b in (8, 64, 256) for s in (1, -1)):
            w = decide(translated(p, c))
            assert (w.kind, w.label) == (v.kind, v.label), (p, c)


def test_a_loosened_row_keeps_the_verdict():
    # a copy of one row with a larger bound is redundant: the point set and
    # the whole Verdict, witness included, stay.  On a 5-row loop the region
    # queries (the loop and 2 rows) cross from _FM_ROWS rows to more
    rng = random.Random(SEED + 23)
    sizes = Counter()
    for p in _metamorphic_corpus():
        a1, a2, b = rng.choice(p.rows)
        q = hpoly(list(p.rows) + [(a1, a2, b + rng.randint(1, 9))])
        assert decide(q) == decide(p), (p, q)
        sizes[len(q.rows)] += 1
    assert sizes[_FM_ROWS - 1] > 0, sizes


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
    # the column a stalled growth trace restarts at: for descend, the low
    # end of p & I-'s window, read without the reflection
    if mode == "descend":
        return column_window(decompose(intersect(p, hpoly(I_MINUS_ROWS))))[0]
    return growth_threshold(decompose(p if mode == "outward" else intersect(p, hpoly(I_PLUS_ROWS))))


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


@pytest.mark.parametrize("k, bound, start", [(5, 6, 27), (10, 11, 102)])
def test_wedge_trace_restarts_past_the_window_margin(k, bound, start):
    # wedge_loop(k)'s cone has generators (k, k+1) and (k-1, k), cross 1, so
    # a column of its I+ part holds an integer from bound + k*(k-1) on, and
    # column_window adds one column more.  The greedy run from the region
    # point stalls and restarts there: any column from bound + k*(k-1) on
    # would pass substitution, so the witness pins the margin
    p = wedge_loop(k)
    d = decompose(intersect(p, hpoly(I_PLUS_ROWS)))
    assert d.extent()[2] == bound and growth_threshold(d) == start == bound + k * (k - 1) + 1
    v = decide(p)
    assert len(greedy_run(p, "ascend", v.witness.data[0], 10)) < 10
    assert witness_trace(p, v, 10) == greedy_run(p, "ascend", start, 10)


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
