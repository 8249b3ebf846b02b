"""Termination analysis of single-path linear-constraint loops.

A loop over one integer variable steps from x to x' whenever the pair
(x, x') satisfies every constraint row.  The loop is non-terminating
exactly when the transition relation admits a cycle or an infinite
self-avoiding trace.  Cycles are complete at length <= 2, and two
one-variable integer slices decide and name them: a fixed point s, or
an adjacent pair v <-> v+1, the cycle (v, v+1).  Self-avoiding traces
are decided (up to two conjecture-dependent cases) by a dispatch on the
recession cone of the transition polyhedron: the cone's shape, the
primitive generator (p, q), and the p-height of the polyhedron select a
case whose label is reported alongside the verdict.

A verdict is terminating, non-terminating (with a cycle or a trace seed
as witness) or unknown (the conjecture-dependent cases L5.3.3 and
L5.4.2).  Case labels are plain strings: L5.2.x (pointed wedge), L5.3.x
(ray), L5.4.x (line), L5.5.x (half-plane/plane/zero), plus CYCLE and
EMPTY.  Deciding builds no trace: `witness_trace` alone builds states
from a witness, and checks each transition by substitution; a growth
trace restarts at most once, at a column past which no run stalls.
An I- point and a descending trace are the I+ point and the ascending
trace of the reflected loop R(p) = {(-x, -x')}, negated.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Optional, Tuple, Union

from .lattice import (
    DEFAULT_SCAN_LIMIT,
    column,
    growth_threshold,
    height,
    integer_point_1d,
    integer_point_2d,
    integer_slice,
)
from .poly2 import (
    Cone,
    Constraint,
    EmptyPolyhedronError,
    HalfPlane,
    HPoly,
    Line,
    MWDecomp,
    Plane,
    Pointed2,
    Ray,
    Record,
    Zero,
    _setattr,
    contains,
    cross,
    decompose,
    hpoly,
    intersect,
    is_empty,
)


class NotNonTerminatingError(ValueError):
    """Witness traces exist only for non-terminating verdicts."""


class ExtensionFailedError(RuntimeError):
    """A trace failed to extend or verify; signals an internal bug."""


# ---------------------------------------------------------------------------
# labels and verdicts
# ---------------------------------------------------------------------------


CYCLE = "CYCLE"
EMPTY = "EMPTY"
# `decide` runs `is_empty` on loops of at most this many rows and lets
# `decompose` test emptiness above: the benchmark's EMPTY loops (`mix`) have
# at most 6 rows, and its `rows` polygons, 8 or more, are nonempty
_FM_ROWS = 7


class CycleWitness(Record):
    """States of a cycle of length 1 or 2."""

    __slots__ = ("states",)

    def __init__(self, states: Tuple[int, ...]) -> None:
        _setattr(self, "states", states)


class TraceSeed(Record):
    """The seed of a self-avoiding trace, as the dispatch found it: for mode
    'shift' the transition (a, b), walked as x -> x + (b - a); for 'band' the
    span (a, b) of column 0, alternated around a <= x + x' <= b; for 'ascend'
    or 'descend' the point in I+ or I- that a greedy trace grows from; for
    'outward' (), grown from column 1.  A stalled growth trace restarts once
    in `witness_trace`, at the column of `lattice.growth_threshold`; 'descend'
    replays as the negated 'ascend' trace of the reflected loop."""

    __slots__ = ("mode", "data")

    def __init__(self, mode: str, data: Tuple[int, ...]) -> None:
        _setattr(self, "mode", mode)
        _setattr(self, "data", data)


class Verdict(Record):
    """`kind` is "terminating", "non-terminating" or "unknown"; `decomposition`
    is the loop's decomposition when `decide` made one, for reports, and
    `==`, `hash` and `repr` skip it."""

    __slots__ = ("kind", "label", "witness", "decomposition")
    _fields = ("kind", "label", "witness")

    def __init__(self, kind: str, label: str, witness: Union[CycleWitness, TraceSeed, None] = None,
                 decomposition: Optional[MWDecomp] = None) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "label", label)
        _setattr(self, "witness", witness)
        _setattr(self, "decomposition", decomposition)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycle1(p: HPoly) -> Optional[int]:
    """Integer fixed point x with (x, x) in p, or None."""
    return integer_point_1d(integer_slice(((0, a1 + a2, b) for a1, a2, b in p.rows), 0))


def _adjacent_pairs(p: HPoly) -> Optional[int]:
    # the least |v|, nonnegative first, with both (v, v+1) and (v+1, v) in p
    return integer_point_1d(integer_slice(((0, a1 + a2, b - max(a1, a2)) for a1, a2, b in p.rows), 0))


def cycle2(p: HPoly) -> Optional[Tuple[int, int]]:
    """Integer pair (s1, s2) with both (s1,s2) and (s2,s1) in p, or None:
    (s, s) for `cycle1`'s fixed point s, else the adjacent pair (v, v+1)
    of least |v|, nonnegative first."""
    s = cycle1(p)
    if s is not None:
        return s, s
    v = _adjacent_pairs(p)
    return None if v is None else (v, v + 1)


def has_cycle(p: HPoly) -> bool:
    """True iff the loop has a cycle, decided without a search.

    If (s1, s2) and (s2, s1) both lie in the convex p, so do the integer
    points (s1 + t, s2 - t) between them: for s2 - s1 even one of them is
    a fixed point, for s2 - s1 odd two of them are an adjacent pair
    (v, v+1), (v+1, v).  So a loop cycles iff one of two integer slices,
    (a1+a2)*t <= b and (a1+a2)*v <= b - max(a1, a2), is nonempty.
    """
    return cycle2(p) is not None


# ---------------------------------------------------------------------------
# cone regions
# ---------------------------------------------------------------------------


class RegionFlags(Record):
    __slots__ = ("i_plus", "i_minus", "delta_plus", "delta_minus")

    def __init__(self, i_plus: bool, i_minus: bool, delta_plus: bool, delta_minus: bool) -> None:
        _setattr(self, "i_plus", i_plus)
        _setattr(self, "i_minus", i_minus)
        _setattr(self, "delta_plus", delta_plus)
        _setattr(self, "delta_minus", delta_minus)


def cone_regions(c: Cone) -> RegionFlags:
    """Exact intersection flags of the cone with I+ (directions (x, x')
    with 0 < x < x'), I- (x' < x < 0), Delta+ (1, 1) and Delta- (-1, -1),
    from signs of integer cross products with the generators: an arc under
    a half-turn meets a cone iff a generator lies strictly inside it or the
    cone holds both its ends (a cone edge crossing the arc is a generator)."""
    if isinstance(c, Plane):
        return RegionFlags(True, True, True, True)
    if isinstance(c, (Zero, Ray, Line)):  # no generator, or one or two opposite rays
        gens = c.generators()
        return RegionFlags(any(0 < x < y for x, y in gens), any(y < x < 0 for x, y in gens),
                           any(0 < x == y for x, y in gens), any(0 > x == y for x, y in gens))
    if isinstance(c, HalfPlane):  # the wedge from d to -d: d on the boundary, the witness on its left
        b = c.boundary
        p1, q1 = b if cross(b, c.interior_witness) > 0 else (-b[0], -b[1])
        p2, q2 = -p1, -q1
    else:  # v1 before v2 counterclockwise
        (p1, q1), (p2, q2) = (c.v1, c.v2) if cross(c.v1, c.v2) > 0 else (c.v2, c.v1)
    # v lies in the cone when cross(v1, v) >= 0 and cross(v, v2) >= 0
    dp, dm = p1 >= q1 and q2 >= p2, p1 <= q1 and q2 <= p2
    return RegionFlags(0 < p1 < q1 or 0 < p2 < q2 or (dp and p1 >= 0 >= p2),
                       q1 < p1 < 0 or q2 < p2 < 0 or (dm and p1 <= 0 <= p2), dp, dm)


# ---------------------------------------------------------------------------
# integer region feasibility
# ---------------------------------------------------------------------------

# the integer tightening of the open region 0 < x < x'
_I_PLUS = hpoly(((-1, 0, -1), (1, -1, -1)))


def _reflect(p: HPoly) -> HPoly:  # R(x, x') = (-x, -x') maps I- onto I+
    return HPoly(tuple(Constraint(-a1, -a2, b) for a1, a2, b in p.rows))


def region_point(p: HPoly, region: str, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Optional[Tuple[int, int]]:
    """An integer pair of p inside the open region I+ or I-, or None; I- as
    the negated I+ point of the reflected loop (no scan tie-break fires)."""
    if region not in ("I+", "I-"):
        raise ValueError("region must be 'I+' or 'I-'")
    pt = integer_point_2d(intersect(_reflect(p) if region == "I-" else p, _I_PLUS), scan_limit)
    return pt if pt is None or region == "I+" else (-pt[0], -pt[1])


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------


def _next_state(p: HPoly, s: int, mode: str) -> Optional[int]:
    # smallest |y| > |s|, nonnegative preferred (a column holding both signs
    # holds |s| + 1); ascend states are positive and take only y > s
    span = column(p, s)
    if span is None:
        return None
    lo, hi = span
    t = abs(s) + 1
    y = t if lo is None else max(lo, t)
    if hi is None or y <= hi:
        return y
    if mode == "ascend":
        return None
    y = min(hi, -t)
    return y if lo is None or y >= lo else None


def _grow_states(p: HPoly, mode: str, data: Tuple[int, ...], length: int) -> list[int]:
    # greedy growth from the region point (outward: column 1), then the threshold
    if mode == "descend":  # the reflected loop's ascend trace, negated in place
        trace = _grow_states(_reflect(p), "ascend", (-data[0],), length)
        for i, s in enumerate(trace):
            trace[i] = -s
        return trace
    s = data[0] if data else 1
    for _ in range(2):
        trace = [s]
        while len(trace) < length and (s := _next_state(p, s, mode)) is not None:
            trace.append(s)
        if len(trace) == length:
            return trace
        s = growth_threshold(decompose(p if mode == "outward" else intersect(p, _I_PLUS)))
    raise ExtensionFailedError(f"growth trace stalled past its threshold column {s}")


def witness_trace(p: HPoly, v: Verdict, length: int) -> list[int]:
    """A verified trace of `length` states witnessing non-termination: a
    cycle repeats, a trace seed replays its mode from its data.  Every
    transition is re-checked by substitution."""
    w = v.witness
    if v.kind != "non-terminating" or w is None:
        raise NotNonTerminatingError("witness traces exist only for non-terminating verdicts")
    if length <= 0:
        return []
    if isinstance(w, CycleWitness):
        out = [w.states[i % len(w.states)] for i in range(length)]
    elif w.mode == "shift":
        a, b = w.data
        out = [a + i * (b - a) for i in range(length)]
    elif w.mode == "band":
        # walk the band a <= x + x' <= b: odd steps land on sum a, even on sum b
        a, b = w.data
        out = [2 * abs(a) if a != 0 else 1]
        while len(out) < length:
            out.append((a if len(out) % 2 == 1 else b) - out[-1])
    else:
        out = _grow_states(p, w.mode, w.data, length)
    for x, y in pairwise(out):
        if not contains(p, (x, y)):
            raise ExtensionFailedError(f"invalid transition ({x}, {y}) in generated trace")
    return out


# ---------------------------------------------------------------------------
# the dispatch
# ---------------------------------------------------------------------------


def _seeded(p: HPoly, label: str, mode: str, data: Tuple[int, ...], scan_limit: int) -> Verdict:
    # ascend/descend grow from the region's point nearest the origin: one
    # query, which reaches a far-off region at once
    if mode in ("ascend", "descend"):
        data = region_point(p, "I+" if mode == "ascend" else "I-", scan_limit)
        if data is None:
            raise ExtensionFailedError("growth seed query came back empty")
    return Verdict("non-terminating", label, TraceSeed(mode, data))


def _shift_case(p: HPoly, regions, yes: str, no: str, scan_limit: int) -> Verdict:
    # a transition (a, b) inside I+ or I- repeats along the diagonal recession
    # direction as a -> b -> 2b - a -> ...; without one the loop terminates
    for region in regions:
        pt = region_point(p, region, scan_limit)
        if pt is not None:
            return _seeded(p, yes, "shift", pt, scan_limit)
    return Verdict("terminating", no)


def _height_case(p: HPoly, d: MWDecomp, pp: int, mode: str, labels, scan_limit: int) -> Verdict:
    # the p-height h of p decides: h >= p grows a trace, h = 0 and h = 1
    # terminate, and 1 < h < p is the conjecture-dependent case
    grows, h0, h1, conjectural = labels
    h = height(p, d, pp).value
    if h >= pp:
        return _seeded(p, grows, mode, (), scan_limit)
    if h == 0:
        return Verdict("terminating", h0)
    if h == 1:
        return Verdict("terminating", h1)
    return Verdict("unknown", conjectural)


def decide_self_avoiding(p: HPoly, d: MWDecomp, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Verdict:
    """Case analysis on the recession cone of a nonempty, cycle-free p.

    Returns a non-terminating verdict with a trace seed, a terminating
    verdict, or unknown for the conjecture-dependent cases L5.3.3 and
    L5.4.2; the label names the case that decided.
    """
    cone = d.cone

    if isinstance(cone, Zero):
        return Verdict("terminating", "L5.5.2")

    if isinstance(cone, (Pointed2, HalfPlane, Plane)):
        flags = cone_regions(cone)
        if flags.i_plus or flags.i_minus:
            label = "L5.2.1" if isinstance(cone, Pointed2) else "L5.5.1"
            return _seeded(p, label, "ascend" if flags.i_plus else "descend", (), scan_limit)
        assert isinstance(cone, Pointed2), "a half-plane or plane cone meets I+ or I-"
        if flags.delta_plus:
            return _shift_case(p, ("I+",), "L5.2.3", "L5.2.6", scan_limit)
        if flags.delta_minus:
            return _shift_case(p, ("I-",), "L5.2.5", "L5.2.4", scan_limit)
        return Verdict("terminating", "L5.2.2")

    pp, q = cone.v
    if isinstance(cone, Ray):
        if pp * q <= 0:
            return Verdict("terminating", "L5.3.2")
        if abs(pp) > abs(q):
            return Verdict("terminating", "L5.3.6")
        if pp == q == 1:
            return _shift_case(p, ("I+",), "L5.3.7", "L5.3.8", scan_limit)
        if pp == q == -1:
            return _shift_case(p, ("I-",), "L5.3.9", "L5.3.10", scan_limit)
        # same strict sign, |p| < |q|
        mode = "ascend" if pp > 0 else "descend"
        return _height_case(p, d, abs(pp), mode, ("L5.3.1", "L5.3.5", "L5.3.4", "L5.3.3"), scan_limit)

    assert isinstance(cone, Line)
    if pp == 0:
        return Verdict("terminating", "L5.4.10")
    if pp > abs(q):
        return Verdict("terminating", "L5.4.5")
    if pp == q:  # the diagonal line (1, 1)
        return _shift_case(p, ("I+", "I-"), "L5.4.6", "L5.4.7", scan_limit)
    if pp == -q:  # the anti-diagonal line (1, -1)
        # every column is a translate of column 0, so its length is the 1-height
        span = column(p, 0)
        if span is not None and span[1] - span[0] >= 1:
            return _seeded(p, "L5.4.8", "band", span, scan_limit)
        return Verdict("terminating", "L5.4.9")
    # 0 < p < |q|
    mode = "ascend" if q > 0 else "outward"
    return _height_case(p, d, pp, mode, ("L5.4.1", "L5.4.4", "L5.4.3", "L5.4.2"), scan_limit)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def decide(
    p: HPoly, assume_conjecture: bool = False, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> Verdict:
    """Full analysis: emptiness, cycles, then the self-avoiding dispatch.

    One emptiness test per loop answers EMPTY: `is_empty` on at most
    `_FM_ROWS` rows, else `decompose`.  Both CYCLE answers come first, each
    cycle slice asked once and naming its cycle, so no column is scanned for
    them and `decompose` runs once, on cycle-free loops only.  Every test is
    in integers: no `Fraction` is built, nor a trace; a non-terminating
    verdict carries its seed for `witness_trace`.
    """
    if len(p.rows) <= _FM_ROWS and is_empty(p):
        return Verdict("terminating", EMPTY)
    s = cycle1(p)
    if s is not None:
        return Verdict("non-terminating", CYCLE, CycleWitness((s,)))
    if (t := _adjacent_pairs(p)) is not None:
        return Verdict("non-terminating", CYCLE, CycleWitness((t, t + 1)))
    try:
        d = decompose(p)
    except EmptyPolyhedronError:
        return Verdict("terminating", EMPTY)
    v = decide_self_avoiding(p, d, scan_limit)
    kind = "terminating" if v.kind == "unknown" and assume_conjecture else v.kind
    return Verdict(kind, v.label, v.witness, d)
