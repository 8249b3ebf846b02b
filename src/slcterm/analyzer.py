"""Termination analysis of single-path linear-constraint loops.

A loop over one integer variable steps from x to x' whenever the pair
(x, x') satisfies every constraint row.  The loop is non-terminating
exactly when the transition relation admits a cycle or an infinite
self-avoiding trace.  Cycles are complete at length <= 2 and are found
by two integer feasibility queries.  Self-avoiding traces are decided
(up to two conjecture-dependent cases) by a dispatch on the recession
cone of the transition polyhedron: the cone's shape, the primitive
generator (p, q), and the p-height of the polyhedron select a case
whose label is reported alongside the verdict.

Case labels are stable strings: L5.2.x (pointed wedge), L5.3.x (ray),
L5.4.x (line), L5.5.x (half-plane/plane/zero), plus CYCLE and EMPTY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .lattice import (
    DEFAULT_SCAN_LIMIT,
    ScanLimitExceededError,
    column,
    height,
    integer_point_1d,
    integer_point_2d,
    integer_slice,
)
from .poly2 import (
    Cone,
    HalfPlane,
    HPoly,
    Line,
    MWDecomp,
    Plane,
    Pointed2,
    Ray,
    Zero,
    cone_contains,
    contains,
    cross,
    decompose,
    dot,
    halfplane_normal,
    hpoly,
    intersect,
    is_empty,
    swap,
)


class NotNonTerminatingError(ValueError):
    """Witness traces exist only for non-terminating verdicts."""


class ExtensionFailedError(RuntimeError):
    """A trace failed to extend or verify; signals an internal bug."""


# ---------------------------------------------------------------------------
# labels and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    lemma: str
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.lemma
        return f"{self.lemma}.{self.index}"


CYCLE = CaseLabel("CYCLE")
EMPTY = CaseLabel("EMPTY")


def _L(lemma: str, index: int) -> CaseLabel:
    return CaseLabel(lemma, index)


@dataclass(frozen=True)
class CycleWitness:
    """States of a cycle of length 1 or 2."""

    states: Tuple[int, ...]


@dataclass(frozen=True)
class TraceSeed:
    """Recipe for regenerating a self-avoiding trace of any length.

    mode 'shift' walks x -> x + (b - a) from the seed transition (a, b);
    mode 'band' alternates around the band a <= x + x' <= b; the growth
    modes ('ascend', 'descend', 'outward') re-run the greedy extension,
    reseeding farther out on a stall.  The prefix holds the first states.
    """

    mode: str
    data: Tuple[int, ...]
    prefix: Tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "terminating" | "non-terminating" | "unknown"
    label: CaseLabel
    witness: Union[CycleWitness, TraceSeed, None] = None


@dataclass(frozen=True)
class SelfAvoiding:
    """Answer to 'does an infinite self-avoiding trace exist'."""

    kind: str  # "yes" | "no" | "conjecture-no"
    label: CaseLabel
    seed: Optional[TraceSeed] = None


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycle1(p: HPoly) -> Optional[int]:
    """Integer fixed point x with (x, x) in p, or None."""
    return integer_point_1d(integer_slice((a1 + a2, b) for a1, a2, b in p.rows))


def cycle2(p: HPoly, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Optional[Tuple[int, int]]:
    """Integer pair (s1, s2) with both (s1,s2) and (s2,s1) in p, or None."""
    pt = integer_point_2d(intersect(p, swap(p)), scan_limit)
    if pt is None:
        return None
    s1, s2 = pt
    assert contains(p, (s1, s2)) and contains(p, (s2, s1))
    return (s1, s2)


def has_cycle(p: HPoly, scan_limit: int = DEFAULT_SCAN_LIMIT) -> bool:
    return cycle1(p) is not None or cycle2(p, scan_limit) is not None


# ---------------------------------------------------------------------------
# cone regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionFlags:
    i_plus: bool
    i_minus: bool
    delta_plus: bool
    delta_minus: bool


_IP = ((1, 1), (0, 1))  # I+ directions: the open arc between the diagonal and vertical
_IM = ((-1, -1), (0, -1))


def _strictly_between(lo, hi, g) -> bool:
    return cross(lo, g) > 0 and cross(g, hi) > 0


def _meets_open_arc(c: Cone, lo, hi) -> bool:
    if isinstance(c, Zero):
        return False
    if isinstance(c, Plane):
        return True
    if isinstance(c, Ray):
        return _strictly_between(lo, hi, c.v)
    if isinstance(c, Line):
        v = c.v
        return _strictly_between(lo, hi, v) or _strictly_between(lo, hi, (-v[0], -v[1]))
    if isinstance(c, HalfPlane):
        n = halfplane_normal(c)
        return dot(n, lo) < 0 or dot(n, hi) < 0
    assert isinstance(c, Pointed2)
    return (
        _strictly_between(lo, hi, c.v1)
        or _strictly_between(lo, hi, c.v2)
        or (cone_contains(c, lo) and cone_contains(c, hi))
    )


def cone_regions(c: Cone) -> RegionFlags:
    """Exact intersection flags of the cone with I+, I-, Delta+, Delta-."""
    return RegionFlags(
        i_plus=_meets_open_arc(c, *_IP),
        i_minus=_meets_open_arc(c, *_IM),
        delta_plus=cone_contains(c, (1, 1)),
        delta_minus=cone_contains(c, (-1, -1)),
    )


# ---------------------------------------------------------------------------
# integer region feasibility
# ---------------------------------------------------------------------------

# integer tightenings of the open regions 0 < x < x' and x' < x < 0
_IP_ROWS = ((-1, 0, -1), (1, -1, -1))
_IM_ROWS = ((1, 0, -1), (-1, 1, -1))


def _region_point(
    p: HPoly, region: str, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> Optional[Tuple[int, int]]:
    rows = _IP_ROWS if region == "I+" else _IM_ROWS
    return integer_point_2d(intersect(p, hpoly(rows)), scan_limit)


def region_feasible(p: HPoly, region: str, scan_limit: int = DEFAULT_SCAN_LIMIT) -> bool:
    """Does p contain an integer pair inside the open region I+ or I-?"""
    if region not in ("I+", "I-"):
        raise ValueError("region must be 'I+' or 'I-'")
    return _region_point(p, region, scan_limit) is not None


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------

_PREFIX_LEN = 10


def _verify(p: HPoly, states) -> None:
    for a, b in zip(states, states[1:]):
        if not contains(p, (a, b)):
            raise ExtensionFailedError(f"invalid transition ({a}, {b}) in generated trace")


def _cycle_states(p: HPoly, states: Tuple[int, ...], length: int) -> list[int]:
    out = [states[i % len(states)] for i in range(length)]
    _verify(p, out)
    return out


def _shift_states(p: HPoly, a: int, b: int, length: int) -> list[int]:
    step = b - a
    out = [a + i * step for i in range(length)]
    _verify(p, out)
    return out


def _band_states(p: HPoly, a: int, b: int, length: int) -> list[int]:
    # walk the band a <= x + x' <= b: odd steps land on sum a, even on sum b
    out = [2 * abs(a) if a != 0 else 1]
    while len(out) < length:
        i = len(out)
        out.append((a if i % 2 == 1 else b) - out[-1])
    _verify(p, out)
    return out


def _next_state(p: HPoly, s: int, mode: str) -> Optional[int]:
    span = column(p, s)
    if span is None:
        return None
    lo, hi = span
    if mode == "ascend":
        y = s + 1 if lo is None else max(lo, s + 1)
        return y if hi is None or y <= hi else None
    if mode == "descend":
        y = s - 1 if hi is None else min(hi, s - 1)
        return y if lo is None or y >= lo else None
    # outward: smallest |y| with |y| > |s|, nonnegative preferred
    t = abs(s) + 1
    up: Optional[int] = t if lo is None else max(lo, t)
    if up is not None and hi is not None and up > hi:
        up = None
    down: Optional[int] = -t if hi is None else min(hi, -t)
    if down is not None and lo is not None and down < lo:
        down = None
    if up is None:
        return down
    if down is None:
        return up
    return up if up <= -down else down


def _grow_states(p: HPoly, mode: str, length: int, scan_limit: int) -> list[int]:
    # Greedy growth.  Ascend/descend start at the region's point nearest the
    # origin: one query, which reaches a far-off region at once.  Every other
    # seed is the first column from t on with a successor (outward: nonempty);
    # a stall moves t past the last state.  scan_limit bounds all the walking.
    step = -1 if mode == "descend" else 1
    t, walked, trace = 1, 0, []
    if mode != "outward":
        pt = _region_point(p, "I+" if step > 0 else "I-", scan_limit)
        if pt is None:
            raise ExtensionFailedError("growth seed query came back empty")
        trace = [pt[0]]
    while True:
        s = step * t
        while not trace:
            walked += 1
            if walked > scan_limit:
                raise ScanLimitExceededError(f"growth walk exceeded {scan_limit} columns")
            if (column(p, s) if mode == "outward" else _next_state(p, s, mode)) is not None:
                trace = [s]
            s += step
        while len(trace) < length:
            nxt = _next_state(p, trace[-1], mode)
            if nxt is None:
                break
            trace.append(nxt)
        if len(trace) >= length:
            _verify(p, trace)
            return trace
        t = max(t + 1, abs(trace[-1]) + 1)
        trace = []


def _seed_states(p: HPoly, seed: TraceSeed, length: int, scan_limit: int) -> list[int]:
    if length <= 0:
        return []
    if seed.mode == "shift":
        return _shift_states(p, seed.data[0], seed.data[1], length)
    if seed.mode == "band":
        return _band_states(p, seed.data[0], seed.data[1], length)
    return _grow_states(p, seed.mode, length, scan_limit)


def _make_seed(p: HPoly, mode: str, data: Tuple[int, ...], scan_limit: int) -> TraceSeed:
    seed = TraceSeed(mode, data, ())
    prefix = tuple(_seed_states(p, seed, _PREFIX_LEN, scan_limit))
    return TraceSeed(mode, data, prefix)


def witness_trace(p: HPoly, v: Verdict, length: int, scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[int]:
    """A verified trace of `length` states witnessing non-termination.

    Cycle witnesses repeat; trace seeds replay their recipe.  Every
    transition is re-checked by substitution.
    """
    if v.kind != "non-terminating" or v.witness is None:
        raise NotNonTerminatingError("witness traces exist only for non-terminating verdicts")
    if length <= 0:
        return []
    if isinstance(v.witness, CycleWitness):
        return _cycle_states(p, v.witness.states, length)
    return _seed_states(p, v.witness, length, scan_limit)


# ---------------------------------------------------------------------------
# the dispatch
# ---------------------------------------------------------------------------


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def decide_self_avoiding(
    p: HPoly, d: MWDecomp, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> SelfAvoiding:
    """Case analysis on the recession cone of a nonempty, cycle-free p.

    Returns yes/no/conjecture-no with the selecting case label; yes
    answers carry a trace seed.
    """
    cone = d.cone

    if isinstance(cone, (HalfPlane, Plane)):
        flags = cone_regions(cone)
        assert flags.i_plus or flags.i_minus
        mode = "ascend" if flags.i_plus else "descend"
        return SelfAvoiding("yes", _L("L5.5", 1), _make_seed(p, mode, (), scan_limit))

    if isinstance(cone, Zero):
        return SelfAvoiding("no", _L("L5.5", 2))

    if isinstance(cone, Pointed2):
        return _dispatch_pointed2(p, d, scan_limit)

    if isinstance(cone, Ray):
        pq = cone.v
        pp, q = pq
        if _sign(pp) != _sign(q):
            return SelfAvoiding("no", _L("L5.3", 2))
        if abs(pp) > abs(q):
            return SelfAvoiding("no", _L("L5.3", 6))
        if pp == 1 and q == 1:
            pt = _region_point(p, "I+", scan_limit)
            if pt is not None:
                return SelfAvoiding("yes", _L("L5.3", 7), _make_seed(p, "shift", pt, scan_limit))
            return SelfAvoiding("no", _L("L5.3", 8))
        if pp == -1 and q == -1:
            pt = _region_point(p, "I-", scan_limit)
            if pt is not None:
                return SelfAvoiding("yes", _L("L5.3", 9), _make_seed(p, "shift", pt, scan_limit))
            return SelfAvoiding("no", _L("L5.3", 10))
        # same strict sign, |p| < |q|
        h = height(p, d, abs(pp)).value
        assert h is not None
        if h >= abs(pp):
            mode = "ascend" if pp > 0 else "descend"
            return SelfAvoiding("yes", _L("L5.3", 1), _make_seed(p, mode, (), scan_limit))
        if h == 0:
            return SelfAvoiding("no", _L("L5.3", 5))
        if h <= 1:
            return SelfAvoiding("no", _L("L5.3", 4))  # here |p| > 1
        return SelfAvoiding("conjecture-no", _L("L5.3", 3))

    assert isinstance(cone, Line)
    pp, q = cone.v
    if pp == 0:
        return SelfAvoiding("no", _L("L5.4", 10))
    if pp > abs(q):
        return SelfAvoiding("no", _L("L5.4", 5))
    if pp == q:  # the diagonal line (1, 1)
        for region in ("I+", "I-"):
            pt = _region_point(p, region, scan_limit)
            if pt is not None:
                return SelfAvoiding("yes", _L("L5.4", 6), _make_seed(p, "shift", pt, scan_limit))
        return SelfAvoiding("no", _L("L5.4", 7))
    if pp == -q:  # the anti-diagonal line (1, -1)
        h = height(p, d, 1).value
        assert h is not None
        if h >= 2:
            span = column(p, 0)
            assert span is not None and None not in span
            return SelfAvoiding("yes", _L("L5.4", 8), _make_seed(p, "band", span, scan_limit))
        return SelfAvoiding("no", _L("L5.4", 9))
    # 0 < p < |q|
    h = height(p, d, pp).value
    assert h is not None
    if h >= pp:
        mode = "ascend" if q > 0 else "outward"
        return SelfAvoiding("yes", _L("L5.4", 1), _make_seed(p, mode, (), scan_limit))
    if h == 0:
        return SelfAvoiding("no", _L("L5.4", 4))
    if h <= 1:
        return SelfAvoiding("no", _L("L5.4", 3))  # here p > 1
    return SelfAvoiding("conjecture-no", _L("L5.4", 2))


def _dispatch_pointed2(p: HPoly, d: MWDecomp, scan_limit: int) -> SelfAvoiding:
    cone = d.cone
    assert isinstance(cone, Pointed2)
    flags = cone_regions(cone)
    if flags.i_plus or flags.i_minus:
        mode = "ascend" if flags.i_plus else "descend"
        return SelfAvoiding("yes", _L("L5.2", 1), _make_seed(p, mode, (), scan_limit))
    if not (flags.delta_plus or flags.delta_minus):
        return SelfAvoiding("no", _L("L5.2", 2))
    if flags.delta_plus:
        pt = _region_point(p, "I+", scan_limit)
        if pt is not None:
            return SelfAvoiding("yes", _L("L5.2", 3), _make_seed(p, "shift", pt, scan_limit))
        return SelfAvoiding("no", _L("L5.2", 6))
    pt = _region_point(p, "I-", scan_limit)
    if pt is not None:
        return SelfAvoiding("yes", _L("L5.2", 5), _make_seed(p, "shift", pt, scan_limit))
    return SelfAvoiding("no", _L("L5.2", 4))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def decide(
    p: HPoly, assume_conjecture: bool = False, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> Verdict:
    """Full analysis: emptiness, cycles, then the self-avoiding dispatch."""
    if is_empty(p):
        return Verdict("terminating", EMPTY)
    s = cycle1(p)
    if s is not None:
        return Verdict("non-terminating", CYCLE, CycleWitness((s,)))
    pair = cycle2(p, scan_limit)
    if pair is not None:
        return Verdict("non-terminating", CYCLE, CycleWitness(pair))
    res = decide_self_avoiding(p, decompose(p), scan_limit)
    if res.kind == "yes":
        return Verdict("non-terminating", res.label, res.seed)
    if res.kind == "no":
        return Verdict("terminating", res.label)
    if assume_conjecture:
        return Verdict("terminating", res.label)
    return Verdict("unknown", res.label)
