"""Integer points and fractional heights of 2D polyhedra.

Column z of a polyhedron is the span of integers y with (z, y) inside,
found from the rows in integer arithmetic alone.  The p-height of a
polyhedron is the supremum over integer columns of the number of points
of (1/p)Z in the column; those points are the integers of the same
column of the rows scaled to (p*a1, a2, p*b), and the recession cone
makes the supremum computable from finitely many columns.
`integer_point_2d` decides whether the polyhedron contains an integer
point at all, again by reducing to a finite column window via the
cone's translation periodicity.  Windows come from `MWDecomp`'s integers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .poly2 import (
    EmptyPolyhedronError,
    HPoly,
    Line,
    MWDecomp,
    Plane,
    Ray,
    Record,
    Zero,
    _setattr,
    cone_contains,
    cross,
    decompose,
    hpoly,
)


class VerticalRecessionError(ValueError):
    """Height is infinite: the recession cone escapes vertically or is 2D."""


class ScanLimitExceededError(RuntimeError):
    """A column scan would visit more columns than the configured limit."""


DEFAULT_SCAN_LIMIT = 10**6


class Height(Record):
    """A column count: a natural number, or None for unbounded."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[int]) -> None:
        _setattr(self, "value", value)


# The integers of a slice: (lo, hi) with None for an unbounded side, or
# None when no integer fits.
Span = Optional[Tuple[Optional[int], Optional[int]]]


def integer_slice(rows: Iterable[Tuple[int, int, int]], z: int) -> Span:
    """The integers y with a1*z + a2*y <= b for every row (a1, a2, b).

    Each row is rounded on its own, which gives the same span as rounding
    the exact rational bounds.  It stops at the first row that leaves
    lo > hi: lo only rises and hi only falls, so the span stays empty.
    """
    lo = hi = None
    for a1, a2, b in rows:
        d = b - a1 * z
        if a2 > 0:
            t = d // a2
            if hi is None or t < hi:
                hi = t
                if lo is not None and lo > t:
                    return None
        elif a2 < 0:
            t = -(d // -a2)
            if lo is None or t > lo:
                lo = t
                if hi is not None and t > hi:
                    return None
        elif d < 0:
            return None
    return lo, hi


def column(p: HPoly, z: int) -> Span:
    """The integers y with (z, y) in p, rounded straight from the raw rows."""
    return integer_slice(p.rows, z)


def integer_point_1d(span: Span) -> Optional[int]:
    """Some integer of span, or None; smallest |k|, nonnegative preferred."""
    if span is None:
        return None
    lo, hi = span
    if lo is not None and lo > 0:
        return lo
    if hi is not None and hi < 0:
        return hi
    return 0


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def _count(q: HPoly, z: int) -> Optional[int]:
    # integers in column z of q; None when the column is unbounded
    span = column(q, z)
    if span is None:
        return 0
    lo, hi = span
    return None if lo is None or hi is None else hi - lo + 1


def height(p: HPoly, d: MWDecomp, pp: int) -> Height:
    """sup over integer z of |column z of p intersect (1/pp)Z|.

    y lies in (1/pp)Z and in column z of p exactly when pp*y is an
    integer in column z of the scaled rows (pp*a1, a2, pp*b), so each
    count is the length of an integer span.  Evaluation uses the
    recession cone: a Zero cone needs only the columns across the vertex
    hull; a Line cone makes every column carry the same count; a Ray
    cone's counts are monotone along the ray and stabilize past the
    vertex bound, so one far column suffices.
    """
    if pp < 1:
        raise ValueError("denominator pp must be >= 1")
    q = hpoly([(pp * a1, a2, pp * b) for a1, a2, b in p.rows])
    cone = d.cone
    if isinstance(cone, Zero):
        counts = [_count(q, z) for z in range(d.x_lo, d.x_hi + 1)]
        assert None not in counts, "bounded polyhedron has bounded slices"
        return Height(max(counts, default=0))
    if isinstance(cone, (Ray, Line)):
        a = cone.v[0]
        if a == 0:
            raise VerticalRecessionError("vertical recession direction: height is infinite")
        if isinstance(cone, Line):
            z0 = 0
        else:
            z0 = d.bound if a > 0 else -d.bound
        return Height(_count(q, z0))
    raise VerticalRecessionError("two-dimensional recession cone: height is infinite")


# ---------------------------------------------------------------------------
# integer feasibility
# ---------------------------------------------------------------------------


def _window_order(lo: int, hi: int) -> Iterator[int]:
    # lo..hi by smallest |z| first, nonnegative before negative on ties;
    # lazy, so a huge or far-off window costs only the columns scanned
    for k in range(max(0, lo, -hi), max(hi, -lo) + 1):
        if lo <= k <= hi:
            yield k
        if k and lo <= -k <= hi:
            yield -k


def column_window(d: MWDecomp) -> Tuple[int, int]:
    """The columns lo..hi that `integer_point_2d` scans for d's polyhedron.

    Complete: the recession cone bounds which columns can differ.  A
    pointed horizontal ray repeats columns with period v[0] (shift v[1])
    past the vertex bound; a non-vertical line cone repeats every column
    with that period; two-dimensional cones guarantee a hit once the
    column width reaches 1, at an exactly computable threshold.
    """
    cone = d.cone
    if isinstance(cone, Plane):
        return 0, 0
    if isinstance(cone, Zero) or (isinstance(cone, (Ray, Line)) and cone.v[0] == 0):
        return d.x_lo, d.x_hi
    if isinstance(cone, Ray):
        # columns past the vertex bound repeat with period |a| (shift v[1])
        a = cone.v[0]
        return (d.x_lo, d.bound + a - 1) if a > 0 else (-d.bound + a + 1, d.x_hi)
    if isinstance(cone, Line):
        # every column is an exact integer translate of one of these
        return 0, cone.v[0] - 1
    # 2D cone: far columns are unbounded (vertical direction inside the
    # cone) or widen at the generators' slope gap until they must hold
    # an integer
    if cone_contains(cone, (0, 1)) or cone_contains(cone, (0, -1)):
        extra = 1
    else:
        # a wedge strictly on one side: 1 / slope gap = |v1x * v2x| / |cross(v1, v2)|
        extra = -(-abs(cone.v1[0] * cone.v2[0]) // abs(cross(cone.v1, cone.v2))) + 1
    return -(d.bound + extra), d.bound + extra


def growth_threshold(d: MWDecomp, step: int) -> int:
    """A column T from which a greedy growth trace never stalls.

    Ascend, descend (step 1, -1): d decomposes q = p & I+ or p & I-, and T
    is the far end of its `column_window`.  Every column of q from T on
    holds an integer y beyond the column, so each step lands beyond T.
    For a 2D cone of q, inside the region's arc, such columns are unbounded
    or wider than 1.  Else q's cone is p's ray (a, c), 0 < |a| < |c|; no
    region row is parallel to it, so q's far columns are p's, which hold
    p's a-height h >= |a| points of (1/|a|)Z, one of them an integer.

    Outward: d decomposes p, whose cone is a Line (a, c), 0 < a < |c|,
    c < 0.  Column s is [y1 + c*s/a, y2 + c*s/a] for anchors (0, y1),
    (0, y2) within bound; it holds an integer as h >= a, and from s >= T =
    a*bound + 1, y <= c*s/a + bound < -s as (|c| - a)*s/a > bound; from
    s <= -T likewise y > -s.  So each step lands beyond T, on the other side.
    """
    if isinstance(d.cone, Line):
        return d.cone.v[0] * d.bound + 1
    lo, hi = column_window(d)
    return hi if step > 0 else lo


def integer_point_2d(p: HPoly, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Optional[Tuple[int, int]]:
    """Some integer point of p, or None: the first in `column_window`, by |column|."""
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
