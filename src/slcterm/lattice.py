"""Integer points and fractional heights of 2D polyhedra.

Column z of a polyhedron is the span of integers y with (z, y) inside,
found from the rows in integer arithmetic alone.  The p-height of a
polyhedron is the supremum over integer columns of the number of points
of (1/p)Z in the column; those points are the integers of the same
column of the rows scaled to (p*a1, a2, p*b), and a ray or line
recession cone makes one column attain the supremum.
`integer_point_2d` decides whether the polyhedron contains an integer
point at all, again by reducing to a finite column window via the
cone's translation periodicity.  Windows come from `MWDecomp.extent()`:
a side that no generator of the cone reaches stops at the polyhedron's
first or last real column, so every column scanned holds a real point,
however far the polyhedron is translated.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .poly2 import (
    EmptyPolyhedronError,
    HPoly,
    Line,
    MWDecomp,
    Pointed2,
    Ray,
    Record,
    _setattr,
    cross,
    decompose,
)


class ScanLimitExceededError(RuntimeError):
    """A column scan would visit more columns than the configured limit."""


DEFAULT_SCAN_LIMIT = 10**6


class Height(Record):
    """A column count: a natural number."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
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


def height(p: HPoly, d: MWDecomp, pp: int) -> Height:
    """sup over integer z of |column z of p intersect (1/pp)Z|, for a Ray or
    Line cone (a, c), a != 0, and pp a multiple of |a|; any other cone or pp
    raises `ValueError`.  y lies in (1/pp)Z and in column z of p exactly when
    pp*y is an integer in column z of the scaled rows (pp*a1, a2, pp*b).  p
    lies in a strip along (a, c) whose columns move by c/a, in (1/pp)Z, per
    step and so hold one count, the sup; p's columns past the vertex bound
    (all of a Line's) are the strip's, so column 0, or d.bound on the ray's
    side, has it, and with no vertical direction in the cone that count is
    finite.
    """
    if pp < 1:
        raise ValueError("denominator pp must be >= 1")
    cone = d.cone
    if not isinstance(cone, (Ray, Line)) or cone.v[0] == 0:
        raise ValueError("height needs a ray or line cone that is not vertical")
    if pp % cone.v[0]:
        raise ValueError(f"denominator pp = {pp} is not a multiple of |a| = {abs(cone.v[0])}")
    z0 = 0 if isinstance(cone, Line) else d.extent()[2] * (1 if cone.v[0] > 0 else -1)
    span = integer_slice(((pp * a1, a2, pp * b) for a1, a2, b in p.rows), z0)
    return Height(0 if span is None else span[1] - span[0] + 1)


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

    One rule per side.  p = conv(meets) + cone, so when no generator of the
    cone has x < 0, every real point of p has x >= the least meet x, and the
    window starts at x_lo from `d.extent()`; likewise it ends at x_hi when
    no generator has x > 0.  A side that a generator reaches ends at
    bound + reach, where the cone's periodicity makes the columns past it add
    nothing: a ray (a, c) repeats columns with period |a| (shift c) past the
    vertex bound, reach |a| - 1; a cone holding a vertical direction has
    unbounded far columns, reach 1; a wedge strictly on one side of the
    vertical has columns of length >= 1 from there on.  A non-vertical line
    cone (a, c) keeps 0..a - 1: every column is an exact integer translate
    of one of these.  So every column of the window holds a real point, and
    a far-off polyhedron is scanned from its own columns.

    The wedge's last `+ 1` is not needed for completeness: the wedge's
    generators' x parts share a sign, and from a vertex w, |w_x| <= bound,
    column z of w + cone is a segment of length |z - w_x| / g, g =
    |v1x * v2x| / |cross(v1, v2)|, so of length >= 1 from |z| = bound +
    ceil(g) on.  It moves only the column a stalled growth trace restarts
    at (`growth_threshold`), which witness traces show and tests pin.
    """
    cone = d.cone
    if isinstance(cone, Line) and cone.v[0]:
        return 0, cone.v[0] - 1
    if isinstance(cone, Ray):
        reach = abs(cone.v[0]) - 1
    elif isinstance(cone, Pointed2) and cone.v1[0] * cone.v2[0] > 0:
        # 1 / slope gap = |v1x * v2x| / |cross(v1, v2)|
        reach = -(-(cone.v1[0] * cone.v2[0]) // abs(cross(cone.v1, cone.v2))) + 1
    else:  # a vertical direction in the cone, or no generator off the vertical
        reach = 1
    xs = [v[0] for v in cone.generators()]
    x_lo, x_hi, bound = d.extent()
    return (-(bound + reach) if min(xs, default=0) < 0 else x_lo,
            bound + reach if max(xs, default=0) > 0 else x_hi)


def growth_threshold(d: MWDecomp) -> int:
    """A column T from which a greedy growth trace never stalls.

    Ascend: d decomposes q = p & I+, and T is the high end of its
    `column_window`.  Every column of q from T on holds an integer y > T,
    so each step lands beyond T.  For a 2D cone of q, inside I+'s arc,
    such columns are unbounded or wider than 1.  Else q's cone is p's ray
    (a, c), 0 < a < c; no region row is parallel to it, so q's far columns
    are p's, which hold p's a-height h >= a points of (1/a)Z, an integer
    among them.  Descend is ascend on R(p) = {(-x, -x')}, negated, since
    `decompose(R(q))` has x_lo, x_hi, bound = -x_hi, -x_lo, bound of q.

    Outward: d decomposes p, whose cone is a Line (a, c), 0 < a < |c|,
    c < 0.  Column s is [y1 + c*s/a, y2 + c*s/a] for anchors (0, y1),
    (0, y2) within bound; it holds an integer as h >= a, and from s >= T =
    a*bound + 1, y <= c*s/a + bound < -s as (|c| - a)*s/a > bound; from
    s <= -T likewise y > -s.  So each step lands beyond T, on the other side.
    """
    if isinstance(d.cone, Line):
        return d.cone.v[0] * d.extent()[2] + 1
    return column_window(d)[1]


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
