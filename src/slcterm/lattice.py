"""Integer points and fractional heights of 2D polyhedra.

Column z of a polyhedron is the span of integers y with (z, y) inside,
found from the rows in integer arithmetic alone.  The p-height is the
supremum over integer columns of the number of points of (1/p)Z in the
column, which one column attains for a ray or line recession cone.
`integer_point_2d` finds an integer point in a finite column window,
whose every column holds a real point however far the polyhedron is
translated (`column_window`).  It reads the first column; on a miss it
counts the integers of runs of columns by floor sums, in time
polynomial in the bit size, and bisects to the first that holds one.
"""

from __future__ import annotations

from collections.abc import Iterable

from .poly2 import (
    EmptyPolyhedronError,
    HPoly,
    Line,
    MWDecomp,
    Pointed2,
    Ray,
    Record,
    _FM_ROWS,
    _edges,
    _polygon,
    cross,
    decompose,
    x_extent,
)


class ScanLimitExceededError(RuntimeError):
    """Raised by nothing: kept while the benchmark worker imports it."""


class Height(Record):
    """A column count: a natural number."""

    __slots__ = ("value",)


def integer_slice(rows: Iterable[tuple[int, int, int]], z: int) -> tuple[int | None, int | None] | None:
    """The integers y with a1*z + a2*y <= b for every row (a1, a2, b), as a
    span (lo, hi) with None for an unbounded side, or None when no integer
    fits.

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


def column(p: HPoly, z: int) -> tuple[int | None, int | None] | None:
    """The integers y with (z, y) in p, rounded straight from the raw rows."""
    return integer_slice(p.rows, z)


def integer_point_1d(span: tuple[int | None, int | None] | None) -> int | None:
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


def column_window(d: MWDecomp) -> tuple[int, int]:
    """The columns lo..hi that `integer_point_2d` searches for d's polyhedron.

    One rule per side.  p = conv(meets) + cone, so when no generator of the
    cone has x < 0, every real point of p has x >= the least meet x, and the
    window starts at x_lo from `d.extent()`; likewise it ends at x_hi when
    no generator has x > 0.  A side that a generator reaches ends at
    bound + reach, past which the cone's periodicity adds nothing: a ray
    (a, c) repeats columns with period |a|, reach |a| - 1; a cone holding a
    vertical direction has unbounded far columns, reach 1; a wedge off the
    vertical has columns of length >= 1 from there on.  A non-vertical line
    cone (a, c) keeps 0..a - 1, of which every column is a translate.  So
    every column of the window holds a real point.

    The wedge's last `+ 1` is not needed: its columns have length >= 1
    from |z| = bound + ceil(g) on, g = |v1x * v2x| / |cross(v1, v2)|.  It
    moves only the column where `growth_threshold` restarts a trace.
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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over i = 0..n-1, for n >= 0, m >= 1
    and any a, b, by the AtCoder Library's `floor_sum`: Euclid-like rounds
    that take the whole parts of a/m and b/m, then swap the axes."""
    total = 0
    while n:
        (qa, a), (qb, b) = divmod(a, m), divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        n, b = divmod(a * n + b, m)
        m, a = a, m
    return total


def _first_column(rows, s: int, t: int) -> int | None:
    # The least column in s..t holding an integer, or None, when each holds a
    # real point and the cone has no vertical direction: cut to s..t, p is a
    # counterclockwise polygon whose upper rows (a2 > 0) start at meet j + 1
    # (a lower row follows each), lower rows at meet j.  Sorted by the column
    # of that meet, they cut s..t into pieces where neither chain turns, and
    # where a column counts floor(U) - ceil(L) + 1 >= 0 integers.
    if s > t:
        return None
    hs, vs = _polygon(_edges(HPoly((*rows, (1, 0, t), (-1, 0, -s)))), True)
    ends = [(vs[j + 1], hs[j]) for j in reversed(range(len(hs))) if hs[j][1] > 0]
    ends += [(vs[j], hs[j]) for j in range(len(hs)) if hs[j][1] < 0]
    starts = sorted(((-(-x // d), row) for (x, _, d), row in ends), key=lambda e: e[0])
    upper = lower = None

    def count(s, e):  # the integers of columns s..e-1 between the two rows
        return e - s + sum(_floor_sum(e - s, abs(a2), -a1, b - a1 * s) for a1, a2, b in (upper, lower))

    for (c, row), (e, _) in zip(starts, starts[1:] + [(t + 1, None)]):
        upper, lower = (row, lower) if row[1] > 0 else (upper, row)
        if c < e and count(c, e):  # bisect the first piece that counts one
            while e - c > 1:
                mid = (c + e) // 2
                c, e = (c, mid) if count(c, mid) else (mid, e)
            return c
    return None


def integer_point_2d(p: HPoly) -> tuple[int, int] | None:
    """Some integer point of p, or None: in the first column of
    `column_window` that holds one, by |column|, nonnegative first.  The
    first column, ceil(lo) if lo > 0, floor(hi) if hi < 0, else 0 for the
    x-range [lo, hi] of `x_extent` on a few rows, else of the window, is
    read.  A miss rules out a vertical direction in the cone; then
    `_first_column` counts each side of 0, the negative one mirrored, in
    O(k log k) for k rows and O(k + log w) floor sums for w columns."""
    try:
        window = None if len(p.rows) <= _FM_ROWS else column_window(decompose(p))
    except EmptyPolyhedronError:
        return None
    if (ext := x_extent(p) if window is None else (window[0], 1, window[1], 1)) is None:
        return None
    ln, ld, hn, hd = ext
    z = -(-ln // ld) if ln > 0 else hn // hd if hn < 0 else 0
    if z * ld < ln or z * hd > hn:  # no integer column
        return None
    if (y := integer_point_1d(column(p, z))) is not None:
        return z, y
    lo, hi = window or column_window(decompose(p))
    z = _first_column(p.rows, max(lo, 0), hi)
    # a negative column wins only when nearer 0
    m = _first_column([(-a1, a2, b) for a1, a2, b in p.rows], max(-hi, 1), -lo if z is None else min(-lo, z - 1))
    z = z if m is None else -m
    return None if z is None else (z, integer_point_1d(column(p, z)))
