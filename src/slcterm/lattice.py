"""Integer points and fractional heights of 2D polyhedra.

Vertical slices of a polyhedron are exact rational intervals.  The
p-height of a polyhedron is the supremum over integer columns of the
number of points of (1/p)Z inside the slice; the recession cone makes
that supremum computable from finitely many columns.  `integer_point_2d`
decides whether the polyhedron contains an integer point at all, again
by reducing to a finite column window via the cone's translation
periodicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .poly2 import (
    EmptyPolyhedronError,
    HPoly,
    Line,
    MWDecomp,
    Plane,
    Rat,
    Ray,
    Zero,
    bound_1d,
    cone_contains,
    decompose,
)


class VerticalRecessionError(ValueError):
    """Height is infinite: the recession cone escapes vertically or is 2D."""


class ScanLimitExceededError(RuntimeError):
    """A column scan would visit more columns than the configured limit."""


DEFAULT_SCAN_LIMIT = 10**6


@dataclass(frozen=True)
class Interval:
    """Closed rational interval; None bounds mean unbounded."""

    lo: Optional[Rat]
    hi: Optional[Rat]
    empty: bool = False

    @staticmethod
    def nothing() -> "Interval":
        return Interval(None, None, True)

    @staticmethod
    def of(lo: Optional[Rat], hi: Optional[Rat]) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return Interval.nothing()
        return Interval(lo, hi, False)

    def contains(self, x) -> bool:
        if self.empty:
            return False
        x = Fraction(x)
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True


@dataclass(frozen=True)
class Height:
    """A column count: a natural number, or None for unbounded."""

    value: Optional[int]

    @property
    def finite(self) -> bool:
        return self.value is not None

    def as_number(self):
        return self.value if self.value is not None else math.inf


def column(p: HPoly, z) -> Interval:
    """The slice {y : (z, y) in p} as an exact interval."""
    empty, lo, hi = bound_1d((a2, b - a1 * z) for a1, a2, b in p.rows)
    return Interval.nothing() if empty else Interval(lo, hi)


def _ceil(x: Rat) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Rat) -> int:
    return x.numerator // x.denominator


def integer_bounds(iv: Interval) -> Tuple[Optional[int], Optional[int], bool]:
    """Integer endpoints (lo, hi, empty) of iv intersected with Z."""
    if iv.empty:
        return None, None, True
    lo = _ceil(iv.lo) if iv.lo is not None else None
    hi = _floor(iv.hi) if iv.hi is not None else None
    if lo is not None and hi is not None and lo > hi:
        return None, None, True
    return lo, hi, False


def integer_point_1d(iv: Interval) -> Optional[int]:
    """Some integer in iv, or None; smallest |k|, nonnegative preferred."""
    lo, hi, empty = integer_bounds(iv)
    if empty:
        return None
    if (lo is None or lo <= 0) and (hi is None or hi >= 0):
        return 0
    if lo is not None and lo > 0:
        return lo
    return hi


def count_fractions(iv: Interval, p: int) -> Height:
    """|iv intersect (1/p)Z|; unbounded nonempty intervals count as infinite."""
    if p < 1:
        raise ValueError("denominator p must be >= 1")
    if iv.empty:
        return Height(0)
    if iv.lo is None or iv.hi is None:
        return Height(None)
    lo = _ceil(iv.lo * p)
    hi = _floor(iv.hi * p)
    return Height(max(0, hi - lo + 1))


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def height(p: HPoly, d: MWDecomp, pp: int) -> Height:
    """sup over integer z of |column(p, z) intersect (1/pp)Z|.

    Evaluation uses the recession cone: a Zero cone needs only the
    columns across the vertex hull; a Line cone makes every column carry
    the same count; a Ray cone's counts are monotone along the ray and
    stabilize past the vertex bound, so one far column suffices.
    """
    if pp < 1:
        raise ValueError("denominator pp must be >= 1")
    cone = d.cone
    if isinstance(cone, Zero):
        xs = [v[0] for v in d.vertices]
        lo, hi = _ceil(min(xs)), _floor(max(xs))
        best = 0
        for z in range(lo, hi + 1):
            c = count_fractions(column(p, z), pp)
            assert c.value is not None, "bounded polyhedron has bounded slices"
            best = max(best, c.value)
        return Height(best)
    if isinstance(cone, (Ray, Line)):
        a = cone.v[0]
        if a == 0:
            raise VerticalRecessionError("vertical recession direction: height is infinite")
        if isinstance(cone, Line):
            z0 = 0
        else:
            z0 = _ceil(d.vertex_bound) if a > 0 else -_ceil(d.vertex_bound)
        return count_fractions(column(p, z0), pp)
    raise VerticalRecessionError("two-dimensional recession cone: height is infinite")


# ---------------------------------------------------------------------------
# integer feasibility
# ---------------------------------------------------------------------------


def _scan(p: HPoly, zs, scan_limit: int) -> Optional[Tuple[int, int]]:
    count = 0
    for z in zs:
        count += 1
        if count > scan_limit:
            raise ScanLimitExceededError(f"column scan exceeded {scan_limit} columns")
        y = integer_point_1d(column(p, z))
        if y is not None:
            return (z, y)
    return None


def _window_order(lo: int, hi: int) -> Iterator[int]:
    # lo..hi by smallest |z| first, nonnegative before negative on ties;
    # lazy, so a huge or far-off window costs only the columns scanned
    for k in range(max(0, lo, -hi), max(hi, -lo) + 1):
        if lo <= k <= hi:
            yield k
        if k and lo <= -k <= hi:
            yield -k


def integer_point_2d(p: HPoly, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Optional[Tuple[int, int]]:
    """Some integer point of p, or None if p has no integer point.

    Complete: the recession cone bounds which columns can differ.  A
    pointed horizontal ray repeats columns with period v[0] (shift v[1])
    past the vertex bound; a non-vertical line cone repeats every column
    with that period; two-dimensional cones guarantee a hit once the
    column width reaches 1, at an exactly computable threshold.
    """
    try:
        d = decompose(p)
    except EmptyPolyhedronError:
        return None
    cone = d.cone

    if isinstance(cone, Plane):
        return (0, 0)

    if isinstance(cone, Zero) or (isinstance(cone, (Ray, Line)) and cone.v[0] == 0):
        xs = [v[0] for v in d.vertices]
        lo, hi = _ceil(min(xs)), _floor(max(xs))
        if lo > hi:
            return None
        return _scan(p, _window_order(lo, hi), scan_limit)

    if isinstance(cone, Ray):
        a, _ = cone.v
        m = _ceil(d.vertex_bound)
        xs = [v[0] for v in d.vertices]
        # columns past the vertex bound repeat with period |a| (shift v[1])
        if a > 0:
            lo, hi = _ceil(min(xs)), m + a - 1
        else:
            lo, hi = -m + a + 1, _floor(max(xs))
        return _scan(p, _window_order(lo, hi), scan_limit)

    if isinstance(cone, Line):
        # every column is an exact integer translate of one of these
        a = cone.v[0]
        return _scan(p, range(0, a), scan_limit)

    # 2D cone: far columns are unbounded (vertical direction inside the
    # cone) or widen at the generators' slope gap until they must hold
    # an integer
    m = _ceil(d.vertex_bound)
    if cone_contains(cone, (0, 1)) or cone_contains(cone, (0, -1)):
        extra = 1
    else:
        # no vertical direction: a <180-degree wedge strictly on one side
        slopes = sorted(Fraction(g[1], g[0]) for g in cone.generators())
        extra = _ceil(Fraction(1) / (slopes[-1] - slopes[0])) + 1
    limit = m + extra
    return _scan(p, _window_order(-limit, limit), scan_limit)
