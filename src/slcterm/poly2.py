"""Exact geometry of 2D rational polyhedra in constraint form.

A polyhedron is a finite conjunction of rows a1*x1 + a2*x2 <= b with
integer coefficients.  Everything here is exact: points are pairs of
`fractions.Fraction`, emptiness is decided by variable elimination, and
the recession cone is classified into one of six shapes (zero, ray,
line, half-plane, pointed wedge, plane) with primitive integer
generators.  `decompose` returns a Minkowski-Weyl pair (vertex list,
cone) such that the polyhedron equals conv(vertices) + cone as a set of
real points; a vertex is an end of a boundary line clipped by the rows.
Every rational one-variable bound from the rows goes through `bound_1d`;
`lattice.integer_slice` gives the integer ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

Rat = Fraction

# A rational point (x1, x2).
Point = Tuple[Rat, Rat]
# An integer direction vector.
IVec = Tuple[int, int]
Extent = Tuple[bool, Optional[Rat], Optional[Rat]]  # (empty, lo, hi)


class EmptyPolyhedronError(ValueError):
    """Operation requires a nonempty polyhedron."""


class ZeroVectorError(ValueError):
    """Operation requires a nonzero vector."""


class Constraint(NamedTuple):
    """One row: a1*x1 + a2*x2 <= b."""

    a1: int
    a2: int
    b: int


@dataclass(frozen=True)
class HPoly:
    """Conjunction of integer constraint rows."""

    rows: Tuple[Constraint, ...]


def hpoly(rows: Sequence[Sequence[int]]) -> HPoly:
    """Build an HPoly from (a1, a2, b) integer triples."""
    out = []
    for a1, a2, b in rows:
        if a1 != int(a1) or a2 != int(a2) or b != int(b):
            raise ValueError("constraint coefficients must be integers")
        out.append(Constraint(int(a1), int(a2), int(b)))
    return HPoly(tuple(out))


# ---------------------------------------------------------------------------
# cone classes
# ---------------------------------------------------------------------------


class ConeClass:
    """Marker base for recession-cone shapes; `kind` names the shape in reports."""

    kind: str

    def generators(self) -> Tuple[IVec, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(ConeClass):
    kind = "zero"

    def generators(self) -> Tuple[IVec, ...]:
        return ()


@dataclass(frozen=True)
class Ray(ConeClass):
    kind = "ray"
    v: IVec

    def generators(self) -> Tuple[IVec, ...]:
        return (self.v,)


@dataclass(frozen=True)
class Line(ConeClass):
    kind = "line"
    # Normalized: v[0] >= 0, and if v[0] == 0 then v == (0, 1).
    v: IVec

    def generators(self) -> Tuple[IVec, ...]:
        return (self.v, (-self.v[0], -self.v[1]))


@dataclass(frozen=True)
class HalfPlane(ConeClass):
    kind = "half-plane"
    boundary: IVec
    interior_witness: IVec

    def generators(self) -> Tuple[IVec, ...]:
        return (self.boundary, (-self.boundary[0], -self.boundary[1]), self.interior_witness)


@dataclass(frozen=True)
class Pointed2(ConeClass):
    kind = "wedge"
    # Non-collinear, neither the negation of the other; emitted with
    # cross(v1, v2) > 0 but membership accepts either order.
    v1: IVec
    v2: IVec

    def generators(self) -> Tuple[IVec, ...]:
        return (self.v1, self.v2)


@dataclass(frozen=True)
class Plane(ConeClass):
    kind = "plane"

    def generators(self) -> Tuple[IVec, ...]:
        return ((1, 0), (0, 1), (-1, -1))


Cone = Union[Zero, Ray, Line, HalfPlane, Pointed2, Plane]


@dataclass(frozen=True)
class MWDecomp:
    """Minkowski-Weyl pair: p = conv(vertices) + cone."""

    vertices: Tuple[Point, ...]
    cone: Cone
    vertex_bound: Rat  # max |coordinate| over vertices


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------


def primitive(v: Sequence[Union[int, Rat]]) -> IVec:
    """Unique primitive integer vector on the ray through v (v != 0)."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ZeroVectorError("zero vector has no direction")
    den = (x.denominator * y.denominator) // gcd(x.denominator, y.denominator)
    ix, iy = int(x * den), int(y * den)
    g = gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _norm_line_dir(v: IVec) -> IVec:
    # first component >= 0; vertical directions normalize to (0, 1)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def cone_contains(c: Cone, v: Sequence[int]) -> bool:
    """Exact membership of an integer vector in the cone's point set."""
    vx, vy = int(v[0]), int(v[1])
    if isinstance(c, Plane):
        return True
    if isinstance(c, Zero):
        return vx == 0 and vy == 0
    if vx == 0 and vy == 0:
        return True
    if isinstance(c, Ray):
        return cross(c.v, (vx, vy)) == 0 and dot(c.v, (vx, vy)) > 0
    if isinstance(c, Line):
        return cross(c.v, (vx, vy)) == 0
    if isinstance(c, HalfPlane):
        return dot(halfplane_normal(c), (vx, vy)) <= 0
    assert isinstance(c, Pointed2)
    det = cross(c.v1, c.v2)
    # v = alpha*v1 + beta*v2 with alpha, beta >= 0: signs of the numerators times det
    return cross((vx, vy), c.v2) * det >= 0 and cross(c.v1, (vx, vy)) * det >= 0


def halfplane_normal(c: HalfPlane) -> IVec:
    """The normal n with the cone equal to {v : n.v <= 0}."""
    d = c.boundary
    n = (-d[1], d[0])
    if dot(n, c.interior_witness) > 0:
        n = (d[1], -d[0])
    return n


# ---------------------------------------------------------------------------
# one-variable bounds; emptiness via elimination
# ---------------------------------------------------------------------------


def bound_1d(pairs: Iterable[Tuple[Union[int, Rat], Union[int, Rat]]]) -> Extent:
    """Solve {t : c*t <= d for every (c, d)} exactly.

    Returns (empty, lo, hi) with None for an unbounded side.  Bounds are
    compared by cross-multiplication and become Fractions only at the end.
    """
    lo = hi = None  # (num, den) with den > 0
    for c, d in pairs:
        if c > 0:
            if hi is None or d * hi[1] < hi[0] * c:
                hi = (d, c)
        elif c < 0:
            if lo is None or d * lo[1] < lo[0] * c:
                lo = (-d, -c)
        elif d < 0:
            return True, None, None
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return True, None, None
    return False, lo and Fraction(*lo), hi and Fraction(*hi)


def x_extent(p: HPoly) -> Extent:
    """Project onto x1 by eliminating x2.

    Returns (empty, lo, hi) with None for an unbounded side.  Exact for
    real points: Fourier-Motzkin on non-strict rows, combining each lower
    row l with each upper row u as (-l2)*u + u2*l.
    """
    uppers = [r for r in p.rows if r.a2 > 0]
    lowers = [r for r in p.rows if r.a2 < 0]
    pairs = [(a1, b) for a1, a2, b in p.rows if a2 == 0]
    pairs += [(u2 * l1 - l2 * u1, u2 * lb - l2 * ub)
              for l1, l2, lb in lowers for u1, u2, ub in uppers]
    return bound_1d(pairs)


def is_empty(p: HPoly) -> bool:
    """True iff p has no real point."""
    return x_extent(p)[0]


def contains(p: HPoly, pt: Sequence[Union[int, Rat]]) -> bool:
    """Exact membership of a rational point."""
    x, y = Fraction(pt[0]), Fraction(pt[1])
    return all(a1 * x + a2 * y <= b for a1, a2, b in p.rows)


def intersect(p: HPoly, q: HPoly) -> HPoly:
    return HPoly(p.rows + q.rows)


def swap(p: HPoly) -> HPoly:
    """Exchange the roles of x1 and x2 in every row."""
    return HPoly(tuple(Constraint(a2, a1, b) for a1, a2, b in p.rows))


# ---------------------------------------------------------------------------
# recession cone
# ---------------------------------------------------------------------------

_AXES: Tuple[IVec, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _effective_normals(p: HPoly) -> list[IVec]:
    normals: list[IVec] = []
    seen = set()
    for a1, a2, _ in p.rows:
        if a1 == 0 and a2 == 0:
            continue
        n = primitive((a1, a2))
        if n not in seen:
            seen.add(n)
            normals.append(n)
    return normals


def _classify_cone(p: HPoly) -> Cone:
    normals = _effective_normals(p)
    if not normals:
        return Plane()

    # candidate extreme directions lie on some constraint boundary
    cands: list[IVec] = []
    cseen = set()
    for n in normals:
        for d in ((-n[1], n[0]), (n[1], -n[0])):
            if d not in cseen:
                cseen.add(d)
                cands.append(d)
    feas = [d for d in cands if all(dot(n, d) <= 0 for n in normals)]
    if not feas:
        return Zero()
    if len(feas) == 1:
        return Ray(feas[0])

    if all(cross(feas[0], d) == 0 for d in feas[1:]):
        # both directions of one boundary line survive, so every normal is
        # perpendicular to it: a line (normals on both sides) or a closed
        # half-plane (single effective normal)
        d = _norm_line_dir(feas[0])
        if len(normals) == 1:
            n0 = normals[0]
            w = next(w for w in _AXES if dot(n0, w) < 0)
            return HalfPlane(boundary=d, interior_witness=w)
        return Line(d)

    # pointed wedge: feasible directions span < 180 degrees, so the
    # cross product gives a total angular order; take the extremes
    order = sorted(feas, key=cmp_to_key(lambda u, v: -1 if cross(u, v) > 0 else 1))
    return Pointed2(order[0], order[-1])


def recession_cone(p: HPoly) -> Cone:
    """Classify {v : a1*v1 + a2*v2 <= 0 for every row}.

    Requires p nonempty; the classification depends only on the rows'
    normal vectors.
    """
    if is_empty(p):
        raise EmptyPolyhedronError("recession cone of an empty polyhedron")
    return _classify_cone(p)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _vertices(p: HPoly) -> list[Point]:
    """Every feasible intersection of two non-parallel row boundaries, sorted.

    Each line a.x = b, parametrised as (b*a + s*(-a2, a1)) / |a|^2, is
    clipped by every row.  Where the lines of a and c meet, the one with
    cross(a, c) > 0 ends there, so the upper ends are the vertices: O(k^2).
    """
    found = set()
    for a1, a2, b in p.rows:
        nn = a1 * a1 + a2 * a2
        if nn == 0:
            continue
        # c.(point(s)) <= bc  <=>  s*cross(a, c) <= bc*|a|^2 - b*dot(a, c)
        _, _, s = bound_1d(
            (a1 * c2 - a2 * c1, bc * nn - b * (a1 * c1 + a2 * c2)) for c1, c2, bc in p.rows
        )
        if s is not None:
            found.add(((a1 * b - s * a2) / nn, (a2 * b + s * a1) / nn))
    return sorted(found)


def _collinear_profile(p: HPoly) -> Tuple[IVec, Optional[Rat], Optional[Rat]]:
    """Bounds of a polyhedron whose nontrivial normals are all collinear.

    Returns (n, lo, hi) with the point set equal to {lo <= n.x <= hi}
    for the canonically signed primitive normal n.
    """
    a = next((a1, a2) for a1, a2, _ in p.rows if a1 != 0 or a2 != 0)
    n = _norm_line_dir(primitive(a))
    i = 0 if n[0] != 0 else 1
    _, lo, hi = bound_1d((r[i] // n[i], r.b) for r in p.rows)
    return n, lo, hi


def _anchor_on(n: IVec, c: Rat) -> Point:
    # canonical point on the line n.x = c
    if n[1] != 0:
        return (Fraction(0), Fraction(c) / n[1])
    return (Fraction(c) / n[0], Fraction(0))


def decompose(p: HPoly) -> MWDecomp:
    """Minkowski-Weyl decomposition with a canonical vertex list.

    Pointed cones (Zero/Ray/Pointed2): the vertex list is every feasible
    intersection of two non-parallel constraint boundaries, found as the
    upper ends of the boundary lines clipped by the rows; it covers all
    true vertices.  Cones with lineality have no vertices; the list holds
    one canonical anchor per finite bound of the (collinear) constraint
    profile so the sum still reproduces p exactly.
    """
    if is_empty(p):
        raise EmptyPolyhedronError("decomposition of an empty polyhedron")
    cone = _classify_cone(p)
    if isinstance(cone, (Zero, Ray, Pointed2)):
        verts = _vertices(p)
    elif isinstance(cone, Plane):
        verts = [(Fraction(0), Fraction(0))]
    else:
        n, lo, hi = _collinear_profile(p)
        anchors = []
        if lo is not None:
            anchors.append(_anchor_on(n, lo))
        if hi is not None and hi != lo:
            anchors.append(_anchor_on(n, hi))
        verts = sorted(anchors)
    assert verts, "nonempty pointed polyhedron must expose a vertex"
    bound = max(max(abs(x), abs(y)) for x, y in verts)
    return MWDecomp(tuple(verts), cone, bound)
