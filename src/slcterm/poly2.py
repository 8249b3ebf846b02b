"""Exact geometry of 2D rational polyhedra in constraint form.

A polyhedron is a finite conjunction of rows a1*x1 + a2*x2 <= b with
integer coefficients.  Everything here is exact, and the recession cone
is classified into one of six shapes (zero, ray, line, half-plane,
pointed wedge, plane) with primitive integer generators.  `decompose`
returns a Minkowski-Weyl pair (vertex list, cone) such that the
polyhedron equals conv(vertices) + cone as a set of real points.  It
works in integers, each vertex a meet (x, y, det) of two rows; pairs of
`fractions.Fraction` are built only for reports, by `MWDecomp.vertices`.
It reads everything off one canonical edge list, built in O(k log k) for
k rows: the tightest row of each primitive normal, sorted by angle, then
cut to the rows that touch the polygon by a half-plane intersection over
two lists, rows and meets, with every test inlined as integer products;
it raises `EmptyPolyhedronError` where that finds p empty.  The integers
`x_lo`, `x_hi` and `bound` come on demand from `MWDecomp.extent()`.
`x_extent` projects p onto x1 by one integer variable elimination, O(k^2)
but cheaper than the edge list on a few rows, so it runs only up to
`_FM_ROWS` rows: `is_empty` is its None test, which `analyzer.decide`
runs, and `lattice.integer_point_2d` reads its first column off it.
`lattice.integer_slice` gives integer one-variable bounds.  `fractions`
loads only for reports and replay, in `vertices` and `contains`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import gcd


class EmptyPolyhedronError(ValueError):
    """Operation requires a nonempty polyhedron."""


# one row: a1*x1 + a2*x2 <= b
Constraint = namedtuple("Constraint", "a1 a2 b")


_setattr = object.__setattr__


class Record:
    """Base of the frozen value classes, built like frozen dataclasses: a
    class declares its fields in `__slots__`, and trailing defaults by the
    class keyword `defaults`, e.g. `class V(Record, defaults=(None,))`.

    Each class with slots gets an `__init__` taking its slots in order, as
    positional or keyword arguments, generated once by `exec` as
    `dataclasses` does: one `_setattr` per field, then `__post_init__()`
    if the class has one, for checks.  `==` holds between instances of one
    class whose `_fields` are equal, `hash` agrees with it, and `repr`
    reads `Name(field=value, ...)`.  `_fields` is the slots unless a class
    names fewer, as `analyzer.Verdict` does.  Assignment and deletion raise
    `AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, defaults: tuple = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        if "_fields" not in vars(cls):
            cls._fields = slots
        if slots:
            # defined in a class of the same name, so that its __qualname__
            # and argument errors read `Name.__init__` as a hand-written one's
            body = "".join(f"\n  _setattr(self, {f!r}, {f})" for f in slots)
            if hasattr(cls, "__post_init__"):
                body += "\n  self.__post_init__()"
            ns = {"_setattr": _setattr, "__name__": cls.__module__}
            exec(f"class {cls.__name__}:\n def __init__(self, {', '.join(slots)}):{body}", ns)
            cls.__init__ = vars(ns[cls.__name__])["__init__"]
            cls.__init__.__defaults__ = defaults

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle hand back (None, {slot: value})
        for f, value in state[1].items():
            _setattr(self, f, value)


class HPoly(Record):
    """Conjunction of integer constraint rows."""

    __slots__ = ("rows",)


def hpoly(rows: Sequence[Sequence[int]]) -> HPoly:
    """Build an HPoly from (a1, a2, b) integer triples."""
    out = []
    for a1, a2, b in rows:
        try:
            row = Constraint(int(a1), int(a2), int(b))
        except (TypeError, ValueError, OverflowError):  # None, "x", inf, nan
            row = None
        if row != (a1, a2, b):
            raise ValueError("constraint coefficients must be integers")
        out.append(row)
    return HPoly(tuple(out))


# ---------------------------------------------------------------------------
# cone classes
# ---------------------------------------------------------------------------


class ConeClass(Record):
    """Marker base for recession-cone shapes; `kind` names the shape in reports."""

    __slots__ = ()
    kind: str

    def generators(self) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError


class Zero(ConeClass):
    __slots__ = ()
    kind = "zero"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return ()


class Ray(ConeClass):
    __slots__ = ("v",)
    kind = "ray"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return (self.v,)


class Line(ConeClass):
    # Normalized: v[0] >= 0, and if v[0] == 0 then v == (0, 1).
    __slots__ = ("v",)
    kind = "line"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return (self.v, (-self.v[0], -self.v[1]))


class HalfPlane(ConeClass):
    __slots__ = ("boundary", "interior_witness")
    kind = "half-plane"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return (self.boundary, (-self.boundary[0], -self.boundary[1]), self.interior_witness)


class Pointed2(ConeClass):
    # Non-collinear, neither the negation of the other; emitted with
    # cross(v1, v2) > 0 but membership accepts either order.
    __slots__ = ("v1", "v2")
    kind = "wedge"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return (self.v1, self.v2)


class Plane(ConeClass):
    __slots__ = ()
    kind = "plane"

    def generators(self) -> tuple[tuple[int, int], ...]:
        return ((1, 0), (0, 1), (-1, -1))


class MWDecomp(Record):
    """Minkowski-Weyl pair: p = conv(vertices) + cone.

    `meets` are the vertices, unreduced and maybe repeated, each a triple
    (x, y, det) with det > 0: the point (x/det, y/det).  `==`, `hash` and
    `repr` read them and the cone.  `extent()` gives x_lo = ceil(min x),
    x_hi = floor(max x) and bound = ceil(vertex_bound) anew on each call.
    `vertices` (reduced, distinct, sorted) and `vertex_bound` (max
    |coordinate|) are the `fractions` view for reports, built on each access.
    """

    __slots__ = ("meets", "cone")

    def extent(self) -> tuple[int, int, int]:
        """(x_lo, x_hi, bound), one pass: ceil and floor are monotone, so x_lo is the
        least ceil(x/det), x_hi the greatest floor(x/det), and bound the greatest
        ceil(|x|/det) or ceil(|y|/det)."""
        x, _, d = self.meets[0]
        x_lo, x_hi, bound = -(-x // d), x // d, 0
        for x, y, d in self.meets:
            lo, hi, c = -(-x // d), x // d, -(-(y if y >= 0 else -y) // d)
            x_lo, x_hi = lo if lo < x_lo else x_lo, hi if hi > x_hi else x_hi
            cx = lo if x >= 0 else -hi
            c = cx if cx > c else c
            bound = c if c > bound else bound
        return x_lo, x_hi, bound

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        from fractions import Fraction
        return tuple(sorted({(Fraction(x, det), Fraction(y, det)) for x, y, det in self.meets}))

    @property
    def vertex_bound(self) -> Fraction:
        return max(abs(c) for v in self.vertices for c in v)


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------


def primitive(v: Sequence[int]) -> tuple[int, int]:
    """Unique primitive integer vector on the ray through integer v (v != 0)."""
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _norm_line_dir(v: tuple[int, int]) -> tuple[int, int]:
    # first component >= 0; vertical directions normalize to (0, 1)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


# ---------------------------------------------------------------------------
# emptiness and the x1-range by elimination
# ---------------------------------------------------------------------------


# `x_extent` runs on at most this many rows, where its O(k^2) pairs beat
# `decompose`, for two readers: `analyzer.decide`'s emptiness test (the
# benchmark's EMPTY loops, `mix`, have at most 6 rows, its `rows` polygons
# 8 or more) and `lattice.integer_point_2d`'s first column (p & I+ is the
# loop plus 2 rows)
_FM_ROWS = 7


def x_extent(p: HPoly) -> tuple[int, int, int, int] | None:
    """The real x1-range of p as (lo_num, lo_den, hi_num, hi_den), or None
    when p has no real point.  Fourier-Motzkin: a row with a2 = 0 bounds
    x1 alone, and each lower row l and upper row u give (-l2)*u + u2*l.
    A bound c*x1 <= d is the pair (d, c), compared by cross-multiplying;
    an open side is (1, 0) above or (-1, 0) below, which every bound
    beats.  O(k^2) time and O(k) memory for k rows."""
    uppers, lowers = [], []
    ln, ld, hn, hd = -1, 0, 1, 0
    for row in p.rows:
        a1, a2, b = row
        if a2 > 0:
            uppers.append(row)
        elif a2 < 0:
            lowers.append(row)
        elif a1 > 0:
            if b * hd < hn * a1:
                hn, hd = b, a1
        elif a1 < 0:
            if b * ld < ln * a1:
                ln, ld = -b, -a1
        elif b < 0:
            return None
    for l1, l2, lb in lowers:
        for u1, u2, ub in uppers:
            c = u2 * l1 - l2 * u1
            d = u2 * lb - l2 * ub
            if c > 0:
                if d * hd < hn * c:
                    hn, hd = d, c
            elif c < 0:
                if d * ld < ln * c:
                    ln, ld = -d, -c
            elif d < 0:
                return None
    return None if ln * hd > hn * ld else (ln, ld, hn, hd)


def is_empty(p: HPoly) -> bool:
    """True iff p has no real point, decided in integers by `x_extent`."""
    return x_extent(p) is None


def contains(p: HPoly, pt: Sequence[int | Fraction]) -> bool:
    """Exact membership of a rational point."""
    from fractions import Fraction
    x, y = Fraction(pt[0]), Fraction(pt[1])
    return all(a1 * x + a2 * y <= b for a1, a2, b in p.rows)


def intersect(p: HPoly, q: HPoly) -> HPoly:
    return HPoly(p.rows + q.rows)


# ---------------------------------------------------------------------------
# the canonical edge list: recession cone and decomposition
# ---------------------------------------------------------------------------

_AXES: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _edges(p: HPoly) -> list:
    """The canonical edge list: the tightest row (least b/s, s = |a1| + |a2|)
    of each normal direction, in angle order.  A zero row with b < 0 raises.

    The angle key is the pseudo-angle (s - a1)/s in the upper half-turn or
    (3s + a1)/s in the lower one, times 2^k and floored: parallel rows
    share it, and distinct pseudo-angles differ by at least 1/(s*s') > 2^-k
    for k = 2 * bits(max s), so never tie (a float key would tie normals of
    10^17).  A first pass finds the numerators and the largest s.
    """
    top = 0
    angles = []  # (numerator, s, b, row)
    for r in p.rows:
        a1, a2, b = r
        s = (a1 if a1 >= 0 else -a1) + (a2 if a2 >= 0 else -a2)
        if s == 0:
            if b < 0:
                raise EmptyPolyhedronError("decomposition of an empty polyhedron")
            continue
        angles.append((3 * s + a1 if a2 < 0 or (a2 == 0 and a1 < 0) else s - a1, s, b, r))
        if s > top:
            top = s
    k = 2 * top.bit_length()
    best: dict = {}  # key -> (s, b, row)
    for num, s, b, r in angles:
        key = (num << k) // s
        kept = best.get(key)
        if kept is None or b * kept[0] < kept[1] * s:
            best[key] = (s, b, r)
    return [best[key][2] for key in sorted(best)]


def _cone(es: list) -> ConeClass:
    # {v : a.v <= 0 for each edge}: the widest angular gap between
    # consecutive normals gives the shape, and its two ends the generators
    if not es:
        return Plane()
    if len(es) == 1:
        n = primitive(es[0])
        return HalfPlane(_norm_line_dir((-n[1], n[0])), next(w for w in _AXES if dot(n, w) < 0))
    for u, v in zip(es, es[1:] + es[:1]):
        c = u[0] * v[1] - u[1] * v[0]
        if c <= 0:
            (u1, u2), (v1, v2) = primitive(u), primitive(v)
            if c < 0:  # the normals span less than a half-turn, from v to u
                return Pointed2((-u2, u1), (v2, -v1))
            # v = -u: alone, a line; else the others lie beyond u's line
            return Line(_norm_line_dir((-u2, u1))) if len(es) == 2 else Ray((-u2, u1))
    return Zero()


def _polygon(es: list, cone: ConeClass) -> list[tuple[int, int, int]]:
    """The vertices of a pointed polyhedron from its edges, as meets.

    A half-plane intersection keeps the rows that touch in `hs[f:]`, a deque
    as a list and a front index; `vs[i]` is the meet of `hs[i - 1]` and
    `hs[i]`, whose det is their cross product.  A meet (x, y, det) lies
    strictly outside h when h1*x + h2*y > hb*det.  A bounded polygon (Zero
    cone) closes up; an unbounded one is an open chain of rows, from the end
    of the widest gap between normals to its start, so nothing wraps round.
    """
    closed = isinstance(cone, Zero)
    if not closed:
        i = next(i for i in range(len(es)) if cross(es[i - 1], es[i]) <= 0)
        es = es[i:] + es[:i]
    hs, vs, f = [es[0]], [None], 0
    for h in es[1:]:
        h1, h2, hb = h
        while len(hs) - f > 1 and h1 * (v := vs[-1])[0] + h2 * v[1] > hb * v[2]:
            del hs[-1], vs[-1]
        while len(hs) - f > 1 and h1 * (v := vs[f + 1])[0] + h2 * v[1] > hb * v[2]:
            f += 1
        g1, g2, gb = hs[-1]
        if (d := g1 * h2 - g2 * h1) <= 0:
            raise EmptyPolyhedronError("decomposition of an empty polyhedron")
        hs.append(h)
        vs.append((gb * h2 - g2 * hb, g1 * hb - gb * h1, d))
    if closed:  # every meet kept lies inside each later row, so only the back is cut
        h1, h2, hb = hs[f]
        while len(hs) - f > 2 and h1 * (v := vs[-1])[0] + h2 * v[1] > hb * v[2]:
            del hs[-1], vs[-1]
        g1, g2, gb = hs[-1]
        vs[f] = (gb * h2 - g2 * hb, g1 * hb - gb * h1, g1 * h2 - g2 * h1)
    return vs[f + (not closed):]


def _anchors(es: list) -> list[tuple[int, int, int]]:
    # a line or half-plane cone: one edge, or two opposite ones whose band is
    # empty when one line lies outside the other; each line is anchored
    # where it crosses x = 0, or y = 0 when it is vertical
    meets = []
    for a1, a2, b in es:
        x, y, det = (0, b, a2) if a2 else (b, 0, a1)
        meets.append((-x, -y, -det) if det < 0 else (x, y, det))
    (h1, h2, hb), (x, y, det) = es[-1], meets[0]
    if len(es) == 2 and h1 * x + h2 * y > hb * det:
        raise EmptyPolyhedronError("decomposition of an empty polyhedron")
    return meets


def decompose(p: HPoly) -> MWDecomp:
    """Minkowski-Weyl decomposition with a canonical vertex list.

    Read off the canonical edge list (`_edges`, O(k log k)): the cone from
    its angular gaps; for pointed cones (Zero/Ray/Pointed2), emptiness and
    the true vertices from `_polygon`'s half-plane intersection, O(k).
    Cones with lineality have no vertices: the list holds one canonical
    anchor per finite bound of the edges.  Raises `EmptyPolyhedronError` if
    p is empty.
    """
    es = _edges(p)
    cone = _cone(es)
    if isinstance(cone, Plane):
        meets = [(0, 0, 1)]
    elif isinstance(cone, (Line, HalfPlane)):
        meets = _anchors(es)
    else:
        meets = _polygon(es, cone)
    assert meets, "nonempty pointed polyhedron must expose a vertex"
    return MWDecomp(tuple(meets), cone)
