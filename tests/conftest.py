"""Shared instances and corpus generators.

Loops are named by behavior: the slab family tracks x' ~ 4x/3 at
varying column thickness, inc is x' = x + 1, quad is a small polytope
with a fixed point, pair swaps 0 and 1.
"""

import math
import random
from fractions import Fraction

from slcterm.lattice import DEFAULT_SCAN_LIMIT, integer_point_2d
from slcterm.poly2 import (
    HalfPlane,
    Line,
    Plane,
    Pointed2,
    Ray,
    Zero,
    contains,
    cross,
    dot,
    hpoly,
    intersect,
)

SEED = 20260814


def slab_loop():
    # 4x - 2 <= 3x' <= 4x - 1, x >= 3; two thirds per column
    return hpoly([(4, -3, 2), (-4, 3, -1), (-1, 0, -3)])


def thin_loop():
    # 3x' = 4x - 1, x >= 3; single-point columns
    return hpoly([(4, -3, 1), (-4, 3, -1), (-1, 0, -3)])


def thick_loop():
    # 4x - 2 <= 3x' <= 4x, x >= 3; three thirds per column
    return hpoly([(4, -3, 2), (-4, 3, 0), (-1, 0, -3)])


def inc_loop():
    # x' = x + 1
    return hpoly([(1, -1, -1), (-1, 1, 1)])


def quad_loop():
    # bounded polytope around the origin, fixed point at 0
    return hpoly([(1, 1, 1), (-1, -1, 2), (1, -1, 3), (-1, 1, 3)])


def pair_loop():
    # x + x' = 1; 0 and 1 swap forever
    return hpoly([(1, 1, 1), (-1, -1, -1)])


def halfplane_loop():
    # x' >= x + 1 and nothing else
    return hpoly([(1, -1, -1)])


def halfint_loop():
    # x' = x + 3/2, x >= 1: real-feasible but integer-free
    return hpoly([(2, -2, -3), (-2, 2, 3), (-1, 0, -1)])


def empty_loop():
    # x <= 0 and x >= 1
    return hpoly([(1, 0, 0), (-1, 0, -1)])


def wedge_loop(k):
    # (k+1)x/k <= x' <= kx/(k-1), x >= 1: columns hold an integer only
    # from about x = k*k on, so a growth trace from the region point may
    # stall before that, and restarts at the threshold column
    return hpoly([(k + 1, -k, 0), (-k, k - 1, 0), (-1, 0, -1)])


def slope2_wedge(k):
    # (2k+1)x/k <= x' <= (2k-1)x/(k-1), x >= 1: inside I+ from column 1 on,
    # but its columns hold an integer only from column k - 1 on
    return hpoly([(2 * k + 1, -k, 0), (-(2 * k - 1), k - 1, 0), (-1, 0, -1)])


def line_strips(n, seed):
    """n loops c1 <= c*x - a*x' <= c2 with 0 < a < |c| and c < 0: bands
    along the line direction (a, c) whose columns hold c2 - c1 + 1
    points of (1/a)Z, so about half of them grow outward (L5.4.1)."""
    rng = random.Random(seed)
    strips = []
    for _ in range(n):
        a = rng.randint(1, 8)
        c = -rng.randint(a + 1, 30)
        c1 = rng.randint(-300, 300)
        strips.append(hpoly([(c, -a, c1 + rng.randint(0, 2 * a)), (-c, a, -c1)]))
    return strips


def translated(p, c):
    """p with every state moved by -c: row b becomes b - (a1 + a2)*c."""
    return hpoly([(a1, a2, b - (a1 + a2) * c) for a1, a2, b in p.rows])


def scaled(p, s):
    """p with every row multiplied by s > 0: the same point set."""
    return hpoly([(s * a1, s * a2, s * b) for a1, a2, b in p.rows])


def tangent_polygon(rng, k, r=5):
    """k rows around a disk of radius r at a random centre.  About four
    fifths are tangents with normals spread round the circle, so the
    polygon is bounded; the rest repeat a tangent, scaled, or loosen it."""
    cx, cy = rng.randint(-20, 20), rng.randint(-20, 20)
    tangents = max(8, k - k // 5)
    rows = []
    for j in range(tangents):
        theta = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / tangents
        size = rng.randint(4, 24)
        n1, n2 = round(size * math.cos(theta)), round(size * math.sin(theta))
        rows.append((n1, n2, n1 * cx + n2 * cy + math.isqrt(r * r * (n1 * n1 + n2 * n2) - 1) + 1))
    while len(rows) < k:
        n1, n2, b = rng.choice(rows[:tangents])
        s = rng.randint(1, 3)
        rows.append((s * n1, s * n2, s * b) if rng.random() < 0.5 else (n1, n2, b + rng.randint(1, 40)))
    rng.shuffle(rows)
    return hpoly(rows)


def large_loop(rng, family):
    """A loop of 8 to 199 rows (log-uniform) for checking emptiness tests
    against each other.  Family 0 is random rows, family 1 rows through a
    common rational point with small offsets, now and then a negative one
    (near-degenerate), family 2 a tangent polygon cut by one row.  Each is
    empty in about a third to two thirds of cases.  Coefficients reach
    10^6."""
    k = int(8 * 25 ** rng.random())
    c = rng.choice((3, 100, 10**6))
    if family == 0:
        # b reaches k/4 times c, so a few rows exclude the origin
        return hpoly([(rng.randint(-c, c), rng.randint(-c, c), rng.randint(-c, k // 4 * c))
                      for _ in range(k)])
    if family == 1:
        q, px, py = rng.randint(1, 7), rng.randint(-c, c), rng.randint(-c, c)
        rows = []
        for _ in range(k):
            a1, a2 = rng.randint(-c, c), rng.randint(-c, c)
            off = rng.randint(-2, -1) if rng.random() < 0.7 / k else rng.randint(0, 2)
            rows.append((q * a1, q * a2, a1 * px + a2 * py + off))
        return hpoly(rows)
    p = tangent_polygon(rng, k - 1)
    a1, a2 = rng.randint(-c, c), rng.randint(-c, c)
    a1 = a1 or 1
    rows = list(p.rows) + [(a1, a2, rng.randint(-30, 30) * (abs(a1) + abs(a2)))]
    rng.shuffle(rows)
    return hpoly(rows)


def reflected(p):
    """p with every state negated."""
    return hpoly([(-a1, -a2, b) for a1, a2, b in p.rows])


def swap(p):
    """p with the roles of x and x' exchanged in every row: the reference
    for `analyzer.cycle2`, whose pairs are the points of p and swap(p)."""
    return hpoly([(a2, a1, b) for a1, a2, b in p.rows])


def random_slc(rng, max_rows=6, coeff=7):
    k = rng.randint(1, max_rows)
    return hpoly(
        [
            (rng.randint(-coeff, coeff), rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
            for _ in range(k)
        ]
    )


def slc_corpus(n=1000, seed=SEED, max_rows=6, coeff=7):
    rng = random.Random(seed)
    return [random_slc(rng, max_rows, coeff) for _ in range(n)]


def bounded_corpus(n=500, seed=SEED + 1, coeff=9):
    """Random polyhedra that are certainly bounded: a random box plus a
    few random rows.  Vertices stay well inside [-1000, 1000]."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        c = [rng.randint(0, 15) for _ in range(4)]
        rows = [(1, 0, c[0]), (-1, 0, c[1]), (0, 1, c[2]), (0, -1, c[3])]
        for _ in range(rng.randint(0, 4)):
            rows.append((rng.randint(-coeff, coeff), rng.randint(-coeff, coeff), rng.randint(-coeff, coeff)))
        rng.shuffle(rows)
        out.append(hpoly(rows))
    return out


def column_span(p, x, lo, hi):
    """Integer y-range of the column at x, clipped to [lo, hi] (either
    may be infinite), using only integer arithmetic on the rows.  Returns
    None when empty."""
    ylo, yhi = lo, hi
    for a1, a2, b in p.rows:
        c = b - a1 * x
        if a2 > 0:
            yhi = min(yhi, c // a2)
        elif a2 < 0:
            ylo = max(ylo, -(c // (-a2)))
        elif c < 0:
            return None
    if ylo > yhi:
        return None
    return (ylo, yhi)


def box_integer_point(p, lo=-1000, hi=1000):
    """First integer point of p in [lo, hi]^2 by exhaustive column
    sweep, or None.  Independent of the library's search."""
    for x in range(lo, hi + 1):
        span = column_span(p, x, lo, hi)
        if span is not None:
            return (x, span[0])
    return None


def pairwise_vertices(p):
    """Every feasible intersection of two non-parallel row boundaries,
    sorted: the O(k^3) reference for `decompose`'s vertex list."""
    rows = p.rows
    found = set()
    for i in range(len(rows)):
        a1, a2, b1 = rows[i]
        for j in range(i + 1, len(rows)):
            c1, c2, b2 = rows[j]
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = Fraction(b1 * c2 - a2 * b2, det)
            y = Fraction(a1 * b2 - b1 * c1, det)
            if contains(p, (x, y)):
                found.add((x, y))
    return sorted(found)


def growth_successor(p, s, mode):
    """The next state of a growth trace from s, read off `column_span`:
    ascend takes the least y > s, descend the greatest y < s, outward the
    y of least |y| > |s|, the nonnegative one on a tie.  None if there is
    none.  The reference for `analyzer`'s successor rule."""
    t = abs(s) + 1
    if mode == "ascend":
        span = column_span(p, s, s + 1, math.inf)
        return None if span is None else span[0]
    if mode == "descend":
        span = column_span(p, s, -math.inf, s - 1)
        return None if span is None else span[1]
    up = column_span(p, s, t, math.inf)
    down = column_span(p, s, -math.inf, -t)
    if up is None:
        return None if down is None else down[1]
    if down is None:
        return up[0]
    return up[0] if up[0] <= -down[1] else down[1]


# the growth regions, tightened to integers: 0 < x < x' and x' < x < 0
I_PLUS_ROWS = ((-1, 0, -1), (1, -1, -1))
I_MINUS_ROWS = ((1, 0, -1), (-1, 1, -1))


def greedy_run(p, mode, s, length):
    """The growth trace from state s by `growth_successor`, up to `length`
    states; shorter where it stalls."""
    trace = [s]
    while len(trace) < length:
        nxt = growth_successor(p, trace[-1], mode)
        if nxt is None:
            break
        trace.append(nxt)
    return trace


def restarting_growth_states(p, mode, length, scan_limit=DEFAULT_SCAN_LIMIT):
    """A growth witness by the restart loop: each seed is a fresh
    `integer_point_2d` query on p cut to the growth region from column t
    on, and each stall moves t past the last state.  The reference for
    `witness_trace`'s growth modes wherever the first run reaches its
    length."""
    t = 1
    for _ in range(10_000):
        if mode == "ascend":
            extra = I_PLUS_ROWS + ((-1, 0, -t),)
        elif mode == "descend":
            extra = I_MINUS_ROWS + ((1, 0, -t),)
        else:
            extra = ((-1, 0, -t),)
        seed = integer_point_2d(intersect(p, hpoly(extra)), scan_limit)
        assert seed is not None, "growth seed query came back empty"
        trace = greedy_run(p, mode, seed[0], length)
        if len(trace) >= length:
            return trace
        t = max(t + 1, abs(trace[-1]) + 1)
    raise AssertionError("growth trace failed to stabilize")


def cone_contains(c, v):
    """Exact membership of an integer vector in the cone's point set: the
    reference for the cone shapes `poly2.decompose` reports."""
    vx, vy = v
    if isinstance(c, Plane):
        return True
    if isinstance(c, Zero):
        return vx == 0 and vy == 0
    if vx == 0 and vy == 0:
        return True
    if isinstance(c, Ray):
        return cross(c.v, v) == 0 and dot(c.v, v) > 0
    if isinstance(c, Line):
        return cross(c.v, v) == 0
    if isinstance(c, HalfPlane):  # v on the witness's side of the boundary
        return cross(c.boundary, v) * cross(c.boundary, c.interior_witness) >= 0
    assert isinstance(c, Pointed2)
    det = cross(c.v1, c.v2)
    # v = alpha*v1 + beta*v2 with alpha, beta >= 0: signs of the numerators times det
    return cross(v, c.v2) * det >= 0 and cross(c.v1, v) * det >= 0


def halfplane_normal(c):
    """The normal n with the half-plane cone equal to {v : n.v <= 0}."""
    d = c.boundary
    n = (-d[1], d[0])
    if dot(n, c.interior_witness) > 0:
        n = (d[1], -d[0])
    return n


def _strictly_between(lo, hi, g):
    return cross(lo, g) > 0 and cross(g, hi) > 0


def meets_open_arc(c, lo, hi):
    """Does the cone meet the open arc of directions from lo to hi?  One
    rule per cone class: the reference for `analyzer.cone_regions`."""
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
