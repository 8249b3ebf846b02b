"""Exact 2D polyhedron layer: predicates, cones, decomposition."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slcterm.poly2 import (
    EmptyPolyhedronError,
    HalfPlane,
    Line,
    Plane,
    Pointed2,
    Ray,
    Zero,
    contains,
    cross,
    decompose,
    dot,
    hpoly,
    is_empty,
    primitive,
    x_extent,
)
from conftest import (
    SEED,
    bounded_corpus,
    cone_contains,
    halfint_loop,
    halfplane_loop,
    halfplane_normal,
    inc_loop,
    large_loop,
    pair_loop,
    pairwise_vertices,
    quad_loop,
    random_slc,
    scaled,
    slab_loop,
    slc_corpus,
    swap,
    tangent_polygon,
    thick_loop,
    thin_loop,
    translated,
)

F = Fraction

rows_strategy = st.lists(
    st.tuples(
        st.integers(-7, 7), st.integers(-7, 7), st.integers(-7, 7)
    ),
    min_size=1,
    max_size=6,
)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_hpoly_rejects_non_integer_rows():
    for bad in (1.5, float("inf"), float("nan"), None, "1"):
        with pytest.raises(ValueError, match="constraint coefficients must be integers"):
            hpoly([(1, 0, 1), (0, bad, 1)])
    assert hpoly([(1.0, 0, True)]).rows == ((1, 0, 1),)


def test_primitive():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((-3, 0)) == (-1, 0)
    with pytest.raises(ZeroDivisionError):
        primitive((0, 0))


def test_cross_dot():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((2, 3), (4, 6)) == 0
    assert dot((2, 3), (4, -1)) == 5


# The elimination as it was before `poly2.x_extent` ran in integers: the
# Fourier-Motzkin pairs streamed through one rational bound routine.  It is
# the reference for `is_empty` and `x_extent`.


def bound_1d(pairs):
    # {t : c*t <= d for every (c, d)} as (empty, lo, hi), None for an open side
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


def as_fractions(bounds):
    # x_extent's (lo_num, lo_den, hi_num, hi_den) or None as the reference's
    # (empty, lo, hi), with None for an open side
    if bounds is None:
        return True, None, None
    ln, ld, hn, hd = bounds
    return False, F(ln, ld) if ld else None, F(hn, hd) if hd else None


def x_extent_ref(p):
    uppers = [r for r in p.rows if r.a2 > 0]
    lowers = [r for r in p.rows if r.a2 < 0]
    return bound_1d(chain(
        ((a1, b) for a1, a2, b in p.rows if a2 == 0),
        ((u2 * l1 - l2 * u1, u2 * lb - l2 * ub) for l1, l2, lb in lowers for u1, u2, ub in uppers),
    ))


_coeff = st.one_of(st.integers(-4, 4), st.integers(-(10**20), 10**20))


@st.composite
def elimination_rows(draw):
    """0-8 rows: random ones, zero rows, rows with a2 = 0, and copies of
    earlier rows: duplicate, scaled, parallel and opposite."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("row", "zero", "a2=0", "duplicate", "scaled", "parallel", "opposite")))
        if kind == "zero":
            rows.append((0, 0, draw(_coeff)))
        elif kind == "a2=0":
            rows.append((draw(_coeff), 0, draw(_coeff)))
        elif kind == "row" or not rows:
            rows.append((draw(_coeff), draw(_coeff), draw(_coeff)))
        else:
            a1, a2, b = draw(st.sampled_from(rows))
            if kind == "duplicate":
                rows.append((a1, a2, b))
            elif kind == "scaled":
                s = draw(st.integers(2, 10**6))
                rows.append((s * a1, s * a2, s * b))
            elif kind == "parallel":
                rows.append((a1, a2, draw(_coeff)))
            else:
                rows.append((-a1, -a2, draw(_coeff)))
    return rows


@settings(max_examples=600, deadline=None)
@given(elimination_rows())
@example([])
@example([(0, 0, -1)])
@example([(2, -2, -3), (-2, 2, 3), (-1, 0, -1)])  # halfint
@example([(10**20, 3, 10**20), (-(10**20), -3, 1 - 10**20)])  # steep thin strip
def test_elimination_matches_the_fraction_reference(rows):
    p = hpoly(rows)
    want = x_extent_ref(p)
    assert as_fractions(x_extent(p)) == want
    assert is_empty(p) == want[0]


def test_elimination_matches_the_fraction_reference_on_the_corpora():
    rng = random.Random(SEED + 9)
    loops = slc_corpus(2000) + bounded_corpus(200) + [large_loop(rng, i % 3) for i in range(300)]
    for p in loops + [build() for build in (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop,
                                            pair_loop, halfplane_loop, halfint_loop)]:
        want = x_extent_ref(p)
        assert as_fractions(x_extent(p)) == want and is_empty(p) == want[0], p.rows


def test_bound_1d():
    # the reference routine itself
    assert bound_1d([]) == (False, None, None)
    assert bound_1d([(2, 3), (-3, 1), (0, 0)]) == (False, F(-1, 3), F(3, 2))
    assert bound_1d([(4, 2), (2, 1), (-6, -3)]) == (False, F(1, 2), F(1, 2))
    assert bound_1d([(1, 0), (-1, -1)]) == (True, None, None)  # t <= 0, t >= 1
    assert bound_1d([(0, -1), (1, 5)]) == (True, None, None)  # 0 <= -1
    assert bound_1d([(3, F(1, 2))]) == (False, None, F(1, 6))


def test_x_extent():
    empty, lo, hi = as_fractions(x_extent(slab_loop()))
    assert not empty and lo == 3 and hi is None
    empty, lo, hi = as_fractions(x_extent(quad_loop()))
    assert not empty and lo == F(-5, 2) and hi == 2
    assert x_extent(hpoly([(1, 0, 0), (-1, 0, -1)])) is None  # x <= 0 and x >= 1


def test_contains_and_swap():
    p = slab_loop()
    assert contains(p, (3, F(10, 3)))
    assert contains(p, (4, 5))
    assert not contains(p, (3, 4))
    assert swap(swap(p)) == p
    assert contains(swap(p), (F(10, 3), 3))


def test_x_extent_memory_stays_linear_in_rows():
    # 1,024 rows make about 250,000 elimination pairs; none is kept.  Kept,
    # they peak near 27 MiB; at 512 rows they would stay under the bound
    p = tangent_polygon(random.Random(SEED), 1024)
    tracemalloc.start()
    try:
        empty, lo, hi = as_fractions(x_extent(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not empty and lo < hi
    assert peak < 8 * 2**20


def test_is_empty_degenerate_rows():
    assert is_empty(hpoly([(0, 0, -1)]))
    assert not is_empty(hpoly([(0, 0, 0)]))
    assert not is_empty(hpoly([]))  # whole plane


# ---------------------------------------------------------------------------
# recession cones
# ---------------------------------------------------------------------------


def test_cone_golden_shapes():
    assert decompose(slab_loop()).cone == Ray((3, 4))
    assert decompose(inc_loop()).cone == Line((1, 1))
    assert decompose(quad_loop()).cone == Zero()
    assert decompose(pair_loop()).cone == Line((1, -1))
    assert decompose(hpoly([])).cone == Plane()
    c = decompose(halfplane_loop()).cone
    assert c == HalfPlane((1, 1), (0, 1))
    assert halfplane_normal(c) == (1, -1)
    # first quadrant wedge, CCW order
    q = decompose(hpoly([(-1, 0, 0), (0, -1, 0)])).cone
    assert q == Pointed2((1, 0), (0, 1))
    assert cross(q.v1, q.v2) > 0


def test_cone_vertical_normalization():
    # x fixed, x' free: lineality is the vertical line, emitted as (0, 1)
    assert decompose(hpoly([(2, 0, 1), (-2, 0, -1)])).cone == Line((0, 1))
    # x >= 3, x' >= 5 pins a vertical ray only when x is held
    assert decompose(hpoly([(1, 0, 3), (-1, 0, -3), (0, -1, -5)])).cone == Ray((0, 1))


def test_recession_cone_requires_nonempty():
    with pytest.raises(EmptyPolyhedronError):
        decompose(hpoly([(1, 0, 0), (-1, 0, -1)]))


def test_cone_contains():
    r = Ray((3, 4))
    assert cone_contains(r, (6, 8))
    assert not cone_contains(r, (-3, -4))
    assert not cone_contains(r, (4, 5))
    assert cone_contains(Zero(), (0, 0))
    assert not cone_contains(Zero(), (1, 0))
    w = Pointed2((1, 0), (0, 1))
    assert cone_contains(w, (2, 5))
    assert not cone_contains(w, (-1, 3))
    assert cone_contains(Plane(), (-9, 2))
    # every cone holds the zero vector
    for c in (r, Line((1, -1)), HalfPlane((1, 1), (0, 1)), w):
        assert cone_contains(c, (0, 0))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_slab():
    d = decompose(slab_loop())
    assert set(d.vertices) == {(F(3), F(10, 3)), (F(3), F(11, 3))}
    assert d.cone == Ray((3, 4))
    assert d.vertex_bound == F(11, 3)


def test_decompose_anchor_cases():
    # half-plane x' >= x + 1: anchor on the boundary line at x = 0
    d = decompose(halfplane_loop())
    assert d.vertices == ((F(0), F(1)),)
    # line x + x' = 1
    d = decompose(pair_loop())
    assert d.vertices == ((F(0), F(1)),)
    assert d.cone == Line((1, -1))
    # strip 0 <= x + x' <= 3 keeps one anchor per boundary line
    d = decompose(hpoly([(-1, -1, 0), (1, 1, 3)]))
    assert set(d.vertices) == {(F(0), F(0)), (F(0), F(3))}
    # whole plane anchors at the origin
    d = decompose(hpoly([]))
    assert d.vertices == ((F(0), F(0)),)
    assert d.cone == Plane()


def test_decompose_rejects_empty():
    with pytest.raises(EmptyPolyhedronError):
        decompose(hpoly([(0, 0, -2)]))


def _check_pointed_vertices(loops):
    # the pointed cones' vertex lists equal the pairwise reference; returns
    # how many loops were compared
    compared = 0
    for p in loops:
        if is_empty(p):
            continue
        d = decompose(p)
        if isinstance(d.cone, (Zero, Ray, Pointed2)):
            assert list(d.vertices) == pairwise_vertices(p), p.rows
            compared += 1
    return compared


@pytest.mark.parametrize("coeff", [1, 3, 9, 40])
def test_vertices_match_pairwise_reference_random(coeff):
    rng = random.Random(SEED + coeff)
    loops = [
        hpoly([tuple(rng.randint(-coeff, coeff) for _ in range(3)) for _ in range(rng.randint(0, 7))])
        for _ in range(400)
    ]
    assert _check_pointed_vertices(loops) >= 100


def test_vertices_match_pairwise_reference_degenerate():
    loops = [
        thin_loop(),
        hpoly(pair_loop().rows + ((-1, 0, 0),)),  # ray along x + x' = 1
        hpoly(pair_loop().rows + ((-1, 0, 0), (1, 0, 4))),  # segment
        hpoly([(1, 2, 3), (-1, -2, -3), (2, -1, 1), (-2, 1, -1)]),  # two equalities: a point
        hpoly([(1, 0, 2), (-1, 0, -2), (0, 1, 5), (0, -1, 1)]),  # vertical segment x = 2
        hpoly([(0, 1, 0), (0, -1, 0), (-1, 0, 0)]),  # ray along the x1-axis
        hpoly([(1, 0, 1), (0, 1, 1), (-1, -1, 0), (1, 1, 2), (0, 0, 3)]),  # three rows through (1, 1)
        hpoly([(1, 1, 0), (-1, 1, 0), (0, -1, 0), (1, -1, 0), (-1, -1, 0)]),  # only the origin
    ]
    assert _check_pointed_vertices(loops) == len(loops)


def test_vertices_match_pairwise_reference_redundant_rows():
    # polygons and random loops with scaled duplicates and loosened copies
    # of some rows, so several rows share a boundary or touch one vertex
    rng = random.Random(SEED + 41)
    bases = bounded_corpus(n=150, seed=SEED + 43) + [random_slc(rng) for _ in range(300)]
    loops = []
    for p in bases:
        rows = list(p.rows)
        for a1, a2, b in rng.sample(rows, min(3, len(rows))):
            m = rng.randint(2, 5)
            rows += [(m * a1, m * a2, m * b), (a1, a2, b + rng.randint(0, 3))]
        rng.shuffle(rows)
        loops.append(hpoly(rows))
    assert _check_pointed_vertices(loops) >= 250


@pytest.mark.parametrize("k", [64, 128])
def test_vertices_match_pairwise_reference_tangent_polygons(k):
    # many rows, with duplicate, scaled and loosened copies of tangents
    rng = random.Random(SEED + k)
    loops = [tangent_polygon(rng, k) for _ in range(2)]
    assert _check_pointed_vertices(loops) == len(loops)
    for p in loops:
        assert decompose(p).cone == Zero()


GOLDENS = [slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop, halfplane_loop, halfint_loop]


@pytest.mark.parametrize("build", GOLDENS)
def test_goldens_scaled_and_translated_far(build):
    # rows scaled by 10^30 keep the point set; a shift by 2^64 moves the
    # vertices with it.  Checked against the pairwise reference as well.
    base = build()
    d = decompose(base)
    c = 2**64
    for p in (scaled(base, 10**30), translated(base, c), translated(scaled(base, 10**30), -c)):
        assert decompose(p).cone == d.cone
        assert _check_pointed_vertices([p]) == isinstance(d.cone, (Zero, Ray, Pointed2))
        assert all(contains(p, w) for w in decompose(p).vertices)
    scaled_d = decompose(scaled(base, 10**30))
    assert (scaled_d.vertices, scaled_d.cone) == (d.vertices, d.cone)
    if isinstance(d.cone, (Zero, Ray, Pointed2)):
        assert decompose(translated(base, c)).vertices == tuple((x - c, y - c) for x, y in d.vertices)


@pytest.mark.parametrize("n", [10**15, 10**17, 10**30])
def test_near_parallel_normals(n):
    # the normals (n, n+1), (n+1, n+2), (n+2, n+3) are a hair apart: a
    # float angle key would tie or swap them, in either row order
    u, v, w = (n, n + 1), (n + 1, n + 2), (n + 2, n + 3)
    big = 10**6 * n
    box = [(1, 0, big), (-1, 0, big), (0, 1, big), (0, -1, big)]
    for rows in (
        [(*u, 3), (*v, 5)] + box,
        [(*v, 5), (*u, 3)] + box,
        [(*w, 1), (*u, 3), (*v, 5), (-1, 0, 4)] + box,
        [(*u, 0), (*v, 0), (*w, 0)],
        [(*w, 0), (*v, 0), (*u, 0)],
        [(*u, 7), (-u[0], -u[1], -7), (*v, 0)],
    ):
        p = hpoly(rows)
        assert _check_pointed_vertices([p]) == 1, rows
    # the wedge below the three lines through the origin: its edges are
    # perpendicular to the extreme normals u and w
    assert decompose(hpoly([(*v, 0), (*u, 0), (*w, 0)])).cone == Pointed2((-u[1], u[0]), (w[1], -w[0]))
    assert decompose(hpoly([(*u, 7), (-u[0], -u[1], -7), (*v, 0)])).cone == Ray((-u[1], u[0]))


def test_vertex_order_below_float_resolution():
    # the triangle (0, 1), (2^-70, 0), (1, 0): the first two vertices are
    # closer in x than a float, or floor(2^64 x), can tell apart
    p = hpoly([(0, -1, 0), (1, 1, 1), (-(2**70), -1, -1)])
    assert decompose(p).vertices == ((F(0), F(1)), (F(1, 2**70), F(0)), (F(1), F(0)))
    assert _check_pointed_vertices([p]) == 1


def _closure_samples(rng, p, d, n):
    gens = d.cone.generators()
    for _ in range(n):
        ws = [rng.randint(0, 9) for _ in d.vertices]
        if sum(ws) == 0:
            ws[0] = 1
        tot = sum(ws)
        x = sum(F(wi, tot) * w[0] for wi, w in zip(ws, d.vertices))
        y = sum(F(wi, tot) * w[1] for wi, w in zip(ws, d.vertices))
        for g in gens:
            lam = F(rng.randint(0, 40), rng.randint(1, 7))
            x += lam * g[0]
            y += lam * g[1]
        yield (x, y)


@pytest.mark.parametrize(
    "build", [slab_loop, inc_loop, quad_loop, pair_loop, halfplane_loop, lambda: hpoly([])]
)
def test_closure_sampling(build):
    # conv(W) + cone stays inside p: 10^4 exact samples per instance
    rng = random.Random(SEED)
    p = build()
    d = decompose(p)
    for pt in _closure_samples(rng, p, d, 10_000):
        assert contains(p, pt)


def test_scan_converse_membership_and_directions():
    """Integer points found by a plain row-by-row box scan are members,
    and a grid direction survives a far step from a vertex iff the cone
    holds it (row thresholds here are tiny next to 10^6)."""
    rng = random.Random(SEED + 7)
    insts = []
    while len(insts) < 40:
        p = random_slc(rng)
        if not is_empty(p):
            insts.append(p)
    for p in insts:
        d = decompose(p)
        w = d.vertices[0]
        for x in range(-20, 21):
            for y in range(-20, 21):
                if all(r.a1 * x + r.a2 * y <= r.b for r in p.rows):
                    assert contains(p, (x, y))
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                if dx == 0 and dy == 0:
                    continue
                far = (w[0] + 10**6 * dx, w[1] + 10**6 * dy)
                assert contains(p, far) == cone_contains(d.cone, (dx, dy))


def _cones_equal(c1, c2):
    gens1, gens2 = c1.generators(), c2.generators()
    return all(cone_contains(c2, g) for g in gens1) and all(
        cone_contains(c1, g) for g in gens2
    )


def test_cone_of_intersection():
    rng = random.Random(SEED + 11)
    done = 0
    while done < 200:
        p, q = random_slc(rng, 3), random_slc(rng, 3)
        pq = hpoly(p.rows + q.rows)
        if is_empty(p) or is_empty(q) or is_empty(pq):
            continue
        done += 1
        cp, cq, cpq = decompose(p).cone, decompose(q).cone, decompose(pq).cone
        for g in cpq.generators():
            assert cone_contains(cp, g) and cone_contains(cq, g)
        for g in cp.generators():
            assert cone_contains(cpq, g) == cone_contains(cq, g)
        for g in cq.generators():
            assert cone_contains(cpq, g) == cone_contains(cp, g)


def test_swap_cone_is_swapped():
    rng = random.Random(SEED + 13)
    done = 0
    while done < 200:
        p = random_slc(rng)
        if is_empty(p):
            continue
        done += 1
        c, cs = decompose(p).cone, decompose(swap(p)).cone
        for g in c.generators():
            assert cone_contains(cs, (g[1], g[0]))
        for g in cs.generators():
            assert cone_contains(c, (g[1], g[0]))


@settings(max_examples=200, deadline=None)
@given(rows_strategy)
def test_decompose_invariants_random(rows):
    p = hpoly(rows)
    if is_empty(p):
        with pytest.raises(EmptyPolyhedronError):
            decompose(p)
        return
    d = decompose(p)
    assert d.vertices
    for w in d.vertices:
        assert contains(p, w)
        assert abs(w[0]) <= d.vertex_bound and abs(w[1]) <= d.vertex_bound
    for g in d.cone.generators():
        assert all(r.a1 * g[0] + r.a2 * g[1] <= 0 for r in p.rows)
    if isinstance(d.cone, Pointed2):
        assert cross(d.cone.v1, d.cone.v2) > 0
    if isinstance(d.cone, (Line, HalfPlane)):
        v = d.cone.v if isinstance(d.cone, Line) else d.cone.boundary
        assert v[0] > 0 or v == (0, 1)


def _decomposed(p):
    try:
        return decompose(p)
    except EmptyPolyhedronError:
        return None


def test_edge_list_emptiness_matches_elimination_on_large_loops():
    # above _FM_ROWS rows `decide` answers EMPTY from decompose's
    # edge list alone, so it must agree with x_extent's elimination
    rng = random.Random(SEED + 8)
    empties = 0
    for i in range(2100):
        p = large_loop(rng, i % 3)
        empty = is_empty(p)
        assert (_decomposed(p) is None) == empty, p.rows
        empties += empty
    assert 600 < empties < 1500


@settings(max_examples=300, deadline=None)
@given(rows_strategy, st.randoms(use_true_random=False))
@example([(0, 0, 1)], random.Random(0))  # plane
@example([(1, -1, -1)], random.Random(1))  # half-plane
@example([(1, -1, -1), (-1, 1, 1)], random.Random(2))  # line
@example([(4, -3, 2), (-4, 3, -1), (-1, 0, -3)], random.Random(3))  # ray
@example([(-1, 0, 0), (0, -1, 0)], random.Random(4))  # wedge
@example([(1, 1, 1), (-1, -1, 2), (1, -1, 3), (-1, 1, 3)], random.Random(5))  # zero
@example([(1, 0, 0), (-1, 0, -1)], random.Random(6))  # empty
def test_decompose_metamorphic(rows, rnd):
    # the same vertices and cone under row permutation, duplication,
    # positive row scaling and an added loosened copy of a row
    def geometry(p):
        d = _decomposed(p)
        return None if d is None else (d.vertices, d.cone)

    want = geometry(hpoly(rows))
    permuted = rnd.sample(rows, len(rows))
    duplicated = rows + [rnd.choice(rows) for _ in range(3)]
    scaled_rows = [(s * a1, s * a2, s * b) for (a1, a2, b), s in ((r, rnd.randint(1, 9)) for r in rows)]
    a1, a2, b = rnd.choice(rows)
    loose = (a1, a2, b + rnd.randint(1, 9))
    mixed = rnd.sample(scaled_rows + [loose], len(rows) + 1)
    for variant in (permuted, duplicated, scaled_rows, rows + [loose], mixed):
        assert geometry(hpoly(variant)) == want, variant


# ---------------------------------------------------------------------------
# the integer decomposition and its Fraction view
# ---------------------------------------------------------------------------


def _key_sorted_view(meets):
    # a reference for the view in integers: reduce by gcd, deduplicate,
    # order by floor(2^k * coordinate), exact because distinct coordinates
    # differ by at least 1/den^2 > 2^-k
    found = {}
    for x, y, det in meets:
        gx, gy = math.gcd(x, det), math.gcd(y, det)
        found[x // gx, det // gx, y // gy, det // gy] = None
    k = 2 * max(max(v[1], v[3]) for v in found).bit_length() + 1
    pts = sorted(found, key=lambda v: ((v[0] << k) // v[1], (v[2] << k) // v[3]))
    return tuple((F(xn, xd), F(yn, yd)) for xn, xd, yn, yd in pts)


def _check_integer_fields(p):
    # the integers lattice reads match the Fraction view, and the view is
    # reduced, deduplicated and in (x, y) order; returns False for empty p
    d = _decomposed(p)
    if d is None:
        return False
    assert all(det > 0 for _, _, det in d.meets)
    assert d.vertices == _key_sorted_view(d.meets), p.rows
    assert all(type(c) is F for v in d.vertices for c in v) and type(d.vertex_bound) is F
    assert d.extent() == (
        math.ceil(d.vertices[0][0]), math.floor(d.vertices[-1][0]), math.ceil(d.vertex_bound)), p.rows
    return True


def test_integer_fields_match_the_view_on_the_corpus():
    assert sum(_check_integer_fields(p) for p in slc_corpus(1000)) > 300


@pytest.mark.parametrize("build", GOLDENS)
def test_integer_fields_match_the_view_translated_far(build):
    for c in (0, 10**30, -(10**30)):
        assert _check_integer_fields(translated(build(), c))


huge = st.integers(-(2**64), 2**64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(huge, huge, huge), min_size=1, max_size=6))
def test_integer_fields_match_the_view_on_huge_rows(rows):
    _check_integer_fields(hpoly(rows))
