"""Bounded-window oracle: graph, cycle search, escape search."""

import ast
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slcterm import oracle
from slcterm.analyzer import decide, witness_trace
from slcterm.lattice import column
from slcterm.oracle import TransGraph, build_graph, find_cycle, find_escape
from slcterm.poly2 import contains, hpoly, x_extent

from conftest import (
    SEED,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    inc_loop,
    line_strips,
    pair_loop,
    quad_loop,
    random_slc,
    slab_loop,
    slc_corpus,
    tangent_polygon,
    thick_loop,
    thin_loop,
    wedge_loop,
)
from test_lattice import _bench_loops

GOLDENS = (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop,
           halfplane_loop, halfint_loop, empty_loop)


def succ(g, x):
    # the successors of x inside the window
    lo, hi = g.span.get(x, (0, -1))
    return range(lo, hi + 1)


def edges(g):
    return [(x, y) for x in sorted(g.span) for y in succ(g, x)]


def test_build_graph_golden():
    g = build_graph(inc_loop(), 3)
    assert sorted(g.span) == [-3, -2, -1, 0, 1, 2]
    assert edges(g) == [(-3, -2), (-2, -1), (-1, 0), (0, 1), (1, 2), (2, 3)]
    # x = 3 has only the out-of-window successor 4, so it is not a source
    assert list(succ(g, 3)) == []
    assert 1 in succ(g, 0) and 2 not in succ(g, 0)

    g = build_graph(slab_loop(), 10)
    assert edges(g) == [(4, 5), (5, 6), (7, 9), (8, 10)]

    g = build_graph(empty_loop(), 5)
    assert sorted(g.span) == [] and edges(g) == []


def test_graph_edges_match_contains():
    rng = random.Random(SEED + 10)
    for _ in range(60):
        p = random_slc(rng)
        g = build_graph(p, 12)
        for x in range(-12, 13):
            for y in range(-12, 13):
                assert (y in succ(g, x)) == contains(p, (x, y))


def test_find_cycle_golden():
    assert find_cycle(build_graph(pair_loop(), 2)) == [0, 1]
    assert find_cycle(build_graph(quad_loop(), 5)) == [0, -2]
    assert find_cycle(build_graph(inc_loop(), 5)) is None
    assert find_cycle(build_graph(slab_loop(), 10)) is None
    assert find_cycle(build_graph(empty_loop(), 5)) is None


def test_find_cycle_edges_close():
    for build, bound in ((pair_loop, 2), (quad_loop, 5)):
        p = build()
        cyc = find_cycle(build_graph(p, bound))
        assert cyc is not None and len(set(cyc)) == len(cyc)
        for i, s in enumerate(cyc):
            assert contains(p, (s, cyc[(i + 1) % len(cyc)]))


def test_find_escape_golden():
    g = build_graph(inc_loop(), 5)
    assert find_escape(g, inc_loop()) == [0, 1, 2, 3, 4, 5]
    assert find_escape(build_graph(slab_loop(), 10), slab_loop()) == [8, 10]
    assert find_escape(build_graph(thin_loop(), 100), thin_loop()) == [55, 73, 97]
    assert find_escape(build_graph(empty_loop(), 5), empty_loop()) is None
    # 0 -> 1 leaves [0, 0]: 0 has no successor in the window, but escapes
    assert find_escape(build_graph(inc_loop(), 0), inc_loop()) == [0]


def test_find_escape_contract():
    # every returned trace: valid edges, inside the window, and the last
    # state has an integer successor beyond it
    rng = random.Random(SEED + 12)
    seen = 0
    for _ in range(150):
        p = random_slc(rng)
        g = build_graph(p, 16)
        trace = find_escape(g, p)
        if trace is None:
            continue
        seen += 1
        assert len(trace) <= 33  # the window's states
        assert all(abs(s) <= 16 for s in trace)
        for a, b in zip(trace, trace[1:]):
            assert contains(p, (a, b))
        last = trace[-1]
        assert any(contains(p, (last, y)) for y in
                   list(range(17, 40)) + list(range(-39, -16)))
    assert seen >= 20


def test_oracle_determinism():
    for build, bound in ((quad_loop, 5), (slab_loop, 10), (inc_loop, 5)):
        p = build()
        g = build_graph(p, bound)
        assert find_cycle(g) == find_cycle(g)
        assert find_escape(g, p) == find_escape(g, p)


def test_oracle_sees_nt_verdicts():
    # any non-terminating verdict must show up in a 64-window as a cycle
    # or an escape, unless the witness only lives outside the window
    rng = random.Random(SEED + 11)
    checked = misses = 0
    for _ in range(300):
        p = random_slc(rng)
        v = decide(p)
        if v.kind != "non-terminating":
            continue
        checked += 1
        g = build_graph(p, 64)
        if find_cycle(g) is not None or find_escape(g, p) is not None:
            continue
        misses += 1
        trace = witness_trace(p, v, 130)
        exits = [i for i, s in enumerate(trace) if abs(s) > 64]
        assert exits, "a witness inside the window must yield a cycle"
        k = exits[0]
        assert k == 0 or (k == 1 and trace[0] not in g.span)
    assert checked >= 100
    assert misses <= checked * 0.05


def test_transgraph_succ_missing_state():
    g = TransGraph(2, {0: (1, 1)})
    assert list(succ(g, 5)) == []
    assert 0 not in succ(g, 5)
    # exits default to none, so no escape; recorded exits are what it reads
    assert g.exits == frozenset() and find_escape(g, None) is None
    assert find_escape(TransGraph(2, {0: (1, 1)}, frozenset({1})), None) == [0, 1]


def watch_reads(monkeypatch):
    # the ranges `_clip` returns and the columns `column` reads, in order
    clips, reads = [], []
    real_clip = oracle._clip

    def counted_clip(rows, cols):
        clips.append(real_clip(rows, cols))
        return clips[-1]

    def counted_column(p, z):
        reads.append(z)
        return column(p, z)

    monkeypatch.setattr(oracle, "_clip", counted_clip)
    monkeypatch.setattr(oracle, "column", counted_column)
    return clips, reads


# 0 <= x <= 3 or 4, |x'| <= 5: the clip leaves as many columns as rows,
# or one more; a scaled copy of x <= 4 adds a row but no normal
BOX_4_COLUMNS = hpoly([(-1, 0, 0), (1, 0, 3), (0, 1, 5), (0, -1, 5)])
BOX_5_COLUMNS = hpoly([(-1, 0, 0), (1, 0, 4), (0, 1, 5), (0, -1, 5)])
BOX_5_COLUMNS_5_ROWS = hpoly([(-1, 0, 0), (1, 0, 4), (0, 1, 5), (0, -1, 5), (2, 0, 8)])


@pytest.mark.parametrize("bound", [0, 1, 16, 64])
def test_each_column_is_read_at_most_once(monkeypatch, bound):
    # one clip per graph, and every window column outside it holds no
    # integer; a range of at most as many columns as primitive normals is
    # read column by column, ascending, each once; a longer one is read by
    # rows, with no column read; the searches clip and read nothing
    clips, reads = watch_reads(monkeypatch)
    rng = random.Random(SEED + 13)
    for p in ([build() for build in GOLDENS] + [BOX_4_COLUMNS, BOX_5_COLUMNS, BOX_5_COLUMNS_5_ROWS]
              + [random_slc(rng) for _ in range(20)]):
        clips.clear()
        reads.clear()
        g = build_graph(p, bound)
        assert len(clips) == 1
        short = len(clips[0]) <= len(least_rows(p))
        assert reads == (list(clips[0]) if short else [])
        assert all(column(p, z) is None for z in range(-bound, bound + 1) if z not in clips[0])
        clips.clear()
        reads.clear()
        find_cycle(g)
        find_escape(g, p)
        assert clips == reads == []


def build_graph_ref(p, bound):
    # the graph read off every window column
    span, exits = {}, []
    for x in range(-bound, bound + 1):
        col = column(p, x)
        if col is None:
            continue
        lo, hi = col
        if lo is None or lo < -bound or hi is None or hi > bound:
            exits.append(x)
            lo = -bound if lo is None else max(lo, -bound)
            hi = bound if hi is None else min(hi, bound)
            if lo > hi:
                continue
            col = (lo, hi)
        span[x] = col
    return TransGraph(bound, span, frozenset(exits))


def assert_same_graph(g, ref):
    assert list(g.span.items()) == list(ref.span.items())
    assert g.exits == ref.exits


BOUNDS = (0, 1, 5, 64, 1000)
coeff = st.one_of(st.integers(-7, 7), st.integers(-(10**20), 10**20))


@st.composite
def clip_loops(draw):
    """Rows of every shape the window clip cuts on: random rows, rows
    through a point of the window (so the real points sit inside it),
    and rows derived from those: a2 = 0 and zero rows, duplicates,
    scaled and parallel copies, and thin strips b - w <= a1*x + a2*x' <= b
    whose columns hold real points but often no integer."""
    k = draw(st.integers(1, 5))  # one row is a half-plane
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(coeff, coeff, coeff), min_size=k, max_size=k))
    else:
        cx, cy = draw(st.integers(-1100, 1100)), draw(st.integers(-1100, 1100))
        rows = []
        for _ in range(k):
            a1, a2 = draw(coeff), draw(coeff)
            reach = (abs(a1) + abs(a2)) * draw(st.integers(-2, 40)) // draw(st.integers(1, 8))
            rows.append((a1, a2, a1 * cx + a2 * cy + reach))
    for _ in range(draw(st.integers(0, 3))):
        a1, a2, b = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(("a2=0", "zero", "duplicate", "scaled", "parallel", "strip")))
        if kind == "a2=0":
            rows.append((a1, 0, b))
        elif kind == "zero":
            rows.append((0, 0, draw(st.integers(-2, 2))))
        elif kind == "duplicate":
            rows.append((a1, a2, b))
        elif kind == "scaled":
            s = draw(st.integers(2, 10**6))
            rows.append((s * a1, s * a2, s * b))
        elif kind == "parallel":
            rows.append((a1, a2, b + draw(coeff)))
        else:
            rows.append((-a1, -a2, draw(st.integers(0, abs(a2) + 1)) - b))
    return hpoly(draw(st.permutations(rows)))


@settings(max_examples=400, deadline=None)
@given(clip_loops(), st.sampled_from(BOUNDS))
@example(hpoly([(0, 0, -1)]), 5)  # a zero row that fails
@example(hpoly([(0, 0, 0), (1, 0, 3), (-1, 0, 3)]), 64)  # a zero row that holds
@example(hpoly([(2, -2, -3), (-2, 2, 3)]), 64)  # x' = x + 3/2: real points, no integer
@example(hpoly([(1, -1, -1)]), 1000)  # half-plane
@example(hpoly([(10**20, 3, 10**20), (-(10**20), -3, 1 - 10**20)]), 1000)  # steep thin strip
@example(BOX_4_COLUMNS, 64)  # as many clipped columns as rows: read column by column
@example(BOX_5_COLUMNS, 64)  # one more: read by rows
@example(BOX_5_COLUMNS_5_ROWS, 64)  # as many rows, one more than normals: read by rows
@example(hpoly([(1, 1, 5), (-2, 3, 7)]), 64)  # upper rows only: every column exits below
@example(hpoly([(1, -1, 0), (-3, -2, 4)]), 64)  # lower rows only
@example(hpoly([(0, 1, 10), (0, -1, 3), (1, -1, 2), (0, 2, 9)]), 64)  # a1 = 0 rows
@example(hpoly([(1, 0, 20), (-1, 0, 5), (2, -1, 1)]), 64)  # a2 = 0 rows around a one-sided loop
@example(hpoly([(-1, 0, 30), (3, 0, 7), (0, 0, 4), (-5, -7, 2)]), 64)  # a2 = 0 and zero rows, lower only
@example(hpoly([(10**20, -1, 0)]), 1000)  # x' >= 10^20 x: bounds of 10^23 against inf
@example(hpoly([(10**20, -(10**20) + 1, 3), (-3, 10**20, 10**20)]), 1000)  # 10^20 coefficients
@example(hpoly([(-(10**20), 10**20 + 1, 10**20), (1, -1, 2**60)]), 1000)  # x' >= x - 2^60 under a 10^20 upper row
def test_build_graph_matches_every_column_reference(p, bound):
    assert_same_graph(build_graph(p, bound), build_graph_ref(p, bound))


def _fixed_families():
    rng = random.Random(SEED + 16)
    return (slc_corpus(150, seed=SEED + 17) + [tangent_polygon(rng, k) for k in (8, 16, 36, 64)]
            + [wedge_loop(k) for k in (2, 3, 5, 10, 30)] + line_strips(20, SEED + 18))


@pytest.mark.parametrize("bound", BOUNDS)
def test_build_graph_matches_reference_on_fixed_families(bound):
    for p in _fixed_families():
        assert_same_graph(build_graph(p, bound), build_graph_ref(p, bound))


HEXAGON = hpoly([(3, -2, 7), (-5, 4, 11), (1, 6, 40), (-2, -7, 35), (4, 1, 90), (-1, 3, 20)])
BOX = hpoly([(-1, 0, -3), (1, 0, 5), (0, 1, -3), (0, -1, 5)])  # 3 <= x <= 5, -5 <= x' <= -3


@pytest.mark.parametrize("name", ["polygon-8", "polygon-64", "box", "hexagon"])
def test_wide_window_reads_only_the_polygon(monkeypatch, name):
    # at B = 10^9 the graph costs what the polygon's columns and a few
    # cuts cost, not 2B + 1 columns
    p = {"polygon-8": tangent_polygon(random.Random(SEED + 19), 8),
         "polygon-64": tangent_polygon(random.Random(SEED + 19), 64),
         "box": BOX, "hexagon": HEXAGON}[name]
    clips, _ = watch_reads(monkeypatch)
    cuts = []
    real_cut = oracle._cut

    def counted_cut(rows, z):
        cut = real_cut(rows, z)
        if cut is not None:
            cuts.append(z)
        return cut

    monkeypatch.setattr(oracle, "_cut", counted_cut)
    start = time.perf_counter()
    g = build_graph(p, 10**9)
    elapsed = time.perf_counter() - start
    ln, ld, hn, hd = x_extent(p)  # a polygon: both sides closed
    # the graph reads only the columns of the clipped range, at most
    # floor(hi) - ceil(lo) + 1
    assert len(clips) == 1 and len(clips[0]) <= hn // hd + (-ln // ld) + 1
    assert len(cuts) <= 2 * (len(p.rows) + 1)
    assert elapsed < 0.1
    assert_same_graph(g, build_graph(p, 64))


@pytest.mark.parametrize("rows", [
    [(2, -2, -3), (-2, 2, 3), (-1, 0, -1)],  # halfint: x' = x + 3/2, x >= 1
    [(6, 4, 1), (-6, -4, -1)],  # 6x + 4x' = 1, but 6x + 4x' is even
    [(3, -3, 2), (-3, 3, -1)],  # 1/3 <= x - x' <= 2/3
], ids=["halfint", "odd", "thirds"])
def test_integer_free_strip_clips_to_nothing(monkeypatch, rows):
    # the strip's columns hold real points but no integer: once each row is
    # divided by the gcd of its normal, the two rows leave no real point,
    # so a window of 2*10^9 + 1 columns reads none of them
    p = hpoly(rows)
    reads = []

    def counted_column(q, z):
        reads.append(z)
        return column(q, z)

    monkeypatch.setattr(oracle, "column", counted_column)
    start = time.perf_counter()
    g = build_graph(p, 10**9)
    elapsed = time.perf_counter() - start
    assert reads == [] and elapsed < 0.1
    assert_same_graph(g, TransGraph(10**9, {}))
    assert_same_graph(build_graph(p, 1000), build_graph_ref(p, 1000))


def with_redundant_rows(p, rng, first=False):
    """p with a scaled (s*row), a loosened (b + c, c >= 0) and a duplicate
    copy of each row after its rows, or before them when `first`: each
    copy is implied by the row it copies."""
    copies = []
    for a1, a2, b in p.rows:
        s = rng.randint(2, 10**6)
        copies += [(s * a1, s * a2, s * b), (a1, a2, b + rng.randint(0, 40)), (a1, a2, b)]
    rng.shuffle(copies)
    return hpoly(copies + list(p.rows) if first else list(p.rows) + copies)


def _redundant_families():
    rng = random.Random(SEED + 21)
    return ([build() for build in GOLDENS] + [random_slc(rng) for _ in range(60)]
            + [tangent_polygon(rng, k) for k in (8, 16, 36)])


@pytest.mark.parametrize("bound", [0, 16, 64])
def test_redundant_rows_leave_the_graph_unchanged(bound):
    rng = random.Random(SEED + 22)
    for p in _redundant_families():
        g = build_graph(p, bound)
        for first in (False, True):
            q = with_redundant_rows(p, rng, first)
            h = build_graph(q, bound)
            assert_same_graph(h, g)
            assert find_cycle(h) == find_cycle(g)
            assert find_escape(h, q) == find_escape(g, p)


def least_rows(p):
    # {primitive normal: least b} over p's rows, each divided by the gcd
    # of its normal with b rounded down
    least = {}
    for a1, a2, b in p.rows:
        g = math.gcd(a1, a2) or 1
        normal = (a1 // g, a2 // g)
        least[normal] = min(least.get(normal, b // g), b // g)
    return least


def test_column_reads_one_row_per_primitive_normal(monkeypatch):
    # a short range is read through column() on the reduced rows: one per
    # primitive normal, the one with the least b
    read = []

    def counted_column(q, z):
        read.append(q.rows)
        return column(q, z)

    monkeypatch.setattr(oracle, "column", counted_column)
    rng = random.Random(SEED + 23)
    calls = 0
    for p in _redundant_families():
        q = with_redundant_rows(p, rng)
        for bound in (0, 1, 16):
            read.clear()
            build_graph(q, bound)
            calls += len(read)
            for rows in read:
                assert len(rows) == len(least_rows(q))
                assert {(a1, a2): b for a1, a2, b in rows} == least_rows(q)
    assert calls > 100


def test_oracle_imports_from_the_package_only_column_hpoly_and_record():
    # the row reduction is the oracle's own: it borrows no poly2 helper
    # such as _edges or primitive, and nothing of the decision procedure
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "slcterm"):
            module = (node.module or "").removeprefix("slcterm.")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, "*") for alias in node.names if alias.name.split(".")[0] == "slcterm"}
    assert ("poly2", "HPoly") in imported
    assert imported <= {("lattice", "column"), ("poly2", "HPoly"), ("poly2", "Record")}, imported


def _escapes_ref(p, bound, x):
    # reads column x again, as the escape search did before exits were recorded
    span = column(p, x)
    if span is None:
        return False
    lo, hi = span
    return hi is None or hi > bound or lo is None or lo < -bound


def _find_escape_ref(g, escapes):
    # the BFS that tests each edge, from every state with a successor,
    # skipping what failed starts reached; escapes(x) says whether x has
    # a successor outside the window
    no_escape = set()
    window = range(-g.bound, g.bound + 1)
    for start in sorted(set(g.span) | set(filter(escapes, window)), key=lambda x: (abs(x), x < 0)):
        if start in no_escape:
            continue
        parent, queue, found = {start: None}, [start], None
        for x in queue:
            if escapes(x):
                found = x
                break
            for y in succ(g, x):
                if y not in parent and y not in no_escape:
                    parent[y] = x
                    queue.append(y)
        if found is None:
            no_escape.update(parent)
            continue
        trace = []
        while found is not None:
            trace.append(found)
            found = parent[found]
        return trace[::-1]
    return None


def _find_cycle_ref(g):
    # the DFS that tests each edge: starts by increasing |state|,
    # successors ascending, the first back edge's cycle in trace order
    visited = set()
    for start in sorted(g.span, key=lambda x: (abs(x), x < 0)):
        if start in visited:
            continue
        path, index, iters = [start], {start: 0}, [iter(succ(g, start))]
        while iters:
            y = next(iters[-1], None)
            if y is None:
                iters.pop()
                node = path.pop()
                del index[node]
                visited.add(node)
            elif y in index:
                return path[index[y] :]
            elif y not in visited:
                index[y] = len(path)
                path.append(y)
                iters.append(iter(succ(g, y)))
    return None


@pytest.mark.parametrize("bound", [0, 1, 16, 64])
def test_exits_match_rereading_columns(bound):
    rng = random.Random(SEED + 14)
    for p in [build() for build in GOLDENS] + [random_slc(rng) for _ in range(150)]:
        g = build_graph(p, bound)
        window = range(-bound, bound + 1)
        assert g.exits == {x for x in window if _escapes_ref(p, bound, x)}
        assert find_escape(g, p) == _find_escape_ref(g, lambda x: _escapes_ref(p, bound, x))


@pytest.mark.parametrize("bound,loops", [(0, 150), (1, 150), (16, 150), (64, 150), (300, 40)])
def test_searches_match_edge_by_edge_references(bound, loops):
    # coefficients up to 20; the references cost O(B^2) a loop, hence
    # fewer loops at the widest window
    rng = random.Random(SEED + 15)
    for p in [build() for build in GOLDENS] + [random_slc(rng, coeff=20) for _ in range(loops)]:
        g = build_graph(p, bound)
        assert find_cycle(g) == _find_cycle_ref(g)
        assert find_escape(g, p) == _find_escape_ref(g, g.exits.__contains__)


B = 6
HAND_GRAPHS = {
    # 1, 2 finish under 0; 3 skips them as one run and stops on itself
    "self-loop": TransGraph(B, {0: (1, 3), 1: (-1, -1), 3: (1, 3)}),
    # 1..4 finish under 0; 6 then skips that run and stops at 5, on the path
    "back-edge-past-a-run": TransGraph(B, {0: (1, 5), 2: (1, 1), 3: (2, 2), 5: (6, 6), 6: (1, 5)}),
    # 1..3 and 5, 6 finish on either side of 4, which is on the path; 7
    # skips 1..3 and stops at 4, not past it
    "back-edge-between-runs": TransGraph(B, {0: (1, 6), 1: (2, 2), 3: (-1, -1), 4: (5, 7),
                                             7: (1, 6)}, frozenset({7})),
    "gaps": TransGraph(B, {0: (2, 3), 2: (5, 6), 3: (-4, -3), -3: (-1, -1), 5: (-6, -5), -6: (6, 6)},
                       frozenset({6, -1})),
    "dense-acyclic": TransGraph(B, {x: (x + 1, B) for x in range(-B, B)}, frozenset({B})),
    "dense-acyclic-no-exit": TransGraph(B, {x: (x + 1, B) for x in range(-B, B)}),
    # 0 reaches no exit; 1 then escapes by the only exit trace, however
    # long, before -1 starts
    "too-long-then-later-start": TransGraph(B, {0: (5, 5), 1: (2, 2), 2: (3, 3), 3: (4, 4),
                                                4: (6, 6), -1: (5, 6)}, frozenset({6})),
    # no state has a successor in the window: 1 and -2 escape on their own,
    # and 1 comes first
    "exits-only": TransGraph(B, {}, frozenset({-2, 1})),
    # 0 reaches the exit 4, however far, before the exit -1, whose
    # successors all leave the window, starts as its own trace
    "exit-only-after-a-long-trace": TransGraph(B, {0: (2, 2), 2: (3, 3), 3: (4, 4)},
                                               frozenset({4, -1})),
    # 0 reaches only the cycle 2, 3, which leads to no exit; -1 reaches 2
    # and 3 too, but skips them and escapes through 4
    "dead-end-then-later-start": TransGraph(B, {0: (2, 3), 2: (3, 3), 3: (2, 2), -1: (2, 4),
                                                4: (6, 6)}, frozenset({6})),
}
HAND_EXPECTED = {  # (cycle, escape)
    "self-loop": ([3], None),
    "back-edge-past-a-run": ([5, 6], None),
    "back-edge-between-runs": ([4, 7], [0, 4, 7]),
    "gaps": (None, [0, 2, 6]),
    "dense-acyclic": (None, [0, 6]),
    "dense-acyclic-no-exit": (None, None),
    "too-long-then-later-start": (None, [1, 2, 3, 4, 6]),
    "exits-only": (None, [1]),
    "exit-only-after-a-long-trace": (None, [0, 2, 3, 4]),
    "dead-end-then-later-start": ([2, 3], [-1, 4, 6]),
}


class ReadCounter(dict):
    # a span that counts its span[x] reads per state
    def __init__(self, span):
        super().__init__(span)
        self.counts = dict.fromkeys(span, 0)

    def __getitem__(self, x):
        self.counts[x] += 1
        return super().__getitem__(x)


@pytest.mark.parametrize("name", HAND_GRAPHS)
def test_searches_match_references_on_hand_built_graphs(name):
    g = HAND_GRAPHS[name]
    cyc, esc = HAND_EXPECTED[name]
    assert find_cycle(g) == _find_cycle_ref(g) == cyc
    assert find_escape(g, None) == _find_escape_ref(g, g.exits.__contains__) == esc
    # no start expands a state that an earlier start reached
    reads = ReadCounter(g.span)
    assert find_escape(TransGraph(g.bound, reads, g.exits), None) == esc
    assert max(reads.counts.values(), default=0) <= 1


@pytest.mark.parametrize("bound", [0, 16, 64])
def test_find_escape_is_none_exactly_without_exits(bound):
    # every exit is itself a start, so a graph with exits always has a
    # trace, and it ends in an exit
    cases = [(g, None) for g in HAND_GRAPHS.values()]
    cases += [(build_graph(p, bound), p) for p in _bench_loops()]
    assert sum(bool(g.exits) for g, _ in cases) > len(cases) // 4
    for g, p in cases:
        esc = find_escape(g, p)
        assert esc is None if not g.exits else esc[-1] in g.exits, p


def test_find_escape_expands_each_state_at_most_once():
    # x' = x + 1 at B = 2000: the one trace from 0 runs through the whole
    # window, and the search reads each state's span once
    p = inc_loop()
    g = build_graph(p, 2000)
    reads = ReadCounter(g.span)
    trace = find_escape(TransGraph(g.bound, reads, g.exits), p)
    assert sum(reads.counts.values()) <= 4001  # the window's states
    assert trace == list(range(2001))


def test_starts_match_the_place_key():
    # two sorts give the order of the key x -> place of x in 0, 1, -1, 2, -2, ...
    rng = random.Random(SEED + 20)
    shuffled = list(range(-40, 41, 3)) + list(range(-7, 8))
    rng.shuffle(shuffled)
    graphs = list(HAND_GRAPHS.values()) + [
        TransGraph(B, {5: (0, 0), -5: (0, 0), 0: (1, 1), -1: (0, 0), 1: (0, 0), -3: (0, 0), 2: (0, 0)}),
        TransGraph(B, {-2: (0, 0), 2: (0, 0), -1: (0, 0)}),
        TransGraph(B, {x: (0, 0) for x in shuffled}),
        TransGraph(B, {x: (0, 0) for x in shuffled[::2]}, frozenset(shuffled[1::3])),
        TransGraph(B, {}),
    ]
    for g in graphs:
        # the orders find_cycle and find_escape start in
        for states in (g.span, g.exits.union(g.span)):
            assert oracle._place_order(states) == sorted(states, key=lambda x: 2 * x if x >= 0 else 1 - 2 * x)


WIDE = 5000


def test_wide_box_window():
    # |x|, |x'| <= N at bound N: every state reaches every state, so the
    # DFS closes on -N at once and the BFS from 0 finds all 2N + 1 states
    box = hpoly([(1, 0, WIDE), (-1, 0, WIDE), (0, 1, WIDE), (0, -1, WIDE)])
    g = build_graph(box, WIDE)
    assert find_cycle(g) == [-WIDE]
    assert find_escape(g, box) is None


def test_wide_halfplane_window():
    # x' >= x + 1: the DFS runs 0, 1, ..., N and backs out over every span
    p = hpoly([(1, -1, -1)])
    g = build_graph(p, WIDE)
    assert find_cycle(g) is None
    assert find_escape(g, p) == [0]
