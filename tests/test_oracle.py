"""Bounded-window oracle: graph, cycle search, escape search."""

import random

import pytest

from slcterm import oracle
from slcterm.analyzer import decide, witness_trace
from slcterm.lattice import column
from slcterm.oracle import TransGraph, build_graph, find_cycle, find_escape
from slcterm.poly2 import contains

from conftest import (
    SEED,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    inc_loop,
    pair_loop,
    quad_loop,
    random_slc,
    slab_loop,
    thick_loop,
    thin_loop,
)

GOLDENS = (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop,
           halfplane_loop, halfint_loop, empty_loop)


def edges(g):
    return [(x, y) for x in sorted(g.span) for y in g.succ(x)]


def test_build_graph_golden():
    g = build_graph(inc_loop(), 3)
    assert sorted(g.span) == [-3, -2, -1, 0, 1, 2]
    assert edges(g) == [(-3, -2), (-2, -1), (-1, 0), (0, 1), (1, 2), (2, 3)]
    # x = 3 has only the out-of-window successor 4, so it is not a source
    assert list(g.succ(3)) == []
    assert 1 in g.succ(0) and 2 not in g.succ(0)

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
                assert (y in g.succ(x)) == contains(p, (x, y))


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
    # a shorter cap discards long traces but keeps later starts alive
    assert find_escape(g, inc_loop(), 3) == [3, 4, 5]
    assert find_escape(g, inc_loop(), 5) == [1, 2, 3, 4, 5]
    assert find_escape(build_graph(slab_loop(), 10), slab_loop()) == [8, 10]
    assert find_escape(build_graph(thin_loop(), 100), thin_loop()) == [55, 73, 97]
    assert find_escape(build_graph(empty_loop(), 5), empty_loop()) is None


def test_find_escape_contract():
    # every returned trace: valid edges, inside the window, and the last
    # state has an integer successor beyond it
    rng = random.Random(SEED + 12)
    seen = 0
    for _ in range(150):
        p = random_slc(rng)
        g = build_graph(p, 16)
        trace = find_escape(g, p, 50)
        if trace is None:
            continue
        seen += 1
        assert len(trace) <= 50
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
    assert list(g.succ(5)) == []
    assert 0 not in g.succ(5)
    # exits default to none, so no escape; recorded exits are what it reads
    assert g.exits == frozenset() and find_escape(g, None) is None
    assert find_escape(TransGraph(2, {0: (1, 1)}, frozenset({1})), None) == [0, 1]


@pytest.mark.parametrize("bound", [0, 1, 16, 64])
def test_each_column_is_read_once(monkeypatch, bound):
    calls = []

    def counted(p, z):
        calls.append(z)
        return column(p, z)

    monkeypatch.setattr(oracle, "column", counted)
    rng = random.Random(SEED + 13)
    for p in [build() for build in GOLDENS] + [random_slc(rng) for _ in range(20)]:
        calls.clear()
        g = build_graph(p, bound)
        assert sorted(calls) == list(range(-bound, bound + 1))
        calls.clear()
        find_cycle(g)
        find_escape(g, p)
        find_escape(g, p, 2)
        assert calls == []


def _escapes_ref(p, bound, x):
    # reads column x again, as the escape search did before exits were recorded
    span = column(p, x)
    if span is None:
        return False
    lo, hi = span
    return hi is None or hi > bound or lo is None or lo < -bound


def _find_escape_ref(g, p, limit):
    no_escape = set()
    for start in sorted(g.span, key=lambda x: (abs(x), x < 0)):
        if start in no_escape:
            continue
        parent, queue, found = {start: None}, [start], None
        for x in queue:
            if _escapes_ref(p, g.bound, x):
                found = x
                break
            for y in g.succ(x):
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
        if len(trace) <= limit:
            return trace[::-1]
    return None


@pytest.mark.parametrize("bound", [0, 1, 16, 64])
def test_exits_match_rereading_columns(bound):
    rng = random.Random(SEED + 14)
    for p in [build() for build in GOLDENS] + [random_slc(rng) for _ in range(150)]:
        g = build_graph(p, bound)
        window = range(-bound, bound + 1)
        assert g.exits == {x for x in window if _escapes_ref(p, bound, x)}
        for limit in (1, 3, 1000):
            assert find_escape(g, p, limit) == _find_escape_ref(g, p, limit)
