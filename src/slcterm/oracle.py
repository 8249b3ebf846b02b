"""Brute-force cross-check for the analyzer.

Restrict the transition relation to integer states in [-B, B] and treat
it as a finite directed graph.  Cycles found here are real cycles of the
loop; escape traces show the bounded window leaking, not
non-termination.  Runs in plain integer arithmetic.  The one routine it
shares with the geometric decision procedure is `lattice.column`:
`build_graph` calls it once per window state, for the state's successors
and whether one leaves the window, and the searches read only the graph.
It uses no decomposition, recession cone, height or integer-point search.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from .lattice import column
from .poly2 import HPoly, Record, _setattr


class TransGraph(Record):
    """Successor spans per state; columns are intervals, so the
    successors of x inside the window form one inclusive range.  `exits`
    holds the states with a successor outside [-bound, bound].  `starts`
    sorts the states with successors once: 0, 1, -1, 2, -2, ..."""

    __slots__ = ("bound", "span", "exits", "__dict__")  # __dict__ for `starts`

    def __init__(self, bound: int, span: Dict[int, Tuple[int, int]],
                 exits: FrozenSet[int] = frozenset()) -> None:
        _setattr(self, "bound", bound)
        _setattr(self, "span", span)
        _setattr(self, "exits", exits)

    def succ(self, x: int) -> range:
        if x not in self.span:
            return range(0)
        lo, hi = self.span[x]
        return range(lo, hi + 1)

    @cached_property
    def starts(self) -> List[int]:
        return sorted(self.span, key=lambda x: (abs(x), x < 0))


def build_graph(p: HPoly, bound: int) -> TransGraph:
    span: Dict[int, Tuple[int, int]] = {}
    exits = []
    for x in range(-bound, bound + 1):
        col = column(p, x)
        if col is None:
            continue
        lo, hi = col
        if lo is None or lo < -bound or hi is None or hi > bound:
            exits.append(x)
        lo2 = -bound if lo is None else max(lo, -bound)
        hi2 = bound if hi is None else min(hi, bound)
        if lo2 <= hi2:
            span[x] = (lo2, hi2)
    return TransGraph(bound, span, frozenset(exits))


def find_cycle(g: TransGraph) -> Optional[List[int]]:
    """Deterministic DFS: starts by increasing |state|, successors
    ascending.  Returns the first back edge's cycle, in trace order."""
    visited: set[int] = set()
    for start in g.starts:
        if start in visited:
            continue
        path = [start]
        index = {start: 0}
        iters = [iter(g.succ(start))]
        while iters:
            try:
                y = next(iters[-1])
            except StopIteration:
                iters.pop()
                node = path.pop()
                del index[node]
                visited.add(node)
                continue
            if y in index:
                return path[index[y] :]
            if y in visited:
                continue
            index[y] = len(path)
            path.append(y)
            iters.append(iter(g.succ(y)))
    return None


def find_escape(g: TransGraph, p: HPoly, limit: int = 1000) -> Optional[List[int]]:
    """A trace of at most `limit` distinct states inside the window whose
    last state has an integer successor outside it, if one exists.
    Breadth-first from each start, smallest |state| first, so the trace
    is a shortest path from its start.  Exits are read from `g.exits`, not `p`."""
    no_escape: set[int] = set()
    for start in g.starts:
        if start in no_escape:
            continue
        parent: Dict[int, Optional[int]] = {start: None}
        queue = [start]
        found = None
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if x in g.exits:
                found = x
                break
            for y in g.succ(x):
                if y not in parent and y not in no_escape:
                    parent[y] = x
                    queue.append(y)
        if found is None:
            no_escape.update(parent)
            continue
        trace: List[int] = []
        node: Optional[int] = found
        while node is not None:
            trace.append(node)
            node = parent[node]
        trace.reverse()
        if len(trace) <= limit:
            return trace
    return None
