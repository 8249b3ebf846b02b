"""Brute-force cross-check for the analyzer.

Restrict the transition relation to integer states in [-B, B] and treat
it as a finite directed graph.  Cycles found here are real cycles of the
loop; escape traces show the bounded window leaking, not
non-termination.  Runs in plain integer arithmetic.  The one routine it
shares with the geometric decision procedure is `lattice.column`:
`build_graph` calls it once per window state, for the state's successors
and whether one leaves the window, so a graph costs O((2B+1)*k) row
reads for k rows, fewer where a column empties early.  The searches
read only the graph and skip the states they are done with in runs, so
each visits every state about once.  It uses no decomposition,
recession cone, height or integer-point search.
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

    @cached_property
    def starts(self) -> List[int]:
        # the key is each state's place in 0, 1, -1, 2, -2, ...
        return sorted(self.span, key=lambda x: 2 * x if x >= 0 else 1 - 2 * x)


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
            lo = -bound if lo is None else max(lo, -bound)
            hi = bound if hi is None else min(hi, bound)
            if lo > hi:
                continue
            col = (lo, hi)
        span[x] = col
    return TransGraph(bound, span, frozenset(exits))


# The searches skip runs of states they are done with through one map
# {state: next state to try}: every state in [s, skip[s]) is done, and
# `_next` follows the map with path halving (Tarjan, J. ACM 22(2), 1975),
# so each state is visited about once however many spans cover it.


def _next(skip: Dict[int, int], y: int) -> int:
    # the first state >= y that is not done
    while y in skip:
        z = skip[y]
        if z in skip:
            z = skip[y] = skip[z]
        y = z
    return y


def find_cycle(g: TransGraph) -> Optional[List[int]]:
    """Deterministic DFS: starts by increasing |state|, successors
    ascending.  Returns the first back edge's cycle, in trace order."""
    span = g.span
    finished: Dict[int, int] = {}
    for start in g.starts:
        if start in finished:
            continue
        path = [start]
        index = {start: 0}
        todo = [span[start]]  # (next successor to try, last successor) per path state
        while path:
            y, hi = todo[-1]
            if y in finished:
                y = _next(finished, y)
            if y > hi:
                todo.pop()
                node = path.pop()
                del index[node]
                finished[node] = node + 1
                continue
            if y in index:
                return path[index[y] :]
            todo[-1] = (y + 1, hi)
            if y in span:
                index[y] = len(path)
                path.append(y)
                todo.append(span[y])
            else:
                finished[y] = y + 1
    return None


def find_escape(g: TransGraph, p: HPoly, limit: int = 1000) -> Optional[List[int]]:
    """A trace of at most `limit` distinct states inside the window whose
    last state has an integer successor outside it, if one exists.
    Breadth-first from each start, smallest |state| first, so the trace
    is a shortest path from its start.  Exits are read from `g.exits`, not `p`."""
    span, exits = g.span, g.exits
    no_escape: set[int] = set()
    seen: Dict[int, int] = {}  # skips states in no_escape or found by this search
    for start in g.starts:
        if start in no_escape:
            continue
        parent: Dict[int, Optional[int]] = {start: None}
        seen[start] = start + 1
        queue = [start]
        found = None
        for x in queue:
            if x in exits:
                found = x
                break
            if x not in span:
                continue
            y, hi = span[x]
            while y <= hi:
                if y in seen:
                    y = _next(seen, y)
                    if y > hi:
                        break
                # every state up to hi is done once x is expanded
                parent[y] = x
                seen[y] = hi + 1
                queue.append(y)
                y += 1
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
        seen = {s: s + 1 for s in no_escape}
    return None
