"""Brute-force cross-check for the analyzer.

Restrict the transition relation to integer states in [-B, B] and treat
it as a finite directed graph.  Cycles found here are real cycles of the
loop; escape traces show the bounded window leaking, not
non-termination.  Runs in plain integer arithmetic.  `build_graph` first
clips the window to the columns with real points, by cuts that are each
a nonnegative combination of two rows.  It then reads each column in
between once, for its successors and whether one leaves the window, in
one of two ways.  When at most as many columns as rows are left, it
calls `lattice.column` per column, the one routine it shares with the
geometric decision procedure.  Otherwise it clips again on the rows
divided by their normals' gcds and reads the columns by rows: each row
bounds every column at once as one range of numerators, divided in C
iterators.  A graph so costs O((cuts + columns with real points)*k) row
reads for k rows.  The searches read only the graph and skip the states
they are done with in runs, so each visits every state about once.  It
uses no decomposition, recession cone, height or integer-point search.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import repeat
from math import gcd, inf
from operator import floordiv
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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
        # by |x|, with x before -x: a stable sort keeps the order of the
        # first sort, which puts every x before -x
        return sorted(sorted(self.span, reverse=True), key=abs)


def _cut(rows: Iterable[Tuple[int, int, int]], z: int) -> Optional[Tuple[int, int]]:
    """A row c*x <= e implied by the rows that column z violates, or None
    when the column holds real points.  A violated row with a2 = 0 is
    its own cut.  Else the tightest lower row l bounds y above the
    tightest upper row u, compared by cross-multiplying, and the cut is
    u2*l + (-l2)*u, which cancels y."""
    lo = hi = None
    for row in rows:
        a1, a2, b = row
        if a2 > 0:
            d = b - a1 * z  # y <= d / a2
            if hi is None or d * hi_a2 < hi_d * a2:
                hi, hi_d, hi_a2 = row, d, a2
        elif a2 < 0:
            d = a1 * z - b  # y >= d / -a2
            if lo is None or d * lo_a2 > lo_d * -a2:
                lo, lo_d, lo_a2 = row, d, -a2
        elif a1 * z > b:
            return a1, b
    if lo is None or hi is None or lo_d * hi_a2 <= hi_d * lo_a2:
        return None
    l1, l2, lb = lo
    u1, u2, ub = hi
    return u2 * l1 - l2 * u1, u2 * lb - l2 * ub


def _clip(rows: Iterable[Tuple[int, int, int]], cols: range) -> range:
    """The columns of `cols` (a step-1 range) from the first to the last
    with real points; empty when there are none.  From each end, a cut
    violated at the column fails on a half-line through it: jump past
    that half-line, or stop if it runs to the far end.  Each jump is a
    Newton step on the convex max(lower bounds) - min(upper bounds), so
    jumps are few."""
    lo, top = cols.start, cols.stop - 1
    while lo <= top and (cut := _cut(rows, lo)) is not None:
        c, e = cut
        if c >= 0:  # fails on [lo, oo), or everywhere when c = 0
            return range(0)
        lo = -(e // -c)  # the least z with c*z <= e
    if lo > top:
        return range(0)
    hi = top
    # column lo holds real points, so every cut here has c > 0 and hi
    # stays >= lo
    while (cut := _cut(rows, hi)) is not None:
        c, e = cut
        hi = e // c
    return range(lo, hi + 1)


def _row_bounds(rows: Iterable[Tuple[int, int, int]], cols: range) -> Tuple[Iterator, Iterator]:
    """The least and greatest integer y of every column of `cols` at
    once: the floor bound (b - a1*z) // a2 of each row with a2 > 0, or
    the ceiling bound (b - a1*z + a2 + 1) // a2 of each row with a2 < 0,
    over the columns as one range of numerators, then the max of the
    lower and the min of the upper bounds; -inf or inf where no row bounds
    y, and lo > hi in a column with no integer.  Rows with a2 = 0 are not
    read: they hold on all of `cols` when it has real points at both ends."""
    lows: List[Iterator] = []
    highs: List[Iterator] = []
    z0, z1 = cols.start, cols.stop
    for a1, a2, b in rows:
        if a2:
            if a2 < 0:
                b += a2 + 1
            nums = range(b - a1 * z0, b - a1 * z1, -a1) if a1 else repeat(b)
            (highs if a2 > 0 else lows).append(map(floordiv, nums, repeat(a2)))
    return tuple(map(f, *its) if len(its) > 1 else its[0] if its else repeat(edge)
                 for f, its, edge in ((max, lows, -inf), (min, highs, inf)))


def build_graph(p: HPoly, bound: int) -> TransGraph:
    """The transition graph of p on the integer states in [-bound,
    bound]: `span` maps each state with an integer successor in the
    window to that span, in ascending order, and `exits` holds the states
    with an integer successor outside it.  Only the columns between the
    first and last with real points are read; the rest are empty.  Raises
    ValueError when more than sys.maxsize columns are left to read."""
    span: Dict[int, Tuple[int, int]] = {}
    exits = []
    cols = _clip(p.rows, range(-bound, bound + 1))
    if cols.stop - cols.start > len(p.rows):  # not len(): it fails past sys.maxsize
        # cheaper than reading them: clip them with each row divided by the
        # gcd of its normal, b rounded down, which drops a strip of no integer
        cols = _clip([(a1 // g, a2 // g, b // g) for a1, a2, b in p.rows for g in [gcd(a1, a2) or 1]], cols)
        if cols.stop - cols.start > sys.maxsize:
            raise ValueError(f"oracle window too wide: {cols.stop - cols.start} columns to read")
        reads = zip(cols, *_row_bounds(p.rows, cols))
    else:  # the same bounds from column(): an empty column reads as (inf, -inf)
        reads = ((x, -inf if lo is None else lo, inf if hi is None else hi)
                 for x in cols for lo, hi in [column(p, x) or (inf, -inf)])
    for x, lo, hi in reads:
        if -bound <= lo <= hi <= bound:
            span[x] = (lo, hi)
        elif lo <= hi:
            exits.append(x)
            if lo < -bound:  # not max() or min(): this runs on every column of a half-plane
                lo = -bound
            if hi > bound:
                hi = bound
            if lo <= hi:
                span[x] = (lo, hi)
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
