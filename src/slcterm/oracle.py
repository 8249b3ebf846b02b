"""Brute-force cross-check for the analyzer.

Restrict the transition relation to integer states in [-B, B] and treat
it as a finite directed graph.  Cycles found here are real cycles of the
loop; escape traces show the bounded window leaking, not
non-termination.  Runs in plain integer arithmetic.  `build_graph` first
reduces the rows to one per primitive normal: a row divided by the gcd
of its normal, b rounded down, keeps every integer point, and of the rows
that share a normal the one with the least b implies the others.  It
clips the window once, on those rows, to the columns from the first to
the last with real points, by cuts that are each a nonnegative
combination of two rows.  It then reads each column in between once,
for its successors and whether one leaves the window, in one of two
ways.  When at most as many columns as reduced rows are left, it calls
`lattice.column` per column on the reduced rows, the one routine it
shares with the geometric decision procedure.  Otherwise it reads the
columns by rows: each row bounds every column at once as one range of
numerators, divided in C iterators.  A graph so costs k + O((cuts +
columns with real points)*n) row reads for k rows with n distinct
primitive normals.  The searches read only the graph, take their starts
in place order 0, 1, -1, 2, -2, ..., and skip the states they are done
with in runs, so each visits every state about once.  The cycle search
starts from the states with a successor in the window.  The escape
search starts from every state with a successor, exits included, keeps
what a failed start reached as done, so it expands each state at most
once, and returns at once when no state exits the window.  It uses no
decomposition, recession cone, height or integer-point search.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import repeat
from math import gcd, inf
from operator import floordiv

from .lattice import column
from .poly2 import HPoly, Record


class TransGraph(Record, defaults=(frozenset(),)):
    """Successor spans per state; columns are intervals, so the
    successors of x inside the window form one inclusive range.  `exits`
    holds the states with a successor outside [-bound, bound]."""

    __slots__ = ("bound", "span", "exits")


def _cut(rows: Iterable[tuple[int, int, int]], z: int) -> tuple[int, int] | None:
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


def _clip(rows: Iterable[tuple[int, int, int]], cols: range) -> range:
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


def _row_bounds(rows: Iterable[tuple[int, int, int]], cols: range) -> tuple[Iterator, Iterator]:
    """The least and greatest integer y of every column of `cols` at
    once: the floor bound (b - a1*z) // a2 of each row with a2 > 0, or
    the ceiling bound (b - a1*z + a2 + 1) // a2 of each row with a2 < 0,
    over the columns as one range of numerators, then the max of the
    lower and the min of the upper bounds; -inf or inf where no row bounds
    y, and lo > hi in a column with no integer.  Rows with a2 = 0 are not
    read: they hold on all of `cols` when it has real points at both ends."""
    lows: list[Iterator] = []
    highs: list[Iterator] = []
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
    with an integer successor outside it.  Only the columns that `_clip`
    keeps are read; the rest hold no integer point.  Raises ValueError
    when more than sys.maxsize columns are left to read."""
    span: dict[int, tuple[int, int]] = {}
    exits = []
    # each row divided by the gcd of its normal, b rounded down, keeps every
    # integer point and drops a strip of none; of the rows that share a
    # normal, the one with the least b implies the others
    least: dict[tuple[int, int], int] = {}
    for a1, a2, b in p.rows:
        g = gcd(a1, a2) or 1
        normal = a1 // g, a2 // g
        b //= g
        if normal not in least or b < least[normal]:
            least[normal] = b
    rows = [(a1, a2, b) for (a1, a2), b in least.items()]
    cols = _clip(rows, range(-bound, bound + 1))
    width = cols.stop - cols.start  # not len(): it fails past sys.maxsize
    if width > sys.maxsize:
        raise ValueError(f"oracle window too wide: {width} columns to read")
    if width > len(rows):
        reads = zip(cols, *_row_bounds(rows, cols))
    else:  # the same bounds from column(): an empty column reads as (inf, -inf)
        q = HPoly(tuple(rows))
        reads = ((x, -inf if lo is None else lo, inf if hi is None else hi)
                 for x in cols for lo, hi in [column(q, x) or (inf, -inf)])
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


def _place_order(states: Iterable[int]) -> list[int]:
    # the search starts 0, 1, -1, 2, -2, ...: by |x|, with x before -x.  A
    # stable sort keeps the order of the first sort, which puts every x
    # before -x; the span's keys go in ascending, as built, which sorts in
    # linear time
    return sorted(sorted(states, reverse=True), key=abs)


def _next(skip: dict[int, int], y: int) -> int:
    # the first state >= y that is not done
    while y in skip:
        z = skip[y]
        if z in skip:
            z = skip[y] = skip[z]
        y = z
    return y


def find_cycle(g: TransGraph) -> list[int] | None:
    """Deterministic DFS from the states of `span`, in place order 0, 1,
    -1, 2, -2, ..., successors ascending.  Returns the first back edge's
    cycle, in trace order.  A state whose successors all leave the window
    is no start: it is on no cycle."""
    span = g.span
    finished: dict[int, int] = {}
    for start in _place_order(span):
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


def find_escape(g: TransGraph, p: HPoly) -> list[int] | None:
    """A trace inside the window whose last state has an integer
    successor outside it: breadth-first from each state of `span` or
    `exits`, in place order 0, 1, -1, 2, -2, ..., so the trace is a
    shortest path from the first start that reaches an exit.  An exit
    whose successors all leave the window starts too, and is its own
    trace.  The states a failed start reached reach no exit, so later
    starts skip them, and each state is expanded at most once.  Exits are
    read from `g.exits`, not `p`.  Returns None exactly when `g.exits` is
    empty: every trace ends in an exit, and every exit is a start, so some
    start returns a trace."""
    span, exits = g.span, g.exits
    if not exits:
        return None
    seen: dict[int, int] = {}  # skips the states some start has reached
    for start in _place_order(exits.union(span)):
        if start in seen:
            continue
        parent: dict[int, int | None] = {start: None}
        seen[start] = start + 1
        queue = [start]
        for x in queue:
            if x in exits:
                trace: list[int] = []
                node: int | None = x
                while node is not None:
                    trace.append(node)
                    node = parent[node]
                return trace[::-1]
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
