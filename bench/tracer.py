"""Spans around slcterm's functions, recorded from outside the package.

`Tracer.installed()` replaces every reference to a traced function in
every loaded slcterm module (the module that defines it and each module
that imported it by name) with a wrapper that records one span per
call, and puts the originals back on exit.  Spans are kept in flat
arrays in memory and written out by `write`.

A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

TRACED = {
    "loopio": ("parse_text",),
    "poly2": ("decompose", "x_extent"),
    "lattice": ("column", "height", "integer_point_2d"),
    "analyzer": ("cycle1", "cycle2", "decide_self_avoiding", "witness_trace", "decide"),
    "oracle": ("build_graph", "find_cycle", "find_escape"),
}

# (work in, work out) recorded for a few spans
_NOTES: Dict[str, Callable[[tuple, object], Tuple[int, int]]] = {
    "poly2.decompose": lambda args, r: (len(args[0].rows), len(r.vertices)),
    "lattice.integer_point_2d": lambda args, r: (0, r is not None),
    "analyzer.cycle2": lambda args, r: (0, r is not None),
    "oracle.build_graph": lambda args, r: (0, len(r.span)),
}

# every per-layer metric, in report order, with its unit
LAYER_METRICS = (
    ("poly2.decompose.calls", "1/op"),
    ("poly2.decompose.self_ms", "ms/op"),
    ("poly2.decompose.rows_in", "rows/call"),
    ("poly2.decompose.vertices_out", "vertices/call"),
    ("poly2.x_extent.calls", "1/op"),
    ("poly2.x_extent.self_ms", "ms/op"),
    ("lattice.integer_point_2d.calls", "1/op"),
    ("lattice.integer_point_2d.self_ms", "ms/op"),
    ("lattice.integer_point_2d.hit_ratio", "ratio"),
    ("lattice.columns_per_query", "columns/query"),
    ("lattice.column.calls", "1/op"),
    ("lattice.column.self_ms", "ms/op"),
    ("lattice.height.calls", "1/op"),
    ("lattice.height.self_ms", "ms/op"),
    ("analyzer.cycle1.self_ms", "ms/op"),
    ("analyzer.cycle2.self_ms", "ms/op"),
    ("analyzer.cycle2.hit_ratio", "ratio"),
    ("analyzer.decide_self_avoiding.self_ms", "ms/op"),
    ("analyzer.seed_queries", "1/op"),
    ("analyzer.witness_trace.self_ms", "ms/op"),
    ("analyzer.decide.self_ms", "ms/op"),
    ("oracle.build_graph.self_ms", "ms/op"),
    ("oracle.build_graph.states", "states/call"),
    ("oracle.find_cycle.self_ms", "ms/op"),
    ("oracle.find_escape.self_ms", "ms/op"),
    ("loopio.parse_text.self_ms", "ms/op"),
    ("trace.overhead_s", "s"),
)

# integer-point queries made under these count as seeding queries
_SEEDERS = ("analyzer.decide_self_avoiding", "analyzer.witness_trace")


def slcterm_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "slcterm" or name.startswith("slcterm."))
    ]


def traced_functions() -> Dict[str, Callable]:
    """Span name -> the original function, from its defining module."""
    out = {}
    for mod_name, fns in TRACED.items():
        mod = importlib.import_module(f"slcterm.{mod_name}")
        for fn_name in fns:
            out[f"{mod_name}.{fn_name}"] = getattr(mod, fn_name)
    return out


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus its direct children's durations.  On one
    call stack a child lies inside its parent and siblings do not overlap."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class Tracer:
    """Span recorder.  Set `op` to tag the spans of the current op."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.work_in = array("q")
        self.work_out = array("q")
        self.op = -1
        self._stack: List[int] = []
        self._self: List[float] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        ix = len(self.names)
        self.names.append(name)
        note = _NOTES.get(name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        op_of, work_in, work_out, stack = self.op_of, self.work_in, self.work_out, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(ix)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            start.append(0.0)
            end.append(0.0)
            work_in.append(0)
            work_out.append(0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if note is not None:
                work_in[i], work_out[i] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every import site of every traced function; restore on exit."""
        wrappers = {}
        for name, fn in traced_functions().items():
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        patched = []
        try:
            for mod in slcterm_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        if len(self._self) != len(self):
            self._self = self_times(self.start, self.end, self.parent)
        return self._self

    def layer_metrics(self, n_ops: int) -> Dict[str, float]:
        """The per-layer metrics over `n_ops` ops (all but trace.overhead_s)."""
        sel = self.self_times()
        name_of = [self.names[i] for i in self.name]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        work_in: Dict[str, int] = defaultdict(int)
        work_out: Dict[str, int] = defaultdict(int)
        under_seeder = [False] * len(sel)
        columns_in_queries = 0
        seed_queries = 0
        for i, name in enumerate(name_of):
            calls[name] += 1
            self_s[name] += sel[i]
            work_in[name] += self.work_in[i]
            work_out[name] += self.work_out[i]
            p = self.parent[i]
            if p >= 0:
                under_seeder[i] = under_seeder[p] or name_of[p] in _SEEDERS
                if name == "lattice.column" and name_of[p] == "lattice.integer_point_2d":
                    columns_in_queries += 1
            if name == "lattice.integer_point_2d" and under_seeder[i]:
                seed_queries += 1

        def per_op(x: float) -> float:
            return x / n_ops

        def per_call(total: float, name: str) -> float:
            return total / calls[name] if calls[name] else 0.0

        out: Dict[str, float] = {}
        for name in set(self.names):
            out[f"{name}.calls"] = per_op(calls[name])
            out[f"{name}.self_ms"] = per_op(self_s[name] * 1000)
        out["poly2.decompose.rows_in"] = per_call(work_in["poly2.decompose"], "poly2.decompose")
        out["poly2.decompose.vertices_out"] = per_call(work_out["poly2.decompose"], "poly2.decompose")
        out["lattice.integer_point_2d.hit_ratio"] = per_call(
            work_out["lattice.integer_point_2d"], "lattice.integer_point_2d")
        out["lattice.columns_per_query"] = per_call(columns_in_queries, "lattice.integer_point_2d")
        out["analyzer.cycle2.hit_ratio"] = per_call(work_out["analyzer.cycle2"], "analyzer.cycle2")
        out["analyzer.seed_queries"] = per_op(seed_queries)
        out["oracle.build_graph.states"] = per_call(work_out["oracle.build_graph"], "oracle.build_graph")
        return out

    def self_ms_by_name(self, n_ops: int) -> Dict[str, float]:
        """Self ms per op of every traced name, with lattice.column split
        by the name of the span that called it."""
        sel = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for i, ix in enumerate(self.name):
            name = self.names[ix]
            if name == "lattice.column":
                p = self.parent[i]
                name += " under " + (self.names[self.name[p]] if p >= 0 else "(op)")
            out[name] += sel[i] * 1000 / n_ops
        return dict(out)

    def write(self, path) -> None:
        """Spans as tab-separated text, times in seconds from the first span."""
        sel = self.self_times()
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as f:
            f.write("span\top\tparent\tname\tstart_s\tend_s\tself_s\n")
            for i in range(len(self)):
                f.write(
                    f"{i}\t{self.op_of[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{sel[i]:.9f}\n"
                )
