"""The names the benchmark in bench/ reaches into slcterm for.

bench/tracer.py wraps each `module.function` in TRACED at every module
global that refers to it, so each must stay a module-level function of
`slcterm.<module>`.  bench/*.py also import names from slcterm
submodules.  A rename or deletion fails here, not in a traced bench run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from slcterm import analyzer, loopio, oracle

from conftest import (
    empty_loop,
    halfint_loop,
    halfplane_loop,
    inc_loop,
    pair_loop,
    quad_loop,
    slab_loop,
    thick_loop,
    thin_loop,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "module, name",
    [(m, f) for m, fns in _load_tracer().TRACED.items() for f in fns],
)
def test_traced_names_are_module_functions(module, name):
    mod = importlib.import_module(f"slcterm.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"slcterm.{module}.{name}"
    assert fn.__module__ == mod.__name__


def test_bench_imports_resolve():
    imported = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slcterm"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    imported += 1
    assert imported > 0


def test_every_traced_name_is_called():
    # a traced name that no path reaches reads 0 in every bench report, so
    # a span can go dead without failing anything: parse, decide, a short
    # witness and the oracle over the goldens reach each one
    tracer = _load_tracer()
    tr = tracer.Tracer()
    with tr.installed():
        for build in (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop,
                      halfplane_loop, halfint_loop, empty_loop):
            p = loopio.parse_text(loopio.emit_text(build()))
            v = analyzer.decide(p)
            if v.kind == "non-terminating":
                analyzer.witness_trace(p, v, 20)
            g = oracle.build_graph(p, 16)
            oracle.find_cycle(g)
            oracle.find_escape(g, p)
    called = {tr.names[i] for i in tr.name}
    assert sorted(set(tracer.traced_functions()) - called) == []
