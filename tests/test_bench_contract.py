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
