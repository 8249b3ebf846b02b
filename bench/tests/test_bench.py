"""Tests of the benchmark itself: inputs, checks and tracing.

    python3 -m pytest bench/tests
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    assert workloads.corpus(workload, 7) == workloads.corpus(workload, 7)
    assert workloads.corpus(workload, 7) != workloads.corpus(workload, 8)


@pytest.mark.parametrize("workload", ["rows", "magnitude"])
def test_costly_items_do_not_depend_on_the_seed(workload):
    def grid(seed):
        # the seed picks only the cheap goldens' exponents and signs
        return sorted(item.name if item.name.startswith(("rows:", "wedge:", "golden:thick"))
                      else re.sub(r"[+-]1e\d+$", "", item.name)
                      for item in workloads.corpus(workload, seed))

    assert grid(1) == grid(2)


# -- rows: an independent integer sweep ------------------------------------


def _normals_span_the_plane(rows):
    dirs = sorted({(a1 // math.gcd(a1, a2), a2 // math.gcd(a1, a2)) for a1, a2, _ in rows
                   if (a1, a2) != (0, 0)}, key=lambda n: math.atan2(n[1], n[0]))
    pairs = zip(dirs, dirs[1:] + dirs[:1])
    return len(dirs) >= 3 and all(u[0] * v[1] - u[1] * v[0] > 0 for u, v in pairs)


def _real_column_empty(rows, x):
    lo = hi = None
    for a1, a2, b in rows:
        if a2 == 0:
            if a1 * x > b:
                return True
            continue
        bound = Fraction(b - a1 * x, a2)
        if a2 > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    return lo is not None and hi is not None and lo > hi


def _integer_column(rows, x, clip):
    lo, hi = -clip, clip
    for a1, a2, b in rows:
        c = b - a1 * x
        if a2 > 0:
            hi = min(hi, c // a2)
        elif a2 < 0:
            lo = max(lo, -(c // -a2))
        elif c < 0:
            return None
    return (lo, hi) if lo <= hi else None


@pytest.mark.parametrize("seed", [1, 2])
def test_rows_loops_are_bounded_and_cycle_free(seed):
    box, clip = 1000, 5000
    for item in workloads.corpus("rows", seed):
        rows = item.rows
        assert item.expect == ("terminating", "L5.5.2")
        assert _normals_span_the_plane(rows), item.name
        assert _real_column_empty(rows, -box) and _real_column_empty(rows, box), item.name
        spans = {}
        for x in range(-box, box + 1):
            span = _integer_column(rows, x, clip)
            if span is not None:
                assert -clip < span[0] and span[1] < clip, item.name
                spans[x] = span
        assert spans, f"{item.name} has no integer point"
        for x, (lo, hi) in spans.items():
            assert not lo <= x <= hi, f"{item.name}: fixed point {x}"
            for y in range(lo, hi + 1):
                back = spans.get(y)
                assert back is None or not back[0] <= x <= back[1], f"{item.name}: 2-cycle {x}, {y}"


def test_rows_cover_the_row_grid():
    counts = sorted(len(item.rows) for item in workloads.corpus("rows", 3))
    assert counts == sorted(workloads.POLYGONS_PER_COUNT * list(workloads.ROW_COUNTS))


# -- checks -----------------------------------------------------------------


def test_checks_substitute_integers():
    inc = workloads.GOLDEN["inc"]  # x' = x + 1
    assert checks.trace_ok(inc, [3, 4, 5])
    assert not checks.trace_ok(inc, [3, 4, 6])
    pair = workloads.GOLDEN["pair"]  # x + x' = 1
    assert checks.cycle_ok(pair, [0, 1])
    assert not checks.cycle_ok(inc, [0, 1])


def test_translation_keeps_transitions():
    rows = workloads.GOLDEN["thick"]
    moved = workloads.translate(rows, 10**6)
    assert checks.trace_ok(rows, [3, 4]) and checks.trace_ok(moved, [3 - 10**6, 4 - 10**6])


def test_calls_are_scaled_by_the_kernel_times_around_them(monkeypatch):
    import worker

    # the kernel takes 2 ms before the call and 4 ms after it
    clock = iter([0.0, 0.002, 0.0, 0.004])
    monkeypatch.setattr(worker, "process_time", lambda: next(clock))
    monkeypatch.setattr(worker, "_kernel", lambda: 0)
    runner = worker.Runner("rows")
    runner.calibrate()
    runner._record("decide", 0, 0.030)
    runner.calibrate()
    # 30 ms where the kernel took 3 ms is 10 ms where it takes 1 ms
    assert worker.KERNEL_REF_MS == 1.0
    assert runner.samples["decide"][0] == [pytest.approx(10.0)]


# -- tracing ----------------------------------------------------------------


def test_self_time_on_a_hand_made_tree():
    #   0: [0, 10]
    #     1: [1, 3]
    #     2: [4, 9]
    #       4: [5, 6]
    #       5: [6, 8]
    #   3: [11, 12]
    start = [0.0, 1.0, 4.0, 11.0, 5.0, 6.0]
    end = [10.0, 3.0, 9.0, 12.0, 6.0, 8.0]
    parent = [-1, 0, 0, -1, 2, 2]
    assert tracer.self_times(start, end, parent) == [3.0, 2.0, 2.0, 1.0, 1.0, 2.0]


def _import_sites(originals):
    by_id = {id(fn): fn for fn in originals}
    return [(mod, attr, value) for mod in tracer.slcterm_modules()
            for attr, value in vars(mod).items() if by_id.get(id(value)) is value]


def test_every_import_site_is_wrapped_and_restored():
    import slcterm.cli  # noqa: F401  (loads every module that imports a traced function)

    originals = list(tracer.traced_functions().values())
    sites = _import_sites(originals)
    names = {(mod.__name__, attr) for mod, attr, _ in sites}
    # a few sites that only a wrap-every-importer approach catches
    for site in [("slcterm.analyzer", "column"), ("slcterm.oracle", "column"),
                 ("slcterm.analyzer", "integer_point_2d"), ("slcterm.lattice", "decompose"),
                 ("slcterm", "decide"), ("slcterm.cli", "witness_trace")]:
        assert site in names
    tr = tracer.Tracer()
    with tr.installed():
        for mod, attr, fn in sites:
            now = getattr(mod, attr)
            assert now is not fn and now.__wrapped__ is fn, (mod.__name__, attr)
        assert _import_sites(originals) == []
        import slcterm

        slcterm.decide(slcterm.hpoly(workloads.GOLDEN["thick"]))
    for mod, attr, fn in sites:
        assert getattr(mod, attr) is fn
    assert "analyzer.decide" in [tr.names[i] for i in tr.name]
    metrics = tr.layer_metrics(1)
    assert metrics["analyzer.decide.calls"] == 1
    assert metrics["lattice.integer_point_2d.calls"] >= 1
    assert metrics["analyzer.seed_queries"] >= 1  # the growth seed of thick's L5.3.1


def test_benchmark_json_names_the_metrics_the_bench_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
