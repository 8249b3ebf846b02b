"""Run the slcterm benchmark.

    python3 bench/run.py --workload mix --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --seed 1               # every workload, one row each

Run from anywhere inside a checkout that holds `src/slcterm`; nothing is
built or installed.  Each workload runs in a child process (worker.py)
with its own address-space cap.  With `--trace 0` the child times the
workload and, between its ops, fresh `slcterm decide` processes
(setup_s), and the run prints the end-to-end metrics; with `--trace 1`
it prints the per-layer metrics of a traced pass instead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 only when every answer checked out.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# as in workloads.py, which run.py does not import: it needs slcterm, and
# run.py must be able to say that the sources are missing
WORKLOADS = ("mix", "rows", "magnitude")

# gated end-to-end metrics, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("decide_ms_p50", "ms"),
    ("decide_ms_p90", "ms"),
    ("loops_per_s", "1/s"),
    ("oracle_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)
# printed in each row, but not gated: they are 0 or absent on some workloads
REPORTED = (("witness_ms_p50", "ms"), ("fail_ratio", "ratio"), ("wrong", "count"))

# as in worker.py: a pass stops early once a run is this far past --seconds
OVERRUN_S = 30

# the spans whose self time should be the largest share on each workload
# (prefixes of the names in the traced run's self-time table)
PREDICTED_DOMINANT = {
    "mix": ("oracle.build_graph", "lattice.column under oracle.build_graph"),
    "rows": ("poly2.decompose",),
    "magnitude": ("lattice.integer_point_2d", "lattice.column"),
}


def machine_info(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.tsv")]
    # a traced run makes two passes, each stopping by seconds + OVERRUN_S;
    # run() kills the child on timeout and waits for it
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=2 * (seconds + OVERRUN_S) + 45)
    if out.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_row(res: dict) -> None:
    m, n = res["metrics"], res["samples"]
    count = {"setup_s": n["setup"], "decide_ms_p50": n["decide"], "decide_ms_p90": n["decide"],
             "loops_per_s": n["decide"], "witness_ms_p50": n["witness"],
             "oracle_ms_p50": n["oracle"], "fail_ratio": res["attempted"]}
    cells = []
    for name, unit in END_TO_END + REPORTED:
        cell = f"{name}={_fmt(m[name])} {unit}"
        if name in count:
            cell += f" (n={count[name]})"
        cells.append(cell)
    print(f"{res['workload']:<10} " + "  ".join(cells))
    failed = res["failed"]
    if failed:
        print(f"{'':<10} failed ops by class: {failed}")
    for k in res.get("known_failures", []):
        print(f"{'':<10} known failure: {k['loop']} translated by {k['sign']:+d}e{k['exponent']}: "
              f"listed {k['error']}, now {k['got']}")
    for ex in res["wrong_examples"]:
        print(f"{'':<10} WRONG: {ex}")


def print_layers(res: dict) -> None:
    w = res["workload"]
    print(f"{w}: per-layer metrics over {res['traced_ops']} traced ops ({res['spans']} spans)")
    for name, unit in LAYER_METRICS:
        print(f"  {name:<40} {_fmt(res['per_layer'][name])} {unit}")
    by_name = res["self_ms_by_name"]
    top = sorted(by_name.items(), key=lambda kv: -kv[1])
    print(f"{w}: self time by span, ms/op: " + ", ".join(f"{k} {v:.4g}" for k, v in top[:6]))
    group = [k for k in by_name if k.startswith(PREDICTED_DOMINANT[w])]
    inside = sum(by_name[k] for k in group)
    rival = max((kv for kv in by_name.items() if kv[0] not in group), key=lambda kv: kv[1],
                default=("(none)", 0.0))
    verdict = "holds" if inside > rival[1] else "DOES NOT HOLD"
    print(f"{w}: predicted dominant {' + '.join(PREDICTED_DOMINANT[w])}: {inside:.4g} ms/op, "
          f"largest other {rival[0]}: {rival[1]:.4g} ms/op: {verdict}")
    for curve, points in res["curves"].items():
        print(f"{w}: {curve} (not gated): "
              + ", ".join(f"{k}: {v if isinstance(v, str) else _fmt(v)}" for k, v in points.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slcterm benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slcterm" / "__init__.py").is_file():
        print(f"error: no slcterm sources under {SRC}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_info(args.seed)))
    results = []
    for w in [args.workload] if args.workload else WORKLOADS:
        res = run_worker(w, args.seed, args.seconds, args.trace)
        results.append(res)
        if args.trace:
            print_layers(res)
        else:
            print_row(res)

    spec = LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for res in results:
        values = res["per_layer"] if args.trace else res["metrics"]
        prefix = "" if args.workload else res["workload"] + "."
        for name, unit in spec:
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    correct = all(r["metrics"]["wrong"] == 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(sum(r["failed"].values()) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
