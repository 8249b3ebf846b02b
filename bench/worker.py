"""One workload of the slcterm benchmark, in a process of its own.

    python3 bench/worker.py --workload mix --seed 1 --seconds 35 --trace 0

The process caps its own address space, builds the workload's items from
the seed and makes passes over them, one op at a time, until `--seconds`
have gone by.  An op is one loop: parse and decide it; then, on every
PATH_STRIDE-th item of every PATH_PASSES-th pass, replay a 200-state
witness if the verdict is non-terminating and run the `oracle --compare`
path at B=64.  Between two ops, once every SETUP_EVERY_S seconds, it
times a fresh `slcterm decide` process on an EMPTY loop (setup_s).
Every answer is checked by integer substitution.

A call is timed in process CPU time, which leaves out the time the
process waits for a CPU.  On a shared machine the same code still runs
at one of two speeds, nearly 2x apart, switching every 0.1 to a few
seconds (another tenant on the core's other hardware thread, most
likely).  So the worker times a fixed pure-Python kernel, which shares
no code with slcterm, between two ops at least every SLICE_S, and
scales each call's time by KERNEL_REF_MS over the mean of the kernel
times just before and just after it: times are in ms at the speed where
the kernel takes KERNEL_REF_MS.  A setup spawn's CPU time is scaled the
same way.  A loop's time on each path is the median of its scaled times
over the passes.  With `--trace 1` it makes one pass untraced and the
same pass traced instead, times no fresh processes, and reports the
per-layer metrics.  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import os
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from slcterm import analyzer, loopio, oracle  # noqa: E402
from slcterm.analyzer import CycleWitness, ExtensionFailedError  # noqa: E402
from slcterm.lattice import ScanLimitExceededError  # noqa: E402
from slcterm.poly2 import hpoly  # noqa: E402

OP_LIMIT_S = 10.0
ADDRESS_SPACE_BYTES = 512 * 2**20
WITNESS_LEN = 200
ORACLE_BOUND = 64
# a pass stops early once a run is this far past --seconds (as in run.py)
OVERRUN_S = 30.0
SETUP_EVERY_S = 1.0
SLICE_S = 0.02
KERNEL_REF_MS = 1.0
CLI = "import sys; from slcterm.cli import main; sys.exit(main(['decide', '-']))"
EMPTY = workloads.Item("setup:EMPTY", ((1, 0, 0), (-1, 0, -1)), expect=(workloads.TERM, "EMPTY"))


class OpTimeout(Exception):
    """An op ran past OP_LIMIT_S."""


FAILURES = (ScanLimitExceededError, MemoryError, OverflowError, ExtensionFailedError, OpTimeout)


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def _timed(fn, *args):
    """(fn(*args), CPU seconds), raising OpTimeout past the op limit."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        t0 = process_time()
        out = fn(*args)
        return out, process_time() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


_KERNEL_ROWS = ((3, -2, 7), (-5, 4, 11), (1, 6, 40), (-2, -7, 35), (4, 1, 90), (-1, 3, 20))


def _kernel() -> int:
    """Fixed reference work in the style of slcterm's inner loops, written
    without it: a hexagon's vertices by exact pairwise intersection, then
    its integer columns.  About 1 ms with Python 3.11 on a 2.0 GHz Xeon."""
    rows = _KERNEL_ROWS
    vertices = set()
    for i, (a1, a2, b1) in enumerate(rows):
        for c1, c2, b2 in rows[i + 1:]:
            det = a1 * c2 - a2 * c1
            if det:
                x, y = Fraction(b1 * c2 - a2 * b2, det), Fraction(a1 * b2 - b1 * c1, det)
                if all(r1 * x + r2 * y <= b for r1, r2, b in rows):
                    vertices.add((x, y))
    cols = {}
    for x in range(-40, 41):
        lo, hi = -10**9, 10**9
        for a1, a2, b in rows:
            c = b - a1 * x
            if a2 > 0:
                hi = min(hi, c // a2)
            elif a2 < 0:
                lo = max(lo, -(c // -a2))
        if lo <= hi:
            cols[x] = (lo, hi)
    return len(sorted(vertices)) + len(cols)


def _decide(text):
    p = loopio.parse_text(text)
    return p, analyzer.decide(p)


def _oracle(p):
    g = oracle.build_graph(p, ORACLE_BOUND)
    cyc = oracle.find_cycle(g)
    oracle.find_escape(g, p)
    return cyc, analyzer.decide(p)


def _verdict(v):
    return (v.kind, str(v.label))


class Runner:
    """Runs ops and keeps their timings, failures and failed checks."""

    def __init__(self, workload: str):
        self.stride = workloads.PATH_STRIDE[workload]
        # path -> item index -> its times; a loop that failed on a path
        # goes into `failed_items` and counts at the op limit
        self.samples = {path: defaultdict(list) for path in ("decide", "witness", "oracle")}
        self.failed_items = {path: set() for path in self.samples}
        self.kernel_times: list = []
        self._next_kernel = 0.0
        self._pending: list = []  # (path, index, CPU seconds) since the last kernel
        self.attempted = 0
        self.failed: Counter = Counter()
        self.wrong = 0
        self.wrong_examples: list = []
        self.setup_times: list = []  # scaled like the calls
        self._next_setup = 0.0
        self._base: dict = {}

    def expected(self, item):
        """The verdict the item must get, worked out before any timing."""
        if item.expect is not None:
            return item.expect
        if item.base is None:
            return None
        if item.base not in self._base:
            self._base[item.base] = _verdict(analyzer.decide(hpoly(item.base)))
        return self._base[item.base]

    def wrong_answer(self, item, what: str) -> None:
        self.wrong += 1
        if len(self.wrong_examples) < 5:
            self.wrong_examples.append({"item": item.name, "rows": item.rows, "check": what})

    def _record(self, path: str, index: int, dt: float) -> None:
        self._pending.append((path, index, dt))

    def calibrate(self) -> None:
        """Time the kernel and scale the calls timed since the last one."""
        t0 = process_time()
        _kernel()
        k = process_time() - t0
        if self._pending:
            scale = KERNEL_REF_MS / _ms((self.kernel_times[-1] + k) / 2)
            for path, index, dt in self._pending:
                self.samples[path][index].append(_ms(dt) * scale)
            self._pending.clear()
        self.kernel_times.append(k)
        self._next_kernel = perf_counter() + SLICE_S

    def run(self, index: int, item, expect, paths: bool = True) -> None:
        self.attempted += 1
        stage = "decide"
        try:
            (p, v), dt = _timed(_decide, item.text)
            self._record("decide", index, dt)
            if expect is not None and _verdict(v) != expect:
                self.wrong_answer(item, f"verdict {_verdict(v)} != expected {expect}")
            if not paths or index % self.stride:
                return
            if v.kind == workloads.NONTERM:
                stage = "witness"
                states, dt = _timed(analyzer.witness_trace, p, v, WITNESS_LEN)
                self._record("witness", index, dt)
                self._check_witness(item, v, states)
            stage = "oracle"
            (cyc, v2), dt = _timed(_oracle, p)
            self._record("oracle", index, dt)
            self._check_oracle(item, v, cyc, v2)
        except FAILURES as e:
            self.failed[type(e).__name__] += 1
            self.samples[stage][index]  # a failed loop is still a loop of the path
            self.failed_items[stage].add(index)
        except Exception:  # any other exception is a wrong answer; keep going
            self.wrong_answer(item, f"{stage} raised: {traceback.format_exc(limit=-2)}")

    def _check_witness(self, item, v, states) -> None:
        if len(states) != WITNESS_LEN or not checks.trace_ok(item.rows, states):
            self.wrong_answer(item, "witness trace fails substitution")
        if isinstance(v.witness, CycleWitness) and not checks.cycle_ok(item.rows, v.witness.states):
            self.wrong_answer(item, "cycle witness does not close")

    def _check_oracle(self, item, v, cyc, v2) -> None:
        if _verdict(v2) != _verdict(v):
            self.wrong_answer(item, "decide gave two verdicts for one loop")
        if cyc is None:
            return
        if not checks.cycle_ok(item.rows, cyc):
            self.wrong_answer(item, "oracle cycle fails substitution")
        if v2.kind != workloads.NONTERM:
            self.wrong_answer(item, f"bounded graph has a cycle but the verdict is {v2.kind}")

    def spawn_setup(self) -> float:
        """CPU time (user + system) of a fresh `slcterm decide` on an EMPTY loop."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = subprocess.run([sys.executable, "-c", CLI], input=EMPTY.text, capture_output=True,
                             text=True, env=env, cwd=BENCH.parent, timeout=60)
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if out.returncode != 0 or out.stdout != "terminating EMPTY\n":
            self.wrong_answer(EMPTY, f"setup spawn printed {out.stdout!r}, code {out.returncode}")
        return r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime

    def run_pass(self, items, expects, deadline: float, tracer=None, setup=False,
                 paths=True) -> int:
        """Run every item once; returns how many ran before the deadline.
        With `setup`, time a setup spawn between ops every SETUP_EVERY_S;
        without `paths`, run only decide."""
        self.calibrate()
        try:
            for i, item in enumerate(items):
                if perf_counter() > deadline:
                    return i
                if setup and perf_counter() >= self._next_setup:
                    self.calibrate()
                    dt = self.spawn_setup()
                    self.calibrate()
                    self.setup_times.append(dt * KERNEL_REF_MS / _ms(sum(self.kernel_times[-2:]) / 2))
                    self._next_setup = perf_counter() + SETUP_EVERY_S
                elif perf_counter() >= self._next_kernel:
                    self.calibrate()
                if tracer is not None:
                    tracer.op = i
                self.run(i, item, expects[i], paths)
            return len(items)
        finally:
            self.calibrate()

    def times(self, path: str) -> list:
        """Each loop's median scaled time on the path in ms, a failed loop
        at the op limit."""
        failed = self.failed_items[path]
        return [_ms(OP_LIMIT_S) if i in failed else statistics.median(ts)
                for i, ts in self.samples[path].items()]

    def metrics(self, peak_rss_mb: float) -> dict:
        dec, wit, orc = self.times("decide"), self.times("witness"), self.times("oracle")
        return {
            "setup_s": statistics.median(self.setup_times) if self.setup_times else None,
            "decide_ms_p50": statistics.median(dec),
            "decide_ms_p90": _p90(dec),
            "loops_per_s": 1000 * len(dec) / sum(dec),
            "witness_ms_p50": statistics.median(wit) if wit else None,
            "oracle_ms_p50": statistics.median(orc) if orc else None,
            "fail_ratio": sum(self.failed.values()) / self.attempted,
            "wrong": self.wrong,
            "peak_rss_mb": peak_rss_mb,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ms(s: float) -> float:
    return s * 1000


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


# ---------------------------------------------------------------------------
# known failures and scaling curves
# ---------------------------------------------------------------------------


def known_failures(workload: str, runner: Runner) -> list:
    """Re-run the inputs the seed is known to fail on, outside the counts."""
    listed = json.loads((BENCH / "known_failures.json").read_text()).get(workload, [])
    out = []
    for entry in listed:
        c = entry["sign"] * 10 ** entry["exponent"]
        item = workloads.Item(entry["loop"], workloads.translate(workloads.GOLDEN[entry["loop"]], c),
                              base=workloads.GOLDEN[entry["loop"]])
        expect = runner.expected(item)
        try:
            (_, v), _ = _timed(_decide, item.text)
            got = "answered"
            if _verdict(v) != expect:
                runner.wrong_answer(item, f"translated verdict {_verdict(v)} != {expect}")
        except FAILURES as e:
            got = type(e).__name__
        out.append(dict(entry, got=got))
    return out


def _decide_ms(rows):
    """decide time of one loop in ms, or the class of its failure."""
    try:
        return _ms(_timed(_decide, workloads.loop_text(rows))[1])
    except FAILURES as e:
        return type(e).__name__


def scaling_curves(workload: str, seed: int) -> dict:
    """decide time against the size that drives each workload's cost."""
    rng = random.Random(f"slcterm-bench/curves/{seed}")
    if workload == "rows":
        return {"decide_ms_by_rows": {
            k: _decide_ms(workloads.tangent_polygon(rng, k)) for k in (8, 16, 32, 64, 96)}}
    if workload == "magnitude":
        thick = workloads.GOLDEN["thick"]
        return {
            "decide_ms_by_wedge_k": {k: _decide_ms(workloads.wedge(k)) for k in (5, 10, 20, 30)},
            "decide_ms_by_thick_exponent": {
                e: _decide_ms(workloads.translate(thick, 10**e)) for e in (0, 2, 4, 5, 6)},
        }
    return {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)

    items = workloads.corpus(args.workload, args.seed)
    runner = Runner(args.workload)
    expects = [runner.expected(item) for item in items]
    result = {"workload": args.workload, "seed": args.seed, "items": len(items)}
    t0 = perf_counter()
    deadline = t0 + args.seconds + OVERRUN_S

    if args.trace:
        # the same pass untraced and then traced: the difference is the cost of tracing
        n = runner.run_pass(items, expects, deadline)
        untraced = perf_counter() - t0
        tr = tracing.Tracer()
        with tr.installed():
            t1 = perf_counter()
            runner.run_pass(items[:n], expects, deadline + untraced, tr)
            traced = perf_counter() - t1
        layers = tr.layer_metrics(n)
        layers["trace.overhead_s"] = traced - untraced
        result["per_layer"] = {name: layers[name] for name, _ in tracing.LAYER_METRICS}
        result["self_ms_by_name"] = tr.self_ms_by_name(n)
        result["traced_ops"] = n
        result["spans"] = len(tr)
        if args.spans:
            tr.write(args.spans)
        result["curves"] = scaling_curves(args.workload, args.seed)
    else:
        runner.spawn_setup()  # warms the bytecode cache; not counted
        passes = 0
        path_passes = workloads.PATH_PASSES[args.workload]
        # the first pass covers every item; later ones stop at --seconds,
        # which leaves some items one sample more than others
        while passes == 0 or perf_counter() - t0 < args.seconds:
            done = runner.run_pass(items, expects, deadline if passes == 0 else t0 + args.seconds,
                                   setup=True, paths=int(passes) % path_passes == 0)
            passes += done / len(items)
            if done < len(items):
                break
        result["passes"] = passes

    # before the known failures, which a later fix may let answer with a big window
    peak_rss_mb = _peak_rss_mb()
    if not args.trace:
        result["known_failures"] = known_failures(args.workload, runner)
    result["elapsed_s"] = perf_counter() - t0
    result["metrics"] = runner.metrics(peak_rss_mb)
    result["samples"] = dict({k: len(v) for k, v in runner.samples.items()},
                             setup=len(runner.setup_times), kernel=len(runner.kernel_times))
    result["kernel_ms"] = _ms(statistics.median(runner.kernel_times))
    result["attempted"] = runner.attempted
    result["failed"] = dict(runner.failed)
    result["wrong_examples"] = runner.wrong_examples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
