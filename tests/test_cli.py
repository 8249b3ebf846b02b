"""End-to-end runs of the command line front end, in process."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import slcterm
from slcterm import cli, poly2
from slcterm.analyzer import CycleWitness, Verdict
from slcterm.cli import main
from slcterm.loopio import emit_json, emit_text
from slcterm.poly2 import hpoly

from conftest import SEED, random_slc, slab_loop, slope2_wedge, wedge_loop
from test_analyzer import DECIDE_GOLDEN

SLAB = "slc v1\n4 -3 2\n-4 3 -1\n-1 0 -3\n"
THIN = "slc v1\n4 -3 1\n-4 3 -1\n-1 0 -3\n"
INC = "slc v1\n1 -1 -1\n-1 1 1\n"
QUAD = "slc v1\n1 1 1\n-1 -1 2\n1 -1 3\n-1 1 3\n"
PAIR = "slc v1\n1 1 1\n-1 -1 -1\n"
HALFINT = "slc v1\n2 -2 -3\n-2 2 3\n-1 0 -1\n"
EMPTY = "slc v1\n1 0 0\n-1 0 -1\n"


def run_cli(*argv, stdin=None):
    # the suite runs under -s, so capture by swapping the streams directly
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse rejects bad options this way
                code = e.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def loop_file(tmp_path, text):
    f = tmp_path / "loop.txt"
    f.write_text(text)
    return str(f)


def test_decide_outputs(tmp_path):
    code, out, _ = run_cli("decide", loop_file(tmp_path, SLAB))
    assert code == 0 and out == "unknown L5.3.3\n"
    code, out, _ = run_cli("decide", "-", stdin=THIN)
    assert code == 0 and out == "terminating L5.3.4\n"
    code, out, _ = run_cli("decide", "-", stdin=INC)
    assert code == 0 and out == "non-terminating L5.4.6\ntrace: 1 2 3 4 5 6 7 8 9 10\n"
    code, out, _ = run_cli("decide", "-", stdin=QUAD)
    assert code == 0 and out == "non-terminating CYCLE\ncycle: 0\n"
    code, out, _ = run_cli("decide", "-", stdin=PAIR)
    assert code == 0 and out == "non-terminating CYCLE\ncycle: 0 1\n"
    code, out, _ = run_cli("decide", "-", stdin=EMPTY)
    assert code == 0 and out == "terminating EMPTY\n"


# stdout of `decide` and `decide --json` for each DECIDE_GOLDEN loop, in order
DECIDE_BYTES = [
    (  # L5.3.3
        "unknown L5.3.3\n",
        '{"report": "v1", "verdict": "unknown", "case": "L5.3.3", "witness": null, '
        '"decomposition": {"vertices": [["3", "10/3"], ["3", "11/3"]], '
        '"cone": {"kind": "ray", "generators": [[3, 4]]}, "vertex_bound": "11/3"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.4
        "terminating L5.3.4\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.4", "witness": null, '
        '"decomposition": {"vertices": [["3", "11/3"]], "cone": {"kind": "ray", '
        '"generators": [[3, 4]]}, "vertex_bound": "11/3"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.1
        "non-terminating L5.3.1\ntrace: 3 4 5 6 8 10 13 17 22 29\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.3.1", '
        '"witness": {"type": "trace", "prefix": [3, 4, 5, 6, 8, 10, 13, 17, 22, 29]}, '
        '"decomposition": {"vertices": [["3", "10/3"], ["3", "4"]], '
        '"cone": {"kind": "ray", "generators": [[3, 4]]}, "vertex_bound": "4"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.6
        "non-terminating L5.4.6\ntrace: 1 2 3 4 5 6 7 8 9 10\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.4.6", '
        '"witness": {"type": "trace", "prefix": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}, '
        '"decomposition": {"vertices": [["0", "1"]], "cone": {"kind": "line", '
        '"generators": [[1, 1], [-1, -1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.5.1
        "non-terminating L5.5.1\ntrace: 1 2 3 4 5 6 7 8 9 10\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.5.1", '
        '"witness": {"type": "trace", "prefix": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}, '
        '"decomposition": {"vertices": [["0", "1"]], "cone": {"kind": "half-plane", '
        '"generators": [[1, 1], [-1, -1], [0, 1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.8
        "terminating L5.3.8\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.8", "witness": null, '
        '"decomposition": {"vertices": [["1", "5/2"]], "cone": {"kind": "ray", '
        '"generators": [[1, 1]]}, "vertex_bound": "5/2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.5.2
        "terminating L5.5.2\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.5.2", "witness": null, '
        '"decomposition": {"vertices": [["3", "10"], ["3", "12"], ["5", "10"], ["5", '
        '"12"]], "cone": {"kind": "zero", "generators": []}, "vertex_bound": "12"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.2
        "terminating L5.3.2\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.2", "witness": null, '
        '"decomposition": {"vertices": [["3", "5"]], "cone": {"kind": "ray", '
        '"generators": [[0, 1]]}, "vertex_bound": "5"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.2
        "terminating L5.3.2\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.2", "witness": null, '
        '"decomposition": {"vertices": [["3", "-5/2"]], "cone": {"kind": "ray", '
        '"generators": [[1, -1]]}, "vertex_bound": "3"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.6
        "terminating L5.3.6\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.6", "witness": null, '
        '"decomposition": {"vertices": [["4", "2"]], "cone": {"kind": "ray", '
        '"generators": [[2, 1]]}, "vertex_bound": "4"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.7
        "non-terminating L5.3.7\ntrace: 1 3 5 7 9 11 13 15 17 19\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.3.7", '
        '"witness": {"type": "trace", "prefix": [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]}, '
        '"decomposition": {"vertices": [["0", "2"]], "cone": {"kind": "ray", '
        '"generators": [[1, 1]]}, "vertex_bound": "2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.9
        "non-terminating L5.3.9\ntrace: -1 -3 -5 -7 -9 -11 -13 -15 -17 -19\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.3.9", '
        '"witness": {"type": "trace", "prefix": [-1, -3, -5, -7, -9, -11, -13, -15, -17, '
        '-19]}, "decomposition": {"vertices": [["0", "-2"]], "cone": {"kind": "ray", '
        '"generators": [[-1, -1]]}, "vertex_bound": "2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.10
        "terminating L5.3.10\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.10", "witness": null, '
        '"decomposition": {"vertices": [["-1", "-5/2"]], "cone": {"kind": "ray", '
        '"generators": [[-1, -1]]}, "vertex_bound": "5/2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.3.5
        "terminating L5.3.5\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.3.5", "witness": null, '
        '"decomposition": {"vertices": [["1", "13/9"], ["1", "14/9"]], '
        '"cone": {"kind": "ray", "generators": [[3, 4]]}, "vertex_bound": "14/9"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.10
        "terminating L5.4.10\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.4.10", "witness": null, '
        '"decomposition": {"vertices": [["1/2", "0"]], "cone": {"kind": "line", '
        '"generators": [[0, 1], [0, -1]]}, "vertex_bound": "1/2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.5
        "terminating L5.4.5\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.4.5", "witness": null, '
        '"decomposition": {"vertices": [["0", "-1/3"]], "cone": {"kind": "line", '
        '"generators": [[3, 1], [-3, -1]]}, "vertex_bound": "1/3"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.4
        "terminating L5.4.4\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.4.4", "witness": null, '
        '"decomposition": {"vertices": [["0", "-1/4"]], "cone": {"kind": "line", '
        '"generators": [[2, 3], [-2, -3]]}, "vertex_bound": "1/4"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.7
        "terminating L5.4.7\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.4.7", "witness": null, '
        '"decomposition": {"vertices": [["0", "1/3"], ["0", "2/3"]], '
        '"cone": {"kind": "line", "generators": [[1, 1], [-1, -1]]}, '
        '"vertex_bound": "2/3"}, "assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.2.1
        "non-terminating L5.2.1\ntrace: 3 4 5 6 7 8 9 10 11 12\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.2.1", '
        '"witness": {"type": "trace", "prefix": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]}, '
        '"decomposition": {"vertices": [["3", "4"]], "cone": {"kind": "wedge", '
        '"generators": [[1, 1], [0, 1]]}, "vertex_bound": "4"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.2.2
        "terminating L5.2.2\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.2.2", "witness": null, '
        '"decomposition": {"vertices": [["4", "-4"]], "cone": {"kind": "wedge", '
        '"generators": [[1, -2], [2, -1]]}, "vertex_bound": "4"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.2.4
        "terminating L5.2.4\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.2.4", "witness": null, '
        '"decomposition": {"vertices": [["-1", "0"]], "cone": {"kind": "wedge", '
        '"generators": [[-1, 0], [-1, -1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.2.6
        "terminating L5.2.6\n",
        '{"report": "v1", "verdict": "terminating", "case": "L5.2.6", "witness": null, '
        '"decomposition": {"vertices": [["1", "0"]], "cone": {"kind": "wedge", '
        '"generators": [[1, 0], [1, 1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # CYCLE
        "non-terminating CYCLE\ncycle: 0\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "CYCLE", '
        '"witness": {"type": "cycle", "states": [0]}, '
        '"decomposition": {"vertices": [["-5/2", "1/2"], ["-1", "2"], ["1/2", "-5/2"], '
        '["2", "-1"]], "cone": {"kind": "zero", "generators": []}, "vertex_bound": "5/2"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # CYCLE
        "non-terminating CYCLE\ncycle: 0 1\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "CYCLE", '
        '"witness": {"type": "cycle", "states": [0, 1]}, '
        '"decomposition": {"vertices": [["0", "1"]], "cone": {"kind": "line", '
        '"generators": [[1, -1], [-1, 1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
    (  # EMPTY
        "terminating EMPTY\n",
        '{"report": "v1", "verdict": "terminating", "case": "EMPTY", "witness": null, '
        '"decomposition": null, "assumptions": {"assume_reachability": false}}\n',
    ),
    (  # L5.4.6
        "non-terminating L5.4.6\ntrace: -1 -2 -3 -4 -5 -6 -7 -8 -9 -10\n",
        '{"report": "v1", "verdict": "non-terminating", "case": "L5.4.6", '
        '"witness": {"type": "trace", "prefix": [-1, -2, -3, -4, -5, -6, -7, -8, -9, -10]}, '
        '"decomposition": {"vertices": [["0", "-1"]], "cone": {"kind": "line", '
        '"generators": [[1, 1], [-1, -1]]}, "vertex_bound": "1"}, '
        '"assumptions": {"assume_reachability": false}}\n',
    ),
]


def test_decide_bytes_pinned_for_every_golden():
    assert len(DECIDE_BYTES) == len(DECIDE_GOLDEN)
    for (rows, _, label), (text, report) in zip(DECIDE_GOLDEN, DECIDE_BYTES):
        loop = emit_text(hpoly(rows))
        assert run_cli("decide", "-", stdin=loop) == (0, text, ""), label
        assert run_cli("decide", "-", "--json", stdin=loop) == (0, report, ""), label


def test_decide_assume_reachability():
    code, out, _ = run_cli("decide", "-", "--assume-reachability", stdin=SLAB)
    assert code == 0 and out == "terminating L5.3.3\n"


def test_decide_json_report():
    code, out, _ = run_cli("decide", "-", "--json", stdin=SLAB)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "unknown" and obj["case"] == "L5.3.3"
    assert obj["decomposition"]["cone"] == {"kind": "ray", "generators": [[3, 4]]}
    assert obj["assumptions"] == {"assume_reachability": False}
    # empty loops carry no decomposition
    code, out, _ = run_cli("decide", "-", "--json", stdin=EMPTY)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "terminating" and obj["decomposition"] is None


def test_decide_json_reuses_the_verdicts_decomposition(monkeypatch):
    # the box 3 <= x <= 5, -5 <= x' <= -3: decide decomposes p once, the
    # box has no cycle so p with its swap is never searched, and the report
    # reuses decide's.  Counted at every module global that refers to
    # poly2.decompose.
    real, calls = poly2.decompose, []

    def counted(p):
        calls.append(p)
        return real(p)

    for mod in [m for name, m in sys.modules.items() if name.startswith("slcterm")]:
        if getattr(mod, "decompose", None) is real:
            monkeypatch.setattr(mod, "decompose", counted)
    code, out, _ = run_cli("decide", "-", "--json", stdin="slc v1\n1 0 5\n-1 0 -3\n0 1 -3\n0 -1 5\n")
    assert code == 0 and json.loads(out)["case"] == "L5.5.2"
    assert json.loads(out)["decomposition"]["vertices"] == [["3", "-5"], ["3", "-3"], ["5", "-5"], ["5", "-3"]]
    assert len(calls) == 1


def test_decide_reads_json_loops():
    code, out, _ = run_cli("decide", "-", stdin=emit_json(slab_loop()))
    assert code == 0 and out == "unknown L5.3.3\n"


def test_decide_deterministic_output(tmp_path):
    f = loop_file(tmp_path, SLAB)
    assert run_cli("decide", f, "--json") == run_cli("decide", f, "--json")
    assert run_cli("decide", "-", stdin=INC) == run_cli("decide", "-", stdin=INC)


def test_cycles_outputs():
    code, out, _ = run_cli("cycles", "-", stdin=QUAD)
    assert code == 0 and out == "cycle1: 0\ncycle2: 0 0\n"
    code, out, _ = run_cli("cycles", "-", stdin=PAIR)
    assert code == 0 and out == "cycle1: none\ncycle2: 0 1\n"
    code, out, _ = run_cli("cycles", "-", stdin=SLAB)
    assert code == 0 and out == "cycle1: none\ncycle2: none\n"
    # -4 <= x + x' <= -2: the fixed point -1 is the 2-cycle (-1, -1)
    code, out, _ = run_cli("cycles", "-", stdin="slc v1\n1 1 -2\n-1 -1 4\n")
    assert code == 0 and out == "cycle1: -1\ncycle2: -1 -1\n"
    # cycles scans no column, so it takes no --scan-limit
    code, out, err = run_cli("cycles", "-", "--scan-limit", "5", stdin=PAIR)
    assert code == 2 and out == "" and "unrecognized arguments: --scan-limit 5" in err


def test_cycle_verdict_scans_no_column():
    # the adjacent-pair slice names the 2-cycle, so even a scan limit of 0
    # columns leaves the CYCLE verdict standing
    assert run_cli("decide", "-", "--scan-limit", "0", stdin=PAIR) == (
        0, "non-terminating CYCLE\ncycle: 0 1\n", "")


def test_segment_without_integer_points_is_answered():
    # 2x + 2x' = 1 inside |x|, |x'| <= 10^30: every real point is a 2-cycle,
    # but no integer pair is, and both commands answer without a column scan
    n = 10**30
    seg = f"slc v1\n2 2 1\n-2 -2 -1\n1 0 {n}\n-1 0 {n}\n0 1 {n}\n0 -1 {n}\n"
    assert run_cli("decide", "-", stdin=seg) == (0, "terminating L5.5.2\n", "")
    assert run_cli("cycles", "-", stdin=seg) == (0, "cycle1: none\ncycle2: none\n", "")


def test_decompose_outputs():
    code, out, _ = run_cli("decompose", "-", stdin=SLAB)
    assert code == 0
    assert out == "vertices: (3, 10/3) (3, 11/3)\ncone: ray (3, 4)\nbound: 11/3\n"
    code, out, _ = run_cli("decompose", "-", stdin="slc v1\n1 -1 -1\n")
    assert out == ("vertices: (0, 1)\n"
                   "cone: half-plane boundary=(1, 1) witness=(0, 1)\nbound: 1\n")
    code, out, _ = run_cli("decompose", "-", stdin=PAIR)
    assert out == "vertices: (0, 1)\ncone: line (1, -1)\nbound: 1\n"
    code, out, _ = run_cli("decompose", "-", stdin="slc v1\n")
    assert out == "vertices: (0, 0)\ncone: plane\nbound: 0\n"
    code, out, _ = run_cli("decompose", "-", stdin=EMPTY)
    assert code == 0 and out == "empty\n"


def test_one_prefix_for_decide_its_report_and_witness():
    # decide's trace line, decide --json's prefix and witness --length 10
    # replay one seed to the same 10 states, or stop at the same limit.
    # --scan-limit 50 stops the slope-2 wedges in the seed query: their
    # real columns start at 1 and their integers at k - 1
    loops = [hpoly(rows) for rows, kind, label in DECIDE_GOLDEN
             if kind == "non-terminating" and label != "CYCLE"]
    loops += [wedge_loop(k) for k in range(2, 31)] + [slope2_wedge(k) for k in (60, 100)]
    outcomes = Counter()
    for p in loops:
        loop = emit_text(p)
        for extra in ([], ["--scan-limit", "50"]):
            text = run_cli("decide", "-", *extra, stdin=loop)
            report = run_cli("decide", "-", "--json", *extra, stdin=loop)
            trace = run_cli("witness", "-", "--length", "10", *extra, stdin=loop)
            if text[0] == 3:
                assert text == report == trace and text[1] == "", (loop, extra)
                outcomes["scan"] += 1
                continue
            assert text[0] == report[0] == trace[0] == 0, (loop, extra)
            states = trace[1].removeprefix("trace: ").split()
            assert len(states) == 10
            assert text[1].splitlines()[1] == trace[1].rstrip("\n"), (loop, extra)
            assert json.loads(report[1])["witness"] == {"type": "trace", "prefix": [int(x) for x in states]}
            outcomes["trace"] += 1
    assert set(outcomes) == {"trace", "scan"}


def test_witness_outputs():
    code, out, _ = run_cli("witness", "-", "--length", "6", stdin=INC)
    assert code == 0 and out == "trace: 1 2 3 4 5 6\n"
    code, out, err = run_cli("witness", "-", "--length", "5", stdin=THIN)
    assert code == 2 and out == "" and "terminating" in err


def test_oracle_outputs():
    code, out, _ = run_cli("oracle", "-", "--bound", "10", stdin=SLAB)
    assert code == 0 and out == "cycle: none\nescape: 8 10\n"
    code, out, _ = run_cli("oracle", "-", "--bound", "5", stdin=QUAD)
    assert code == 0 and out == "cycle: 0 -2\nescape: none\n"
    code, out, _ = run_cli("oracle", "-", "--bound", "2", "--compare", stdin=PAIR)
    assert code == 0
    assert out == "cycle: 0 1\nescape: none\nverdict: non-terminating CYCLE\ncompare: ok\n"
    code, out, _ = run_cli("oracle", "-", "--compare", stdin=EMPTY)
    assert code == 0
    assert out == "cycle: none\nescape: none\nverdict: terminating EMPTY\ncompare: ok\n"


def test_oracle_compare_mismatch_exits_4(monkeypatch):
    # a terminating verdict on a loop whose bounded graph has a cycle
    monkeypatch.setattr(cli, "decide", lambda p, scan_limit: Verdict("terminating", "L5.5.2"))
    code, out, _ = run_cli("oracle", "-", "--bound", "2", "--compare", stdin=PAIR)
    assert code == 4
    assert out == ("cycle: 0 1\nescape: none\nverdict: terminating L5.5.2\n"
                   "compare: mismatch (bounded graph has a cycle)\n")


def test_oracle_compare_verdict_cycle_missing_from_graph_exits_4(monkeypatch):
    # a cycle verdict whose states lie in the window must be a cycle of
    # the graph; inc (x' = x + 1) has none
    cyc = Verdict("non-terminating", "CYCLE", CycleWitness((0, 1)))
    monkeypatch.setattr(cli, "decide", lambda p, scan_limit: cyc)
    code, out, _ = run_cli("oracle", "-", "--bound", "2", "--compare", stdin=INC)
    assert code == 4
    assert out == ("cycle: none\nescape: 0 1 2\nverdict: non-terminating CYCLE\n"
                   "compare: mismatch (verdict cycle inside the window, graph has none)\n")
    # a state outside the window puts the cycle beyond what the graph sees
    far = Verdict("non-terminating", "CYCLE", CycleWitness((2, 3)))
    monkeypatch.setattr(cli, "decide", lambda p, scan_limit: far)
    code, out, _ = run_cli("oracle", "-", "--bound", "2", "--compare", stdin=INC)
    assert code == 0 and out.endswith("compare: ok\n")


def test_oracle_compare_goldens_agree():
    for rows, kind, label in DECIDE_GOLDEN:
        for bound in ("0", "5", "64"):
            code, out, _ = run_cli("oracle", "-", "--bound", bound, "--compare",
                                   stdin=emit_text(hpoly(rows)))
            assert code == 0, (rows, bound)
            assert out.endswith(f"verdict: {kind} {label}\ncompare: ok\n"), (rows, bound)


def test_oracle_compare_corpus():
    # a graph cycle is a real cycle and a verdict cycle inside the window
    # is a graph cycle, so --compare never trips; exit 4 is reserved for
    # genuine analyzer bugs
    rng = random.Random(SEED + 13)
    for _ in range(150):
        p = random_slc(rng)
        code, out, _ = run_cli("oracle", "-", "--bound", "24", "--compare",
                               stdin=emit_text(p))
        assert code == 0
        assert out.endswith("compare: ok\n")


def test_oracle_window_past_sys_maxsize():
    # a half-plane and a two-sided wedge keep 2*10^19 + 1 and 10^19 + 4
    # columns after both clips, more than a range can count: a usage
    # error, exit 2; the box and halfint, clipped to 3 and 0 columns,
    # answer at the same bound
    bound = str(10**19)
    for text, width in (("slc v1\n1 -1 -1\n", 2 * 10**19 + 1), ("slc v1\n1 -1 0\n-2 1 3\n", 10**19 + 4)):
        code, out, err = run_cli("oracle", "-", "--bound", bound, stdin=text)
        assert (code, out, err) == (2, "", f"error: oracle window too wide: {width} columns to read\n")
    box = "slc v1\n-1 0 -3\n1 0 5\n0 1 -3\n0 -1 5\n"
    code, out, err = run_cli("oracle", "-", "--bound", bound, stdin=box)
    assert (code, out, err) == (0, "cycle: none\nescape: none\n", "")
    code, out, _ = run_cli("oracle", "-", "--bound", bound, "--compare", stdin=HALFINT)
    assert (code, out) == (0, "cycle: none\nescape: none\nverdict: terminating L5.3.8\ncompare: ok\n")


def test_collatz_orbit_outputs():
    code, out, _ = run_cli("collatz", "orbit", "--d", "2", "--m-list", "1,3",
                           "--r-list", "0,-1", "--start", "7")
    assert code == 0
    assert out == ("orbit: 7 11 17 26 13 20 10 5 8 4 2 1 2\n"
                   "outcome: entered-cycle first=10 period=2\n")
    code, out, _ = run_cli("collatz", "orbit", "--d", "2", "--m", "3", "--a", "0",
                           "--start", "3", "--steps", "5")
    assert code == 0 and out == "orbit: 3 4 6 9 13 19\noutcome: exceeded-steps\n"
    code, out, _ = run_cli("collatz", "orbit", "--d", "2", "--m", "3", "--a", "0",
                           "--start", "4", "--abs-bound", "50")
    assert code == 0
    assert out == "orbit: 4 6 9 13 19 28 42 63\noutcome: exceeded-bound\n"


def test_collatz_reach_outputs():
    code, out, _ = run_cli("collatz", "reach", "--d", "3", "--m", "4", "--a", "0",
                           "--start", "4")
    assert code == 0 and out == "orbit: 4 5 6\noutcome: reached-target k=2\n"
    code, out, _ = run_cli("collatz", "reach", "--d", "3", "--m", "-4", "--a", "-5",
                           "--start", "0")
    assert code == 0 and out == "orbit: 0 1 0\noutcome: entered-cycle first=0 period=2\n"


def test_collatz_hist_outputs():
    code, out, _ = run_cli("collatz", "hist", "--d", "2", "--m-list", "1,3",
                           "--r-list", "0,-1", "--start", "7", "--steps", "12")
    assert code == 0 and out == "0: 6\n1: 6\n"
    code, out, _ = run_cli("collatz", "hist", "--d", "2", "--m-list", "1,3",
                           "--r-list", "0,-1", "--start", "7", "--steps", "12",
                           "--alpha", "2")
    assert code == 0 and out == "0: 3\n1: 4\n2: 3\n3: 2\n"


def test_collatz_to_slc_outputs():
    code, out, _ = run_cli("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0")
    assert code == 0 and out == "slc v1\n4 -3 2\n-4 3 -1\n-1 0 -1\n1 -1 -1\n"
    code, out, _ = run_cli("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0",
                           "--sign=-")
    assert code == 0 and out == "slc v1\n4 -3 2\n-4 3 -1\n1 0 -1\n-1 1 -1\n"
    code, out, _ = run_cli("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0",
                           "--json")
    assert code == 0
    assert json.loads(out)["constraints"][0] == ["4", "-3", "2"]


def test_to_slc_pipes_into_decide():
    code, loop_text, _ = run_cli("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0")
    assert code == 0
    code, out, _ = run_cli("decide", "-", stdin=loop_text)
    assert code == 0 and out == "unknown L5.3.3\n"


def test_exit_code_2_on_bad_input(tmp_path):
    code, out, err = run_cli("decide", str(tmp_path / "missing.txt"))
    assert code == 2 and out == "" and "error:" in err
    # a directory is not a loop file
    code, out, err = run_cli("decide", str(tmp_path))
    assert code == 2 and out == "" and "error" in err
    code, _, err = run_cli("decide", "-", stdin="slc v2\n1 2 3\n")
    assert code == 2 and "header" in err
    code, _, err = run_cli("decide", "-", stdin="slc v1\n1 x 3\n")
    assert code == 2 and "line 2, column 3" in err
    code, _, err = run_cli("decide", "-", stdin='{"format": "slc-v1", "constraints": [[1, 2, 3]]}')
    assert code == 2 and "integer" in err
    code, _, err = run_cli("collatz", "orbit", "--d", "2", "--m", "4", "--a", "0",
                           "--start", "1")
    assert code == 2 and "coprime" in err
    code, _, err = run_cli("collatz", "orbit", "--d", "2", "--m", "3", "--a", "0",
                           "--m-list", "1,3", "--r-list", "0,-1", "--start", "1")
    assert code == 2 and "not both" in err
    code, _, err = run_cli("collatz", "orbit", "--d", "2", "--m-list", "1,3", "--start", "1")
    assert code == 2 and "go together" in err
    code, _, err = run_cli("collatz", "orbit", "--d", "2", "--start", "1")
    assert code == 2 and "need --m and --a" in err
    code, _, err = run_cli("collatz", "to-slc", "--d", "3", "--m", "2", "--a", "0")
    assert code == 2 and "m > d" in err
    # negative counts are usage errors that name the option
    for argv in (("oracle", "-", "--bound", "-5", "--compare"),
                 ("oracle", "-", "--trace-cap", "-1"),
                 ("witness", "-", "--length", "-3"),
                 ("decide", "-", "--scan-limit", "-1")):
        code, out, err = run_cli(*argv, stdin=INC)
        assert code == 2 and out == "" and f"argument {argv[2]}: must be >= 0" in err
    weak = ("--d", "3", "--m", "4", "--a", "0", "--start", "4")
    for argv in (("collatz", "orbit", *weak, "--steps", "-1"),
                 ("collatz", "orbit", *weak, "--abs-bound", "-1"),
                 ("collatz", "reach", *weak, "--steps", "-1"),
                 ("collatz", "reach", *weak, "--abs-bound", "-1"),
                 ("collatz", "hist", *weak, "--steps", "-1")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and f"argument {argv[-2]}: must be >= 0" in err


# stdout, stderr and exit code of the help and usage-error paths, as the
# parser printed them when it gave every command its arguments on each run
USAGE_PINS = json.loads((Path(__file__).parent / "cli_usage_pins.json").read_text())


_CHOICES = re.compile(r"\(choose from ('[^']*'(?:, '[^']*')*)\)")


def invalid_choice_probe() -> str:
    # what this argparse prints for an invalid choice among ["a"]
    parser = argparse.ArgumentParser(prog="probe")
    parser.add_argument("c", choices=["a"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        parser.parse_args(["b"])
    return err.getvalue()


def in_probe_style(pinned: str, probe: str) -> str:
    """The pinned bytes with each `(choose from 'x', 'y')` list printed as
    the probe prints its choices: quoted by repr() in the pins, and by
    str() on CPython releases that carry gh-117766."""
    if "(choose from 'a')" in probe:
        return pinned
    assert "(choose from a)" in probe, probe
    return _CHOICES.sub(lambda m: "(choose from " + ", ".join(re.findall(r"'([^']*)'", m.group(1))) + ")", pinned)


def test_in_probe_style_rewrites_only_choice_lists():
    pinned = ("usage: slcterm [-h] {decide,cycles} ...\nslcterm: error: argument command: invalid choice: "
              "'no-such-command' (choose from 'decide', 'cycles')\n")
    repr_probe = invalid_choice_probe()
    assert in_probe_style(pinned, "probe: error: argument c: invalid choice: 'b' (choose from 'a')\n") == pinned
    assert in_probe_style(pinned, "probe: error: argument c: invalid choice: 'b' (choose from a)\n") == (
        "usage: slcterm [-h] {decide,cycles} ...\nslcterm: error: argument command: invalid choice: "
        "'no-such-command' (choose from decide, cycles)\n")
    assert "(choose from 'a')" in repr_probe or "(choose from a)" in repr_probe
    assert in_probe_style("usage: x\n", "(choose from a)") == "usage: x\n"


@pytest.mark.parametrize("pin", USAGE_PINS, ids=[" ".join(p["argv"]) or "(none)" for p in USAGE_PINS])
def test_help_and_usage_errors_pinned(pin, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    monkeypatch.chdir(tmp_path)  # so the relative loop file is missing
    got = run_cli(*pin["argv"], stdin="slc v1\n1 1 1\n")
    # only an invalid-choice list may differ, by the CPython patch release
    assert got == (pin["code"], pin["stdout"], in_probe_style(pin["stderr"], invalid_choice_probe()))


@contextlib.contextmanager
def no_digit_cap():
    # lift CPython's int <-> str digit cap, and put the old one back
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit cap")
def test_main_gives_the_digit_cap_back():
    before = sys.get_int_max_str_digits()
    for argv, stdin in ((("decide", "-"), INC), (("decide", "-"), "slc v2\n"), (("decide", "--bogus"), None)):
        run_cli(*argv, stdin=stdin)
        assert sys.get_int_max_str_digits() == before


def test_integers_past_the_int_str_digit_limit():
    # CPython caps int <-> str conversion at 4,300 digits by default; the
    # CLI lifts the cap while it runs, so loops and reports stay arbitrary
    # precision
    big = "1" + "0" * 4998 + "1"  # 5,000 digits, built without a conversion
    want = "non-terminating CYCLE\ncycle: 0\n"
    assert run_cli("decide", "-", stdin=f"slc v1\n1 0 {big}\n-1 1 0\n") == (0, want, "")
    doc = '{"format": "slc-v1", "constraints": [["1", "0", "%s"], ["-1", "1", "0"]]}' % big
    assert run_cli("decide", "-", stdin=doc) == (0, want, "")
    # 2,500-digit rows whose vertices have about 5,000 digits
    a, b = 10**2500 + 7, 3 * 10**2400 + 1
    p = hpoly([(a, 1, b), (1, a, b + 2), (-1, 0, 0), (0, -1, 0)])
    text = emit_text(p)
    code, out, err = run_cli("decide", "-", stdin=text)
    assert (code, out, err) == (0, want, "")
    # the long fractions parse here only with the cap lifted
    want_vertices = poly2.decompose(p).vertices
    code, out, err = run_cli("decide", "--json", "-", stdin=text)
    assert code == 0 and err == ""
    got = json.loads(out)["decomposition"]["vertices"]
    with no_digit_cap():
        assert tuple((Fraction(x), Fraction(y)) for x, y in got) == want_vertices
    assert max(len(x) for v in got for x in v) > 4300
    code, out, err = run_cli("decompose", "-", stdin=text)
    assert code == 0 and err == ""
    line = out.splitlines()[0]
    assert line.startswith("vertices: ")
    got = re.findall(r"\(([^,()]+), ([^,()]+)\)", line)
    with no_digit_cap():
        assert tuple((Fraction(x), Fraction(y)) for x, y in got) == want_vertices


def test_exit_code_3_on_scan_limit():
    code, out, err = run_cli("decide", "-", "--scan-limit", "2", stdin=HALFINT)
    assert code == 3 and out == "" and "scan" in err
    # with the default limit the same loop resolves
    code, out, _ = run_cli("decide", "-", stdin=HALFINT)
    assert code == 0 and out == "terminating L5.3.8\n"
    # a thin wedge at k = 10^6: I+ cuts it to x >= k - 1, whose first
    # column holds the seed, so the scan reads one column
    k = 10**6
    wedge = f"slc v1\n{k + 1} {-k} 0\n{-k} {k - 1} 0\n-1 0 -1\n"
    code, out, err = run_cli("decide", "-", "--scan-limit", "1000", stdin=wedge)
    assert code == 0 and out.splitlines()[0] == "non-terminating L5.2.1"
    # the slope-2 thin wedge lies in I+ from column 1 on, but its columns
    # hold an integer only from k - 1 on: its seed query stops at the limit
    wedge = f"slc v1\n{2 * k + 1} {-k} 0\n{-(2 * k - 1)} {k - 1} 0\n-1 0 -1\n"
    code, out, err = run_cli("decide", "-", "--scan-limit", "1000", stdin=wedge)
    assert code == 3 and out == "" and "scan" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS is enforced only on Linux")
def test_out_of_memory_exits_2():
    # x' = x asks for a 2 * 10^8-state cycle trace; in a process capped at
    # 512 MiB of address space, as the bench worker caps itself, that
    # ends in a one-line error and exit 2, not a traceback
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    env = dict(os.environ, PYTHONPATH=str(Path(slcterm.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "slcterm.cli", "witness", "-", "--length", "200000000"],
        input="slc v1\n1 -1 0\n-1 1 0\n", capture_output=True, text=True, env=env,
        preexec_fn=cap, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("argv,stdin,loaded,unloaded", [
    (["decide", "-"], EMPTY, {"slcterm.analyzer", "slcterm.loopio"},
     {"dataclasses", "decimal", "fractions", "inspect", "json", "numbers", "slcterm.collatz", "slcterm.oracle"}),
    (["decide", "-", "--json"], EMPTY, {"json"},
     {"dataclasses", "decimal", "fractions", "inspect", "numbers", "slcterm.collatz", "slcterm.oracle"}),
    (["oracle", "-"], EMPTY, {"slcterm.oracle"}, {"dataclasses", "inspect", "json", "slcterm.collatz"}),
    (["collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0"], "", {"slcterm.collatz"},
     {"dataclasses", "inspect", "json", "slcterm.oracle"}),
], ids=["decide", "decide-json", "oracle", "to-slc"])
def test_each_command_loads_only_what_it_runs(argv, stdin, loaded, unloaded):
    # a fresh interpreter without site (-S), so nothing is preloaded: it
    # prints the modules in sys.modules once main has run
    script = f"import sys; from slcterm.cli import main; main({argv!r}); print(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(Path(slcterm.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", script], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout and proc.returncode == 0
    modules = set(proc.stderr.split())
    assert loaded <= modules and not unloaded & modules
