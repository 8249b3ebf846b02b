"""End-to-end runs of the command line front end, in process."""

import contextlib
import io
import json
import random
import sys

from slcterm.cli import main
from slcterm.loopio import emit_json, emit_text

from conftest import SEED, random_slc, slab_loop

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
            code = main(list(argv))
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


def test_oracle_compare_corpus():
    # a graph cycle always means a real cycle, so --compare never trips;
    # exit 4 is reserved for genuine analyzer bugs
    rng = random.Random(SEED + 13)
    for _ in range(150):
        p = random_slc(rng)
        code, out, _ = run_cli("oracle", "-", "--bound", "24", "--compare",
                               stdin=emit_text(p))
        assert code == 0
        assert out.endswith("compare: ok\n")


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
    code, _, err = run_cli("collatz", "to-slc", "--d", "3", "--m", "2", "--a", "0")
    assert code == 2 and "m > d" in err


def test_exit_code_3_on_scan_limit():
    code, out, err = run_cli("decide", "-", "--scan-limit", "2", stdin=HALFINT)
    assert code == 3 and out == "" and "scan" in err
    # with the default limit the same loop resolves
    code, out, _ = run_cli("decide", "-", stdin=HALFINT)
    assert code == 0 and out == "terminating L5.3.8\n"
    # a thin wedge whose column window spans ~10^12 columns stops at the
    # limit instead of building the window
    k = 10**6
    wedge = f"slc v1\n{k + 1} {-k} 0\n{-k} {k - 1} 0\n-1 0 -1\n"
    code, out, err = run_cli("decide", "-", "--scan-limit", "1000", stdin=wedge)
    assert code == 3 and out == "" and "scan" in err
