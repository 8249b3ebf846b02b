"""End-to-end runs of the command line front end, in process.

Every CLI run with a fixed argv and stdin is an entry of
`tests/cli_pins.json`, replayed byte for byte by `test_help_and_usage_errors_pinned`.
The other tests here check how the entries of that table relate to one
another, or make the runs a table cannot hold: a file under `tmp_path`, a
generated stdin, a monkeypatched analyzer, or a property over many loops.
"""

import argparse
import contextlib
import hashlib
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
from slcterm.analyzer import CycleWitness, Verdict, cycle2, decide, region_point, witness_trace
from slcterm.cli import main
from slcterm.loopio import emit_text, parse_json
from slcterm.poly2 import EmptyPolyhedronError, decompose, hpoly

from conftest import (
    SEED,
    bounded_corpus,
    empty_loop,
    halfint_loop,
    halfplane_loop,
    inc_loop,
    pair_loop,
    quad_loop,
    random_slc,
    slab_loop,
    slc_corpus,
    slope2_wedge,
    thick_loop,
    thin_loop,
    wedge_loop,
)
from test_analyzer import DECIDE_GOLDEN

SLAB = "slc v1\n4 -3 2\n-4 3 -1\n-1 0 -3\n"
INC = "slc v1\n1 -1 -1\n-1 1 1\n"
PAIR = "slc v1\n1 1 1\n-1 -1 -1\n"
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


# the CLI's byte pins, the one place that states them: argv, stdin, and the
# exit code, stdout and stderr they give; an entry that reads a loop names
# it as `loop`.  The help and usage-error pins are as the parser printed
# them when it gave every command its arguments on each run.  CI replays
# the same entries through the installed `slcterm`
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())
RUNS = {(tuple(pin["argv"]), pin["stdin"]): pin for pin in PINS}


def outputs(pin):
    return pin["code"], pin["stdout"], pin["stderr"]


def twins(head, other=("decide", "-")):
    # (entry, twin) for each entry whose argv starts with `head` and whose
    # stdin the table also runs under exactly `other`; a usage error reads
    # no stdin, so it has no twin
    return [(pin, RUNS[tuple(other), pin["stdin"]]) for pin in PINS
            if pin["argv"][:len(head)] == list(head) and (tuple(other), pin["stdin"]) in RUNS
            and not pin["stderr"].startswith("usage:")]


def options(pin):
    # the `--flag value` pairs after a collatz entry's two command words
    return dict(zip(pin["argv"][2::2], pin["argv"][3::2]))


def orbits(command):
    # (options, states, outcome, fields) of each collatz orbit or reach entry
    for pin in PINS:
        if pin["argv"][:2] == ["collatz", command] and pin["stdout"].startswith("orbit: "):
            orbit, outcome = pin["stdout"].splitlines()
            kind, *fields = outcome.split()[1:]
            yield (options(pin), [int(x) for x in orbit.split()[1:]], kind,
                   {k: int(v) for k, v in (f.split("=") for f in fields)})


def test_decide_outputs(tmp_path):
    # a loop file named on the command line; the table's runs read stdin
    assert run_cli("decide", loop_file(tmp_path, SLAB)) == (0, "unknown L5.3.3\n", "")


def test_decide_bytes_pinned_for_every_golden():
    # a new golden fails here until the table pins both of its outputs
    for rows, _, label in DECIDE_GOLDEN:
        loop = emit_text(hpoly(rows))
        assert (("decide", "-"), loop) in RUNS and (("decide", "-", "--json"), loop) in RUNS, label


def test_decide_assume_reachability():
    # the flag turns `unknown` into `terminating` under the same label and
    # changes nothing else
    pairs = twins(["decide", "-", "--assume-reachability"])
    assert pairs
    for flagged, plain in pairs:
        assert outputs(flagged) == (plain["code"], re.sub(r"^unknown ", "terminating ", plain["stdout"]),
                                    plain["stderr"])


def test_decide_json_report():
    # the report says what decide's text says: the verdict, the label and
    # the witness; empty loops carry no decomposition
    pairs = twins(["decide", "-", "--json"])
    assert len(pairs) >= len(DECIDE_GOLDEN)
    for report, text in pairs:
        assert report["code"] == text["code"] == 0 and report["stderr"] == text["stderr"] == ""
        obj = json.loads(report["stdout"])
        lines = [f"{obj['verdict']} {obj['case']}\n"]
        if obj["witness"] is not None:
            w = obj["witness"]
            states = w["prefix"] if w["type"] == "trace" else w["states"]
            lines.append(f"{w['type']}: {' '.join(map(str, states))}\n")
        assert text["stdout"] == "".join(lines), report.get("loop")
        assert (obj["decomposition"] is None) == (obj["case"] == "EMPTY")
        assert obj["assumptions"] == {"assume_reachability": False}


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
    # a loop read as JSON gives the bytes of the same loop read as text
    read = [pin for pin in PINS if pin["stdin"].startswith("{") and pin["code"] == 0]
    assert read
    for pin in read:
        text = RUNS[tuple(pin["argv"]), emit_text(parse_json(pin["stdin"]))]
        assert outputs(pin) == outputs(text)


def test_decide_deterministic_output(tmp_path):
    f = loop_file(tmp_path, SLAB)
    assert run_cli("decide", f, "--json") == run_cli("decide", f, "--json")
    assert run_cli("decide", "-", stdin=INC) == run_cli("decide", "-", stdin=INC)


def test_cycles_outputs():
    # decide's CYCLE witness is the cycle that `cycles` prints: the fixed
    # point if there is one, else the 2-cycle
    pairs = twins(["cycles", "-"])
    assert len(pairs) >= 4
    for found, verdict in pairs:
        cycle1, cycle2 = (line.split(": ")[1] for line in found["stdout"].splitlines())
        cycle = cycle1 if cycle1 != "none" else cycle2
        if cycle == "none":
            assert not verdict["stdout"].startswith("non-terminating CYCLE"), found.get("loop")
        else:
            assert verdict["stdout"] == f"non-terminating CYCLE\ncycle: {cycle}\n", found.get("loop")


def test_cycle_verdict_scans_no_column():
    # the adjacent-pair slice names the 2-cycle, so even a scan limit of 0
    # columns leaves the CYCLE verdict standing
    assert outputs(RUNS[("decide", "-", "--scan-limit", "0"), PAIR]) == outputs(RUNS[("decide", "-"), PAIR])


def test_segment_without_integer_points_is_answered():
    # 2x + 2x' = 1 inside |x|, |x'| <= 10^30: every real point is a 2-cycle,
    # but no integer pair is, and decide answers it without a column scan
    n = 10**30
    seg = f"slc v1\n2 2 1\n-2 -2 -1\n1 0 {n}\n-1 0 {n}\n0 1 {n}\n0 -1 {n}\n"
    assert outputs(RUNS[("decide", "-", "--scan-limit", "0"), seg]) == outputs(RUNS[("decide", "-"), seg])


def test_decompose_outputs():
    # decompose prints the decomposition of decide's report: the same
    # vertices, cone kind and bound, or `empty` where the report has none
    pairs = twins(["decompose", "-"], ["decide", "-", "--json"])
    assert len(pairs) >= 4
    for printed, report in pairs:
        d = json.loads(report["stdout"])["decomposition"]
        if d is None:
            assert printed["stdout"] == "empty\n"
            continue
        vertices, cone, bound = printed["stdout"].splitlines()
        assert vertices == "vertices: " + " ".join(f"({x}, {y})" for x, y in d["vertices"])
        assert cone.split()[1] == d["cone"]["kind"]
        assert bound == f"bound: {d['vertex_bound']}"


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
    # witness extends decide's 10-state trace, and refuses a loop that
    # decide finds terminating, naming its label
    pairs = twins(["witness", "-"])
    assert len(pairs) >= 5
    for trace, verdict in pairs:
        kind, label = verdict["stdout"].split("\n")[0].split()
        if kind == "terminating":
            assert trace["code"] == 2 and trace["stdout"] == "" and f"({label})" in trace["stderr"]
            continue
        got, want = trace["stdout"].split(), verdict["stdout"].split()[2:]
        n = min(len(got), len(want))
        assert trace["code"] == 0 and got[0] == "trace:" and got[:n] == want[:n], trace.get("loop")


def test_oracle_outputs():
    # under --compare the oracle prints decide's verdict and agrees with it
    pairs = [(o, d) for o, d in twins(["oracle", "-"]) if "--compare" in o["argv"]]
    assert len(pairs) >= 5
    for checked, verdict in pairs:
        assert checked["code"] == 0, checked.get("loop")
        assert checked["stdout"].splitlines()[-2:] == [f"verdict: {verdict['stdout'].splitlines()[0]}",
                                                       "compare: ok"]


def test_oracle_compare_mismatch_exits_4(monkeypatch):
    # a terminating verdict on a loop whose bounded graph has a cycle
    monkeypatch.setattr(cli, "decide", lambda p, scan_limit: Verdict("terminating", "L5.5.2"))
    code, out, _ = run_cli("oracle", "-", "--bound", "2", "--compare", stdin=PAIR)
    assert code == 4
    assert out == ("cycle: 0 1\nescape: -2\nverdict: terminating L5.5.2\n"
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


def test_collatz_orbit_outputs():
    # each outcome agrees with the states printed before it: a repeat ends
    # on the state the cycle starts from, an escape on the first state past
    # the bound, and a run out of steps after steps + 1 states
    kinds = Counter()
    for opts, states, kind, fields in [*orbits("orbit"), *orbits("reach")]:
        kinds[kind] += 1
        if kind == "entered-cycle":
            first = fields["first"]
            assert states[first] == states[-1] and len(set(states)) == len(states) - 1
            assert fields["period"] == len(states) - 1 - first
        elif kind == "exceeded-bound":
            assert abs(states[-1]) > int(opts["--abs-bound"]) >= max(map(abs, states[:-1]))
        elif kind == "exceeded-steps":
            assert len(states) == int(opts["--steps"]) + 1
    assert {"entered-cycle", "exceeded-bound", "exceeded-steps", "reached-target"} <= set(kinds)


def test_collatz_reach_outputs():
    # reach stops at the first state x with m*x = a (mod d), at index k
    reached = 0
    for opts, states, kind, fields in orbits("reach"):
        d, m, a = (int(opts[f]) for f in ("--d", "--m", "--a"))
        hits = [(m * x - a) % d == 0 for x in states]
        assert not any(hits[:-1]) and hits[-1] == (kind == "reached-target")
        if hits[-1]:
            assert fields["k"] == len(states) - 1
            reached += 1
    assert reached


def test_collatz_hist_outputs():
    # hist counts the residues mod d^alpha of the first `steps` states of
    # the orbit from the same start
    counted = 0
    for pin in PINS:
        if pin["argv"][:2] != ["collatz", "hist"] or pin["code"] or "--help" in pin["argv"]:
            continue
        opts = options(pin)
        steps, alpha = int(opts.pop("--steps")), int(opts.pop("--alpha", "1"))
        orbit = RUNS[("collatz", "orbit", *(w for kv in opts.items() for w in kv)), ""]
        states = [int(x) for x in orbit["stdout"].splitlines()[0].split()[1:]]
        assert len(states) >= steps
        counts = Counter(x % int(opts["--d"]) ** alpha for x in states[:steps])
        assert pin["stdout"] == "".join(f"{r}: {counts[r]}\n" for r in sorted(counts))
        counted += 1
    assert counted >= 2


def test_collatz_to_slc_outputs():
    # to-slc prints the same rows as text and as JSON
    weak = ("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0")
    assert emit_text(parse_json(RUNS[(*weak, "--json"), ""]["stdout"])) == RUNS[weak, ""]["stdout"]


def test_to_slc_pipes_into_decide():
    # `collatz to-slc | decide -`: the table runs decide on what to-slc prints
    loop = RUNS[("collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0"), ""]["stdout"]
    assert RUNS[("decide", "-"), loop]["code"] == 0


def test_exit_code_2_on_bad_input(tmp_path):
    code, out, err = run_cli("decide", str(tmp_path / "missing.txt"))
    assert code == 2 and out == "" and "error:" in err
    # a directory is not a loop file
    code, out, err = run_cli("decide", str(tmp_path))
    assert code == 2 and out == "" and "error" in err
    # JSON nested past the recursion limit is a schema error, not a traceback
    code, out, err = run_cli("decide", "-", stdin='{"a":' * 100_000)
    assert (code, out, err) == (2, "", "error: invalid JSON: nested too deeply\n")


# sha256 over (argv, stdout, stderr, exit code) of each run below, in
# order.  It changes only with a declared change of the CLI's output.
CLI_DIGEST = "c0d6da6a64b4ebfa811812cbbcd8e895106f0436e39a384f3d0e1b70ab216840"


def test_cli_bytes_digest():
    goldens = (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop,
               halfplane_loop, halfint_loop, empty_loop)
    h = hashlib.sha256()
    for p in [f() for f in goldens] + slc_corpus(300, seed=11):
        loop = emit_text(p)
        runs = [("decide", "-"), ("decide", "-", "--json"), ("cycles", "-"), ("decompose", "-"),
                ("oracle", "-", "--bound", "16", "--compare")]
        for argv in runs:
            code, out, err = run_cli(*argv, stdin=loop)
            h.update(repr((argv, out, err, code)).encode())
            if argv == ("decide", "-") and out.startswith("non-terminating"):
                runs.append(("witness", "-", "--length", "20"))  # run last, after oracle
    assert h.hexdigest() == CLI_DIGEST


# sha256 over the library's outputs per loop, in order: the verdict, the
# decomposition, the I+ and I- points, the 2-cycle and a 200-state witness
# of each non-terminating verdict.  It changes only with a declared change
# of these outputs.
LIBRARY_DIGEST = "c0038108700018ff876bfc43989e0d2b82c07a7014cec38f94b29908c20ae32f"


def test_library_outputs_digest():
    goldens = (slab_loop, thin_loop, thick_loop, inc_loop, quad_loop, pair_loop,
               halfplane_loop, halfint_loop, empty_loop)
    loops = [f() for f in goldens] + slc_corpus(1000, seed=11) + bounded_corpus(300)
    loops += [wedge_loop(k) for k in range(2, 31)]
    h = hashlib.sha256()
    kinds = Counter()
    for p in loops:
        v = decide(p)
        kinds[v.kind] += 1
        h.update(repr(v).encode())
        try:
            h.update(repr(decompose(p)).encode())
        except EmptyPolyhedronError:
            h.update(b"empty")
        for region in ("I+", "I-"):
            try:
                h.update(repr(region_point(p, region)).encode())
            except Exception as e:  # its name is the output
                h.update(type(e).__name__.encode())
        h.update(repr(cycle2(p)).encode())
        if v.kind == "non-terminating":
            h.update(repr(witness_trace(p, v, 200)).encode())
    assert len(loops) == 1338 and kinds["non-terminating"] == 716
    assert h.hexdigest() == LIBRARY_DIGEST


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


def pin_id(pin):
    argv = " ".join(pin["argv"]) or "(none)"
    return f"{argv} < {pin['loop']}" if "loop" in pin else argv


def test_pin_table_shape():
    # one run per entry, each with the same fields; pytest would suffix
    # equal ids, renaming every case that carries one
    for pin in PINS:
        assert set(pin) - {"loop"} == {"argv", "stdin", "code", "stdout", "stderr"}, pin
    assert len(RUNS) == len(PINS)
    ids = [pin_id(pin) for pin in PINS]
    assert len(set(ids)) == len(ids)


# every pin: the name dates from when the table held only the help and
# usage-error paths
@pytest.mark.parametrize("pin", PINS, ids=map(pin_id, PINS))
def test_help_and_usage_errors_pinned(pin, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    monkeypatch.chdir(tmp_path)  # so the relative loop file is missing
    got = run_cli(*pin["argv"], stdin=pin["stdin"])
    # only an invalid-choice list may differ, by the CPython patch release
    assert got == (pin["code"], pin["stdout"], in_probe_style(pin["stderr"], invalid_choice_probe()))


def table_paths(commands=cli._COMMANDS, prefix=()):
    # every command path in the table: ("decide",), ("collatz",), ("collatz", "orbit"), ...
    for name, (_, _, args) in commands.items():
        yield prefix + (name,)
        if isinstance(args, dict):
            yield from table_paths(args, prefix + (name,))


def test_every_table_command_has_a_help_pin():
    pinned = {tuple(pin["argv"][:-1]) for pin in PINS if pin["argv"][-1:] == ["--help"]}
    assert pinned == {(), *table_paths()}


def subparsers(parser):
    # name -> parser of each command that `parser` lists
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


@pytest.mark.parametrize("path", list(table_paths()), ids=" ".join)
def test_only_the_named_command_gets_arguments(path):
    # the parser for one command lists every command, but adds no argument
    # beyond -h to any parser off the named command's path
    def walk(parser, depth):
        for name, sp in subparsers(parser).items():
            dests = [a.dest for a in sp._actions]
            if path[depth : depth + 1] == (name,):
                assert len(dests) > 1, path  # its arguments, or collatz's subcommands
                walk(sp, depth + 1)
            else:
                assert dests == ["help"], (path, name)

    walk(cli._build_parser([*path, "-"]), 0)


@contextlib.contextmanager
def no_digit_cap():
    # lift CPython's int <-> str digit cap, and put the old one back
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


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


def test_out_of_memory_exits_2_in_process(monkeypatch):
    # main's handler, run here without a capped subprocess: a command that
    # runs out of memory prints one line and exits 2
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "decide", exhausted)
    assert run_cli("decide", "-", stdin=INC) == (2, "", "error: out of memory\n")


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
    (["decide", "-"], PAIR, {"slcterm.analyzer", "slcterm.loopio"}, {"fractions", "json"}),
    (["decide", "-", "--json"], EMPTY, {"json"},
     {"dataclasses", "decimal", "fractions", "inspect", "numbers", "slcterm.collatz", "slcterm.oracle"}),
    (["oracle", "-"], EMPTY, {"slcterm.oracle"}, {"dataclasses", "inspect", "json", "slcterm.collatz"}),
    (["collatz", "to-slc", "--d", "3", "--m", "4", "--a", "0"], "", {"slcterm.collatz"},
     {"dataclasses", "inspect", "json", "slcterm.oracle"}),
], ids=["decide", "decide-cycle", "decide-json", "oracle", "to-slc"])
def test_each_command_loads_only_what_it_runs(argv, stdin, loaded, unloaded):
    # a fresh interpreter without site (-S), so nothing is preloaded: it
    # prints the modules in sys.modules once main has run.  Annotations
    # are never evaluated and name builtins or collections.abc, so no
    # command loads `typing` or `pathlib`
    script = f"import sys; from slcterm.cli import main; main({argv!r}); print(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(Path(slcterm.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", script], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout and proc.returncode == 0
    modules = set(proc.stderr.split())
    assert loaded <= modules and not (unloaded | {"typing", "pathlib"}) & modules
