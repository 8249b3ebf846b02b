"""Command line front end.

Exit codes: 0 analysis completed, 2 bad input or usage, or out of
memory, 4 oracle disagreement under --compare.  `oracle --bound B` is
the oracle's one size knob: its escape trace holds at most 2B + 1
states.  The analysis has none: an integer-point query counts its
column window by floor sums, in time polynomial in the bit size.

Each command imports only what it runs.  `decide`, `cycles`,
`decompose` and `witness` load `poly2`, `lattice`, `analyzer` and
`loopio`; `oracle` adds `oracle`, and the `collatz` commands add
`collatz`.  `json` is loaded by a JSON loop file, `decide --json` and
`collatz to-slc --json`.  None loads `typing` or `pathlib`, though a
site hook may.

The parser is built from one table, `_COMMANDS`, of each command's
help, handler and arguments; only the command argv names gets them.
An argument that command does not take is reported by its own parser.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .analyzer import EMPTY, CycleWitness, TraceSeed, cycle2, decide, witness_trace
from .loopio import emit_json, emit_report, emit_text, parse_json, parse_text
from .poly2 import ConeClass, EmptyPolyhedronError, HalfPlane, HPoly, decompose


def _read_loop(path: str) -> HPoly:
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path) as f:
            data = f.read()
    if data.lstrip().startswith("{"):
        return parse_json(data)
    return parse_text(data)


def _ints(xs) -> str:
    return " ".join(str(x) for x in xs)


def _fmt_pt(pt) -> str:
    return f"({pt[0]}, {pt[1]})"


def _fmt_cone(c: ConeClass) -> str:
    if isinstance(c, HalfPlane):
        args = [f"boundary={_fmt_pt(c.boundary)}", f"witness={_fmt_pt(c.interior_witness)}"]
    else:
        args = [_fmt_pt(getattr(c, f)) for f in c._fields]
    return " ".join([c.kind, *args])


# ---------------------------------------------------------------------------
# loop commands
# ---------------------------------------------------------------------------


def _cmd_decide(args) -> int:
    p = _read_loop(args.file)
    v = decide(p, assume_conjecture=args.assume_reachability)
    prefix = witness_trace(p, v, 10) if isinstance(v.witness, TraceSeed) else None
    if args.json:
        d = v.decomposition or (None if v.label == EMPTY else decompose(p))
        print(emit_report(v, d, args.assume_reachability, prefix))
        return 0
    print(f"{v.kind} {v.label}")
    if isinstance(v.witness, CycleWitness):
        print(f"cycle: {_ints(v.witness.states)}")
    elif prefix is not None:
        print(f"trace: {_ints(prefix)}")
    return 0


def _cmd_cycles(args) -> int:
    p = _read_loop(args.file)
    pair = cycle2(p)
    print("cycle1: " + (str(pair[0]) if pair is not None and pair[0] == pair[1] else "none"))
    print("cycle2: " + ("none" if pair is None else _ints(pair)))
    return 0


def _cmd_decompose(args) -> int:
    try:
        d = decompose(_read_loop(args.file))
    except EmptyPolyhedronError:
        print("empty")
        return 0
    print("vertices: " + " ".join(_fmt_pt(v) for v in d.vertices))
    print(f"cone: {_fmt_cone(d.cone)}")
    print(f"bound: {d.vertex_bound}")
    return 0


def _cmd_witness(args) -> int:
    p = _read_loop(args.file)
    v = decide(p)
    if v.kind != "non-terminating":
        print(f"error: loop is {v.kind} ({v.label}); no witness trace", file=sys.stderr)
        return 2
    states = witness_trace(p, v, args.length)
    print(f"trace: {_ints(states)}")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import build_graph, find_cycle, find_escape

    p = _read_loop(args.file)
    g = build_graph(p, args.bound)
    cyc = find_cycle(g)
    esc = find_escape(g, p)
    print("cycle: " + ("none" if cyc is None else _ints(cyc)))
    print("escape: " + ("none" if esc is None else _ints(esc)))
    if args.compare:
        v = decide(p)
        print(f"verdict: {v.kind} {v.label}")
        if cyc is not None and v.kind != "non-terminating":
            print("compare: mismatch (bounded graph has a cycle)")
            return 4
        # a verdict cycle inside the window is made of edges of the graph
        if (cyc is None and isinstance(v.witness, CycleWitness)
                and all(abs(s) <= args.bound for s in v.witness.states)):
            print("compare: mismatch (verdict cycle inside the window, graph has none)")
            return 4
        print("compare: ok")
    return 0


# ---------------------------------------------------------------------------
# collatz commands
# ---------------------------------------------------------------------------


def _build_map(args):
    from .collatz import GenCollatz, WeakCollatz

    gen = getattr(args, "m_list", None) is not None or getattr(args, "r_list", None) is not None
    if gen:
        if args.m is not None or args.a is not None:
            raise ValueError("give either --m/--a or --m-list/--r-list, not both")
        if args.m_list is None or args.r_list is None:
            raise ValueError("--m-list and --r-list go together")
        return GenCollatz(args.d, args.m_list, args.r_list)
    if args.m is None or args.a is None:
        # `reach` takes only the weak map's options
        other = " (weak map) or --m-list and --r-list" if hasattr(args, "m_list") else ""
        raise ValueError(f"need --m and --a{other}")
    return WeakCollatz(args.d, args.m, args.a)


def _cmd_orbit(args) -> int:
    # `orbit` and `reach` print the same record: orbit prefix and outcome
    from . import collatz

    run = collatz.reachability_scan if args.subcommand == "reach" else collatz.orbit
    res = run(_build_map(args), args.start, args.steps, args.abs_bound)
    print(f"orbit: {_ints(res.prefix)}")
    if res.outcome == "reached-target":
        print(f"outcome: reached-target k={res.k}")
    elif res.outcome == "entered-cycle":
        print(f"outcome: entered-cycle first={res.first_index} period={res.period}")
    else:
        print(f"outcome: {res.outcome}")
    return 0


def _cmd_hist(args) -> int:
    from .collatz import residue_histogram

    counts = residue_histogram(_build_map(args), args.start, args.steps, args.alpha)
    for r in sorted(counts):
        print(f"{r}: {counts[r]}")
    return 0


def _cmd_to_slc(args) -> int:
    from .collatz import WeakCollatz, to_slc

    t = WeakCollatz(args.d, args.m, args.a)
    p = to_slc(t, args.sign)
    if args.json:
        print(emit_json(p))
    else:
        sys.stdout.write(emit_text(p))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# each argument is (flag, add_argument keywords); the lists below are the
# options that several commands share
_FILE = [("file", dict(help="loop file, or - for stdin"))]
_WEAK = [("--d", dict(type=int, required=True, help="modulus")),
         ("--m", dict(type=int, help="weak-map multiplier")),
         ("--a", dict(type=int, help="weak-map offset"))]
_GEN = [("--m-list", dict(type=_int_list, help="comma-separated branch multipliers")),
        ("--r-list", dict(type=_int_list, help="comma-separated branch offsets"))]
_RUN = [("--start", dict(type=int, required=True)), ("--steps", dict(type=_count, default=1000))]
_ABS_BOUND = [("--abs-bound", dict(type=_count, default=10**18))]

# name -> (help, handler, arguments); `collatz` holds a table of subcommands
_COMMANDS = {
    "decide": ("run the full analysis on a loop file", _cmd_decide, [
        ("file", dict(help="loop file (text or JSON), or - for stdin")),
        ("--assume-reachability", dict(action="store_true",
                                       help="treat conjecture-backed cases as terminating")),
        ("--json", dict(action="store_true", help="emit a JSON report")),
    ]),
    "cycles": ("search for cycles of length 1 and 2", _cmd_cycles, _FILE),
    "decompose": ("print the Minkowski-Weyl decomposition", _cmd_decompose, _FILE),
    "witness": ("print a verified non-termination trace", _cmd_witness, [
        *_FILE,
        ("--length", dict(type=_count, required=True, help="number of states to emit")),
    ]),
    "oracle": ("brute-force the loop on a bounded state window", _cmd_oracle, [
        *_FILE,
        ("--bound", dict(type=_count, default=64, help="state window is [-B, B] (default %(default)s)")),
        ("--compare", dict(action="store_true",
                           help="also run the analyzer and cross-check; exit 4 on disagreement")),
    ]),
    "collatz": ("Collatz-style map utilities", None, {
        "orbit": ("iterate a map and report the outcome", _cmd_orbit, _WEAK + _GEN + _RUN + _ABS_BOUND),
        "reach": ("scan a weak-map orbit for an exact-division point", _cmd_orbit,
                  _WEAK + _RUN + _ABS_BOUND),
        "hist": ("residue histogram of an orbit mod d**alpha", _cmd_hist,
                 _WEAK + _GEN + _RUN + [("--alpha", dict(type=int, default=1))]),
        "to-slc": ("encode a weak map's monotone restriction as a loop", _cmd_to_slc, [
            *[(flag, dict(type=int, required=True)) for flag in ("--d", "--m", "--a")],
            ("--sign", dict(choices=("+", "-"), default="+",
                            help="positive or negative restriction (use --sign=-)")),
            ("--json", dict(action="store_true", help="emit the loop as JSON")),
        ]),
    }),
}


def _add_commands(sub, commands, argv: Sequence[str]) -> None:
    # every command is listed with its help, but only the one argv runs
    # gets its arguments.  The parsers above a command take no option with
    # a value, so the first argument that is not an option names it.
    i = next((i for i, a in enumerate(argv) if not a.startswith("-")), len(argv))
    for name, (help_, func, args) in commands.items():
        sp = sub.add_parser(name, help=help_)
        if argv[i : i + 1] != [name]:
            continue
        if func is None:  # collatz: a table of subcommands
            _add_commands(sp.add_subparsers(dest="subcommand", required=True), args, argv[i + 1 :])
            continue
        for flag, kwargs in args:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func, parser=sp)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcterm",
        description="Termination analysis for one-variable linear-constraint loops.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS, argv)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # integers are arbitrary precision: lift the int/str digit cap while
    # main runs (argument parsing too), and give the caller's cap back after
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args, extra = _build_parser(argv).parse_known_args(argv)
        if extra:  # as parse_args words it, but from the command's parser
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
