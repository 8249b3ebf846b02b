"""Command line front end.

Exit codes: 0 analysis completed, 2 bad input or usage, or out of
memory, 3 scan limit exceeded, 4 oracle disagreement under --compare.

Each command imports only what it runs.  `decide`, `cycles`,
`decompose` and `witness` load `poly2`, `lattice`, `analyzer` and
`loopio`; `oracle` adds `oracle`, and the `collatz` commands add
`collatz`.  `json` is loaded by a JSON loop file, `decide --json` and
`collatz to-slc --json`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analyzer import (
    EMPTY,
    CycleWitness,
    TraceSeed,
    cycle1,
    cycle2,
    decide,
    witness_trace,
)
from .lattice import DEFAULT_SCAN_LIMIT, ScanLimitExceededError
from .loopio import (
    emit_json,
    emit_report,
    emit_text,
    parse_json,
    parse_text,
)
from .poly2 import Cone, EmptyPolyhedronError, HalfPlane, HPoly, decompose


def _read_loop(path: str) -> HPoly:
    data = sys.stdin.read() if path == "-" else Path(path).read_text()
    if data.lstrip().startswith("{"):
        return parse_json(data)
    return parse_text(data)


def _ints(xs) -> str:
    return " ".join(str(x) for x in xs)


def _fmt_pt(pt) -> str:
    return f"({pt[0]}, {pt[1]})"


def _fmt_cone(c: Cone) -> str:
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
    v = decide(p, assume_conjecture=args.assume_reachability, scan_limit=args.scan_limit)
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
    s = cycle1(p)
    pair = cycle2(p)
    print("cycle1: " + ("none" if s is None else str(s)))
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
    v = decide(p, scan_limit=args.scan_limit)
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
    esc = find_escape(g, p, args.trace_cap)
    print("cycle: " + ("none" if cyc is None else _ints(cyc)))
    print("escape: " + ("none" if esc is None else _ints(esc)))
    if args.compare:
        v = decide(p, scan_limit=args.scan_limit)
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
        return GenCollatz(args.d, tuple(args.m_list), tuple(args.r_list))
    if args.m is None or args.a is None:
        raise ValueError("need --m and --a (weak map) or --m-list and --r-list")
    return WeakCollatz(args.d, args.m, args.a)


def _print_orbit(res) -> int:
    print(f"orbit: {_ints(res.prefix)}")
    if res.outcome == "reached-target":
        print(f"outcome: reached-target k={res.k}")
    elif res.outcome == "entered-cycle":
        print(f"outcome: entered-cycle first={res.first_index} period={res.period}")
    else:
        print(f"outcome: {res.outcome}")
    return 0


def _cmd_orbit(args) -> int:
    from .collatz import orbit

    return _print_orbit(orbit(_build_map(args), args.start, args.steps, args.abs_bound))


def _cmd_reach(args) -> int:
    from .collatz import WeakCollatz, reachability_scan

    t = WeakCollatz(args.d, args.m, args.a)
    return _print_orbit(reachability_scan(t, args.start, args.steps, args.abs_bound))


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
    return tuple(int(tok) for tok in text.split(","))


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _add_scan_limit(sp) -> None:
    sp.add_argument(
        "--scan-limit",
        type=_count,
        default=DEFAULT_SCAN_LIMIT,
        help="max columns per integer-point query (default %(default)s)",
    )


def _add_weak_args(sp) -> None:
    sp.add_argument("--d", type=int, required=True, help="modulus")
    sp.add_argument("--m", type=int, help="weak-map multiplier")
    sp.add_argument("--a", type=int, help="weak-map offset")


def _add_gen_args(sp) -> None:
    sp.add_argument("--m-list", type=_int_list, help="comma-separated branch multipliers")
    sp.add_argument("--r-list", type=_int_list, help="comma-separated branch offsets")


def _decide_args(sp) -> None:
    sp.add_argument("file", help="loop file (text or JSON), or - for stdin")
    sp.add_argument("--assume-reachability", action="store_true",
                    help="treat conjecture-backed cases as terminating")
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_scan_limit(sp)
    sp.set_defaults(func=_cmd_decide)


def _cycles_args(sp) -> None:
    sp.add_argument("file", help="loop file, or - for stdin")
    sp.set_defaults(func=_cmd_cycles)


def _decompose_args(sp) -> None:
    sp.add_argument("file", help="loop file, or - for stdin")
    sp.set_defaults(func=_cmd_decompose)


def _witness_args(sp) -> None:
    sp.add_argument("file", help="loop file, or - for stdin")
    sp.add_argument("--length", type=_count, required=True, help="number of states to emit")
    _add_scan_limit(sp)
    sp.set_defaults(func=_cmd_witness)


def _oracle_args(sp) -> None:
    sp.add_argument("file", help="loop file, or - for stdin")
    sp.add_argument("--bound", type=_count, default=64, help="state window is [-B, B] (default %(default)s)")
    sp.add_argument("--trace-cap", type=_count, default=1000,
                    help="max states in an escape trace (default %(default)s)")
    sp.add_argument("--compare", action="store_true",
                    help="also run the analyzer and cross-check; exit 4 on disagreement")
    _add_scan_limit(sp)
    sp.set_defaults(func=_cmd_oracle)


def _orbit_args(sp) -> None:
    _add_weak_args(sp)
    _add_gen_args(sp)
    sp.add_argument("--start", type=int, required=True)
    sp.add_argument("--steps", type=_count, default=1000)
    sp.add_argument("--abs-bound", type=_count, default=10**18)
    sp.set_defaults(func=_cmd_orbit)


def _reach_args(sp) -> None:
    _add_weak_args(sp)
    sp.add_argument("--start", type=int, required=True)
    sp.add_argument("--steps", type=_count, default=1000)
    sp.add_argument("--abs-bound", type=_count, default=10**18)
    sp.set_defaults(func=_cmd_reach)


def _hist_args(sp) -> None:
    _add_weak_args(sp)
    _add_gen_args(sp)
    sp.add_argument("--start", type=int, required=True)
    sp.add_argument("--steps", type=_count, default=1000)
    sp.add_argument("--alpha", type=int, default=1)
    sp.set_defaults(func=_cmd_hist)


def _to_slc_args(sp) -> None:
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--sign", choices=("+", "-"), default="+",
                    help="positive or negative restriction (use --sign=-)")
    sp.add_argument("--json", action="store_true", help="emit the loop as JSON")
    sp.set_defaults(func=_cmd_to_slc)


_COLLATZ_COMMANDS = {
    "orbit": ("iterate a map and report the outcome", _orbit_args),
    "reach": ("scan a weak-map orbit for an exact-division point", _reach_args),
    "hist": ("residue histogram of an orbit mod d**alpha", _hist_args),
    "to-slc": ("encode a weak map's monotone restriction as a loop", _to_slc_args),
}


_COMMANDS = {
    "decide": ("run the full analysis on a loop file", _decide_args),
    "cycles": ("search for cycles of length 1 and 2", _cycles_args),
    "decompose": ("print the Minkowski-Weyl decomposition", _decompose_args),
    "witness": ("print a verified non-termination trace", _witness_args),
    "oracle": ("brute-force the loop on a bounded state window", _oracle_args),
    "collatz": ("Collatz-style map utilities", _COLLATZ_COMMANDS),
}


def _add_commands(sub, commands, argv: Sequence[str]) -> None:
    # every command is listed with its help, but only the one argv runs
    # gets its arguments.  The parsers above a command take no option with
    # a value, so the first argument that is not an option names it.
    i = next((i for i, a in enumerate(argv) if not a.startswith("-")), len(argv))
    for name, (help_, args) in commands.items():
        sp = sub.add_parser(name, help=help_)
        if argv[i : i + 1] != [name]:
            continue
        if isinstance(args, dict):  # collatz: a table of subcommands
            _add_commands(sp.add_subparsers(dest="subcommand", required=True), args, argv[i + 1 :])
        else:
            args(sp)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcterm",
        description="Termination analysis for one-variable linear-constraint loops.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS, argv)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # integers are arbitrary precision: lift the int/str digit cap while
    # main runs (argument parsing too), and give the caller's cap back after
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        return args.func(args)
    except ScanLimitExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
