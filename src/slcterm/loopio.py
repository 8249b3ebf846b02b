"""Reading and writing loops and analysis reports.

Text format (one loop per file):

    slc v1
    4 -3 2
    -4 3 -1
    -1 0 -3

Header line first, then one constraint row a1 a2 b per nonblank line,
arbitrary-precision decimal integers.  Zero rows after the header is a
legal (trivially non-terminating) loop.  `parse_text` checks a whole text
in the usual layout with one regular expression, and reads any other text
line by line.  The JSON form wraps the same rows with every integer
string-encoded so nothing overflows elsewhere.  The JSON functions import
`json` when called, so text-only runs never load it.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import repeat

from .analyzer import CycleWitness, TraceSeed, Verdict
from .poly2 import ConeClass, Constraint, HPoly, MWDecomp, hpoly

HEADER = "slc v1"

_INT = r"[+-]?[0-9]+"  # ASCII digits only
_INT_RE = re.compile(_INT + r"\Z")
# a constraint row: three integers separated by whitespace
_ROW_RE = re.compile(rf"\s*({_INT})\s+({_INT})\s+({_INT})\s*")
# the usual layout of a whole text, checked in one match: spaces and tabs
# within a line, \n or \r between lines.  A text with other whitespace, or
# with a bad line, fails it and is read line by line.  Each step of a match
# is forced, so a match and a failed one both take linear time.
_ROW = rf"{_INT}[ \t]+{_INT}[ \t]+{_INT}[ \t]*(?:[\r\n]\s*|\Z)"
_TEXT_RE = re.compile(rf"[ \t]*{re.escape(HEADER)}[ \t]*(?:[\r\n]\s*(?:{_ROW})*)?")


class LoopFormatError(ValueError):
    """Base for text-format errors."""


class BadHeaderError(LoopFormatError):
    def __init__(self, got: str):
        super().__init__(f"expected header {HEADER!r}, got {got!r}")
        self.got = got


class BadTokenError(LoopFormatError):
    """Malformed constraint line; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaMismatchError(ValueError):
    """JSON input does not match the slc-v1 schema."""


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _bad_row(lineno: int, raw: str) -> BadTokenError:
    # locate the fault of a nonblank line that is not three integers
    tokens = list(re.finditer(r"\S+", raw))
    for m in tokens:
        if not _INT_RE.match(m.group(0)):
            return BadTokenError(lineno, m.start() + 1, f"not an integer: {m.group(0)!r}")
    column = tokens[3].start() + 1 if len(tokens) > 3 else len(raw) + 1
    return BadTokenError(lineno, column, "expected 3 integers per row")


def parse_text(data: str) -> HPoly:
    if _TEXT_RE.fullmatch(data):
        ints = map(int, data.split()[2:])  # after the header's two tokens
        # rows made by tuple.__new__, as Constraint._make makes them, with no Python call per row;
        # a list first: tuple() of an iterator resizes as it grows, raising a long run's peak RSS
        return HPoly(tuple(list(map(tuple.__new__, repeat(Constraint), zip(ints, ints, ints)))))
    lines = data.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise BadHeaderError(lines[0].strip() if lines else "")
    rows: list[Constraint] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        m = _ROW_RE.fullmatch(raw)
        if m is not None:
            a1, a2, b = m.groups()
            rows.append(Constraint(int(a1), int(a2), int(b)))
        elif raw.strip():
            raise _bad_row(lineno, raw)
    return HPoly(tuple(rows))


def emit_text(p: HPoly) -> str:
    return "\n".join([HEADER] + [f"{a1} {a2} {b}" for a1, a2, b in p.rows]) + "\n"


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def _int_from_json(v: object) -> int:
    # bools are ints in Python; reject them and anything non-exact
    if isinstance(v, bool) or not isinstance(v, str):
        raise SchemaMismatchError(f"expected string-encoded integer, got {v!r}")
    if not _INT_RE.match(v.strip()):
        raise SchemaMismatchError(f"not an integer: {v!r}")
    return int(v)


def parse_json(text: str) -> HPoly:
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaMismatchError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaMismatchError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or obj.get("format") != "slc-v1":
        raise SchemaMismatchError("missing format tag 'slc-v1'")
    cons = obj.get("constraints")
    if not isinstance(cons, list):
        raise SchemaMismatchError("'constraints' must be a list")
    rows = []
    for row in cons:
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaMismatchError(f"constraint row must have 3 entries: {row!r}")
        rows.append(tuple(_int_from_json(v) for v in row))
    return hpoly(rows)


def emit_json(p: HPoly) -> str:
    import json

    rows = [[str(a1), str(a2), str(b)] for a1, a2, b in p.rows]
    return json.dumps({"format": "slc-v1", "constraints": rows})


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _cone_json(c: ConeClass) -> dict[str, object]:
    return {"kind": c.kind, "generators": [list(g) for g in c.generators()]}


def _witness_json(v: Verdict, prefix: Sequence[int] | None) -> dict[str, object] | None:
    w = v.witness
    if isinstance(w, CycleWitness):
        return {"type": "cycle", "states": list(w.states)}
    if isinstance(w, TraceSeed):
        return {"type": "trace", "prefix": list(prefix)}
    return None


def emit_report(v: Verdict, decomp: MWDecomp | None, assume_reachability: bool,
                prefix: Sequence[int] | None = None) -> str:
    # a trace seed is reported by `prefix`, the first states of its trace
    import json

    obj: dict[str, object] = {
        "report": "v1",
        "verdict": v.kind,
        "case": v.label,
        "witness": _witness_json(v, prefix),
        "decomposition": None,
        "assumptions": {"assume_reachability": assume_reachability},
    }
    if decomp is not None:
        obj["decomposition"] = {
            "vertices": [[str(x), str(y)] for x, y in decomp.vertices],
            "cone": _cone_json(decomp.cone),
            "vertex_bound": str(decomp.vertex_bound),
        }
    return json.dumps(obj)
