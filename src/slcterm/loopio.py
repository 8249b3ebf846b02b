"""Reading and writing loops and analysis reports.

Text format (one loop per file):

    slc v1
    4 -3 2
    -4 3 -1
    -1 0 -3

Header line first, then one constraint row a1 a2 b per nonblank line,
arbitrary-precision decimal integers.  Zero rows after the header is a
legal (trivially non-terminating) loop.  The JSON form wraps the same
rows with every integer string-encoded so nothing overflows elsewhere.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from .analyzer import CycleWitness, TraceSeed, Verdict
from .poly2 import Cone, HPoly, MWDecomp, hpoly

HEADER = "slc v1"

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


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


def parse_text(data: str) -> HPoly:
    lines = data.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise BadHeaderError(lines[0].strip() if lines else "")
    rows: List[tuple] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        tokens = []
        for m in re.finditer(r"\S+", raw):
            tok = m.group(0)
            if not _INT_RE.match(tok):
                raise BadTokenError(lineno, m.start() + 1, f"not an integer: {tok!r}")
            tokens.append((int(tok), m.start() + 1))
        if len(tokens) > 3:
            raise BadTokenError(lineno, tokens[3][1], "expected 3 integers per row")
        if len(tokens) < 3:
            raise BadTokenError(lineno, len(raw) + 1, "expected 3 integers per row")
        rows.append((tokens[0][0], tokens[1][0], tokens[2][0]))
    return hpoly(rows)


def emit_text(p: HPoly) -> str:
    out = [HEADER]
    for a1, a2, b in p.rows:
        out.append(f"{a1} {a2} {b}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def _int_from_json(v: Any) -> int:
    # bools are ints in Python; reject them and anything non-exact
    if isinstance(v, bool) or not isinstance(v, str):
        raise SchemaMismatchError(f"expected string-encoded integer, got {v!r}")
    if not _INT_RE.match(v.strip()):
        raise SchemaMismatchError(f"not an integer: {v!r}")
    return int(v)


def parse_json(text: str) -> HPoly:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaMismatchError(f"invalid JSON: {e}") from None
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
    obj = {
        "format": "slc-v1",
        "constraints": [[str(a1), str(a2), str(b)] for a1, a2, b in p.rows],
    }
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _cone_json(c: Cone) -> Dict[str, Any]:
    return {
        "kind": c.kind,
        "generators": [list(g) for g in c.generators()],
    }


def _witness_json(v: Verdict) -> Optional[Dict[str, Any]]:
    w = v.witness
    if isinstance(w, CycleWitness):
        return {"type": "cycle", "states": list(w.states)}
    if isinstance(w, TraceSeed):
        return {"type": "trace", "prefix": list(w.prefix)}
    return None


def emit_report(v: Verdict, decomp: Optional[MWDecomp], assume_reachability: bool) -> str:
    obj: Dict[str, Any] = {
        "report": "v1",
        "verdict": v.kind,
        "case": v.label,
        "witness": _witness_json(v),
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
