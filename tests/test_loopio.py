"""Text and JSON loop formats and the analysis report."""

import json
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slcterm.analyzer import decide, witness_trace
from slcterm.loopio import (
    HEADER,
    BadHeaderError,
    BadTokenError,
    LoopFormatError,
    SchemaMismatchError,
    emit_json,
    emit_report,
    emit_text,
    parse_json,
    parse_text,
)
from slcterm.poly2 import Constraint, HPoly, decompose, hpoly

from conftest import inc_loop, quad_loop, slab_loop

SLAB_TEXT = "slc v1\n4 -3 2\n-4 3 -1\n-1 0 -3\n"


def test_parse_text_golden():
    assert HEADER == "slc v1"
    assert parse_text(SLAB_TEXT).rows == slab_loop().rows


def test_emit_text_golden():
    assert emit_text(slab_loop()) == SLAB_TEXT
    assert emit_text(hpoly([])) == "slc v1\n"


def test_text_round_trip():
    for p in (slab_loop(), inc_loop(), quad_loop(), hpoly([])):
        assert parse_text(emit_text(p)).rows == p.rows


def test_text_tolerates_layout():
    # blank lines, leading zeros of whitespace, CRLF, explicit plus signs
    p = parse_text("slc v1\r\n\r\n  +1   -1    0  \r\n\r\n")
    assert p.rows == hpoly([(1, -1, 0)]).rows
    assert parse_text("slc v1\n\n\n").rows == ()
    # Unicode whitespace separates tokens; a form feed (like a vertical
    # tab) ends the line, so it may only lead or trail a row
    p = parse_text("slc v1\n\xa0-1\xa0\xa02 \u3000+3\xa0\n1\u30002\u30003\n\x0c1 2 3\x0c\n")
    assert p.rows == hpoly([(-1, 2, 3), (1, 2, 3), (1, 2, 3)]).rows
    # leading zeros and a signed zero
    assert parse_text("slc v1\n+0007 -0 0\n").rows == hpoly([(7, 0, 0)]).rows


def test_bad_header():
    with pytest.raises(BadHeaderError) as e:
        parse_text("slc v2\n1 2 3\n")
    assert e.value.got == "slc v2"
    with pytest.raises(BadHeaderError) as e:
        parse_text("")
    assert e.value.got == ""
    assert issubclass(BadHeaderError, LoopFormatError)


def test_bad_token_positions():
    with pytest.raises(BadTokenError) as e:
        parse_text("slc v1\n1 x 3\n")
    assert (e.value.line, e.value.column) == (2, 3)
    with pytest.raises(BadTokenError) as e:
        parse_text("slc v1\n1 2\n")
    assert (e.value.line, e.value.column) == (2, 4)
    with pytest.raises(BadTokenError) as e:
        parse_text("slc v1\n1 2 3 4\n")
    assert (e.value.line, e.value.column) == (2, 7)
    with pytest.raises(BadTokenError) as e:
        parse_text("slc v1\n1 2 3\n1 2.5 3\n")
    assert (e.value.line, e.value.column) == (3, 3)
    # a non-ASCII digit, a sign inside a token, a letter after the last
    # digit, and a form feed that cuts the row short
    for row, column, message in (
        ("\u0661 2 3", 1, "not an integer: '\u0661'"),
        ("1+2 3 4", 1, "not an integer: '1+2'"),
        ("1 2 3x", 5, "not an integer: '3x'"),
        ("1\x0c2 3", 2, "expected 3 integers per row"),
    ):
        with pytest.raises(BadTokenError) as e:
            parse_text(f"slc v1\n{row}\n")
        assert (e.value.line, e.value.column) == (2, column)
        assert str(e.value) == f"line 2, column {column}: {message}"
    assert issubclass(BadTokenError, LoopFormatError)


# the line-by-line parser that parse_text's single match must agree with
_REF_INT = r"[+-]?[0-9]+"
_REF_ROW = re.compile(rf"\s*({_REF_INT})\s+({_REF_INT})\s+({_REF_INT})\s*")


def reference_parse(data):
    lines = data.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise BadHeaderError(lines[0].strip() if lines else "")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        m = _REF_ROW.fullmatch(raw)
        if m is not None:
            rows.append(Constraint(*map(int, m.groups())))
        elif raw.strip():
            tokens = list(re.finditer(r"\S+", raw))
            for t in tokens:
                if not re.fullmatch(_REF_INT, t.group(0)):
                    raise BadTokenError(lineno, t.start() + 1, f"not an integer: {t.group(0)!r}")
            column = tokens[3].start() + 1 if len(tokens) > 3 else len(raw) + 1
            raise BadTokenError(lineno, column, "expected 3 integers per row")
    return HPoly(tuple(rows))


def outcome(parse, text):
    # the rows with their types, or the error's class, position and message
    try:
        return [(type(r), r) for r in parse(text).rows]
    except LoopFormatError as e:
        return type(e), getattr(e, "line", None), getattr(e, "column", None), str(e)


_SPACES = " \t\xa0\u3000\x0c"  # the form feed also breaks a line
_CHARS = "0123456789+-_.x\u0663\u00b2\uff11" + _SPACES
_token = st.one_of(st.integers(-(10**12), 10**12).map(str),
                   st.sampled_from(["+7", "-0", "007", "1_0", "1.5", "x", "+-1", "1+2", "\u0663", "\u00b2", "\uff11"]),
                   st.text(_CHARS, min_size=1, max_size=4))
_gap = st.text(_SPACES, max_size=3)
_line = st.builds(lambda lead, toks, gaps, trail: lead + "".join(t + g for t, g in zip(toks, gaps)) + trail,
                  _gap, st.lists(_token, max_size=5), st.lists(_gap.map(lambda g: g or " "), min_size=5, max_size=5),
                  _gap)
_text = st.builds(lambda head, lines, eol, end: eol.join([head, *lines]) + end,
                  st.sampled_from(["slc v1", " slc v1\t", "slc v1\xa0", "slc v2", "", "slc\xa0v1", "\x0cslc v1"]),
                  st.lists(st.one_of(_line, st.text(_CHARS, max_size=12)), max_size=6),
                  st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "\n", "\r\n", " "]))


@settings(max_examples=500, deadline=None)
@given(_text)
@example("slc v1\r\n1 2 3\r\n\r\n4\x0c5 6\r\n")
@example("slc v1\n1 2 3 \u3000\n-0\xa0+0\t007\n1 2 3 4\n")
@example("slc v1\n1 2 3\n-4 +5 6\n")  # the single match reads it
@example("slc v1\n1\xa02 3\n-4 +5 6\n")  # read line by line
def test_parse_text_matches_reference(text):
    got = outcome(parse_text, text)
    assert got == outcome(reference_parse, text)
    if isinstance(got, list):  # every row a Constraint, on either path
        assert all(t is Constraint for t, _ in got)


def test_parse_text_matches_reference_at_every_space():
    # each Unicode space either parts tokens within a line or breaks it,
    # as str.splitlines sees it
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for s in spaces:
        for text in (f"slc v1{s}1 2 3", f"slc v1\n1{s}2 3\n", f"slc v1\n1 2 3{s}4 5 6\n",
                     f"{s}slc v1{s}\n{s}1 2 3{s}\n{s}\n", f"slc v1\r{s}\n1 2 3"):
            assert outcome(parse_text, text) == outcome(reference_parse, text), (hex(ord(s)), text)


def test_parse_text_many_rows_in_linear_time():
    # one bad row at the end of 10^5 good ones: the single match must fail
    # without backtracking blow-up before the line-by-line pass finds it
    good = "slc v1\n" + "1 2 3\n" * 10**5
    start = time.perf_counter()
    with pytest.raises(BadTokenError) as e:
        parse_text(good + "1 2 3 4\n")
    assert time.perf_counter() - start < 5.0
    assert (e.value.line, e.value.column) == (100_002, 7)
    start = time.perf_counter()
    rows = parse_text(good).rows
    assert time.perf_counter() - start < 5.0
    assert len(rows) == 10**5 and rows[-1] == (1, 2, 3) and type(rows[-1]) is Constraint


def test_json_round_trip():
    big = 10**40
    for p in (slab_loop(), hpoly([]), hpoly([(big, -big, 3)])):
        assert parse_json(emit_json(p)).rows == p.rows


def test_json_shape():
    obj = json.loads(emit_json(slab_loop()))
    assert obj["format"] == "slc-v1"
    assert obj["constraints"][0] == ["4", "-3", "2"]
    assert all(isinstance(v, str) for row in obj["constraints"] for v in row)


def test_json_rejections():
    bad = [
        "{",  # not JSON
        "[]",  # not an object
        '{"format": "slc-v2", "constraints": []}',
        '{"constraints": []}',
        '{"format": "slc-v1"}',
        '{"format": "slc-v1", "constraints": 3}',
        '{"format": "slc-v1", "constraints": [["1", "2"]]}',
        '{"format": "slc-v1", "constraints": [[1, 2, 3]]}',  # raw ints
        '{"format": "slc-v1", "constraints": [[true, "2", "3"]]}',
        '{"format": "slc-v1", "constraints": [["1.5", "2", "3"]]}',
    ]
    for text in bad:
        with pytest.raises(SchemaMismatchError):
            parse_json(text)


@given(
    st.lists(
        st.tuples(
            st.integers(-(10**30), 10**30),
            st.integers(-(10**30), 10**30),
            st.integers(-(10**30), 10**30),
        ),
        max_size=6,
    )
)
def test_round_trips_random(rows):
    p = hpoly(rows)
    assert parse_text(emit_text(p)).rows == p.rows
    assert parse_json(emit_json(p)).rows == p.rows


def test_report_unknown_with_decomposition():
    p = slab_loop()
    obj = json.loads(emit_report(decide(p), decompose(p), False))
    assert obj["report"] == "v1"
    assert obj["verdict"] == "unknown" and obj["case"] == "L5.3.3"
    assert obj["witness"] is None
    dec = obj["decomposition"]
    assert dec["vertices"] == [["3", "10/3"], ["3", "11/3"]]
    assert dec["cone"] == {"kind": "ray", "generators": [[3, 4]]}
    assert dec["vertex_bound"] == "11/3"
    assert obj["assumptions"] == {"assume_reachability": False}


def test_report_trace_witness():
    p = inc_loop()
    v = decide(p)
    obj = json.loads(emit_report(v, None, True, witness_trace(p, v, 10)))
    assert obj["verdict"] == "non-terminating" and obj["case"] == "L5.4.6"
    assert obj["witness"] == {"type": "trace", "prefix": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}
    assert obj["decomposition"] is None
    assert obj["assumptions"]["assume_reachability"] is True


def test_report_cycle_witness():
    p = quad_loop()
    obj = json.loads(emit_report(decide(p), decompose(p), False))
    assert obj["case"] == "CYCLE"
    assert obj["witness"] == {"type": "cycle", "states": [0]}
    dec = obj["decomposition"]
    assert dec["cone"] == {"kind": "zero", "generators": []}
    assert dec["vertex_bound"] == "5/2"
