"""The complexity ledger: families whose cost could grow with the magnitude
of the coefficients or with redundant rows, each a deterministic count
with no wall-clock test.

The work of a query is metered at the import sites of `lattice.column`
(columns read) and `lattice._floor_sum` (column ranges counted).  b is
the bit length of the largest coefficient, and a cost polynomial in bit
size makes at most 4*b of each.  The work of a witness replay is the rows
that `lattice.column` and `poly2.contains` read, metered the same way.  A
family that outgrows its budget is a strict expected failure naming the
ROADMAP item that fixes it; when a change makes it pass, its strict
marker fails as XPASS and the change deletes the marker.  No change
raises a budget or shrinks a parameter to make a run pass.
"""

import sys
from collections import Counter

import pytest

from slcterm import lattice, poly2
from slcterm.analyzer import TraceSeed, Verdict, decide, witness_trace
from slcterm.lattice import integer_point_2d
from slcterm.poly2 import hpoly

from conftest import integer_free_line, slope2_wedge, translated, wedge_loop

KS = [2**64, 2**256]


def bits(p):
    # the bit length of the largest coefficient
    return max(abs(c) for row in p.rows for c in row).bit_length()


def meter(monkeypatch, fns, weight):
    # weight(args) summed per call of each function, wrapped in every module
    # that imports it
    calls = Counter()
    for fn in fns:
        name = fn.__name__

        def metered(*args, _name=name, _fn=fn):
            calls[_name] += weight(args)
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("slcterm") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, metered)
    return calls


@pytest.fixture
def work(monkeypatch):
    # calls of each metered function
    return meter(monkeypatch, (lattice.column, lattice._floor_sum), lambda args: 1)


@pytest.fixture
def rows_read(monkeypatch):
    # the rows each row reader reads: len(p.rows) per call
    return meter(monkeypatch, (lattice.column, poly2.contains), lambda args: len(args[0].rows))


@pytest.mark.parametrize("k", KS, ids=["2^64", "2^256"])
def test_integer_free_line_within_bit_size_work(k, work):
    p = integer_free_line(k)
    assert integer_point_2d(p) is None
    assert work["column"] == 1 and 0 < work["_floor_sum"] <= 4 * bits(p), work


@pytest.mark.parametrize("k", KS, ids=["2^64", "2^256"])
def test_slope2_wedge_within_bit_size_work(k, work):
    # I+ is real from column 1 on, but its first integer column is k - 1
    p = slope2_wedge(k)
    assert decide(p) == Verdict("non-terminating", "L5.2.1", TraceSeed("ascend", (k - 1, 2 * k - 1)))
    assert work["column"] == 2 and 0 < work["_floor_sum"] <= 4 * bits(p), work


def test_loosened_copies_leave_the_count_unchanged(work):
    # the count reads the edge list, which keeps one row per normal: 10^4
    # loosened copies of the upper row, put first, change no floor sum
    p = slope2_wedge(2**64)
    v = decide(p)
    alone = work["_floor_sum"]
    a1, a2, b = p.rows[1]
    many = hpoly([(a1, a2, b + j) for j in range(1, 10**4 + 1)] + list(p.rows))
    work.clear()
    assert decide(many) == v
    assert work["_floor_sum"] == alone <= 4 * bits(many), work


def test_loosened_copies_leave_replay_rows_unchanged(rows_read):
    # replay reads the canonical edge list, one row per normal: a 200-state
    # witness behind 10^4 loosened copies of x >= 1, put first, reads the
    # rows it reads without them
    p = wedge_loop(3000)
    v = decide(p)
    rows_read.clear()
    trace = witness_trace(p, v, 200)
    alone = dict(rows_read)
    many = hpoly([(-1, 0, j) for j in range(10**4)] + list(p.rows))
    rows_read.clear()
    assert witness_trace(many, v, 200) == trace
    assert rows_read == alone, (rows_read, alone)


@pytest.mark.parametrize("p", [wedge_loop(10**6), translated(wedge_loop(10**6), -10**30)],
                         ids=["wedge", "wedge moved by 10^30"])
def test_thin_wedge_seed_query_reads_one_column(p, work):
    # the seed's column is the region's first real column: one read, no count
    assert decide(p).label == "L5.2.1"
    assert work == {"column": 1}, work
