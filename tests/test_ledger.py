"""The complexity ledger: families whose cost could grow with the magnitude
of the coefficients, each a deterministic count with no wall-clock test.

The work of a query is metered at the import sites of `lattice.column`
(columns read) and `lattice._floor_sum` (column ranges counted).  b is
the bit length of the largest coefficient, and a cost polynomial in bit
size makes at most 4*b of each.  A family that outgrows its budget is a
strict expected failure naming the ROADMAP item that fixes it; when a
change makes it pass, its strict marker fails as XPASS and the change
deletes the marker.  No change raises a budget or shrinks a parameter to
make a run pass.
"""

import sys
from collections import Counter

import pytest

from slcterm import lattice
from slcterm.analyzer import TraceSeed, Verdict, decide
from slcterm.lattice import integer_point_2d
from slcterm.poly2 import hpoly

from conftest import integer_free_line, slope2_wedge, translated, wedge_loop

KS = [2**64, 2**256]


def bits(p):
    # the bit length of the largest coefficient
    return max(abs(c) for row in p.rows for c in row).bit_length()


@pytest.fixture
def work(monkeypatch):
    # calls of each metered function, wrapped in every module that imports it
    calls = Counter()
    for name in ("column", "_floor_sum"):
        fn = getattr(lattice, name)

        def metered(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("slcterm") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, metered)
    return calls


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


@pytest.mark.parametrize("p", [wedge_loop(10**6), translated(wedge_loop(10**6), -10**30)],
                         ids=["wedge", "wedge moved by 10^30"])
def test_thin_wedge_seed_query_reads_one_column(p, work):
    # the seed's column is the region's first real column: one read, no count
    assert decide(p).label == "L5.2.1"
    assert work == {"column": 1}, work
