"""The complexity ledger: families whose cost grows with the magnitude of
the coefficients, each a deterministic count with no wall-clock test.

A family that still scans is a strict expected failure naming the
ROADMAP item that fixes it.  Columns are counted as a `scan_limit`: a
query that raises `ScanLimitExceededError` at limit n would read more
than n columns.  b is the bit length of the largest coefficient, and a
cost polynomial in bit size reads at most 4*b columns.  When a change
makes a family pass, its strict marker fails as XPASS and the change
deletes the marker; no change raises a budget or shrinks a parameter to
make a run pass.
"""

import pytest

from slcterm.analyzer import decide
from slcterm.lattice import ScanLimitExceededError, integer_point_2d
from slcterm.poly2 import hpoly

from conftest import slope2_wedge

K = 2**64


def bits(p):
    # the bit length of the largest coefficient
    return max(abs(c) for row in p.rows for c in row).bit_length()


def integer_free_line(k):
    # 2k*x' - 2(k+1)*x = 1: a Line cone (k, k+1) whose window spans k
    # columns, none of which holds an integer, since the left side is even
    return hpoly([(-2 * (k + 1), 2 * k, 1), (2 * (k + 1), -2 * k, -1)])


@pytest.mark.xfail(strict=True, raises=ScanLimitExceededError,
                   reason="ROADMAP item 5: integer_point_2d scans about k columns")
def test_integer_free_line_within_bit_size_columns():
    p = integer_free_line(K)
    assert integer_point_2d(p, 4 * bits(p)) is None


@pytest.mark.xfail(strict=True, raises=ScanLimitExceededError,
                   reason="ROADMAP item 5: decide scans about k columns of I+ for an integer")
def test_slope2_wedge_within_bit_size_columns():
    p = slope2_wedge(K)
    assert decide(p, scan_limit=4 * bits(p)).kind == "non-terminating"
