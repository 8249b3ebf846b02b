"""Answer checks that share no code with slcterm.

Everything here substitutes integers into the rows (a1, a2, b) of a loop
and compares a1*x + a2*x' with b; nothing is imported from the package
under test.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Row = Tuple[int, int, int]


def step_ok(rows: Sequence[Row], x: int, y: int) -> bool:
    """Is x -> y a transition of the loop?"""
    return all(a1 * x + a2 * y <= b for a1, a2, b in rows)


def trace_ok(rows: Sequence[Row], states: Sequence[int]) -> bool:
    """Is every consecutive pair of states a transition?"""
    return all(step_ok(rows, x, y) for x, y in zip(states, states[1:]))


def cycle_ok(rows: Sequence[Row], states: Sequence[int]) -> bool:
    """Do the states form a closed cycle, last state back to the first?"""
    return len(states) > 0 and trace_ok(rows, list(states) + [states[0]])
