"""Collatz-style maps on the integers and their loop encodings.

A weak map sends x to floor((m*x - a) / d); spelling out the remainder
gives an equivalent generalized map with one affine branch per residue
class mod d, T(x) = (m_i * x - r_i) / d for x = i (mod d), where
divisibility forces m_i * i = r_i (mod d).  `to_slc` encodes the
positive (or negative) strictly monotone restriction of a weak map as a
constraint loop, which is what ties these maps to the termination
analyzer.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd

from .poly2 import HPoly, Record, hpoly


class ReductionPreconditionError(ValueError):
    """The loop encoding needs an expanding map (m > d)."""


class WeakCollatz(Record):
    """x -> floor((m*x - a) / d) with gcd(|m|, d) = 1, d >= 2, m != 0."""

    __slots__ = ("d", "m", "a")

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("modulus d must be >= 2")
        if self.m == 0:
            raise ValueError("multiplier m must be nonzero")
        if gcd(abs(self.m), self.d) != 1:
            raise ValueError("m must be coprime to d")

    def __call__(self, x: int) -> int:
        return (self.m * x - self.a) // self.d


class GenCollatz(Record):
    """Branch map T(x) = (m_i * x - r_i) / d for x = i (mod d)."""

    __slots__ = ("d", "m", "r")

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("modulus d must be >= 2")
        if len(self.m) != self.d or len(self.r) != self.d:
            raise ValueError("need exactly d multipliers and offsets")
        for i, (mi, ri) in enumerate(zip(self.m, self.r)):
            if mi == 0:
                raise ValueError(f"branch {i}: multiplier must be nonzero")
            if gcd(abs(mi), self.d) != 1:
                raise ValueError(f"branch {i}: multiplier must be coprime to d")
            if (mi * i - ri) % self.d != 0:
                raise ValueError(f"branch {i}: m_i*i must equal r_i mod d")

    def __call__(self, x: int) -> int:
        i = x % self.d
        num = self.m[i] * x - self.r[i]
        assert num % self.d == 0
        return num // self.d


def as_generalized(t: WeakCollatz) -> GenCollatz:
    """The branch form of a weak map: r_i = a + ((m*i - a) mod d)."""
    r = tuple(t.a + ((t.m * i - t.a) % t.d) for i in range(t.d))
    return GenCollatz(t.d, (t.m,) * t.d, r)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


class OrbitResult(Record, defaults=(None, None, None)):
    """`outcome` is "reached-target", "entered-cycle", "exceeded-bound" or "exceeded-steps"."""

    __slots__ = ("outcome", "prefix", "first_index", "period", "k")


def orbit(
    t: Callable[[int], int], n: int, max_steps: int, abs_bound: int,
    target: Callable[[int], bool] | None = None,
) -> OrbitResult:
    """Iterate until a target value, a repeated value, a bound escape, or
    step exhaustion.

    The prefix lists every computed value in order; on a repeat it ends
    with the second occurrence.  `target` is tested on the start and on
    each new value before the repeat and bound checks; a hit reports its
    index as k.
    """
    values = [n]
    seen = {n: 0}
    if target is not None and target(n):
        return OrbitResult("reached-target", tuple(values), k=0)
    if abs(n) > abs_bound:
        return OrbitResult("exceeded-bound", tuple(values))
    for _ in range(max_steps):
        v = t(values[-1])
        values.append(v)
        if target is not None and target(v):
            return OrbitResult("reached-target", tuple(values), k=len(values) - 1)
        if v in seen:
            first = seen[v]
            return OrbitResult("entered-cycle", tuple(values), first, len(values) - 1 - first)
        seen[v] = len(values) - 1
        if abs(v) > abs_bound:
            return OrbitResult("exceeded-bound", tuple(values))
    return OrbitResult("exceeded-steps", tuple(values))


def reachability_scan(t: WeakCollatz, n: int, max_steps: int, abs_bound: int) -> OrbitResult:
    """Search the orbit for k with m * T^k(n) = a (mod d)."""
    return orbit(t, n, max_steps, abs_bound, lambda v: (t.m * v - t.a) % t.d == 0)


def residue_histogram(t: WeakCollatz | GenCollatz, n: int, steps: int, alpha: int = 1) -> dict[int, int]:
    """Counts of T^k(n) mod d**alpha over k = 0 .. steps-1."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    mod = t.d**alpha
    counts: dict[int, int] = {}
    v = n
    for k in range(steps):
        counts[v % mod] = counts.get(v % mod, 0) + 1
        if k + 1 < steps:
            v = t(v)
    return counts


# ---------------------------------------------------------------------------
# loop encoding
# ---------------------------------------------------------------------------


def to_slc(t: WeakCollatz, sign: str = "+") -> HPoly:
    """The strictly increasing positive (or decreasing negative)
    restriction of the weak map as a constraint loop.

    Rows bound d*x' between m*x - a - d + 1 and m*x - a - 1, i.e. x' is
    floor((m*x - a) / d) away from an exact multiple; the sign rows pin
    0 < x < x' (or x' < x < 0).  Needs m > d so the map can expand.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if t.m <= t.d:
        raise ReductionPreconditionError("encoding requires m > d")
    m, d, a = t.m, t.d, t.a
    rows = [
        (m, -d, a + d - 1),
        (-m, d, -a - 1),
    ]
    if sign == "+":
        rows += [(-1, 0, -1), (1, -1, -1)]
    else:
        rows += [(1, 0, -1), (-1, 1, -1)]
    return hpoly(rows)
