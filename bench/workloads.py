"""Seeded inputs for the slcterm benchmark.

Every workload is a list of items built from the seed alone; a run
makes passes over the list.  Properties that decide an item's cost
(row count, polygon radius, wedge width k, the goldens and thick's
translation exponents) follow a fixed grid, so
every seed draws the same mix of costs and only the details (offsets,
signs, coefficients) change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

from slcterm.collatz import WeakCollatz, to_slc

Row = Tuple[int, int, int]
Rows = Tuple[Row, ...]

NONTERM = "non-terminating"
TERM = "terminating"

# the loops the tests call by name, as (a1, a2, b) rows
GOLDEN = {
    "slab": ((4, -3, 2), (-4, 3, -1), (-1, 0, -3)),
    "thin": ((4, -3, 1), (-4, 3, -1), (-1, 0, -3)),
    "thick": ((4, -3, 2), (-4, 3, 0), (-1, 0, -3)),
    "inc": ((1, -1, -1), (-1, 1, 1)),
    "quad": ((1, 1, 1), (-1, -1, 2), (1, -1, 3), (-1, 1, 3)),
    "pair": ((1, 1, 1), (-1, -1, -1)),
    "halfplane": ((1, -1, -1),),
    "halfint": ((2, -2, -3), (-2, 2, 3), (-1, 0, -1)),
    "empty": ((1, 0, 0), (-1, 0, -1)),
}

# magnitude: exponents e of the translation 10**e that the measured
# workload uses.  Larger ones are in known_failures.json.
MAX_EXPONENT = 6
WEDGE_KS = tuple(range(2, 31, 4))
ROW_COUNTS = (8, 22, 36, 50, 64)
POLYGONS_PER_COUNT = 4
POLYGON_RADIUS = 5


@dataclass(frozen=True)
class Item:
    """One loop of a workload.

    `expect` is the (kind, label) the verdict must have; `base` is an
    untranslated loop whose verdict this one must share.
    """

    name: str
    rows: Rows
    expect: Optional[Tuple[str, str]] = None
    base: Optional[Rows] = None

    @property
    def text(self) -> str:
        return loop_text(self.rows)


def loop_text(rows: Rows) -> str:
    return "slc v1\n" + "".join(f"{a1} {a2} {b}\n" for a1, a2, b in rows)


def translate(rows: Rows, c: int) -> Rows:
    """The loop conjugated by x -> x - c: row b becomes b - (a1+a2)*c."""
    return tuple((a1, a2, b - (a1 + a2) * c) for a1, a2, b in rows)


def reflect(rows: Rows) -> Rows:
    """The loop conjugated by x -> -x."""
    return tuple((-a1, -a2, b) for a1, a2, b in rows)


def wedge(k: int) -> Rows:
    """Thin wedge (k+1)x/k <= x' <= kx/(k-1), x >= 1: an ascending trace
    exists, but the columns hold an integer only from about x = k*k on."""
    return ((k + 1, -k, 0), (-k, k - 1, 0), (-1, 0, -1))


# ---------------------------------------------------------------------------
# mix: small random loops, Collatz encodings and the goldens
# ---------------------------------------------------------------------------


def random_loop(rng: random.Random, k: int, coeff: int = 7) -> Rows:
    return tuple(
        (rng.randint(-coeff, coeff), rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(k)
    )


def collatz_loop(rng: random.Random) -> Rows:
    d = rng.randint(2, 5)
    m = rng.choice([m for m in range(d + 1, 4 * d) if gcd(m, d) == 1])
    a = rng.randint(-2 * d, 2 * d)
    p = to_slc(WeakCollatz(d, m, a), rng.choice("+-"))
    return tuple(tuple(r) for r in p.rows)


MIX_SIZE = 4000


def mix_corpus(rng: random.Random) -> list[Item]:
    """One golden and one Collatz encoding in every 20 items; the rest are
    random loops whose row count cycles through 1..6, as in the tests'
    random corpus but without the spread of row counts between seeds."""
    names = sorted(GOLDEN)
    items = []
    n_random = 0
    for i in range(MIX_SIZE):
        if i % 20 == 0:
            name = rng.choice(names)
            c = rng.randint(-20, 20)
            items.append(Item(f"golden:{name}{c:+d}", translate(GOLDEN[name], c)))
        elif i % 20 == 10:
            items.append(Item("collatz", collatz_loop(rng)))
        else:
            items.append(Item("random", random_loop(rng, 1 + n_random % 6)))
            n_random += 1
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# rows: bounded cycle-free polygons with many rows
# ---------------------------------------------------------------------------


def tangent_polygon(rng: random.Random, k: int) -> Rows:
    """k rows around a disk that lies off the diagonal.

    About four fifths are tangents with angles spread round the circle,
    so the polygon is bounded; the rest repeat a tangent, scaled, or
    loosen one, so they are duplicate or redundant.  The disk's centre
    is far enough from the line x' = x that the whole polygon lies on
    one side of it, which rules out fixed points and 2-cycles.
    """
    # r is small enough that the polygon lies inside the oracle's window
    # [-64, 64]^2, and fixed: the oracle's graph grows with r*r
    r = POLYGON_RADIUS
    cx = rng.randint(-20, 20)
    # offset from the diagonal in x'-x units.  With 8 or more tangents,
    # jitter, rounded and tilted normals leave every angle gap under 100
    # degrees (45 + 27 of jitter + 2 * 7 of rounding + 7 of tilt),
    # so the polygon stays within 1.6r + 1 of the centre, which is at most
    # 2.3r + 1.5 in x'-x: less than this gap for every r below 25
    gap = math.ceil(2.2 * r) + 4 + rng.randint(0, r)
    cy = cx + rng.choice((1, -1)) * gap
    tangents = max(8, k - k // 5)
    turn = rng.random() * 2 * math.pi
    rows = []
    for j in range(tangents):
        theta = turn + 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / tangents
        size = rng.randint(4, 24)
        n1, n2 = round(size * math.cos(theta)), round(size * math.sin(theta))
        # No row has a2 = 0: such a row ends a column early (lattice.column),
        # so the oracle's graph would cost 2-10x less or more depending on
        # where it lands in the shuffled order.  The tilt turns the normal
        # by at most 14 degrees, 7 more than rounding, as the gap bound
        # above counts.
        n2 = n2 or (1 if math.sin(theta) >= 0 else -1)
        # b = n.c + ceil(r*|n|) keeps the disk inside the row
        b = n1 * cx + n2 * cy + math.isqrt(r * r * (n1 * n1 + n2 * n2) - 1) + 1
        rows.append((n1, n2, b))
    while len(rows) < k:
        n1, n2, b = rng.choice(rows[:tangents])
        if rng.random() < 0.5:
            s = rng.randint(1, 3)
            rows.append((s * n1, s * n2, s * b))
        else:
            rows.append((n1, n2, b + rng.randint(1, 40)))
    rng.shuffle(rows)
    return tuple(rows)


def rows_corpus(rng: random.Random) -> list[Item]:
    # Polygons of one row count differ by up to a third in decide time
    # (row order, vertex count), so each count has several; with an odd
    # number of counts the median and p90 fall inside the 36- and 64-row
    # groups instead of between two groups.
    items = [
        Item(f"rows:{k}", tangent_polygon(rng, k), expect=(TERM, "L5.5.2"))
        for k in ROW_COUNTS
        for _ in range(POLYGONS_PER_COUNT)
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# magnitude: thin wedges and goldens translated far out
# ---------------------------------------------------------------------------


def translated_golden(rng: random.Random, name: str, e: int, sign: int) -> Item:
    # the exponent and sign are fixed; the seed picks the low digits
    c = sign * (10**e + rng.randint(0, 9))
    return Item(f"golden:{name}{'+' if sign > 0 else '-'}1e{e}", translate(GOLDEN[name], c),
                base=GOLDEN[name])


def magnitude_corpus(rng: random.Random) -> list[Item]:
    items = []
    # the mirror image scans in another order and can cost a quarter more
    # or less, so the orientation alternates along k and is not drawn
    for j, k in enumerate(WEDGE_KS):
        if j % 2:
            items.append(Item(f"wedge:-{k}", reflect(wedge(k)), expect=(NONTERM, "L5.2.1")))
        else:
            items.append(Item(f"wedge:{k}", wedge(k), expect=(NONTERM, "L5.2.1")))
    # thick's window grows with +c: these three set the workload's memory
    for e in range(MAX_EXPONENT - 2, MAX_EXPONENT + 1):
        items.append(translated_golden(rng, "thick", e, 1))
    # the others cost the same at any exponent; they check invariance.
    # Each appears once, so that every seed has the same cheap half.
    for name in sorted(set(GOLDEN) - {"thick"}):
        items.append(translated_golden(rng, name, rng.randint(0, MAX_EXPONENT),
                                       rng.choice((1, -1))))
    rng.shuffle(items)
    return items


CORPORA = {"mix": mix_corpus, "rows": rows_corpus, "magnitude": magnitude_corpus}
WORKLOADS = tuple(CORPORA)

# The witness and oracle paths run on every n-th item of a pass.  On mix
# they cost twenty times what decide does, so an eighth of the (shuffled)
# items is enough for their medians and leaves time for more decides.
PATH_STRIDE = {"mix": 8, "rows": 1, "magnitude": 1}
# ... and on every n-th pass.  On magnitude each path costs about what
# decide does and a few items set the figures, so skipping the paths every
# other pass gives decide half as many samples again.
PATH_PASSES = {"mix": 1, "rows": 1, "magnitude": 2}


def corpus(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"slcterm-bench/{workload}/{seed}")
    return CORPORA[workload](rng)
