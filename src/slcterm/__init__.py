"""Termination analysis for one-variable linear-constraint loops.

A loop is a conjunction of constraints a1*x + a2*x' <= b over integer
states; the analyzer decomposes the transition polyhedron, classifies
its recession cone, and decides (or conjectures) whether an infinite
integer trace exists, in exact integer and rational arithmetic.  The
package exports the entry points below; each layer (`poly2`, `lattice`,
`analyzer`, `collatz`, `oracle`, `loopio`, `cli`) is a submodule with
its own names.
"""

from .analyzer import decide, witness_trace
from .poly2 import hpoly

__version__ = "0.1.0"

__all__ = ["decide", "hpoly", "witness_trace", "__version__"]
