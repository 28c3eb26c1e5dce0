"""Combinatorial indeterminacy tests for the extended Prym map.

Decide, from the dual graph of a stable curve with involution alone,
whether the curve lies in the indeterminacy locus of the extended Prym
map: build the anti-invariant cycle lattice X^-, classify edge orbits,
test the dicing conditions (*) and (**) through unimodularity of maximal
minors, and search for Friedman-Smith degenerations.  The verify module
cross-checks every criterion exhaustively on all small graphs.

The package exports the errors below and every name in the __all__ of
graphs, homology, dicing, fs and verify.
"""

from . import dicing, fs, graphs, homology, verify
from .errors import CapExceededError, GraphFormatError, InvalidGraphError
from .graphs import *
from .homology import *
from .dicing import *
from .fs import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CapExceededError",
    "GraphFormatError",
    "InvalidGraphError",
    *graphs.__all__,
    *homology.__all__,
    *dicing.__all__,
    *fs.__all__,
    *verify.__all__,
]
