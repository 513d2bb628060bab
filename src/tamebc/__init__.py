"""tamebc: exact tame base-change invariants.

Jump multisets, order functions and tame conductors of induced tori,
brute-force cokernel oracles over truncated valuation rings, motivic
zeta functions with pole reports for purely wild induced tori and
semiabelian Jacobians, Galois-lattice isogeny checks, and fiber-product
ring diagnostics.  Everything is exact: prime-field coefficients,
arbitrary-precision integers and rationals, no floating point.

The package re-exports each module's ``__all__``, and every exception
class of ``errors``; those lists are the public API.
"""

from .errors import *
from .jumps import *
from .dvr import *
from .motivic import *
from .lattice import *
from .pushout import *

__version__ = "0.1.0"
