"""Exact symbolic-numeric engine for asymptotic digamma expansions.

The package computes the coefficient polynomials of the asymptotic
expansions of ``psi(x+t)`` and ``exp(p*psi(x+t))`` with exact rational
arithmetic, verifies the structural identities those coefficients satisfy,
corrects the published reference tables, and evaluates the truncated
expansions at high precision to approximate harmonic numbers and Euler's
constant.

Each module's ``__all__`` is the one place its public names are declared;
the package exports their union.
"""

from . import algebra, bernoulli, expansions, identities, numeric
from .algebra import *
from .bernoulli import *
from .expansions import *
from .identities import *
from .numeric import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *algebra.__all__,
    *bernoulli.__all__,
    *expansions.__all__,
    *identities.__all__,
    *numeric.__all__,
]
