"""Exact spectral algebra of the gl2 Bethe algebras with a nilpotent twist."""

from fractions import Fraction

from mpmath import mpf

__version__ = "0.1.0"

# The exact scalar ring is the standard library's Fraction; high-precision
# floats are mpmath's, driven through explicit precision contexts.
Rational = Fraction
PrecFloat = mpf

from .linalg import Matrix, generalized_eigenspace
from .multipoly import MultiPoly
from .nilpotent import NilpotentElement, nilpotent_invert
from .qseries import QSeries, qseries_pochhammer
from .unipoly import UniPoly, poly_wronskian

__all__ = [
    "Matrix",
    "MultiPoly",
    "NilpotentElement",
    "PrecFloat",
    "QSeries",
    "Rational",
    "UniPoly",
    "generalized_eigenspace",
    "nilpotent_invert",
    "poly_wronskian",
    "qseries_pochhammer",
    "__version__",
]
