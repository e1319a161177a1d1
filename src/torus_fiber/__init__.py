"""Exact Newton-polytope, lattice-point and monodromy analysis for
Laurent polynomials on the algebraic torus."""

__version__ = "0.1.0"

from .errors import (
    ConeMembershipError,
    InternalConsistencyError,
    LimitExceededError,
    NotFullDimensionalError,
    NotSimplicializingError,
    OriginNotContainedError,
    ParseError,
    ResonantExponentError,
    TorusFiberError,
)
from .laurent import LaurentPolynomial, parse_laurent
from .polytope import NewtonPolytope, newton_polytope

__all__ = [
    "__version__",
    "TorusFiberError",
    "ParseError",
    "NotFullDimensionalError",
    "OriginNotContainedError",
    "ConeMembershipError",
    "NotSimplicializingError",
    "ResonantExponentError",
    "LimitExceededError",
    "InternalConsistencyError",
    "LaurentPolynomial",
    "parse_laurent",
    "NewtonPolytope",
    "newton_polytope",
]
