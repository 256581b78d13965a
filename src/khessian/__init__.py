"""Numerical toolkit for the k-Hessian principal eigenvalue on balls.

Cone algebra for elementary symmetric polynomials, matrix admissibility,
radial calculus with exact-quadrature Dirichlet solves, boundary-barrier
verification near curved boundaries, and a power-iteration enclosure of
the discrete principal eigenvalue cross-checked by the monotone iteration.

The package root re-exports only the library entry points, the types
they take or return, and the error classes; everything else is imported
from its module (khessian.symfun, .cones, .radial, .dirichlet, .eigen,
.geometry).
"""

from .dirichlet import SolverConfig, SourceTerm, solve_radial_dirichlet
from .eigen import IterationConfig, SpectralEstimate, estimate_lambda1
from .errors import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    KHessianError,
    SearchError,
)
from .radial import RadialProfile
from .symfun import sigma_all

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "InconsistencyError",
    "IterationConfig",
    "KHessianError",
    "RadialProfile",
    "SearchError",
    "SolverConfig",
    "SourceTerm",
    "SpectralEstimate",
    "estimate_lambda1",
    "sigma_all",
    "solve_radial_dirichlet",
]
