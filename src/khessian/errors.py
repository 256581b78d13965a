"""Exception hierarchy shared across the toolkit, and its float-range guard.

The CLI maps these onto exit codes: bad input is a usage error (exit 1),
while a numerical inconsistency detected mid-computation exits with 2.
"""

import numpy as np


class KHessianError(Exception):
    """Base class for all toolkit errors."""


class DomainError(KHessianError):
    """Input outside the documented domain of an operation."""


class float_range(np.errstate):
    """Raise DomainError(f"{message}: {reason}") where numpy overflows,
    divides by zero or turns invalid in the block: a value has left the
    float range and nothing computed from it means anything.  Underflow
    is allowed; small balls have subnormal weights.
    """

    def __init__(self, message: str):
        super().__init__(over="raise", divide="raise", invalid="raise")
        self.message = message

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise DomainError(f"{self.message}: {exc}") from exc


class ConvergenceError(KHessianError):
    """An iterative procedure failed to meet its tolerance."""


class SearchError(KHessianError):
    """A parameter search exhausted its range without success."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InconsistencyError(KHessianError):
    """Computed quantities contradict a structural guarantee.

    Raised e.g. when the fixed-point iteration loses monotonicity or its
    verdict contradicts the eigenvalue bracket; carries a trace for
    forensics.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or {}
