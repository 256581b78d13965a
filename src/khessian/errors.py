"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: bad input is a usage error (exit 1),
while a numerical inconsistency detected mid-computation exits with 2.
"""


class KHessianError(Exception):
    """Base class for all toolkit errors."""


class DomainError(KHessianError):
    """Input outside the documented domain of an operation."""


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
