"""Exception hierarchy shared across the toolkit, its float-range guard
and its input rules: check_int for every order, dimension and count, and
check_real for every scalar real, such as a radius, rate or tolerance.
Numpy integers (and numpy floats, for check_real) pass; a bool or a str never.

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


_INTEGER = (int, np.integer)


def check_int(name: str, value, low: int, high=None, high_name: str = "") -> None:
    """Raise DomainError unless value is an int or a numpy integer, never a
    bool (True is no order or count), with low <= value <= high.  Nothing
    is converted.  high_name labels a bound set by another argument, as in
    "order k=3 must be an integer in [1, N=2]"."""
    if (isinstance(value, _INTEGER) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return
    bound = f"{high_name}={high}" if high_name else high
    need = f">= {low}" if high is None else f"in [{low}, {bound}]"
    raise DomainError(f"{name}={value!r} must be an integer {need}")


_REAL = (int, float, np.integer, np.floating)


def _float_sized(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_real(name: str, value, low=-np.inf, high=np.inf, ends: str = "[]") -> None:
    """Raise DomainError unless value is an int, a float or a numpy real,
    never a bool, in the interval from low to high with the brackets ends:
    "(]" excludes low and includes high.  NaN is in none, and neither is an
    int too large for a float.  Nothing is converted: a site that computes
    with an int in integer arithmetic, where a numpy integer wraps, takes
    float(value) after the check."""
    if (isinstance(value, _REAL) and not isinstance(value, bool) and _float_sized(value)
            and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        return
    raise DomainError(f"{name}={value!r} must be a real number in "
                      f"{ends[0]}{low}, {high}{ends[1]}")


class ConvergenceError(KHessianError):
    """An iterative procedure failed to meet its tolerance."""


class _TracedError(KHessianError):
    """An error that carries a trace of the values it ended on, for forensics."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or {}


class SearchError(_TracedError):
    """A parameter search exhausted its range without success."""


class InconsistencyError(_TracedError):
    """Computed quantities contradict a structural guarantee.

    Raised e.g. when the fixed-point iteration loses monotonicity or its
    verdict contradicts the eigenvalue bracket.
    """
