"""Independent reference computations shared by several test files.

Not collected by pytest (no test_ prefix).  Each function is a slow or
literal route to a quantity the library computes another way, kept only
so that the tests can compare the two.
"""

from itertools import combinations

import numpy as np

from khessian.cones import eigenvalues
from khessian.symfun import sigma_k


def in_gamma_k_korevaar(values, k: int) -> bool:
    """Garding cone membership via iterated partial derivatives of sigma_k.

    The interior of the cone is characterized by sigma_k > 0 together with
    positivity of every iterated partial of sigma_k up to order k-1.  A
    partial with respect to distinct slots i_1..i_m equals sigma_{k-m} of
    the vector with those entries deleted, so the check enumerates index
    subsets and evaluates complements.  Exponential in k.
    """
    lam = np.asarray(values, dtype=float).ravel()
    n = lam.size
    if k == 0:
        return True
    if sigma_k(lam, k) <= 0.0:
        return False
    for m in range(1, k):
        for subset in combinations(range(n), m):
            if sigma_k(np.delete(lam, subset), k - m) <= 0.0:
                return False
    return True


def residual_scale(hp, hpp, r, k: int) -> np.ndarray:
    """Local magnitude (1 + |hp/r| + |hpp|)^k used to scale S_k tolerances."""
    r = np.asarray(r, dtype=float)
    q = np.where(r > 0, np.asarray(hp, dtype=float) / np.where(r > 0, r, 1.0), 0.0)
    return (1.0 + np.abs(q) + np.abs(np.asarray(hpp, dtype=float))) ** k


def s_k_op(matrix, k: int) -> float:
    """S_k(A) = sigma_k of the spectrum; S_1 = trace, S_N = det."""
    return sigma_k(eigenvalues(matrix), k)
