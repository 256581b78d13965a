"""Elementary symmetric functions and Garding cone membership.

Everything here operates on a spectrum: a finite real vector, by convention
handled in ascending order.  sigma_all evaluates every elementary symmetric
polynomial of the vector in one O(N^2) recurrence pass, and the cone
predicates are built on top of it.  sigma_all also takes an (M, N) array,
one spectrum per row, and returns (M, N+1) from the same recurrence run
along the rows, so a batch of spectra costs N vectorized steps rather
than M Python-level calls.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "sigma_k",
    "sigma_all",
    "in_gamma_k",
]


def _check_order(n: int, k: int) -> None:
    if not isinstance(k, (int, np.integer)):
        raise DomainError(f"order k must be an integer, got {k!r}")
    if k < 0 or k > n:
        raise DomainError(f"order k={k} out of range for an {n}-vector")


def sigma_all(values) -> np.ndarray:
    """All elementary symmetric polynomials (sigma_0, ..., sigma_N).

    Expands prod_i (x + lam_i) by the stable coefficient recurrence: each
    entry multiplies in as e_j += lam_i * e_{j-1}, descending in j so the
    update never reads an already-updated slot.  sigma_0 = 1 by convention.

    A 1-d vector of N entries gives N+1 values.  An (M, N) array holds one
    spectrum per row and gives (M, N+1): the recurrence runs along the last
    axis, so each row is bit-identical to the 1-d call on that row.
    """
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 2:
        lam = lam.ravel()
    if not np.all(np.isfinite(lam)):
        raise DomainError("spectrum entries must be finite")
    # cols[i] is entry i of every spectrum: a scalar for one vector, a row
    # of M values for a batch, which broadcasts across the slots of e
    cols = lam.T
    n = cols.shape[0]
    e = np.zeros((n + 1,) + cols.shape[1:])
    e[0] = 1.0
    for i in range(n):
        # the product is formed from the pre-update e[0:i+1] before the
        # in-place add, so the recurrence never consumes a fresh slot
        e[1 : i + 2] += cols[i] * e[0 : i + 1]
    return e.T


def sigma_k(values, k: int) -> float:
    """sigma_k of a spectrum, e.g. sigma_2(1,2,3) = 11."""
    lam = np.asarray(values, dtype=float).ravel()
    _check_order(lam.size, k)
    return float(sigma_all(lam)[k])


def in_gamma_k(values, k: int, strict: bool = True, slack: float = 0.0) -> bool:
    """Membership of the k-th Garding cone: sigma_j > 0 for j = 1..k.

    strict=False tests the closure sigma_j >= -slack instead; slack must be
    nonnegative and defaults to 0 so the predicates reduce to the exact
    definitions.  Admissibility checks on computed data pass a scale-aware
    slack through here.
    """
    lam = np.asarray(values, dtype=float).ravel()
    _check_order(lam.size, k)
    if k == 0:
        return True
    if slack < 0:
        raise DomainError("slack must be nonnegative")
    sig = sigma_all(lam)[1 : k + 1]
    if strict:
        return bool(np.all(sig > slack))
    return bool(np.all(sig >= -slack))

