"""Elementary symmetric functions and Garding cone membership.

Everything here operates on a spectrum: a finite real vector, by convention
handled in ascending order.  sigma_all evaluates every elementary symmetric
polynomial of the vector in one O(N^2) recurrence pass, and the cone
predicates are built on top of it.  sigma_all also takes an (M, N) array,
one spectrum per row, and returns (M, N+1) from the same recurrence run
along the rows, so a batch of spectra costs N vectorized steps rather
than M Python-level calls.

The recurrence itself is _sigma_columns: it takes a spectrum as N columns
that broadcast together (scalars, rows, full arrays) and returns the
orders 0..top stacked along a leading axis.  sigma_all is its transposing
wrapper; the collar verifiers of geometry call it directly, so a field of
samples x depths is never laid out as one cell per row.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_int, check_real

__all__ = [
    "sigma_all",
    "in_gamma_k",
]


def _sigma_columns(cols, top: int) -> np.ndarray:
    """sigma_0..sigma_top of the spectra whose entries are the columns cols.

    cols is a sequence of N entries that broadcast together, or an array
    whose leading axis runs over the entries.  The result is order-major,
    shape (top+1,) + the broadcast shape.  Each order j <= top is
    bit-identical to the full recurrence: e_j never reads a slot above j.
    No finiteness check is made here.
    """
    if isinstance(cols, np.ndarray):
        shape = cols.shape[1:]
    else:
        shape = np.broadcast_shapes(*(np.shape(col) for col in cols))
    e = np.zeros((top + 1,) + shape)
    e[0] = 1.0
    for i in range(len(cols)):
        m = i + 1 if i < top else top
        # the product is formed from the pre-update e[0:m] before the
        # in-place add, so the recurrence never consumes a fresh slot
        e[1 : m + 1] += cols[i] * e[0:m]
    return e


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
    if not np.isfinite(lam).all():
        raise DomainError("spectrum entries must be finite")
    # lam.T[i] is entry i of every spectrum: a scalar for one vector, a row
    # of M values for a batch, which broadcasts across the slots of e
    return _sigma_columns(lam.T, lam.shape[-1]).T


def in_gamma_k(values, k: int, strict: bool = True, slack: float = 0.0) -> bool:
    """Membership of the k-th Garding cone: sigma_j > 0 for j = 1..k.

    strict=False tests the closure sigma_j >= -slack instead; slack must be
    nonnegative and defaults to 0 so the predicates reduce to the exact
    definitions.  Admissibility checks on computed data pass a scale-aware
    slack through here.  sigma is evaluated on the ascending spectrum, so
    a verdict does not depend on the order of values, even at rounding ties.
    """
    lam = np.sort(np.asarray(values, dtype=float).ravel())
    check_int("order k", k, 0, lam.size)
    if k == 0:
        return True
    check_real("slack", slack, 0)
    sig = sigma_all(lam)[1 : k + 1]
    if strict:
        return bool(np.all(sig > slack))
    return bool(np.all(sig >= -slack))

