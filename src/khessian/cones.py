"""Symmetric-matrix admissibility: spectra, S_k, and the matrix cones.

A matrix A is k-admissible when its eigenvalue vector lies in the closed
k-th Garding cone; the Dirichlet dual cone is the complement of the
negated interior.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError, check_int
from .symfun import in_gamma_k

__all__ = [
    "SYMMETRY_RTOL",
    "as_symmetric",
    "eigenvalues",
    "membership_slack",
    "in_sigma_k",
    "in_dual_sigma_k",
    "load_matrix_json",
    "save_matrix_json",
]

SYMMETRY_RTOL = 1e-12


def as_symmetric(matrix) -> np.ndarray:
    """Validate a square symmetric matrix (1e-12 relative tolerance).

    Returns the symmetrized array (A + A^T)/2 so downstream LAPACK calls
    see an exactly symmetric operand.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    scale = 1.0 + float(np.max(np.abs(a)))
    skew = float(np.max(np.abs(a - a.T)))
    if skew > SYMMETRY_RTOL * scale:
        raise DomainError(
            f"matrix is not symmetric: max|A - A^T| = {skew:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * (1 + max|A|)"
        )
    return 0.5 * (a + a.T)


def eigenvalues(matrix) -> np.ndarray:
    """Full spectrum of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(as_symmetric(matrix))


def membership_slack(matrix, k: int) -> float:
    """Homogeneity-aware tolerance for closed-cone tests on computed data.

    sigma_j is degree j in the eigenvalues, so roundoff in the spectrum
    enters amplified by powers of the matrix scale; a single slack at the
    top degree, 1e-10 * (1 + ||A||_F)^k, covers every level tested.
    """
    check_int("order k", k, 0)
    a = np.asarray(matrix, dtype=float)
    # a float64 power: inf where a Python float power would raise
    return float(_slack(np.linalg.norm(a), k))


def _slack(frobenius, k: int):
    """1e-10 (1 + ||A||_F)^k, from the Frobenius norm of each matrix."""
    return 1e-10 * (1.0 + frobenius) ** k


def in_sigma_k(matrix, k: int, strict: bool = False) -> bool:
    """Whether the spectrum lies in the (closed or open) k-th cone."""
    a = as_symmetric(matrix)
    lam = np.linalg.eigvalsh(a)
    return in_gamma_k(lam, k, strict=strict, slack=membership_slack(a, k))


def in_dual_sigma_k(matrix, k: int) -> bool:
    """Dirichlet dual cone: complement of the negated open cone.

    A lies in the dual set exactly when -A is not interior k-admissible,
    so the implementation is literally that negation.
    """
    a = as_symmetric(matrix)
    return not in_sigma_k(-a, k, strict=True)


def load_matrix_json(path) -> np.ndarray:
    """Read {"n": N, "entries": row-major} and validate symmetry."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    # ValueError covers JSONDecodeError and UnicodeDecodeError
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        n = payload["n"]
        flat = np.asarray(payload["entries"], dtype=float).ravel()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed matrix file {path}: {exc}") from exc
    check_int(f"matrix file {path}: n", n, 1)
    if flat.size != n * n:
        raise DomainError(f"matrix file {path}: expected {n*n} entries, got {flat.size}")
    return as_symmetric(flat.reshape(n, n))


def save_matrix_json(path, matrix) -> None:
    a = as_symmetric(matrix)
    with open(path, "w") as fh:
        json.dump({"n": a.shape[0], "entries": a.ravel().tolist()}, fh)
        fh.write("\n")
