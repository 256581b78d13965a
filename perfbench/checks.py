"""Computations made apart from khessian, used to check its outputs.

Nothing here imports the package under test.  Elementary symmetric
functions are evaluated by their definition (sums of products over
j-subsets), S_k of a matrix by summing principal minors, ellipsoid
curvatures from the closed-form Gauss and mean curvature, and radial S_k
from the factored formula for h(|x|).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


class CheckFailed(AssertionError):
    """An output disagreed with the independent computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def sigma_def(x: np.ndarray, j: int) -> np.ndarray:
    """sigma_j over the last axis as a sum of products over j-subsets."""
    n = x.shape[-1]
    if j == 0:
        return np.ones(x.shape[:-1])
    out = np.zeros(x.shape[:-1])
    for sub in combinations(range(n), j):
        out = out + np.prod(x[..., list(sub)], axis=-1)
    return out


def sigma_k_minors(a: np.ndarray, k: int) -> float:
    """S_k(A) as the sum of the k x k principal minors of A."""
    n = a.shape[0]
    return float(sum(np.linalg.det(a[np.ix_(s, s)]) for s in combinations(range(n), k)))


def max_curvature(axes) -> float:
    """Largest principal curvature of an ellipsoid: a_max / a_min^2."""
    axes = np.asarray(axes, dtype=float)
    return float(axes.max() / axes.min() ** 2)


def ellipsoid_curvature_invariants(points: np.ndarray, axes) -> tuple:
    """Closed-form (product, mean) of the principal curvatures at surface points.

    With W = sum x_i^2 / a_i^4: an ellipse has curvature 1 / (a^2 b^2 W^(3/2));
    an ellipsoid has K = 1 / (a^2 b^2 c^2 W^2) and
    H = (a^2 + b^2 + c^2 - |x|^2) / (2 a^2 b^2 c^2 W^(3/2)).
    """
    a2 = np.asarray(axes, dtype=float) ** 2
    w = np.sum(points**2 / a2**2, axis=1)
    prod_a2 = float(np.prod(a2))
    if a2.size == 2:
        kappa = 1.0 / (prod_a2 * w**1.5)
        return kappa, kappa
    gauss = 1.0 / (prod_a2 * w**2)
    mean = (a2.sum() - np.sum(points**2, axis=1)) / (2.0 * prod_a2 * w**1.5)
    return gauss, mean


def _tangential(kappas: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """kappa_i / (1 - kappa_i d) on a (samples, depths, N-1) lattice."""
    return kappas[:, None, :] / (1.0 - kappas[:, None, :] * depths[None, :, None])


def exp_barrier_values(kappas, k, lam, t, depths) -> tuple:
    """(min_j S_j, min S_k - lam |phi|^k) of phi = e^{-t d} - 1 on a depth set."""
    tang = _tangential(kappas, depths)
    x = np.concatenate([tang, np.full(tang.shape[:2] + (1,), t)], axis=-1)
    decay = np.exp(-t * depths)[None, :]
    s = [t**j * decay**j * sigma_def(x, j) for j in range(1, k + 1)]
    phi = np.abs(np.exp(-t * depths) - 1.0)[None, :]
    return float(min(v.min() for v in s)), float((s[-1] - lam * phi**k).min())


def log_barrier_values(kappas, k, fsup, usup, t, d0, depths) -> dict:
    """beta, M, min_sj and worst_margin of v = -M log(1 + t d) on a depth set."""
    tang = _tangential(kappas, depths)
    b = (t / (1.0 + t * depths))[None, :, None]
    x = np.concatenate([tang, np.broadcast_to(b, tang.shape[:2] + (1,))], axis=-1)
    sig = [sigma_def(x, j) for j in range(1, k + 1)]
    beta = float(min(v.min() for v in sig))
    m_pde = ((1.0 + t * d0) / t) * (fsup / (0.5 * beta)) ** (1.0 / k) if fsup > 0 else 0.0
    m_bc = usup / math.log1p(t * d0) if usup > 0 else 0.0
    M = max(m_pde, m_bc, 1.0 if fsup == 0 and usup == 0 else 0.0)
    amp = (M * t / (1.0 + t * depths))[None, :]
    s = [amp ** (j + 1) * v for j, v in enumerate(sig)]
    return {
        "beta": beta,
        "M": M,
        "min_sj": float(min(v.min() for v in s)),
        "worst_margin": float((s[-1] - fsup).min()),
    }


def program_depths(d0: float, n_depth: int) -> np.ndarray:
    """The depths a verifier samples: d0 * i / n_depth for i = 1..n_depth."""
    return d0 * np.arange(1, n_depth + 1) / n_depth


def collar_depths(d0: float, n: int = 4097) -> np.ndarray:
    """A dense depth set on the closed collar [0, d0], for its infimum."""
    return np.linspace(0.0, d0, n)


def radial_s_k(r, hp, hpp, N: int, k: int) -> np.ndarray:
    """S_k(D^2 u) for u = h(|x|): sigma_k of (h'/r repeated N-1 times, h'').

    At r = 0 the Hessian is h''(0) I, so S_k = C(N,k) h''(0)^k.
    """
    r, hp, hpp = (np.asarray(v, dtype=float) for v in (r, hp, hpp))
    out = math.comb(N, k) * hpp**k
    pos = r > 0
    q = hp[pos] / r[pos]
    out[pos] = math.comb(N - 1, k - 1) * q ** (k - 1) * hpp[pos] + math.comb(N - 1, k) * q**k
    return out


def quartic_sharp_constant(N: int, k: int) -> float:
    """Least lam making the quartic -(1 - r^2)^2 / 4 a supersolution on the unit ball.

    The ratio S_k / |u|^k of the quartic peaks at
    4^k C(N-1,k-1) max(N/k, (2/k) ((N + 2k) / (2(k+1)))^(k+1)).
    """
    return 4.0**k * math.comb(N - 1, k - 1) * max(
        N / k, (2.0 / k) * ((N + 2 * k) / (2.0 * (k + 1))) ** (k + 1)
    )


def geometric_mean(values) -> float:
    v = np.asarray(list(values), dtype=float)
    return float(np.exp(np.mean(np.log(v))))
