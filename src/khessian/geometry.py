"""Boundary geometry: curvature fields, tube bounds, and barrier checks.

A domain enters the theory only through the principal curvatures of its
boundary (inner-normal convention) and the width of a regular tubular
neighborhood.  Near the boundary the Hessian of the distance function has
eigenvalues -kappa_i / (1 - kappa_i d) plus a zero in the normal
direction, so compositions g(d) reduce to symmetric-function algebra on
those values.  The two verifiers certify the exponential and logarithmic
boundary barriers on every sample x depth cell of the collar.  The sigma
recurrence runs on the N-1 tangential columns as (samples, depths)
arrays plus the normal value, order-major; each order is reduced to its
minimum over the samples first, and the barrier factors, all positive,
scale those (k, depths) minima.  Scaling by a positive factor and
subtracting a fixed value both round monotonically, so this is exactly
the minimum of the cellwise products.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SearchError, check_int, check_real, float_range
from .symfun import _sigma_columns

__all__ = [
    "CurvatureField",
    "strictly_km1_convex",
    "augment_r",
    "verify_exp_boundary_barrier",
    "verify_log_boundary_barrier",
    "sphere_field",
    "ellipsoid_field",
    "load_field_json",
    "save_field_json",
]


@dataclass(frozen=True)
class CurvatureField:
    """Principal curvature samples of a closed boundary.

    points has shape (S, N) and kappas shape (S, N-1); row i holds the
    inner-normal principal curvatures at points[i], stored ascending
    whatever order they are given in.
    """

    points: np.ndarray
    kappas: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        kap = np.asarray(self.kappas, dtype=float)
        if pts.ndim != 2 or kap.ndim != 2:
            raise DomainError("field arrays must be 2-d (samples by components)")
        if pts.shape[0] != kap.shape[0] or pts.shape[0] == 0:
            raise DomainError("field needs matching, non-empty sample rows")
        if kap.shape[1] != pts.shape[1] - 1:
            raise DomainError("each sample needs N-1 curvatures for ambient dimension N")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(kap))):
            raise DomainError("field entries must be finite")
        object.__setattr__(self, "points", pts)
        # ascending, as symfun decides cones: the sigma recurrence rounds
        # by the order of its columns, and no verdict may depend on it
        object.__setattr__(self, "kappas", np.sort(kap, axis=1))

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def mu(self) -> float:
        """Curvature bound max |kappa| over the field."""
        return float(np.max(np.abs(self.kappas)))


def _kappa_sigma(field: CurvatureField, k: int) -> np.ndarray:
    """sigma_0..sigma_k of kappa(y) at every sample, order-major (k+1, S)."""
    # strict (k-1)-convexity is a condition for k >= 2 only
    check_int("order k", k, 2, field.ambient_dim, "N")
    return _sigma_columns(field.kappas.T, k)


def strictly_km1_convex(field: CurvatureField, k: int) -> bool:
    """Strict (k-1)-convexity: sigma_j(kappa) > 0 for j < k at every sample.

    Only meaningful for k >= 2; the k = 1 theory puts no condition on the
    boundary, so asking is treated as a caller error.
    """
    return bool(np.all(_kappa_sigma(field, k)[1:k] > 0))


def _augmented_ok(sig: np.ndarray, R: float) -> bool:
    """(kappa(y), R) strictly in the k-th cone at every sample, from
    sig = _kappa_sigma(field, k).

    sigma_j(kappa, R) = sigma_j + R sigma_{j-1} is the last step of the
    recurrence, with R as the last entry, so it is bit-identical to the
    recurrence run on (kappa, R).
    """
    return bool(np.all(sig[1:] + R * sig[:-1] > 0))


def augment_r(field: CurvatureField, k: int) -> float:
    """Smallest certified R with (kappa(y), R) strictly in the k-th cone, to 1e-3.

    sigma_j(kappa, R) = sigma_j(kappa) + R sigma_{j-1}(kappa) is affine in
    R with slope sigma_{j-1}(kappa) > 0 under strict (k-1)-convexity, so
    the threshold is the maximum of -sigma_j / sigma_{j-1} over samples
    and j <= k.  The seed 1e-6 (1 + mu) is returned when it certifies;
    otherwise the threshold raised by 1e-3 of itself, certified on the
    last recurrence step.  sigma(kappa) is computed once.
    """
    sig = _kappa_sigma(field, k)
    if not np.all(sig[1:k] > 0):
        raise DomainError("augmentation needs a strictly (k-1)-convex field")
    r = 1e-6 * (1.0 + field.mu)
    if _augmented_ok(sig, r):
        return r
    r = float(np.max(-sig[1:] / sig[:-1])) * (1.0 + 1e-3)
    if not _augmented_ok(sig, r):
        raise SearchError("augmentation certification failed", {"candidate": r})
    return r


# samples per block of the collar recurrence: a block's sigma array at 64
# depths and k = 2 stays near 0.4 MB, and a minimum of block minima is the
# minimum over all samples
_SAMPLE_BLOCK = 256


def _collar_depths(field: CurvatureField, d0: float, n_depth: int) -> np.ndarray:
    """The sampled depths d0 i / n_depth, i = 1..n_depth, inside the tube."""
    check_real("collar width d0", d0, 0, math.inf, "()")
    mu = field.mu
    if mu > 0 and d0 > 1.0 / (2.0 * mu):
        raise DomainError(
            f"collar width d0={d0:.6g} exceeds the tube bound 1/(2 mu)={1/(2*mu):.6g}"
        )
    check_int("n_depth", n_depth, 1)
    return np.linspace(0.0, d0, n_depth + 1)[1:]


def _collar_sigma_min(field: CurvatureField, depths: np.ndarray, t: float,
                      k: int, damped: bool = False) -> np.ndarray:
    """min over samples of sigma_j(kappa_i/(1 - kappa_i d), n), j = 1..k.

    The normal entry n is t, or t/(1 + t d) when damped; the result has shape (k, D).
    The N-1 tangential entries go to the recurrence as (samples, depths)
    columns, _SAMPLE_BLOCK samples at a time.  An overflow anywhere raises
    DomainError: an overflowed partial sum stays +inf after later negative
    terms, so such a sigma_j can have the wrong sign, and the minimum over
    samples would hide it.
    """
    minima = []
    with float_range("sigma_j on the collar overflows"):
        normal = t / (1.0 + t * depths) if damped else t
        for start in range(0, field.n_samples, _SAMPLE_BLOCK):
            kap = field.kappas[start : start + _SAMPLE_BLOCK].T[:, :, None]
            tangential = kap / (1.0 - kap * depths)
            sig = _sigma_columns([*tangential, normal], k)
            minima.append(np.min(sig[1:], axis=1))
    return np.minimum.reduce(minima)


def verify_exp_boundary_barrier(field: CurvatureField, k: int, lam: float,
                                t: float, d0: float, n_depth: int = 64) -> dict:
    """Certify phi = e^{-t d} - 1 as a negative strict subsolution barrier.

    At every sample and depth d in (0, d0] the composition must satisfy
    S_j(D^2 phi) > 0 for j = 1..k (admissibility with room) and the margin
    S_k(D^2 phi) - lam |phi|^k > 0.  Factored form: S_j = t^j e^{-j t d}
    sigma_j(kappa_i/(1 - kappa_i d), t), so positivity reduces to the
    augmented symmetric functions; both are evaluated literally, the
    factor on the minimum over samples of each sigma_j.  Raises
    DomainError when a factor t^j e^{-j t d} or an S_j overflows.
    """
    check_int("order k", k, 1, field.ambient_dim, "N")
    check_real("lam", lam, 0, math.inf, "[)")
    check_real("rate t", t, 0, math.inf, "()")
    depths = _collar_depths(field, d0, n_depth)
    j = np.arange(1, k + 1)
    # t^j e^{-j t d} at every (j, depth), shape (k, D), checked before the recurrence
    with float_range("barrier factor t^j e^{-j t d} overflows "
                     f"at t = {t!r}, d0 = {d0!r}"):
        fac = (t**j * np.exp(-j * t * depths[:, None])).T
    sig = _collar_sigma_min(field, depths, t, k)
    # S_j minimized over samples at every (j, depth)
    with float_range(f"S_j overflows at t = {t!r}, d0 = {d0!r}"):
        sj = fac * sig
    phi = np.exp(-t * depths) - 1.0
    min_sj = float(np.min(sj))
    worst_margin = float(np.min(sj[-1] - lam * np.abs(phi) ** k))
    return {
        "kind": "exp-barrier",
        "k": k,
        "lam": float(lam),
        "t": float(t),
        "d0": float(d0),
        "samples": field.n_samples,
        "depth_nodes": int(n_depth),
        "min_sj": float(min_sj),
        "worst_margin": float(worst_margin),
        "admissible": bool(min_sj > 0),
        "passed": bool(min_sj > 0 and worst_margin > 0),
    }


def verify_log_boundary_barrier(field: CurvatureField, k: int, fsup: float,
                                usup: float, t: float, d0: float,
                                n_depth: int = 64) -> tuple:
    """Size the amplitude of v = -M log(1 + t d) and certify it nodewise.

    S_j(D^2 v) = (M t / (1 + t d))^j sigma_j(kappa_i/(1 - kappa_i d),
    t/(1 + t d)), so the barrier is admissible exactly when the augmented
    sigma values are positive; their sampled minimum beta, derated by the
    safety factor 0.5, sizes M so that S_k(D^2 v) >= fsup throughout the
    collar while M log(1 + t d0) >= usup matches the interior bound.
    Returns (M, report); raises SearchError when the collar data cannot
    support a positive beta, and DomainError when log(1 + t d0) rounds to
    0 or M, a factor amp^j or an S_j overflows, where no finite amplitude
    certifies anything.
    """
    check_int("order k", k, 1, field.ambient_dim, "N")
    check_real("fsup", fsup, 0, math.inf, "[)")
    check_real("usup", usup, 0, math.inf, "[)")
    check_real("rate t", t, 0, math.inf, "()")
    depths = _collar_depths(field, d0, n_depth)
    # sigma_j minimized over samples at every (j, depth), shape (k, D)
    sig = _collar_sigma_min(field, depths, t, k, damped=True)
    beta = float(np.min(sig))
    if not beta > 0:
        raise SearchError(
            "log barrier infeasible: augmented sigma_j not positive on the collar",
            trace={"beta": beta, "t": t, "d0": d0},
        )
    beta_eff = 0.5 * beta
    log_d0 = math.log1p(t * d0)
    if log_d0 == 0.0:
        raise DomainError(f"log(1 + t d0) underflows to 0 at t = {t!r}, d0 = {d0!r}")
    m_pde = ((1.0 + t * d0) / t) * (fsup / beta_eff) ** (1.0 / k) if fsup > 0 else 0.0
    m_bc = usup / log_d0 if usup > 0 else 0.0
    M = max(m_pde, m_bc, 1.0 if fsup == 0 and usup == 0 else 0.0)
    # usup / log_d0 is rounded, and the product can land an ulp below usup
    while M * log_d0 < usup:
        M = math.nextafter(M, math.inf)
    if not math.isfinite(M):
        raise DomainError(f"barrier amplitude overflows at t = {t!r}, d0 = {d0!r}")

    with float_range(f"barrier factor amp^j or S_j overflows at t = {t!r}, d0 = {d0!r}"):
        # a numpy M t raises on overflow, where a Python float turns inf
        amp = np.float64(M) * t / (1.0 + t * depths)
        sj = (amp[:, None] ** np.arange(1, k + 1)).T * sig
    min_sj = float(np.min(sj))
    worst_margin = float(np.min(sj[-1] - fsup))
    report = {
        "kind": "log-barrier",
        "k": k,
        "fsup": float(fsup),
        "usup": float(usup),
        "t": float(t),
        "d0": float(d0),
        "samples": field.n_samples,
        "depth_nodes": int(n_depth),
        "beta": float(beta),
        "beta_eff": float(beta_eff),
        "M": float(M),
        "min_sj": float(min_sj),
        "worst_margin": float(worst_margin),
        "boundary_match": bool(M * log_d0 >= usup),
        "admissible": bool(min_sj > 0),
        "passed": bool(min_sj > 0 and worst_margin >= 0 and M * log_d0 >= usup),
    }
    return M, report


def sphere_field(R: float, N: int, n_samples: int = 32) -> CurvatureField:
    """Sphere of radius R: every principal curvature equals 1/R.

    The points are seeded normal draws projected onto the sphere; only
    |p| = R is read from them.
    """
    check_real("sphere radius R", R, 0, math.inf, "()")
    check_int("dimension N", N, 2)
    check_int("n_samples", n_samples, 1)
    raw = np.random.default_rng(20240901).standard_normal((n_samples, N))
    pts = R * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    kap = np.full((n_samples, N - 1), 1.0 / R)
    return CurvatureField(points=pts, kappas=kap)


def _level_set_curvatures(points: np.ndarray, semi_axes: np.ndarray) -> np.ndarray:
    """Inner-normal principal curvatures of an ellipsoid at surface points.

    The shape operator of the level set F = sum (x_i/a_i)^2 - 1 is
    P (D^2 F) P / |grad F| with P = I - n n^t the tangent projection, and
    D^2 F is the constant diagonal 2/a_i^2.  Its eigenvalues are the N-1
    curvatures and a zero for the normal, the smallest because every
    curvature of an ellipsoid is positive.  One row per point, ascending.
    """
    hess = 2.0 / semi_axes**2
    grad = points * hess
    gnorm = np.linalg.norm(grad, axis=1)
    n_hat = grad / gnorm[:, None]
    proj = np.eye(points.shape[1]) - n_hat[:, :, None] * n_hat[:, None, :]
    shape_op = (proj * hess) @ proj / gnorm[:, None, None]
    return np.linalg.eigvalsh(shape_op)[:, 1:]


def ellipsoid_field(semi_axes, n_samples: int = 32) -> CurvatureField:
    """Ellipsoid sum (x_i/a_i)^2 = 1 in dimension 2 or 3, exact curvatures."""
    axes = np.asarray(semi_axes, dtype=float).ravel()
    if axes.size not in (2, 3) or np.any(axes <= 0):
        raise DomainError("semi-axes must be 2 or 3 positive lengths")
    check_int("n_samples", n_samples, 1)
    if axes.size == 2:
        tt = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
        pts = np.column_stack([axes[0] * np.cos(tt), axes[1] * np.sin(tt)])
    else:
        n_u = max(2, int(math.sqrt(n_samples)))
        n_v = max(2, (n_samples + n_u - 1) // n_u)
        uu = np.linspace(0.0, math.pi, n_u + 2)[1:-1]
        vv = np.linspace(0.0, 2.0 * math.pi, n_v, endpoint=False)
        # u outer, v inner
        u, v = (g.ravel()[:n_samples] for g in np.meshgrid(uu, vv, indexing="ij"))
        pts = np.column_stack([axes[0] * np.sin(u) * np.cos(v),
                               axes[1] * np.sin(u) * np.sin(v),
                               axes[2] * np.cos(u)])
    return CurvatureField(points=pts, kappas=_level_set_curvatures(pts, axes))


def load_field_json(path) -> CurvatureField:
    """Read a field file: a JSON list of {"point": [..], "kappa": [..]}."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    # ValueError covers JSONDecodeError and UnicodeDecodeError
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read field file {path}: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise DomainError(f"field file {path} must hold a non-empty JSON list")
    try:
        pts = np.array([row["point"] for row in payload], dtype=float)
        kap = np.array([row["kappa"] for row in payload], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed field file {path}: {exc}") from exc
    return CurvatureField(points=pts, kappas=kap)


def save_field_json(path, field: CurvatureField) -> None:
    rows = [
        {"point": p.tolist(), "kappa": kap.tolist()}
        for p, kap in zip(field.points, field.kappas)
    ]
    with open(path, "w") as fh:
        json.dump(rows, fh)
        fh.write("\n")
