"""Independent reference computations shared by several test files.

Not collected by pytest (no test_ prefix).  Each function is a slow or
literal route to a quantity the library computes another way, kept only
so that the tests can compare the two.
"""

import csv
import json
import math
from itertools import combinations

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, simpson

from khessian.cones import eigenvalues
from khessian.dirichlet import first_integral_solve, make_grid
from khessian.eigen import IterationResult, default_sup_cap, sphere_area
from khessian.errors import InconsistencyError
from khessian.radial import RadialProfile, s_k_on_profile
from khessian.symfun import sigma_all


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
    if sigma_all(lam)[k] <= 0.0:
        return False
    for m in range(1, k):
        for subset in combinations(range(n), m):
            if sigma_all(np.delete(lam, subset))[k - m] <= 0.0:
                return False
    return True


def residual_scale(hp, hpp, r, k: int) -> np.ndarray:
    """Local magnitude (1 + |hp/r| + |hpp|)^k used to scale S_k tolerances."""
    r = np.asarray(r, dtype=float)
    q = np.where(r > 0, np.asarray(hp, dtype=float) / np.where(r > 0, r, 1.0), 0.0)
    return (1.0 + np.abs(q) + np.abs(np.asarray(hpp, dtype=float))) ** k


def s_k_op(matrix, k: int) -> float:
    """S_k(A) = sigma_k of the spectrum; S_1 = trace, S_N = det."""
    return float(sigma_all(eigenvalues(matrix))[k])


def holder_dense(r, h, alpha: float) -> float:
    """max |h_i - h_j| / |r_i - r_j|^alpha over every pair of distinct nodes.

    The full n x n pair matrix, taken 256 rows at a time to bound memory.
    """
    def rows_max(i):
        dh = np.abs(h[i:i + 256, None] - h[None, :])
        dr = np.abs(r[i:i + 256, None] - r[None, :])
        mask = dr > 0
        return np.max(dh[mask] / dr[mask] ** alpha)

    return float(max(rows_max(i) for i in range(0, r.size, 256)))


def save_csv_rows(profile: RadialProfile, path) -> None:
    """A profile CSV written row by row through csv.writer, one numpy
    scalar formatted at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "h", "hp", "hpp"])
        for row in zip(profile.r, profile.h, profile.hp, profile.hpp):
            writer.writerow([f"{x:.17g}" for x in row])


def save_json_dump(profile: RadialProfile, path) -> None:
    """A profile JSON written by json.dump, the pure-Python encoder."""
    with open(path, "w") as fh:
        json.dump(profile.to_json_dict(), fh)
        fh.write("\n")


def write_json_dump(path, payload: dict, default) -> None:
    """An indented CLI output JSON written by json.dump."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def iterate_fixed_lambda_full_solves(lam, R, N, k, cfg, solver_cfg) -> IterationResult:
    """The paper's monotone scheme at one lam, one full first_integral_solve
    (h, h', h'') per step, with the same stopping rules and fault checks:
    a fixed point once no node moves by more than 1e-8 R^2 (iterates scale
    as R^2), the sup-cap once the sup norm passes default_sup_cap."""
    sup_cap = default_sup_cap(N, k, R)
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    tol = 1e-8 * float(r[-1]) ** 2
    h_prev = np.zeros_like(r)
    sup_trace = []
    for n in range(1, cfg.n_max + 1):
        f_nodes = 1.0 + lam * np.abs(h_prev) ** k
        h, hp, hpp = first_integral_solve(f_nodes, r, N, k, scheme="trapezoid")
        if np.any(h > h_prev):
            raise InconsistencyError("iterate increased",
                                     trace={"lam": lam, "n": n, "sup_trace": sup_trace})
        sup = float(np.max(np.abs(h)))
        diff = float(np.max(h_prev - h))
        sup_trace.append(sup)
        h_prev = h
        profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
        if diff <= tol:
            return IterationResult(True, "fixed-point", n, sup_trace, profile, lam)
        if sup > sup_cap:
            if np.any(np.diff(np.asarray(sup_trace[-10:])) < 0):
                raise InconsistencyError("sup norms not monotone",
                                         trace={"lam": lam, "n": n, "sup_trace": sup_trace})
            return IterationResult(False, "sup-cap", n, sup_trace, profile, lam)
    return IterationResult(False, "n-max", cfg.n_max, sup_trace, profile, lam)


def certificate_probe_full_solves(lam, R, N, k, cfg, solver_cfg, seek) -> IterationResult:
    """The paper's monotone scheme at one lam, one full first_integral_solve
    (h, h', h'') per step, ending once the iterate rest_n = -h_n holds the
    certificate seek, each checked by one more full solve:
    - supersolution: w = 2 rest_n gives -h(1 + lam w^k) <= w at every node;
    - growth: q = min over the interior nodes of -h(lam rest_n^k) / rest_n
      exceeds 1 + k (2 nodes + 16) eps.
    A run that holds neither by n_max ends n-max."""
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    q_min = 1.0 + k * (2 * r.size + 16) * float(np.finfo(float).eps)
    h_prev = np.zeros_like(r)
    sup_trace = []
    for n in range(1, cfg.n_max + 1):
        f_nodes = 1.0 + lam * np.abs(h_prev) ** k
        h, hp, hpp = first_integral_solve(f_nodes, r, N, k, scheme="trapezoid")
        if np.any(h > h_prev):
            raise InconsistencyError("iterate increased",
                                     trace={"lam": lam, "n": n, "sup_trace": sup_trace})
        sup_trace.append(float(np.max(np.abs(h))))
        h_prev = h
        profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
        rest = -h
        if seek == "supersolution":
            w = 2.0 * rest
            bound = -first_integral_solve(1.0 + lam * w**k, r, N, k, scheme="trapezoid")[0]
            if np.all(bound <= w):
                return IterationResult(True, seek, n, sup_trace, profile, lam, {"c": 2.0})
        else:
            grown = -first_integral_solve(lam * rest**k, r, N, k, scheme="trapezoid")[0]
            q = float(np.min(grown[:-1] / rest[:-1]))
            if q > q_min:
                return IterationResult(False, seek, n, sup_trace, profile, lam, {"q": q})
    return IterationResult(False, "n-max", cfg.n_max, sup_trace, profile, lam)


def trapezoid_solve_scipy(f_nodes, r, N: int, k: int) -> tuple:
    """(h, h') of the first-integral solve with both cumulative integrals
    by scipy's cumulative_trapezoid: the moment from the origin, then h
    from the outer end, as the same rule run on the reversed grid."""
    moment = cumulative_trapezoid(r ** (N - 1) * f_nodes, r, initial=0.0)
    g = (k / math.comb(N - 1, k - 1)) * np.maximum(moment, 0.0)
    rpow = np.power(r, (k - N) / k, out=np.zeros_like(r), where=r > 0)
    hp = g ** (1.0 / k) * rpow
    rest = cumulative_trapezoid(hp[::-1], -r[::-1], initial=0.0)[::-1]
    return -rest, hp


def simpson_profile_scipy(hp, r) -> np.ndarray:
    """h from h' with h(R) = 0 by scipy's cumulative_simpson."""
    integral = cumulative_simpson(hp, x=r, initial=0.0)
    return integral - integral[-1]


def rayleigh_quotient_scipy(profile: RadialProfile) -> float:
    """The Rayleigh quotient with both radial integrals by scipy's simpson."""
    omega = sphere_area(profile.N)
    weight = profile.r ** (profile.N - 1)
    sk = s_k_on_profile(profile)
    num = -omega * simpson(profile.h * sk * weight, x=profile.r)
    den = omega * simpson(np.abs(profile.h) ** (profile.k + 1) * weight, x=profile.r)
    return float(num / den)


def collar_sigma_cells(field, depths, normal) -> np.ndarray:
    """sigma_0..sigma_N of (kappa_i/(1 - kappa_i d), normal) at every sample x
    depth cell, shape (S, D, N+1): the cells laid out one per row of an
    (S D, N+1) array and passed to one batched sigma_all."""
    kap = field.kappas[:, None, :]
    tangential = kap / (1.0 - kap * depths[:, None])
    normal = np.broadcast_to(np.asarray(normal, dtype=float)[..., None],
                             tangential.shape[:2] + (1,))
    cells = np.concatenate([tangential, normal], axis=-1)
    return sigma_all(cells.reshape(-1, cells.shape[-1])).reshape(cells.shape[:2] + (-1,))


def exp_barrier_cells(field, k: int, lam: float, t: float, d0: float, n_depth: int) -> dict:
    """The exp-barrier report with S_j formed at every cell before any minimum."""
    depths = np.linspace(0.0, d0, n_depth + 1)[1:]
    sig = collar_sigma_cells(field, depths, t)[:, :, 1 : k + 1]
    j = np.arange(1, k + 1)
    sj = t**j * np.exp(-j * t * depths[:, None]) * sig
    phi = np.exp(-t * depths) - 1.0
    min_sj = float(np.min(sj))
    worst_margin = float(np.min(sj[:, :, -1] - lam * np.abs(phi) ** k))
    return {
        "kind": "exp-barrier", "k": k, "lam": float(lam), "t": float(t), "d0": float(d0),
        "samples": field.n_samples, "depth_nodes": int(n_depth),
        "min_sj": min_sj, "worst_margin": worst_margin,
        "admissible": bool(min_sj > 0), "passed": bool(min_sj > 0 and worst_margin > 0),
    }


def log_barrier_cells(field, k: int, fsup: float, usup: float, t: float, d0: float,
                      n_depth: int):
    """(M, report) of the log barrier with S_j formed at every cell before any
    minimum; None where beta is not positive."""
    depths = np.linspace(0.0, d0, n_depth + 1)[1:]
    sig = collar_sigma_cells(field, depths, t / (1.0 + t * depths))[:, :, 1 : k + 1]
    beta = float(np.min(sig))
    if not beta > 0:
        return None
    beta_eff = 0.5 * beta
    log_d0 = math.log1p(t * d0)
    m_pde = ((1.0 + t * d0) / t) * (fsup / beta_eff) ** (1.0 / k) if fsup > 0 else 0.0
    m_bc = usup / log_d0 if usup > 0 else 0.0
    M = max(m_pde, m_bc, 1.0 if fsup == 0 and usup == 0 else 0.0)
    while M * log_d0 < usup:
        M = math.nextafter(M, math.inf)
    amp = M * t / (1.0 + t * depths)
    sj = (amp[:, None] ** np.arange(1, k + 1)) * sig
    min_sj = float(np.min(sj))
    worst_margin = float(np.min(sj[:, :, -1] - fsup))
    return M, {
        "kind": "log-barrier", "k": k, "fsup": float(fsup), "usup": float(usup),
        "t": float(t), "d0": float(d0), "samples": field.n_samples,
        "depth_nodes": int(n_depth), "beta": beta, "beta_eff": beta_eff, "M": float(M),
        "min_sj": min_sj, "worst_margin": worst_margin,
        "boundary_match": bool(M * log_d0 >= usup), "admissible": bool(min_sj > 0),
        "passed": bool(min_sj > 0 and worst_margin >= 0 and M * log_d0 >= usup),
    }


def ellipsoid_curvatures_pointwise(points, semi_axes) -> np.ndarray:
    """Principal curvatures of sum (x_i/a_i)^2 = 1, one point at a time.

    Rows 2..N of the SVD right factor of the unit normal span the tangent
    space T, and the eigenvalues of T^t (D^2 F) T / |grad F| are the
    curvatures, ascending in each row.
    """
    axes = np.asarray(semi_axes, dtype=float)
    hess = np.diag(2.0 / axes**2)
    rows = []
    for point in np.asarray(points, dtype=float):
        grad = 2.0 * point / axes**2
        gnorm = np.linalg.norm(grad)
        tangent = np.linalg.svd((grad / gnorm)[None, :])[2][1:].T
        rows.append(np.sort(np.linalg.eigvalsh(tangent.T @ hess @ tangent / gnorm)))
    return np.array(rows)
