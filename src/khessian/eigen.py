"""Principal eigenvalue of the k-Hessian on balls.

On v = -h >= 0 the map A(v) = -T(v^k), with T the trapezoid
first-integral solve, is order-preserving and homogeneous of degree 1,
and the discrete lambda_1 equals mu^(-k) for its Perron eigenvalue mu.
For every v > 0 at the interior nodes the Collatz-Wielandt quotients
enclose it, min (v/A(v))^k <= lambda_1 <= max (v/A(v))^k (Lemmens and
Nussbaum, Nonlinear Perron-Frobenius Theory, 2012), and the power
iteration v <- A(v) / max A(v) closes that bracket geometrically.

The paper's own characterisation is kept as an independent cross-check:
the monotone scheme S_k(D^2 u_n) = 1 + lam |u_{n-1}|^k with zero
boundary data, started from u_0 = 0, stays bounded below lambda_1 and
blows up above it, so a probe just below the estimate must settle and a
probe just above it must diverge.  Rayleigh, residual and
minimum-principle diagnostics close the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .dirichlet import SolverConfig, first_integral_solve, holder_seminorm, make_grid
from .errors import DomainError, InconsistencyError
from .radial import RadialProfile, s_k_on_profile
from .symfun import sigma_all

__all__ = [
    "IterationConfig",
    "IterationResult",
    "SpectralEstimate",
    "lower_bound",
    "upper_bound",
    "iterate_fixed_lambda",
    "estimate_lambda1",
    "rayleigh_quotient",
    "minimum_principle_probe",
    "domain_monotonicity_check",
]


def lower_bound(N: int, k: int, R: float) -> float:
    """Certified lower bound C(N,k) R^{-2k} for the principal eigenvalue."""
    _check(N, k, R)
    return math.comb(N, k) * R ** (-2 * k)


def upper_bound(N: int, k: int, R: float) -> float:
    """Certified upper bound 4^k C(N,k) R^{-2k} from the quartic test function."""
    _check(N, k, R)
    return 4**k * math.comb(N, k) * R ** (-2 * k)


def _check(N: int, k: int, R: float) -> None:
    if not isinstance(N, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise DomainError("N and k must be integers")
    if k < 1 or k > N:
        raise DomainError("need 1 <= k <= N")
    if not 0 < R < math.inf:
        raise DomainError("radius must be positive and finite")


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for the fixed-point iteration and the eigenvalue bracket.

    sup_cap defaults to 1e6 times the sup norm of the f = 1 solution on
    the same ball; a probe that reaches n_max before settling or passing
    the cap is undecided.  bisect_tol caps the width of the returned
    bracket and defaults to 1e-10 times its upper end.
    """

    sup_cap: Optional[float] = None
    n_max: int = 500
    fixed_point_tol: float = 1e-8
    bisect_tol: Optional[float] = None

    def __post_init__(self):
        if self.sup_cap is not None and self.sup_cap <= 0:
            raise DomainError("sup_cap must be positive")
        if self.n_max < 10:
            raise DomainError("n_max must be at least 10")
        if self.fixed_point_tol <= 0:
            raise DomainError("fixed_point_tol must be positive")
        if self.bisect_tol is not None and self.bisect_tol <= 0:
            raise DomainError("bisect_tol must be positive")


@dataclass
class IterationResult:
    converged: bool
    reason: str
    n_iter: int
    sup_trace: list
    profile: Optional[RadialProfile]
    lam: float


def default_sup_cap(N: int, k: int, R: float) -> float:
    """1e6 times the sup norm of the source-one solution a(R^2 - r^2)/2."""
    a = (1.0 / math.comb(N, k)) ** (1.0 / k)
    return 1e6 * 0.5 * a * R**2


def iterate_fixed_lambda(lam: float, R: float, N: int, k: int,
                         cfg: IterationConfig = IterationConfig(),
                         solver_cfg: SolverConfig = SolverConfig()) -> IterationResult:
    """Run the monotone scheme at fixed lam until it settles or blows up.

    Inner solves use the exact first integral with trapezoid cumulative
    quadrature: its weights are nonnegative, so a larger source yields a
    pointwise smaller solution exactly in floating point and the iterates
    are genuinely monotone node-wise, not just up to tolerance.  A
    violation is therefore a real fault and raises InconsistencyError.
    """
    _check(N, k, R)
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    sup_cap = cfg.sup_cap if cfg.sup_cap is not None else default_sup_cap(N, k, R)
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    h_prev = np.zeros_like(r)
    sup_trace: list = []
    for n in range(1, cfg.n_max + 1):
        f_nodes = 1.0 + lam * np.abs(h_prev) ** k
        h, hp, hpp = first_integral_solve(f_nodes, r, N, k, scheme="trapezoid")
        if np.any(h > h_prev):
            raise InconsistencyError(
                "iterate increased somewhere despite a larger source",
                trace={"lam": lam, "n": n, "sup_trace": sup_trace},
            )
        sup = float(np.max(np.abs(h)))
        diff = float(np.max(h_prev - h))
        sup_trace.append(sup)
        h_prev = h
        if diff <= cfg.fixed_point_tol:
            profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
            return IterationResult(True, "fixed-point", n, sup_trace, profile, lam)
        if sup > sup_cap:
            tail = np.diff(np.asarray(sup_trace[-10:]))
            if np.any(tail < 0):
                raise InconsistencyError(
                    "sup norms not monotone while exceeding the cap",
                    trace={"lam": lam, "n": n, "sup_trace": sup_trace},
                )
            profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
            return IterationResult(False, "sup-cap", n, sup_trace, profile, lam)
    profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
    return IterationResult(False, "n-max", cfg.n_max, sup_trace, profile, lam)


@dataclass
class SpectralEstimate:
    """Principal eigenvalue estimate on the ball of radius R.

    [lambda_lo, lambda_hi] is the discrete enclosure: it encloses the
    lambda_1 of the trapezoid scheme on the grid, which sits O(h^2) above
    the PDE's lambda_1, so the PDE value can lie outside it.  lambda_best
    is its midpoint.  bounds holds the certified lower and upper bounds on
    the PDE's lambda_1.
    """

    N: int
    k: int
    R: float
    lambda_lo: float
    lambda_hi: float
    lambda_best: float
    bounds: dict
    eigenfunction: RadialProfile
    rayleigh: float
    residual_max: float
    holder: Optional[float]
    diagnostics: dict = field(repr=False, default_factory=dict)

    def to_json_dict(self, profile_ref: Optional[str] = None) -> dict:
        out = {
            "N": self.N,
            "k": self.k,
            "R": self.R,
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "lambda_best": self.lambda_best,
            "bounds": dict(self.bounds),
            "rayleigh": self.rayleigh,
            "residual_max": self.residual_max,
            "profile_ref": profile_ref,
        }
        if self.holder is not None:
            out["holder_seminorm"] = self.holder
        return out


# Power-iteration solves allowed before an unclosed bracket is an error;
# the bracket contracts by the spectral gap each step and closes in tens.
_POWER_MAX_SOLVES = 200
# Cross-check probes sit at lam_hat (1 - eps) and lam_hat (1 + eps)^k: the
# blow-up rate per iteration is about (lam / lambda_1)^(1/k), so the k-th
# power keeps the divergent probe's length independent of k.
_PROBE_EPS = 0.1


def estimate_lambda1(R: float, N: int, k: int,
                     cfg: IterationConfig = IterationConfig(),
                     solver_cfg: SolverConfig = SolverConfig()) -> SpectralEstimate:
    """Enclose the discrete principal eigenvalue, then cross-check it.

    Starting from v = R^2 - r^2, each trapezoid solve a = -T(v^k) gives
    the Collatz-Wielandt bracket [min, max] of (v/a)^k over the interior
    nodes, and v <- a / max a.  The loop stops once the bracket, widened
    by a floating-point rounding allowance, is no wider than
    cfg.bisect_tol (default 1e-10 lambda_hi).  The bracket encloses the
    lambda_1 of the discretized problem, not the PDE's: at 512 intervals
    the PDE value lies about 2e-6 to 5e-6 (relative) below it.
    lambda_best is its midpoint and the eigenfunction is the last solve
    normalized to minimum value -1.  Two fixed-lambda probes then confirm the paper's
    dichotomy around lambda_best; any other verdict raises
    InconsistencyError with the probe log.
    """
    _check(N, k, R)
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    # Each solve is two recursive sums of positive terms, each accurate to
    # r.size ulps relative, plus a few roundings; (v/a)^k multiplies by k.
    rounding = k * (2 * r.size + 16) * float(np.finfo(float).eps)
    v = R**2 - r**2
    widths = []
    for n_solves in range(1, _POWER_MAX_SOLVES + 1):
        h, hp, hpp = first_integral_solve(v**k, r, N, k, scheme="trapezoid")
        a = -h
        ratio = (v[:-1] / a[:-1]) ** k
        lo = float(np.min(ratio)) * (1.0 - rounding)
        hi = float(np.max(ratio)) * (1.0 + rounding)
        widths.append(hi - lo)
        tol = cfg.bisect_tol if cfg.bisect_tol is not None else 1e-10 * hi
        if hi - lo <= tol:
            break
        v = a / np.max(a)
    else:
        raise InconsistencyError(
            f"power-iteration bracket still wider than {tol:.3e} after "
            f"{_POWER_MAX_SOLVES} solves",
            trace={"widths": widths},
        )
    lam_best = 0.5 * (lo + hi)

    probes = []
    for lam in (lam_best * (1.0 - _PROBE_EPS), lam_best * (1.0 + _PROBE_EPS) ** k):
        res = iterate_fixed_lambda(lam, R, N, k, cfg, solver_cfg)
        probes.append({"lam": lam, "reason": res.reason, "n_iter": res.n_iter})
    if [p["reason"] for p in probes] != ["fixed-point", "sup-cap"]:
        raise InconsistencyError(
            "fixed-lambda iteration disagrees with the power-iteration bracket",
            trace={"lambda_lo": lo, "lambda_hi": hi, "probes": probes},
        )

    s = float(np.max(a))
    w = RadialProfile(N=N, k=k, r=r, h=h / s, hp=hp / s, hpp=hpp / s, k_convex=True)

    sk = s_k_on_profile(w)
    residual_max = float(np.max(np.abs(sk[:-1] - lam_best * np.abs(w.h[:-1]) ** k)))
    rayleigh = rayleigh_quotient(w)
    holder = None
    if 2 * k > N:
        holder = holder_seminorm(w, 2.0 - N / k)

    return SpectralEstimate(
        N=N,
        k=k,
        R=R,
        lambda_lo=lo,
        lambda_hi=hi,
        lambda_best=lam_best,
        bounds={"lower": lower_bound(N, k, R), "upper": upper_bound(N, k, R)},
        eigenfunction=w,
        rayleigh=rayleigh,
        residual_max=residual_max,
        holder=holder,
        diagnostics={
            "probes": probes,
            "power_solves": n_solves,
            "effective_bisect_tol": hi - lo,
            "normalization": s,
        },
    )


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def rayleigh_quotient(profile: RadialProfile, k: Optional[int] = None) -> float:
    """[-int u S_k(D^2 u) dx] / ||u||_{k+1}^{k+1} on radial data.

    Both integrals reduce to weighted radial quadratures against
    r^{N-1} dr times the unit-sphere area; the quotient is invariant under
    scaling u -> c u, which the eigen tests exercise.
    """
    k = profile.k if k is None else k
    if not np.any(profile.h):
        raise DomainError("Rayleigh quotient of the zero profile is undefined")
    omega = sphere_area(profile.N)
    weight = profile.r ** (profile.N - 1)
    sk = s_k_on_profile(profile, k)
    num = -omega * simpson(profile.h * sk * weight, x=profile.r)
    den = omega * simpson(np.abs(profile.h) ** (k + 1) * weight, x=profile.r)
    return float(num / den)


def minimum_principle_probe(profile: RadialProfile, lam: float,
                            rhs: float = 0.0) -> dict:
    """Nodewise supersolution certificate plus interior-minimum report.

    A certified supersolution with zero boundary data and a negative
    interior minimum witnesses a minimum-principle failure, which is how
    an upper bound for the principal eigenvalue is demonstrated: below
    the eigenvalue such a function could not exist.

    A node passes when S_k(D^2 u) + lam u |u|^(k-1) <= rhs or its Hessian
    leaves the closed cone Sigma_k (a non-admissible Hessian is never
    touched from below by an admissible test function).  The radial
    Hessian is diagonal with spectrum h'' and h'/r repeated N-1 times,
    h'' repeated N times at the origin, so one batched sigma_all over the
    sorted spectra decides every node.  Cone membership allows the slack
    1e-10 (1 + |spectrum|_2)^k, the Frobenius norm of that Hessian, as in
    cones.membership_slack.
    """
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    N, k = profile.N, profile.k
    r, h, hpp = profile.r, profile.h, profile.hpp
    tangential = np.divide(profile.hp, r, out=hpp.copy(), where=r > 0)
    spectra = np.column_stack([hpp] + [tangential] * (N - 1))
    slack = 1e-10 * (1.0 + np.linalg.norm(spectra, axis=1)) ** k
    sig = sigma_all(np.sort(spectra, axis=1))
    admissible = np.all(sig[:, 1 : k + 1] >= -slack[:, None], axis=1)
    ok = (sig[:, k] + lam * h * np.abs(h) ** (k - 1) <= rhs) | ~admissible
    interior = profile.r < profile.R
    interior_min = float(np.min(profile.h[interior]))
    argmin = int(np.argmin(profile.h))
    failed = np.flatnonzero(~ok)
    return {
        "lam": float(lam),
        "supersolution_everywhere": bool(ok.all()),
        "n_failed_nodes": int(failed.size),
        "first_failed_r": float(profile.r[failed[0]]) if failed.size else None,
        "interior_min": interior_min,
        "argmin_r": float(profile.r[argmin]),
        "negative_interior_min": bool(interior_min < 0),
        "violates_minimum_principle": bool(ok.all() and interior_min < 0),
    }


def domain_monotonicity_check(N: int, k: int, R1: float, R2: float,
                              cfg: IterationConfig = IterationConfig(),
                              solver_cfg: SolverConfig = SolverConfig()) -> dict:
    """Estimates on nested balls must order: bigger ball, smaller eigenvalue.

    Runs the two estimates and checks lambda_best(R_big) <=
    lambda_best(R_small) + slack, with slack twice the wider bracket.
    """
    if R1 <= 0 or R2 <= 0 or R1 == R2:
        raise DomainError("need two distinct positive radii")
    r_small, r_big = min(R1, R2), max(R1, R2)
    est_small = estimate_lambda1(r_small, N, k, cfg, solver_cfg)
    est_big = estimate_lambda1(r_big, N, k, cfg, solver_cfg)
    slack = 2.0 * max(est_small.lambda_hi - est_small.lambda_lo,
                      est_big.lambda_hi - est_big.lambda_lo)
    passed = est_big.lambda_best <= est_small.lambda_best + slack
    return {
        "R_small": r_small,
        "R_big": r_big,
        "lambda_small": est_small.lambda_best,
        "lambda_big": est_big.lambda_best,
        "slack": slack,
        "passed": bool(passed),
    }
