"""Principal eigenvalue of the k-Hessian on balls.

On v = -h >= 0 the map A(v) = -T(v^k), with T the trapezoid
first-integral solve, is order-preserving and homogeneous of degree 1,
and the discrete lambda_1 equals mu^(-k) for its Perron eigenvalue mu.
For every v > 0 at the interior nodes the Collatz-Wielandt quotients
enclose it, min (v/A(v))^k <= lambda_1 <= max (v/A(v))^k (Lemmens and
Nussbaum, Nonlinear Perron-Frobenius Theory, 2012), and the power
iteration v <- A(v) / max A(v) closes that bracket geometrically.

The paper's own characterisation is kept as an independent, certified
cross-check: the monotone scheme S_k(D^2 u_n) = 1 + lam |u_{n-1}|^k with
zero boundary data, started from u_0 = 0, stays bounded below lambda_1
and blows up above it.  A probe just below the bracket ends once an
iterate yields a positive supersolution that bounds every later iterate,
and a probe just above it once an iterate is a Collatz-Wielandt growth
witness.  Rayleigh, residual and minimum-principle diagnostics close the
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dirichlet import (SolverConfig, _FirstIntegral, _weighted_moment_cumulative,
                        holder_seminorm, make_grid)
from .errors import DomainError, InconsistencyError, check_int, check_real, float_range
from .radial import RadialProfile, _check_ball, s_k_on_profile
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
    _check_ball(R, N, k)
    return math.comb(N, k) * R ** (-2.0 * k)


def upper_bound(N: int, k: int, R: float) -> float:
    """Upper bound 4^k C(N,k) R^{-2k} from the quartic test function; not
    certified for N >= 3, where the quartic's sharp constant is larger."""
    _check_ball(R, N, k)
    return 4**k * math.comb(N, k) * R ** (-2.0 * k)


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for the eigenvalue bracket and the fixed-lambda runs.

    bisect_tol caps the width of the returned bracket and defaults to
    1e-10 times its upper end.  A run or probe that reaches n_max
    undecided ends n-max.
    """

    n_max: int = 500
    bisect_tol: Optional[float] = None

    def __post_init__(self):
        check_int("n_max", self.n_max, 10)
        if self.bisect_tol is not None:
            check_real("bisect_tol", self.bisect_tol, 0, math.inf, "(]")


@dataclass
class IterationResult:
    """One fixed-lambda run: converged is true when the iterates settled
    (fixed-point) or are certified bounded (supersolution); certificate
    holds c or q of a certified verdict, else it is empty.  profile is
    the last iterate of iterate_fixed_lambda; a certificate run (a probe
    of estimate_lambda1) returns its verdict only, and its profile is
    None."""

    converged: bool
    reason: str
    n_iter: int
    sup_trace: list
    profile: Optional[RadialProfile]
    lam: float
    certificate: dict = field(default_factory=dict)


def default_sup_cap(N: int, k: int, R: float) -> float:
    """1e6 times the sup norm of the source-one solution a(R^2 - r^2)/2."""
    a = (1.0 / math.comb(N, k)) ** (1.0 / k)
    return 1e6 * 0.5 * a * float(R) ** 2


# A run without a certificate to seek settles once no node moves by more
# than this times R^2: iterates scale as R^2, so the test, and with it
# every step count, is the same on every ball.
_FIXED_POINT_TOL = 1e-8


def iterate_fixed_lambda(lam: float, R: float, N: int, k: int,
                         cfg: IterationConfig = IterationConfig(),
                         solver_cfg: SolverConfig = SolverConfig()) -> IterationResult:
    """Run the monotone scheme at fixed lam until it settles or blows up.

    Inner solves use the exact first integral with trapezoid cumulative
    quadrature: its weights are nonnegative, so a larger source yields a
    pointwise smaller solution exactly in floating point and the iterates
    are genuinely monotone node-wise, not just up to tolerance.  A
    violation is therefore a real fault and raises InconsistencyError.
    The run ends at fixed-point (no node moves by more than 1e-8 R^2),
    sup-cap (the sup norm passes default_sup_cap) or n-max.  A run that
    leaves the float range raises DomainError.
    """
    _check_ball(R, N, k)
    check_real("lam", lam, 0, math.inf, "[)")
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    with float_range(f"radius {R!r} is out of range for N = {N}, k = {k}"):
        return _iterate(lam, _FirstIntegral(r, N, k, "trapezoid"), cfg.n_max)


def _rounding(k: int, size: int) -> float:
    """Relative rounding allowance of a ratio of solves on size nodes.

    Each solve is two recursive sums of positive terms, each accurate to
    size ulps relative, plus a few roundings; a k-th power multiplies by k.
    """
    return k * (2 * size + 16) * float(np.finfo(float).eps)


def _scheme_source(rest: np.ndarray, lam: float, k: int, out: np.ndarray,
                   one=1.0) -> None:
    """out = one + lam rest^k, by the operations of every step's source."""
    if k == 1:
        np.multiply(rest, lam, out=out)
    else:
        np.power(rest, k, out=out)
        out *= lam
    out += one


# The supersolution the probe below lambda_1 seeks is w = 2 rest_n: a
# power of two, so w is exact.
_SUPERSOLUTION_C = 2.0


def _iterate(lam: float, solver: _FirstIntegral, n_max: int,
             seek: Optional[str] = None) -> IterationResult:
    """The monotone scheme at lam on the solver's grid, one solve a step.

    Each step solves in place on buffers allocated once and swapped.  It
    carries rest = -h >= 0, so the source is 1 + lam rest_prev^k.  One
    difference d = rest - rest_prev = h_prev - h gives both checks: a
    negative entry is an iterate that rose, which raises
    InconsistencyError with lam, the step n and the sup trace, and the
    maximum is the fixed-point step.  rest never increases along r, so the
    sup norm is rest[0], and as the sup trace ends in rest_prev[0], node 0
    checks that the sup norms never fall.  solver is a trapezoid
    _FirstIntegral; the grid r, N and k are its own.

    Without seek the run ends at fixed-point (the step is at most
    _FIXED_POINT_TOL R^2), sup-cap or n-max.  With seek it ends once it
    holds that certificate, or at n-max; each step then adds one
    certificate solve.  Write A for the solve, so rest_n = A(1 + lam
    rest_(n-1)^k): A is exactly order-preserving in floating point, and
    homogeneous of degree 1/k up to rounding.
    - supersolution: w = 2 rest_n has A(1 + lam w^k) <= w at every node.
      That source is built by the step's own operations, so by induction
      on the floating-point map every later iterate stays <= w.
    - growth: q = min over the interior nodes of A(lam rest_n^k) / rest_n
      exceeds 1 + the power iteration's rounding allowance, so the
      iterates grow at least like q^m.
    The certificate records c = 2 or q.  A run with seek returns only its
    verdict, profile None; without seek h'' is recovered once, for the
    returned profile.
    """
    r, N, k = solver.r, solver.N, solver.k
    R = float(r[-1])
    tol = _FIXED_POINT_TOL * R**2
    sup_cap = default_sup_cap(N, k, R)
    q_min = 1.0 + _rounding(k, r.size)
    sup_trace: list = []
    rest_prev = np.zeros(r.size)
    f_nodes, hp, rest, d, w, cert_f, cert_hp, cert_a = (np.empty(r.size) for _ in range(8))
    for n in range(1, n_max + 1):
        _scheme_source(rest_prev, lam, k, f_nodes)
        solver.solve_into(f_nodes, hp, rest)
        np.subtract(rest, rest_prev, out=d)
        # fmin skips NaN, as the comparison h > h_prev does
        if np.fmin.reduce(d) < 0:
            raise InconsistencyError(
                "iterate increased somewhere despite a larger source",
                trace={"lam": lam, "n": n, "sup_trace": sup_trace},
            )
        sup_trace.append(float(rest[0]))
        reason, certificate = None, {}
        if seek is None:
            if d.max() <= tol:
                reason = "fixed-point"
            elif sup_trace[-1] > sup_cap:
                reason = "sup-cap"
        elif seek == "supersolution":
            np.multiply(rest, _SUPERSOLUTION_C, out=w)
            _scheme_source(w, lam, k, cert_f)
            solver.solve_into(cert_f, cert_hp, cert_a)
            if np.all(cert_a <= w):
                reason, certificate = seek, {"c": _SUPERSOLUTION_C}
        else:
            _scheme_source(rest, lam, k, cert_f, 0.0)
            solver.solve_into(cert_f, cert_hp, cert_a)
            q = float(np.min(cert_a[:-1] / rest[:-1]))
            if q > q_min:
                reason, certificate = seek, {"q": q}
        if reason is not None or n == n_max:
            break
        rest_prev, rest = rest, rest_prev
    profile = None
    if seek is None:
        profile = RadialProfile(N=N, k=k, r=r, h=-rest, hp=hp,
                                hpp=solver.hpp(hp, f_nodes), k_convex=True)
    return IterationResult(reason in ("fixed-point", "supersolution"), reason or "n-max",
                           n, sup_trace, profile, lam, certificate)


@dataclass
class SpectralEstimate:
    """Principal eigenvalue estimate on the ball of radius R.

    [lambda_lo, lambda_hi] is the discrete enclosure: it encloses the
    lambda_1 of the trapezoid scheme on the grid, which sits O(h^2) above
    the PDE's lambda_1, so the PDE value can lie outside it.  lambda_best
    is its midpoint.  bounds holds the lower bound and the quartic's upper
    bound on the PDE's lambda_1, the upper one not certified for N >= 3
    (see upper_bound).  diagnostics records the two cross-check probes
    (lam, reason, n_iter, and c below or q above lambda_1), the
    power-iteration solve count and the final bracket width; all are
    deterministic, so two identical runs give
    byte-identical JSON, and timings never go here.
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
        out["diagnostics"] = dict(self.diagnostics)
        return out


# Power-iteration solves allowed before an unclosed bracket is an error;
# the bracket contracts by the spectral gap each step and closes in tens.
_POWER_MAX_SOLVES = 200
# Cross-check probes sit at lambda_lo (1 - eps) and lambda_hi (1 + eps)^k,
# on either side of the certified bracket however wide it is: the blow-up
# rate per iteration is about (lam / lambda_1)^(1/k), so the k-th power
# keeps the divergent probe's length independent of k.
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
    normalized to minimum value -1.  Two fixed-lambda probes then certify
    the paper's dichotomy around the bracket: the scheme at
    lambda_lo (1 - 0.1) ends on a supersolution 2 rest_n that bounds
    every later iterate, and at lambda_hi (1 + 0.1)^k on a growth
    witness whose ratio q > 1 makes the iterates grow at least like q^m.
    Each probe is one run of the scheme, a step and a certificate solve
    per step.  Any verdict pair other than
    (supersolution, growth) within n_max raises InconsistencyError with
    the probe log.  When 2k > N, holder is the exact
    (2 - N/k)-Holder seminorm of the eigenfunction on the grid nodes.
    A run in which r^(N-1), r^((k-N)/k) or lambda_1 leaves the float
    range raises DomainError.
    """
    _check_ball(R, N, k)
    with float_range(f"radius {R!r} is out of range for N = {N}, k = {k}"):
        return _estimate(R, N, k, cfg, solver_cfg)


def _estimate(R: float, N: int, k: int, cfg: IterationConfig,
              solver_cfg: SolverConfig) -> SpectralEstimate:
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    rounding = _rounding(k, r.size)
    solver = _FirstIntegral(r, N, k, "trapezoid")
    # R**2 of a numpy integer would wrap
    v = float(R) ** 2 - r**2
    f_nodes, hp, a = (np.empty(r.size) for _ in range(3))
    ratio = np.empty(r.size - 1)
    widths = []
    for n_solves in range(1, _POWER_MAX_SOLVES + 1):
        source = v if k == 1 else np.power(v, k, out=f_nodes)
        # a = -h, the solve's rest
        solver.solve_into(source, hp, a)
        np.divide(v[:-1], a[:-1], out=ratio)
        ratio **= k
        lo = float(np.min(ratio)) * (1.0 - rounding)
        hi = float(np.max(ratio)) * (1.0 + rounding)
        widths.append(hi - lo)
        tol = cfg.bisect_tol if cfg.bisect_tol is not None else 1e-10 * hi
        if hi - lo <= tol:
            break
        # rest never increases along r, so a[0] is max(a)
        np.divide(a, a[0], out=v)
    else:
        raise InconsistencyError(
            f"power-iteration bracket still wider than {tol:.3e} after "
            f"{_POWER_MAX_SOLVES} solves",
            trace={"widths": widths},
        )
    lam_best = 0.5 * (lo + hi)

    probes = []
    for lam, seek in ((lo * (1.0 - _PROBE_EPS), "supersolution"),
                      (hi * (1.0 + _PROBE_EPS) ** k, "growth")):
        res = _iterate(lam, solver, cfg.n_max, seek)
        probes.append({"lam": lam, "reason": res.reason, "n_iter": res.n_iter,
                       **res.certificate})
    if [p["reason"] for p in probes] != ["supersolution", "growth"]:
        raise InconsistencyError(
            "fixed-lambda iteration disagrees with the power-iteration bracket",
            trace={"lambda_lo": lo, "lambda_hi": hi, "probes": probes},
        )

    hpp = solver.hpp(hp, source)
    s = float(a[0])
    w = RadialProfile(N=N, k=k, r=r, h=-a / s, hp=hp / s, hpp=hpp / s, k_convex=True)

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
        },
    )


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def rayleigh_quotient(profile: RadialProfile) -> float:
    """[-int u S_k(D^2 u) dx] / ||u||_{k+1}^{k+1} on radial data.

    Both integrals reduce to weighted radial quadratures against
    r^{N-1} dr times the unit-sphere area; the quotient is invariant under
    scaling u -> c u, which the eigen tests exercise.
    """
    k = profile.k
    if not np.any(profile.h):
        raise DomainError("Rayleigh quotient of the zero profile is undefined")
    omega = sphere_area(profile.N)
    weight = profile.r ** (profile.N - 1)
    sk = s_k_on_profile(profile)
    num = -omega * _weighted_moment_cumulative(profile.h * sk * weight, profile.r, 1)[-1]
    den = omega * _weighted_moment_cumulative(np.abs(profile.h) ** (k + 1) * weight,
                                              profile.r, 1)[-1]
    return float(num / den)


def minimum_principle_probe(profile: RadialProfile, lam: float) -> dict:
    """Nodewise supersolution certificate plus interior-minimum report.

    A certified supersolution with zero boundary data and a negative
    interior minimum witnesses a minimum-principle failure, which is how
    an upper bound for the principal eigenvalue is demonstrated: below
    the eigenvalue such a function could not exist.

    A node passes when S_k(D^2 u) + lam u |u|^(k-1) <= 0 or its Hessian
    leaves the closed cone Sigma_k (a non-admissible Hessian is never
    touched from below by an admissible test function).  The radial
    Hessian is diagonal with spectrum h'' and h'/r repeated N-1 times,
    h'' repeated N times at the origin, so one batched sigma_all over the
    sorted spectra decides every node.  Cone membership allows the slack
    1e-10 (1 + |spectrum|_2)^k, the Frobenius norm of that Hessian, as in
    cones.membership_slack.  Leaving the float range raises DomainError.
    """
    check_real("lam", lam, 0, math.inf, "[)")
    N, k = profile.N, profile.k
    r, h, hpp = profile.r, profile.h, profile.hpp
    with float_range(f"the profile or lam = {lam!r} is out of range for N = {N}, k = {k}"):
        tangential = np.divide(profile.hp, r, out=hpp.copy(), where=r > 0)
        spectra = np.column_stack([hpp] + [tangential] * (N - 1))
        slack = 1e-10 * (1.0 + np.linalg.norm(spectra, axis=1)) ** k
        sig = sigma_all(np.sort(spectra, axis=1))
        admissible = np.all(sig[:, 1 : k + 1] >= -slack[:, None], axis=1)
        ok = (sig[:, k] + lam * h * np.abs(h) ** (k - 1) <= 0.0) | ~admissible
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
    # min and max of a NaN and a number return the number, so check first
    _check_ball(R1, N, k)
    _check_ball(R2, N, k)
    if R1 == R2:
        raise DomainError("need two distinct radii")
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
