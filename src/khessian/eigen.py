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
and blows up above it.  Two witnesses on the power iteration's last v
certify both sides just outside the bracket: a supersolution c v that
bounds every iterate below it, and a growth ratio q > 1 above it.
Rayleigh, residual and minimum-principle diagnostics close the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import _slack
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
    1e-10 times its upper end.  Rounding floors that width at about
    2 k (2 size + 16) eps lambda_1 on a grid of size nodes, so a width
    below it raises DomainError, and fine grids need a larger
    bisect_tol (see estimate_lambda1).  An iterate_fixed_lambda run that
    reaches n_max undecided ends n-max; estimate_lambda1 reads no n_max.
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
    (fixed-point), and profile is the last iterate."""

    converged: bool
    reason: str
    n_iter: int
    sup_trace: list
    profile: RadialProfile
    lam: float


def default_sup_cap(N: int, k: int, R: float) -> float:
    """1e6 times the sup norm of the source-one solution a(R^2 - r^2)/2."""
    a = (1.0 / math.comb(N, k)) ** (1.0 / k)
    return 1e6 * 0.5 * a * float(R) ** 2


# A run settles once no node moves by more than this times R^2: iterates
# scale as R^2, so the test, and with it every step count, is the same on
# every ball.
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


def _iterate(lam: float, solver: _FirstIntegral, n_max: int) -> IterationResult:
    """The monotone scheme at lam on the solver's grid, one solve a step.

    Each step solves in place on buffers allocated once and swapped.  It
    carries rest = -h >= 0, so the source is 1 + lam rest_prev^k.  One
    difference d = rest - rest_prev = h_prev - h gives both checks: a
    negative entry is an iterate that rose, which raises
    InconsistencyError with lam, the step n and the sup trace, and the
    maximum is the fixed-point step.  rest never increases along r, so the
    sup norm is rest[0], and as the sup trace ends in rest_prev[0], node 0
    checks that the sup norms never fall.  solver is a trapezoid
    _FirstIntegral; the grid r, N and k are its own.  The run ends at
    fixed-point (the step is at most _FIXED_POINT_TOL R^2), sup-cap or
    n-max, and h'' is recovered once, for the returned profile.
    """
    r, N, k = solver.r, solver.N, solver.k
    R = float(r[-1])
    tol = _FIXED_POINT_TOL * R**2
    sup_cap = default_sup_cap(N, k, R)
    sup_trace: list = []
    rest_prev = np.zeros(r.size)
    f_nodes, hp, rest, d = (np.empty(r.size) for _ in range(4))
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
        reason = ("fixed-point" if d.max() <= tol
                  else "sup-cap" if sup_trace[-1] > sup_cap else None)
        if reason is not None or n == n_max:
            break
        rest_prev, rest = rest, rest_prev
    profile = RadialProfile(N=N, k=k, r=r, h=-rest, hp=hp,
                            hpp=solver.hpp(hp, f_nodes), k_convex=True)
    return IterationResult(reason == "fixed-point", reason or "n-max", n, sup_trace,
                           profile, lam)


@dataclass
class SpectralEstimate:
    """Principal eigenvalue estimate on the ball of radius R.

    [lambda_lo, lambda_hi] is the discrete enclosure: it encloses the
    lambda_1 of the trapezoid scheme on the grid, which sits O(h^2) above
    the PDE's lambda_1, so the PDE value can lie outside it.  lambda_best
    is its midpoint.  bounds holds the lower bound and the quartic's upper
    bound on the PDE's lambda_1, the upper one not certified for N >= 3
    (see upper_bound).  diagnostics records the two witnesses of the
    dichotomy as probes (lam, reason and c of the supersolution below
    the bracket, lam, reason and q of the growth above it), the
    power-iteration solve count and the final bracket width; all are
    deterministic, so two identical runs give byte-identical JSON, and
    timings never go here.
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
# A bracket width below _FLOOR rounding lambda_lo can never be reached
# (see estimate_lambda1); 1.9 rather than 2 leaves room for the rounding
# of the bracket ends themselves.
_FLOOR = 1.9


def estimate_lambda1(R: float, N: int, k: int,
                     cfg: IterationConfig = IterationConfig(),
                     solver_cfg: SolverConfig = SolverConfig()) -> SpectralEstimate:
    """Enclose the discrete principal eigenvalue, then cross-check it.

    Starting from v = R^2 - r^2, each trapezoid solve a = -T(v^k) gives
    the Collatz-Wielandt bracket [min, max] of (v/a)^k over the interior
    nodes, and v <- a / max a.  The loop stops once the bracket, widened
    by a floating-point rounding allowance, is no wider than
    cfg.bisect_tol (default 1e-10 lambda_hi).  The allowance rho =
    k (2 size + 16) eps grows with the grid, and the widened bracket is
    never narrower than rho (max + min) >= 2 rho lambda_lo.  The
    Collatz-Wielandt lower quotient never falls along the iteration, nor
    does the default width ever grow, so once the requested width is
    below 1.9 rho lambda_lo no later step can close the bracket: the run
    raises DomainError at once, where it would otherwise fail after 200
    solves, and no run that closes is refused.  With the default width
    that happens from about 33k nodes at k = 6 and 131k at k = 2; such
    grids need a larger bisect_tol.  The bracket encloses the
    lambda_1 of the discretized problem, not the PDE's: at 512 intervals
    the PDE value lies about 2e-6 to 5e-6 (relative) below it.
    lambda_best is its midpoint and the eigenfunction is the last solve
    normalized to minimum value -1.  Two witnesses built from the last v
    then certify the paper's dichotomy at lambda_lo (1 - delta) and
    lambda_hi (1 + delta), delta = 64 k rho, in three solves (see
    _witnesses): the scheme from u_0 = 0 stays under a supersolution
    c v below the bracket and grows at least like q^m above it.  A
    witness that fails raises InconsistencyError with both witnesses in
    its trace.  When 2k > N, holder is the exact
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
        if tol < _FLOOR * rounding * lo:
            raise DomainError(
                f"bracket width {tol:.3e} is below the rounding floor "
                f"{_FLOOR * rounding * lo:.3e} of a grid of {solver_cfg.grid_size} "
                "intervals: raise bisect_tol or coarsen the grid"
            )
        # rest never increases along r, so a[0] is max(a)
        np.divide(a, a[0], out=v)
    else:
        raise InconsistencyError(
            f"power-iteration bracket still wider than {tol:.3e} after "
            f"{_POWER_MAX_SOLVES} solves",
            trace={"widths": widths},
        )
    lam_best = 0.5 * (lo + hi)

    # q - 1 is about delta / k = 64 rho, clear of the growth test's rho
    delta = 64 * k * rounding
    probes, failed = _witnesses(solver, v, lo * (1.0 - delta), hi * (1.0 + delta), delta)
    if failed:
        raise InconsistencyError(
            f"the {' and '.join(failed)} witness of the dichotomy fails at the "
            "power-iteration bracket",
            trace={"lambda_lo": lo, "lambda_hi": hi, "probes": probes, "failed": failed},
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


def _witnesses(solver: _FirstIntegral, v: np.ndarray, lam_below: float,
               lam_above: float, delta: float) -> tuple:
    """The two witnesses of the dichotomy, in three solves, from v > 0.

    A is _scheme_source then solver.solve_into, the step's own map, so the
    scheme from u_0 = 0 is u_n = A(1 + lam u_(n-1)^k).  A is exactly
    order-preserving in floating point (see _FirstIntegral), and to within
    the factor 1 + rho of _rounding homogeneous, A(t f) = t^(1/k) A(f), as
    the moment is linear in f, and subadditive, A(f + g) <= A(f) + A(g), as
    x^(1/k) is.  Ratios to v run over the interior nodes.
    - below: c is the least power of two above 4 k max(A(1)/v) / delta,
      so w = c v is exact; the witness holds when A(1 + lam_below w^k)
      <= w at every node, and then by induction every u_n <= w exactly.
      At lam_below = lambda_lo (1 - delta), lambda_lo <= min (v/A(v^k))^k
      gives A(1 + lam_below w^k) <= A(1) + c (1 - delta)^(1/k) v
      <= c (1 - 3 delta / (4k)) v, a margin of 48 rho over the rounding.
    - above: the witness holds when eps = min A(1)/v > 0 and
      q = min A(lam_above v^k)/v > 1 + rho.  Then u_1 >= eps v, and
      u_n >= t v gives u_(n+1) >= A(lam_above t^k v^k) >= t q v / (1 + rho),
      so the iterates blow up at least like (q / (1 + rho))^n.  At
      lam_above = lambda_hi (1 + delta), q is about (1 + delta)^(1/k).
    Returns the probes [{lam, reason "supersolution", c},
    {lam, reason "growth", q}] and the reasons of the witnesses that fail.
    """
    k = solver.k
    one, source, hp, rest = (np.empty(v.size) for _ in range(4))
    source.fill(1.0)
    solver.solve_into(source, hp, one)
    spread = one[:-1] / v[:-1]
    # numpy's frexp and ldexp, so a c past the float range is a DomainError
    c = float(np.ldexp(1.0, np.frexp(4 * k * spread.max() / delta)[1]))
    w = c * v
    _scheme_source(w, lam_below, k, source)
    solver.solve_into(source, hp, rest)
    below = bool(np.all(rest <= w))
    _scheme_source(v, lam_above, k, source, 0.0)
    solver.solve_into(source, hp, rest)
    q = float(np.min(rest[:-1] / v[:-1]))
    above = spread.min() > 0 and q > 1.0 + _rounding(k, v.size)
    probes = [{"lam": lam_below, "reason": "supersolution", "c": c},
              {"lam": lam_above, "reason": "growth", "q": q}]
    return probes, [p["reason"] for p, ok in zip(probes, (below, above)) if not ok]


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
    of cones.membership_slack, 1e-10 (1 + |spectrum|_2)^k with |spectrum|_2
    the Frobenius norm of that Hessian.  Leaving the float range raises
    DomainError.
    """
    check_real("lam", lam, 0, math.inf, "[)")
    N, k = profile.N, profile.k
    r, h, hpp = profile.r, profile.h, profile.hpp
    with float_range(f"the profile or lam = {lam!r} is out of range for N = {N}, k = {k}"):
        tangential = np.divide(profile.hp, r, out=hpp.copy(), where=r > 0)
        spectra = np.column_stack([hpp] + [tangential] * (N - 1))
        slack = _slack(np.linalg.norm(spectra, axis=1), k)
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
