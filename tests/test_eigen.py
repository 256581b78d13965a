"""Eigenvalue machinery: brackets, iteration behavior, spectral estimates.

Reference eigenvalues come from independent radial shooting oracles
solved with adaptive ODE integration (see docstrings below); they are
frozen here with their derivations.
"""

import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

import khessian.eigen as eigen
from khessian.cones import as_symmetric, in_sigma_k
from khessian.dirichlet import (SolverConfig, SourceTerm, _FirstIntegral, first_integral_solve,
                                make_grid, solve_radial_dirichlet)
from khessian.eigen import (
    IterationConfig,
    default_sup_cap,
    domain_monotonicity_check,
    estimate_lambda1,
    iterate_fixed_lambda,
    lower_bound,
    minimum_principle_probe,
    rayleigh_quotient,
    sphere_area,
    upper_bound,
)
from khessian.errors import DomainError, InconsistencyError
from khessian.radial import RadialProfile, quartic_test_profile
from reference import (iterate_fixed_lambda_full_solves, rayleigh_quotient_scipy, s_k_op,
                       witnesses_full_solves)

# h'' + h'/r = lambda |h| on (0,1), h'(0) = 0, h(1) = 0: the first
# eigenvalue is the squared Bessel zero j_{0,1}^2, reproduced to 2e-12
# by power-series startup plus solve_ivp shooting with 60 bisections
LAMBDA_21_SHOOTING = 5.783185962946785

# h'' h'/r = lambda h^2 with h(0) = -1, h'(0) = 0, h''(0) = sqrt(lambda),
# shot from eps = 1e-8 at rtol 1e-12, bisected 60 times on h(1) = 0
LAMBDA_22_SHOOTING = 7.490039398687065


@pytest.fixture(scope="module")
def est21():
    return estimate_lambda1(1.0, 2, 1)


@pytest.fixture(scope="module")
def est22():
    return estimate_lambda1(1.0, 2, 2)


def test_bracket_endpoints_frozen():
    assert lower_bound(2, 1, 1.0) == 2.0
    assert upper_bound(2, 1, 1.0) == 8.0
    assert lower_bound(3, 2, 1.0) == 3.0
    assert upper_bound(3, 2, 1.0) == 48.0
    assert lower_bound(2, 2, 2.0) == 1.0 / 16.0
    assert upper_bound(2, 2, 2.0) == 1.0
    with pytest.raises(DomainError):
        lower_bound(2, 1, 0.0)
    with pytest.raises(DomainError):
        upper_bound(2, 3, 1.0)



def test_estimate_values_are_python_floats(est21):
    for value in (est21.lambda_lo, est21.lambda_hi, est21.lambda_best):
        assert type(value) is float

def test_iteration_config_validation():
    with pytest.raises(DomainError):
        IterationConfig(n_max=5)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            IterationConfig(bisect_tol=tol)


def test_default_sup_cap_scaling():
    base = default_sup_cap(2, 1, 1.0)
    assert base > 0
    assert default_sup_cap(2, 1, 2.0) == pytest.approx(4.0 * base)


def test_lambda_zero_fixed_point_in_two_steps():
    res = iterate_fixed_lambda(0.0, 1.0, 2, 1)
    assert res.converged and res.reason == "fixed-point"
    assert res.n_iter == 2
    p = solve_radial_dirichlet(
        SourceTerm.constant(1.0), 1.0, 2, 1, SolverConfig(quadrature="trapezoid")
    )
    np.testing.assert_array_equal(res.profile.h, p.h)


def test_negative_lambda_rejected():
    with pytest.raises(DomainError):
        iterate_fixed_lambda(-0.5, 1.0, 2, 1)


def test_probe_out_of_float_range_is_a_domain_error():
    # R^2 passes the radius check, but r^3 at N = 4 overflows in the first
    # moment; the probe once warned and then refused a malformed profile
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="radius 1e[+]80 is out of range"):
            iterate_fixed_lambda(1.0, 1e80, 4, 1, IterationConfig(n_max=20))
        # lam |h|^k = 1e308 * 2500 overflows: the probe once warned and
        # reported a verdict computed from inf
        with pytest.raises(DomainError, match="lam = 1e[+]308 is out of range"):
            minimum_principle_probe(quartic_test_profile(10.0, 2, 1, 64), 1e308)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_lambda_rejected(lam, monkeypatch):
    # NaN once ran 500 NaN steps before a malformed-profile error
    monkeypatch.setattr(eigen, "make_grid", None)
    with pytest.raises(DomainError, match="lam"):
        iterate_fixed_lambda(lam, 1.0, 2, 1)
    with pytest.raises(DomainError, match="lam"):
        minimum_principle_probe(quartic_test_profile(1.0, 2, 1, 64), lam)


def test_monotone_decreasing_below_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lam = float(rng.uniform(0.0, lower_bound(3, 2, 1.0)))
        res = iterate_fixed_lambda(lam, 1.0, 3, 2)
        assert res.converged
        # sup trace of a decreasing negative sequence is nondecreasing
        sups = np.asarray(res.sup_trace)
        assert np.all(np.diff(sups) >= 0.0)
        assert np.all(res.profile.h <= 0.0)


def test_divergence_above_upper_bound():
    res = iterate_fixed_lambda(1.05 * upper_bound(2, 1, 1.0), 1.0, 2, 1)
    assert not res.converged and res.reason == "sup-cap"
    sups = np.asarray(res.sup_trace)
    assert sups[-1] > default_sup_cap(2, 1, 1.0)
    assert np.all(np.diff(sups) >= 0.0)


def test_principal_eigenvalue_vs_shooting_oracle_21(est21):
    assert abs(est21.lambda_best - LAMBDA_21_SHOOTING) <= 0.01
    assert est21.lambda_lo <= est21.lambda_best <= est21.lambda_hi
    assert est21.bounds == {"lower": 2.0, "upper": 8.0}
    assert 2.0 <= est21.lambda_best <= 8.0


def test_principal_eigenvalue_vs_shooting_oracle_22(est22):
    assert abs(est22.lambda_best - LAMBDA_22_SHOOTING) / LAMBDA_22_SHOOTING <= 0.01


def test_rayleigh_consistency(est21, est22):
    for est in (est21, est22):
        gap = abs(est.rayleigh - est.lambda_best) / est.lambda_best
        assert gap <= 0.01
        assert est.residual_max <= 0.02 * est.lambda_best


def test_rayleigh_quotient_matches_scipy_simpson(est21, est22):
    # even and odd interval counts, uniform and graded
    profiles = [est21.eigenfunction, est22.eigenfunction,
                quartic_test_profile(0.9, 5, 3, 512), quartic_test_profile(0.9, 5, 3, 513)]
    for size, graded in [(513, False), (512, True), (513, True)]:
        cfg = SolverConfig(grid_size=size, graded=graded)
        profiles.append(estimate_lambda1(1.0, 3, 2, solver_cfg=cfg).eigenfunction)
    for p in profiles:
        ref = rayleigh_quotient_scipy(p)
        assert abs(rayleigh_quotient(p) - ref) <= 1e-13 * abs(ref)


def test_rayleigh_scale_invariance(est21):
    p = est21.eigenfunction
    one = rayleigh_quotient(p)
    scaled = type(p)(
        N=p.N, k=p.k, r=p.r, h=3.0 * p.h, hp=3.0 * p.hp, hpp=3.0 * p.hpp
    )
    assert rayleigh_quotient(scaled) == pytest.approx(one, rel=1e-12)
    with pytest.raises(DomainError):
        zero = type(p)(
            N=p.N, k=p.k, r=p.r, h=0.0 * p.h, hp=0.0 * p.hp, hpp=0.0 * p.hpp
        )
        rayleigh_quotient(zero)


def test_eigenfunction_normalization_and_sign(est21):
    h = est21.eigenfunction.h
    assert h.min() == pytest.approx(-1.0, abs=1e-12)
    assert np.all(h <= 0.0) and h[-1] == 0.0


def test_dilation_covariance():
    est_half = estimate_lambda1(2.0, 2, 2)
    est_unit = estimate_lambda1(1.0, 2, 2)
    # probe decisions are identical in scaled variables for a dyadic
    # radius, so the products agree to rounding, well inside the 2%
    # covariance budget
    assert est_half.lambda_best * 2.0**4 == pytest.approx(
        est_unit.lambda_best, rel=1e-12
    )


def test_a_float32_radius_runs_in_float64():
    # a float32 radius once gave a float32 grid, whose solves round at
    # float32 precision under the float64 rounding allowance: the default
    # bracket never closed, and a loose one failed the growth witness
    R = np.float32(0.9)
    assert make_grid(R, 64).dtype == np.float64
    est, ref = estimate_lambda1(R, 2, 1), estimate_lambda1(float(R), 2, 1)
    assert (est.lambda_lo, est.lambda_hi) == (ref.lambda_lo, ref.lambda_hi)


def test_holder_seminorm_emitted_only_when_subcritical(est21, est22):
    assert est21.holder is None  # 2k = N: no positive exponent
    assert est22.holder is not None and est22.holder > 0
    d = est22.to_json_dict("psi.csv")
    assert "holder_seminorm" in d
    d21 = est21.to_json_dict("psi.csv")
    assert "holder_seminorm" not in d21
    assert set(d21) == {
        "N", "k", "R", "lambda_lo", "lambda_hi", "lambda_best",
        "bounds", "rayleigh", "residual_max", "profile_ref", "diagnostics",
    }


def test_minimum_principle_quartic_violations():
    # the quartic with C = 4^k C(N,k) R^{-2k} is admissible and a
    # supersolution everywhere yet dips below zero inside
    for n, k in [(2, 1), (2, 2)]:
        cap = upper_bound(n, k, 1.0)
        prof = quartic_test_profile(1.0, n, k, 512)
        rep = minimum_principle_probe(prof, cap)
        assert rep["supersolution_everywhere"]
        assert rep["negative_interior_min"]
        assert rep["violates_minimum_principle"]
        assert rep["interior_min"] == pytest.approx(float(prof.h.min()))
        # lam = C has to sit above the estimated eigenvalue
        est = estimate_lambda1(1.0, n, k)
        assert cap >= est.lambda_best


def test_minimum_principle_sharp_constant_three_two():
    # for N = 3, k = 2 the quartic needs C slightly above 4^k C(N,k):
    # the interior ratio max is 4^k C(N-1,k-1)/k * (2/k) *
    # ((N+2k)/(2(k+1)))^(k+1) = 32 (7/6)^3 at R = 1
    c_nominal = upper_bound(3, 2, 1.0)
    sharp = 32.0 * (7.0 / 6.0) ** 3
    prof = quartic_test_profile(1.0, 3, 2, 512)
    rep = minimum_principle_probe(prof, c_nominal)
    assert not rep["supersolution_everywhere"]
    assert rep["n_failed_nodes"] > 0
    prof_sharp = quartic_test_profile(1.0, 3, 2, 512)
    rep_sharp = minimum_principle_probe(prof_sharp, sharp + 1e-9)
    assert rep_sharp["supersolution_everywhere"]
    assert rep_sharp["violates_minimum_principle"]


@dataclass(frozen=True)
class AdmissibleJet:
    """Second-order data of a test function at one point."""

    point: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hessian", as_symmetric(self.hessian))


def classical_supersolution_at(jet, k, lam):
    """Pointwise classical supersolution test (disjunctive form).

    A point passes when S_k(D^2 u) + lam u |u|^(k-1) <= 0 holds or the
    Hessian leaves the closed admissibility cone: a non-admissible Hessian
    can never be touched from below by an admissible test function, so it
    counts vacuously.
    """
    v = jet.value
    return (s_k_op(jet.hessian, k) + lam * v * abs(v) ** (k - 1) <= 0.0
            or not in_sigma_k(jet.hessian, k, strict=False))


def jet_loop_probe(profile, lam):
    """The probe written out node by node on N x N jets, as a reference.

    Each node builds the diagonal radial Hessian as a matrix and asks
    classical_supersolution_at, which takes its spectrum with eigvalsh;
    minimum_principle_probe must return the same report.
    """
    N, k = profile.N, profile.k
    ok = np.empty(profile.r.size, dtype=bool)
    for i, (rr, hh, pp, qq) in enumerate(
        zip(profile.r, profile.h, profile.hp, profile.hpp)
    ):
        if rr == 0.0:
            hess = qq * np.eye(N)
        else:
            vals = np.full(N, pp / rr)
            vals[0] = qq
            hess = np.diag(vals)
        point = np.zeros(N)
        point[0] = rr
        grad = np.zeros(N)
        grad[0] = pp
        jet = AdmissibleJet(point=point, value=float(hh), gradient=grad, hessian=hess)
        ok[i] = classical_supersolution_at(jet, k, lam)
    interior_min = float(np.min(profile.h[profile.r < profile.R]))
    failed = np.flatnonzero(~ok)
    return {
        "lam": float(lam),
        "supersolution_everywhere": bool(ok.all()),
        "n_failed_nodes": int(failed.size),
        "first_failed_r": float(profile.r[failed[0]]) if failed.size else None,
        "interior_min": interior_min,
        "argmin_r": float(profile.r[int(np.argmin(profile.h))]),
        "negative_interior_min": bool(interior_min < 0),
        "violates_minimum_principle": bool(ok.all() and interior_min < 0),
    }


def quartic_sharp_constant(n, k, R):
    """Smallest lam for which the quartic is a supersolution on B_R."""
    return (4.0**k * math.comb(n - 1, k - 1)
            * max(n / k, (2.0 / k) * ((n + 2 * k) / (2.0 * (k + 1))) ** (k + 1))
            * R ** (-2 * k))


def test_minimum_principle_probe_matches_jet_loop_on_quartics():
    # N = 1..6, every k, three radii; lam = 0 fails wherever S_k > 0, the
    # upper bound is exactly sharp for N <= 2 (a tie at the origin) and
    # too small for N >= 3, and just above the sharp constant every node
    # passes
    for n in range(1, 7):
        for k in range(1, n + 1):
            for R in (0.5, 1.0, 2.0):
                prof = quartic_test_profile(R, n, k, 64)
                for lam in (0.0, upper_bound(n, k, R),
                            1.000001 * quartic_sharp_constant(n, k, R)):
                    assert minimum_principle_probe(prof, lam) == jet_loop_probe(prof, lam)
    # the 513-node runs of khess verify minprinciple
    for n, k, lam in ((2, 2, upper_bound(2, 2, 1.0)),
                      (3, 2, 1.000001 * quartic_sharp_constant(3, 2, 1.0))):
        prof = quartic_test_profile(1.0, n, k, 512)
        assert minimum_principle_probe(prof, lam) == jet_loop_probe(prof, lam)


def test_minimum_principle_probe_matches_jet_loop_on_eigenfunctions(est21, est22):
    for est in (est21, est22, estimate_lambda1(1.0, 3, 2, solver_cfg=SolverConfig(grid_size=64))):
        w = est.eigenfunction
        for lam in (est.lambda_lo, est.lambda_hi, est.bounds["upper"]):
            assert minimum_principle_probe(w, lam) == jet_loop_probe(w, lam)
    with pytest.raises(DomainError):
        minimum_principle_probe(w, -1.0)


def test_minimum_principle_probe_matches_jet_loop_at_the_cone_boundary():
    # spectra (h'', q, ..., q) with sigma_k = C(N-1,k-1) q^(k-1) eps just
    # inside or outside the closed cone, eps = c times the membership
    # slack; with h = r^2 + 1 and lam = 1 every admissible node fails, as
    # S_k + h^k >= 1 - slack > 0 there, so the report counts exactly the
    # nodes the slack lets in
    rng = np.random.default_rng(5)
    r = np.linspace(0.0, 1.0, 65)
    for n in range(1, 7):
        for k in range(1, n + 1):
            q = rng.uniform(0.5, 2.0, r.size)
            hpp = -q * (n - k) / k
            norm = np.sqrt(hpp**2 + (n - 1) * q**2)
            c = np.resize([-3.0, -1.5, -0.9, -0.5, 0.5], r.size)
            eps = c * 1e-10 * (1.0 + norm) ** k / (math.comb(n - 1, k - 1) * q ** (k - 1))
            prof = RadialProfile(N=n, k=k, r=r, h=r**2 + 1.0, hp=q * r, hpp=hpp + eps)
            rep = minimum_principle_probe(prof, 1.0)
            assert rep == jet_loop_probe(prof, 1.0)
            assert 0 < rep["n_failed_nodes"] < r.size


def test_domain_monotonicity():
    rep = domain_monotonicity_check(2, 1, 1.0, 1.5)
    assert rep["passed"]
    assert rep["lambda_small"] > rep["lambda_big"]
    assert rep["lambda_big"] == pytest.approx(
        rep["lambda_small"] / 1.5**2, rel=0.02
    )
    with pytest.raises(DomainError):
        domain_monotonicity_check(2, 1, 1.5, 1.5)


@pytest.mark.parametrize("R1, R2", [(1.0, math.nan), (math.nan, 1.0), (1.0, -1.0),
                                    (1.0, math.inf), (1.0, 1e-200)])
def test_domain_monotonicity_refuses_bad_radii(R1, R2, monkeypatch):
    # min(1, nan) and max(1, nan) are both 1: a NaN radius once compared
    # the unit ball with itself and passed
    monkeypatch.setattr(eigen, "estimate_lambda1", None)
    with pytest.raises(DomainError, match="radius"):
        domain_monotonicity_check(2, 1, R1, R2)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2)


def test_estimate_diagnostics_structure(est21):
    d = est21.diagnostics
    assert len(d["probes"]) >= 2
    assert d["effective_bisect_tol"] > 0
    assert est21.lambda_hi - est21.lambda_lo <= d["effective_bisect_tol"] * 1.0001


# shooting-oracle value of lambda_1 for (N, k) = (5, 3) on the unit ball
LAMBDA_53_SHOOTING = 405.5232


def test_bracket_encloses_oracle_53():
    est = estimate_lambda1(1.0, 5, 3)
    assert est.lambda_lo <= LAMBDA_53_SHOOTING * (1 + 1e-4)
    assert est.lambda_hi >= LAMBDA_53_SHOOTING * (1 - 1e-4)


def test_bessel_zero_at_fine_grid():
    exact = float(mpmath.besseljzero(0, 1)) ** 2
    est = estimate_lambda1(1.0, 2, 1, solver_cfg=SolverConfig(grid_size=2048))
    assert abs(est.lambda_best - exact) / exact <= 1e-6


@pytest.mark.parametrize("n, k", [(2, 1), (3, 3), (5, 5), (6, 4)])
def test_dichotomy_probes_and_tight_bracket(n, k):
    est = estimate_lambda1(1.0, n, k)
    reasons = [p["reason"] for p in est.diagnostics["probes"]]
    assert reasons == ["supersolution", "growth"]
    assert 0.0 < est.lambda_hi - est.lambda_lo <= 1e-9 * est.lambda_hi


def test_bisect_tol_caps_bracket_and_encloses(est21):
    loose = estimate_lambda1(1.0, 2, 1, IterationConfig(bisect_tol=1e-3))
    assert 0.0 < loose.lambda_hi - loose.lambda_lo <= 1e-3
    # an early Collatz-Wielandt bracket still contains the converged value
    assert loose.lambda_lo <= est21.lambda_best <= loose.lambda_hi
    assert loose.diagnostics["power_solves"] < est21.diagnostics["power_solves"]


def test_bracket_width_below_the_rounding_floor_is_refused_at_once(monkeypatch):
    # at 131073 nodes and k = 2 the widened bracket is never narrower than
    # 2 rho lambda_lo = 5.2e-10 lambda, above the default 1e-10 lambda_hi
    solves = []
    solve_into = _FirstIntegral.solve_into
    monkeypatch.setattr(_FirstIntegral, "solve_into",
                        lambda self, *a: solves.append(1) or solve_into(self, *a))
    with pytest.raises(DomainError, match=r"rounding floor .* grid of 131072 intervals"):
        estimate_lambda1(1.0, 3, 2, solver_cfg=SolverConfig(grid_size=131072))
    assert len(solves) <= 5
    with pytest.raises(DomainError, match="bracket width 1.000e-300"):
        estimate_lambda1(1.0, 2, 1, IterationConfig(bisect_tol=1e-300))


def test_bracket_width_above_the_rounding_floor_still_closes():
    # floor 1.9 rho lambda_lo = 1.8e-7 at 32769 nodes and k = 6
    est = estimate_lambda1(1.0, 6, 6, IterationConfig(bisect_tol=1e-6),
                           SolverConfig(grid_size=32768))
    assert est.diagnostics["power_solves"] == 13
    assert est.lambda_hi - est.lambda_lo <= 1e-6


def test_n_max_is_undecided_and_fails_the_cross_check(monkeypatch):
    res = iterate_fixed_lambda(5.0, 1.0, 2, 1, IterationConfig(n_max=10))
    assert not res.converged and res.reason == "n-max" and res.n_iter == 10
    # a witness source built at twice its lam below the bracket, or half
    # of it above: that witness fails, and the error carries both
    scheme_source = eigen._scheme_source
    for failing, factor in (("supersolution", (2.0, 1.0)), ("growth", (1.0, 0.5))):
        monkeypatch.setattr(
            eigen, "_scheme_source",
            lambda rest, lam, k, out, one=1.0: scheme_source(
                rest, lam * factor[0 if one else 1], k, out, one))
        with pytest.raises(InconsistencyError, match=f"the {failing} witness") as info:
            estimate_lambda1(1.0, 6, 1)
        trace = info.value.trace
        assert trace["failed"] == [failing]
        assert [set(p) for p in trace["probes"]] == [{"lam", "reason", "c"},
                                                     {"lam", "reason", "q"}]
        assert trace["probes"][0]["lam"] < trace["lambda_lo"]
        assert trace["probes"][1]["lam"] > trace["lambda_hi"]


# the nine (N, k) pairs of the shooting-oracle table
ORACLE_PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
# an odd node count, graded grids, a radius whose grid is not dyadic and
# orders k up to 5 next to the oracle pairs
PROBE_CASES = [(N, k, 1.0, SolverConfig()) for N, k in ORACLE_PAIRS] + [
    (3, 2, 1.0, SolverConfig(grid_size=300, graded=True)),
    (3, 2, 1.0, SolverConfig(grid_size=513)),
    (4, 3, 1.0, SolverConfig(grid_size=2048, graded=True)),
    (2, 1, 0.9, SolverConfig()),
    (5, 3, 0.9, SolverConfig(grid_size=513, graded=True)),
    (5, 4, 1.0, SolverConfig()),
    (6, 5, 0.9, SolverConfig(grid_size=513)),
]


def _trapezoid_solver(R, N, k, solver_cfg):
    r = make_grid(R, solver_cfg.grid_size, graded=solver_cfg.graded)
    return _FirstIntegral(r, N, k, "trapezoid")


def _assert_same_iteration(a, b):
    assert (a.reason, a.n_iter, a.converged, a.lam) == (b.reason, b.n_iter, b.converged, b.lam)
    assert a.sup_trace == b.sup_trace
    for name in ("r", "h", "hp", "hpp"):
        assert np.array_equal(getattr(a.profile, name), getattr(b.profile, name)), name


@pytest.mark.parametrize("N, k, R, solver_cfg", PROBE_CASES,
                         ids=[f"{N}{k}-{c.grid_size}{'g' if c.graded else ''}"
                              + ("" if R == 1.0 else f"-R{R}") for N, k, R, c in PROBE_CASES])
def test_lockstep_probes_match_separate_calls(N, k, R, solver_cfg):
    # both witnesses, lam, c and q, are bitwise those of the power
    # iteration and the witnesses written out one full solve per solve,
    # and both hold.  The scheme at each probe lam is bitwise that scheme
    # written out, profile too; so close to lambda_1 it stays undecided,
    # under c v below the bracket and above eps q^(n-1) v over it
    cfg = IterationConfig()
    est = estimate_lambda1(R, N, k, cfg, solver_cfg)
    ref = witnesses_full_solves(R, N, k, cfg, solver_cfg)
    assert (est.lambda_lo, est.lambda_hi) == (ref["lambda_lo"], ref["lambda_hi"])
    # == is bitwise on these finite, positive floats
    assert est.diagnostics["probes"] == ref["probes"]
    assert ref["holds"] == [True, True]
    cfg = IterationConfig(n_max=50)
    below, above = (iterate_fixed_lambda(p["lam"], R, N, k, cfg, solver_cfg)
                    for p in est.diagnostics["probes"])
    for res in (below, above):
        assert res.reason == "n-max"
        _assert_same_iteration(
            res, iterate_fixed_lambda_full_solves(res.lam, R, N, k, cfg, solver_cfg))
    v, one = ref["v"], ref["one"]
    assert np.all(-below.profile.h <= ref["probes"][0]["c"] * v)
    growth = (ref["probes"][1]["q"] / (1.0 + ref["rho"])) ** (cfg.n_max - 1)
    assert np.all(-above.profile.h[:-1] >= np.min(one[:-1] / v[:-1]) * growth * v[:-1])


def _assert_runs_as_full_solves(lams, reasons, R, N, k, cfg, solver_cfg) -> list:
    """Run iterate_fixed_lambda at each lam of lams: each ends in its reason
    and is bitwise the scheme of one full solve per step.  Returns the step
    counts."""
    counts = []
    for lam, reason in zip(lams, reasons, strict=True):
        res = iterate_fixed_lambda(lam, R, N, k, cfg, solver_cfg)
        assert res.reason == reason, lam
        _assert_same_iteration(
            res, iterate_fixed_lambda_full_solves(lam, R, N, k, cfg, solver_cfg))
        counts.append(res.n_iter)
    return counts


@pytest.mark.parametrize("N, k, R, solver_cfg", [
    (2, 1, 1.0, SolverConfig(grid_size=513)),
    (3, 2, 0.9, SolverConfig(grid_size=2048, graded=True)),
    (5, 3, 1.0, SolverConfig(grid_size=512, graded=True)),
], ids=["21-513", "32-2048g-R0.9", "53-512g"])
def test_runs_end_in_each_reason(N, k, R, solver_cfg):
    # five lams end at different steps for all three reasons, and every
    # run is bitwise the paper's scheme
    cfg = IterationConfig(n_max=200)
    lam = estimate_lambda1(R, N, k, cfg, solver_cfg).lambda_best
    lams = [lam * c for c in (1.1**k, 1.0001, 0.9, 0.0, 1.5**k)]
    counts = _assert_runs_as_full_solves(
        lams, ["sup-cap", "n-max", "fixed-point", "fixed-point", "sup-cap"],
        R, N, k, cfg, solver_cfg)
    assert len(set(counts)) == 5


@pytest.mark.parametrize("N, k", [(2, 1), (3, 2), (5, 3), (6, 1)])
def test_probe_counts_do_not_depend_on_the_radius(N, k):
    # both witnesses compare solves that scale as R^2 with v, so both hold
    # on every ball, q is the same up to rounding and c follows R^2 up to
    # its power-of-two step
    probes = {R: estimate_lambda1(R, N, k).diagnostics["probes"]
              for R in (1.0, 1e-5, 1e-4, 1e3)}
    unit_below, unit_above = probes[1.0]
    for R, (below, above) in probes.items():
        assert (below["reason"], above["reason"]) == ("supersolution", "growth")
        assert 0.5 <= below["c"] / (R**2 * unit_below["c"]) <= 2.0, R
        assert above["q"] - 1.0 == pytest.approx(unit_above["q"] - 1.0, rel=1e-2), R


def test_runs_end_at_their_own_steps():
    # runs end at steps 10 (n-max), 2 (fixed-point) and 10 (n-max)
    cfg = IterationConfig(n_max=10)
    counts = _assert_runs_as_full_solves([5.0, 0.0, 1.0], ["n-max", "fixed-point", "n-max"],
                                         1.0, 2, 1, cfg, SolverConfig(grid_size=64))
    assert counts == [10, 2, 10]


def test_monotonicity_fault_names_its_lambda_and_step(monkeypatch):
    steps = []

    class Faulty(eigen._FirstIntegral):
        def solve_into(self, f_nodes, hp, rest):
            super().solve_into(f_nodes, hp, rest)
            steps.append(rest.shape)
            if len(steps) == 5:
                rest[10] = -0.5  # h = 0.5: the iterate rises above its last one

    monkeypatch.setattr(eigen, "_FirstIntegral", Faulty)
    with pytest.raises(InconsistencyError, match="increased") as info:
        iterate_fixed_lambda(3.0, 1.0, 2, 1, solver_cfg=SolverConfig(grid_size=64))
    trace = info.value.trace
    assert trace["lam"] == 3.0 and trace["n"] == 5 and len(trace["sup_trace"]) == 4


def test_a_falling_sup_norm_is_caught_at_its_step(monkeypatch):
    # rest never increases along r, so node 0 carries the sup norm: halving
    # it at step 20, five steps before this run passes the sup cap, is a
    # drop of the sup trace, and the nodewise check raises at that step
    solver_cfg = SolverConfig(grid_size=64)
    clean = iterate_fixed_lambda(10.0, 1.0, 2, 1, solver_cfg=solver_cfg)
    assert (clean.reason, clean.n_iter) == ("sup-cap", 25)
    sups = []

    class Faulty(eigen._FirstIntegral):
        def solve_into(self, f_nodes, hp, rest):
            super().solve_into(f_nodes, hp, rest)
            if len(sups) == 19:
                rest[0] = 0.5 * sups[-1]
            sups.append(float(rest[0]))

    monkeypatch.setattr(eigen, "_FirstIntegral", Faulty)
    with pytest.raises(InconsistencyError, match="increased") as info:
        iterate_fixed_lambda(10.0, 1.0, 2, 1, solver_cfg=solver_cfg)
    trace = info.value.trace
    assert trace["lam"] == 10.0 and trace["n"] == 20
    assert trace["sup_trace"] == clean.sup_trace[:19] == sups[:19]
    assert sups[19] < sups[18]


def test_estimate_json_diagnostics(est21):
    d = est21.to_json_dict()["diagnostics"]
    assert d == {"probes": est21.diagnostics["probes"],
                 "power_solves": est21.diagnostics["power_solves"],
                 "effective_bisect_tol": est21.diagnostics["effective_bisect_tol"]}
    assert [p["reason"] for p in d["probes"]] == ["supersolution", "growth"]
    below, above = d["probes"]
    rho = eigen._rounding(1, est21.eigenfunction.r.size)
    delta = 64 * rho
    assert set(below) == {"lam", "reason", "c"} and math.frexp(below["c"])[0] == 0.5
    assert below["lam"] == est21.lambda_lo * (1.0 - delta)
    assert set(above) == {"lam", "reason", "q"} and above["q"] > 1.0 + rho
    assert above["lam"] == est21.lambda_hi * (1.0 + delta)


def _certificate_solve(f_nodes, r, N, k):
    """rest = -h of one trapezoid solve, the map A of the certificates."""
    return -first_integral_solve(f_nodes, r, N, k, scheme="trapezoid")[0]


@pytest.mark.parametrize("N, k", ORACLE_PAIRS)
def test_certificates_hold_on_the_oracle_pairs(N, k):
    # both witnesses, from the full-solve reference that matches the
    # estimate's probes bitwise, checked again by an independent full
    # solve, and their claims run out for 30 steps of the scheme
    est = estimate_lambda1(1.0, N, k)
    r = est.eigenfunction.r
    ref = witnesses_full_solves(1.0, N, k, IterationConfig(), SolverConfig())
    assert est.diagnostics["probes"] == ref["probes"]
    below, above = ref["probes"]
    v, rho = ref["v"], ref["rho"]
    # below: A(1 + lam w^k) <= w for w = c v, so every iterate of the
    # scheme from u_0 = 0 stays under w, and lam lies under the bracket
    w = below["c"] * v
    assert np.all(_certificate_solve(1.0 + below["lam"] * w**k, r, N, k) <= w)
    assert below["lam"] < est.lambda_lo
    rest = np.zeros_like(r)
    for _ in range(30):
        rest = _certificate_solve(1.0 + below["lam"] * rest**k, r, N, k)
        assert np.all(rest <= w)
    # above: q is recomputed exactly, and the iterates from u_0 = 0
    # outgrow eps (q / (1 + rho))^(m-1) v, eps = min A(1)/v
    q = float(np.min(_certificate_solve(above["lam"] * v**k, r, N, k)[:-1] / v[:-1]))
    assert q == above["q"] > 1.0 + rho
    assert above["lam"] > est.lambda_hi
    eps = float(np.min(_certificate_solve(np.ones_like(r), r, N, k)[:-1] / v[:-1]))
    assert eps > 0
    grown = np.zeros_like(r)
    for m in range(1, 31):
        grown = _certificate_solve(1.0 + above["lam"] * grown**k, r, N, k)
        bound = eps * (q / (1.0 + rho)) ** (m - 1) / (1.0 + rho)
        assert np.all(grown[:-1] >= bound * v[:-1])


@pytest.mark.parametrize("bisect_tol", [5.0, 50.0, math.inf])
def test_probes_sit_outside_a_loose_bracket(bisect_tol):
    # probes once placed around the midpoint of a loose bracket sat above
    # lambda_1; the witnesses sit just outside its ends, and both hold
    # however loose it is, since any v gives a Collatz-Wielandt bracket
    cfg = IterationConfig(bisect_tol=bisect_tol)
    for N, k in ORACLE_PAIRS + [(6, 1), (5, 4)]:
        est = estimate_lambda1(1.0, N, k, cfg)
        below, above = est.diagnostics["probes"]
        assert (below["reason"], above["reason"]) == ("supersolution", "growth"), (N, k)
        delta = 64 * k * eigen._rounding(k, est.eigenfunction.r.size)
        assert below["lam"] == est.lambda_lo * (1.0 - delta)
        assert above["lam"] == est.lambda_hi * (1.0 + delta)


@pytest.mark.parametrize("N, k", ORACLE_PAIRS)
def test_certificates_are_never_issued_on_the_wrong_side(N, k):
    # each mutation of the witness check fails: the supersolution witness
    # at lambda_hi (1 + delta), the growth witness at lambda_lo (1 - delta),
    # and both at their own lams with v replaced by the start vector
    # R^2 - r^2, whose Collatz-Wielandt bracket is wider than the estimate's
    ref = witnesses_full_solves(1.0, N, k, IterationConfig(), SolverConfig())
    solver = _trapezoid_solver(1.0, N, k, SolverConfig())
    (below, above), delta = ref["probes"], ref["delta"]
    assert eigen._witnesses(solver, ref["v"], below["lam"], above["lam"], delta) == (
        ref["probes"], [])
    both = ["supersolution", "growth"]
    lo, hi = ref["lambda_lo"], ref["lambda_hi"]
    swapped = eigen._witnesses(solver, ref["v"], hi * (1.0 + delta), lo * (1.0 - delta), delta)
    assert swapped[1] == both
    start = eigen._witnesses(solver, 1.0 - solver.r**2, below["lam"], above["lam"], delta)
    assert start[1] == both
