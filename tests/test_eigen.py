"""Eigenvalue machinery: brackets, iteration behavior, spectral estimates.

Reference eigenvalues come from independent radial shooting oracles
solved with adaptive ODE integration (see docstrings below); they are
frozen here with their derivations.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from khessian.cones import as_symmetric, in_sigma_k
from khessian.dirichlet import SolverConfig, SourceTerm, solve_radial_dirichlet
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
from reference import s_k_op

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
    with pytest.raises(DomainError):
        IterationConfig(fixed_point_tol=-1.0)


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


def test_holder_seminorm_emitted_only_when_subcritical(est21, est22):
    assert est21.holder is None  # 2k = N: no positive exponent
    assert est22.holder is not None and est22.holder > 0
    d = est22.to_json_dict("psi.csv")
    assert "holder_seminorm" in d
    d21 = est21.to_json_dict("psi.csv")
    assert "holder_seminorm" not in d21
    assert set(d21) == {
        "N", "k", "R", "lambda_lo", "lambda_hi", "lambda_best",
        "bounds", "rayleigh", "residual_max", "profile_ref",
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


def classical_supersolution_at(jet, k, lam, rhs=0.0):
    """Pointwise classical supersolution test (disjunctive form).

    A point passes when S_k(D^2 u) + lam u |u|^(k-1) <= rhs holds or the
    Hessian leaves the closed admissibility cone: a non-admissible Hessian
    can never be touched from below by an admissible test function, so it
    counts vacuously.
    """
    v = jet.value
    return (s_k_op(jet.hessian, k) + lam * v * abs(v) ** (k - 1) <= rhs
            or not in_sigma_k(jet.hessian, k, strict=False))


def jet_loop_probe(profile, lam, rhs=0.0):
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
        ok[i] = classical_supersolution_at(jet, k, lam, rhs)
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
    # the 513-node runs of khess verify minprinciple, and a nonzero rhs
    for n, k, lam in ((2, 2, upper_bound(2, 2, 1.0)),
                      (3, 2, 1.000001 * quartic_sharp_constant(3, 2, 1.0))):
        prof = quartic_test_profile(1.0, n, k, 512)
        assert minimum_principle_probe(prof, lam) == jet_loop_probe(prof, lam)
        assert minimum_principle_probe(prof, lam, -1.0) == jet_loop_probe(prof, lam, -1.0)


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
    # slack; with rhs = -1 every admissible node fails, so the report
    # counts exactly the nodes the slack lets in
    rng = np.random.default_rng(5)
    r = np.linspace(0.0, 1.0, 65)
    for n in range(1, 7):
        for k in range(1, n + 1):
            q = rng.uniform(0.5, 2.0, r.size)
            hpp = -q * (n - k) / k
            norm = np.sqrt(hpp**2 + (n - 1) * q**2)
            c = np.resize([-3.0, -1.5, -0.9, -0.5, 0.5], r.size)
            eps = c * 1e-10 * (1.0 + norm) ** k / (math.comb(n - 1, k - 1) * q ** (k - 1))
            prof = RadialProfile(N=n, k=k, r=r, h=r**2 - 1.0, hp=q * r, hpp=hpp + eps)
            rep = minimum_principle_probe(prof, 0.0, -1.0)
            assert rep == jet_loop_probe(prof, 0.0, -1.0)
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
    assert reasons == ["fixed-point", "sup-cap"]
    assert 0.0 < est.lambda_hi - est.lambda_lo <= 1e-9 * est.lambda_hi


def test_bisect_tol_caps_bracket_and_encloses(est21):
    loose = estimate_lambda1(1.0, 2, 1, IterationConfig(bisect_tol=1e-3))
    assert 0.0 < loose.lambda_hi - loose.lambda_lo <= 1e-3
    # an early Collatz-Wielandt bracket still contains the converged value
    assert loose.lambda_lo <= est21.lambda_best <= loose.lambda_hi
    assert loose.diagnostics["power_solves"] < est21.diagnostics["power_solves"]


def test_n_max_is_undecided_and_fails_the_cross_check():
    res = iterate_fixed_lambda(5.0, 1.0, 2, 1, IterationConfig(n_max=10))
    assert not res.converged and res.reason == "n-max" and res.n_iter == 10
    with pytest.raises(InconsistencyError):
        estimate_lambda1(1.0, 2, 1, IterationConfig(n_max=10))
