"""Acceptance suite: the eleven headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines. Each criterion prints PASS or FAIL before asserting, so a red
run still reports every measured number.
"""

import itertools
import math
import time

import numpy as np
import pytest

from khessian.cones import eigenvalues, in_sigma_k
from khessian.dirichlet import (
    SolverConfig,
    SourceTerm,
    holder_seminorm,
    solve_radial_dirichlet,
)
from khessian.eigen import (
    estimate_lambda1,
    iterate_fixed_lambda,
    lower_bound,
    minimum_principle_probe,
    upper_bound,
)
from khessian.radial import quartic_test_profile, s_k_radial
from khessian.symfun import in_gamma_k, sigma_all
from reference import in_gamma_k_korevaar, residual_scale, s_k_op

PAIRS = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]

# j_{0,1}^2 from the independent shooting oracle (series startup plus
# adaptive integration, 60 bisections)
LAMBDA_21 = 5.783185962946785


def _line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def unit_estimates():
    t0 = time.perf_counter()
    ests = {(n, k): estimate_lambda1(1.0, n, k) for n, k in PAIRS}
    return ests, time.perf_counter() - t0


def test_criterion_01_bound_sandwich(unit_estimates):
    ests, elapsed = unit_estimates
    bad = []
    for (n, k), est in ests.items():
        lo, hi = lower_bound(n, k, 1.0), upper_bound(n, k, 1.0)
        if not lo <= est.lambda_best <= hi:
            bad.append((n, k, est.lambda_best))
    ok = not bad and elapsed < 60.0
    _line(1, "bound sandwich, 5 pairs at grid 512", ok,
          f"five estimates in {elapsed:.1f}s, violations: {bad}")
    assert ok, bad


def test_criterion_02_linear_sanity():
    t0 = time.perf_counter()
    est = estimate_lambda1(1.0, 2, 1)
    dt = time.perf_counter() - t0
    err = abs(est.lambda_best - LAMBDA_21)
    ok = err <= 0.01 and dt < 10.0
    _line(2, "N=2 k=1 vs Bessel shooting oracle", ok,
          f"lambda_best {est.lambda_best:.6f}, |err| {err:.2e}, {dt:.1f}s")
    assert ok


def test_criterion_03_rayleigh_consistency(unit_estimates):
    ests, _ = unit_estimates
    gaps = {
        pair: abs(est.rayleigh - est.lambda_best) / est.lambda_best
        for pair, est in ests.items()
    }
    worst = max(gaps.values())
    ok = worst <= 0.01
    _line(3, "Rayleigh quotient within 1%", ok,
          f"worst relative gap {worst:.2e}")
    assert ok, gaps


def test_criterion_04_dilation_law(unit_estimates):
    ests, _ = unit_estimates
    spreads = {}
    for n, k in [(2, 2), (3, 2)]:
        big = estimate_lambda1(2.0, n, k)
        scaled = big.lambda_best * 2.0 ** (2 * k)
        spreads[(n, k)] = abs(scaled - ests[(n, k)].lambda_best) / ests[
            (n, k)
        ].lambda_best
    worst = max(spreads.values())
    ok = worst <= 0.02
    _line(4, "dilation covariance lambda(R) R^{2k}", ok,
          f"worst relative spread {worst:.2e}")
    assert ok, spreads


def test_criterion_05_quadrature_exactness():
    worst = 0.0
    for n, k in PAIRS:
        src = SourceTerm.constant(float(math.comb(n, k)))
        p = solve_radial_dirichlet(src, 1.0, n, k, SolverConfig(grid_size=512))
        worst = max(worst, float(np.max(np.abs(p.h - (p.r**2 - 1.0) / 2.0))))
    # observed order on a non-polynomial source, coarse-to-fine
    src = SourceTerm(lambda r: 1.0 + np.exp(-(r**2)))
    ref = solve_radial_dirichlet(
        src, 1.0, 3, 2, SolverConfig(grid_size=4096, tol_residual=1.0)
    ).h[0]
    errs = [
        abs(
            solve_radial_dirichlet(
                src, 1.0, 3, 2, SolverConfig(grid_size=g, tol_residual=1.0)
            ).h[0]
            - ref
        )
        for g in (64, 128, 256)
    ]
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    ok = worst <= 1e-8 and order >= 2.0
    _line(5, "paraboloid reproduction and refinement order", ok,
          f"max node error {worst:.2e}, observed order {order:.2f}")
    assert ok


def test_criterion_06_fundamental_annihilation():
    rng = np.random.default_rng(606)
    worst = 0.0
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        alpha = 2.0 - n / k
        r = rng.uniform(0.05, 5.0, 100)
        hp = alpha * r ** (alpha - 1.0)
        hpp = alpha * (alpha - 1.0) * r ** (alpha - 2.0)
        ratio = np.abs(s_k_radial(hp, hpp, r, n, k)) / residual_scale(hp, hpp, r, k)
        worst = max(worst, float(ratio.max()))
    ok = worst <= 1e-10
    _line(6, "fundamental profile annihilates S_k", ok,
          f"worst scaled |S_k| {worst:.2e} over 100 radii x 4 pairs")
    assert ok


def test_criterion_07_iterate_monotonicity():
    rng = np.random.default_rng(707)
    failures = 0
    for i in range(20):
        n, k = PAIRS[i % len(PAIRS)]
        lam = float(rng.uniform(0.0, lower_bound(n, k, 1.0)))
        res = iterate_fixed_lambda(lam, 1.0, n, k)
        # the iteration itself raises on any nodewise increase; confirm
        # convergence, the sign, and the nondecreasing sup trace here
        if not (
            res.converged
            and np.all(res.profile.h <= 0.0)
            and np.all(np.diff(res.sup_trace) >= 0.0)
        ):
            failures += 1
    ok = failures == 0
    _line(7, "iterates decrease below the lower bound", ok,
          f"{failures} failures over 20 random lambdas")
    assert ok


def test_criterion_08_divergence_above_threshold():
    reasons = {}
    for n, k in PAIRS:
        res = iterate_fixed_lambda(1.05 * upper_bound(n, k, 1.0), 1.0, n, k)
        grows = bool(np.all(np.diff(res.sup_trace) >= 0.0))
        reasons[(n, k)] = (res.converged, res.reason, grows)
    ok = all(
        (not conv) and reason == "sup-cap" and grows
        for conv, reason, grows in reasons.values()
    )
    _line(8, "blow-up at 1.05x the upper bound", ok, f"{reasons}")
    assert ok, reasons


def test_criterion_09_minimum_principle(unit_estimates):
    ests, _ = unit_estimates
    # sharp admissibility constant for the quartic: interior ratio max
    # 4^k C(N-1,k-1) max(N/k, (2/k)((N+2k)/(2(k+1)))^(k+1)); equals the
    # nominal 4^k C(N,k) when N <= 2, exceeds it for N >= 3
    results = {}
    for n, k in PAIRS:
        nominal = upper_bound(n, k, 1.0)
        sharp = (
            4.0**k
            * math.comb(n - 1, k - 1)
            * max(n / k, (2.0 / k) * ((n + 2 * k) / (2.0 * (k + 1))) ** (k + 1))
        )
        c_used = sharp + 1e-9 if sharp > nominal else nominal
        prof = quartic_test_profile(1.0, n, k, 512)
        rep = minimum_principle_probe(prof, c_used)
        results[(n, k)] = (
            rep["violates_minimum_principle"],
            nominal >= ests[(n, k)].lambda_best,
            c_used,
        )
    ok = all(v and b for v, b, _ in results.values())
    detail = ", ".join(
        f"({n},{k}) C={c:.4g}" for (n, k), (_, _, c) in results.items()
    )
    _line(9, "quartic supersolution breaks the minimum principle", ok, detail)
    assert ok, results


def _random_sigma_matrix(rng, n, k):
    while True:
        lam = rng.normal(0.8, 1.0, n)
        if in_gamma_k(lam, k, strict=False):
            break
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(lam) @ q.T


def test_criterion_10_cone_property_suite():
    rng = np.random.default_rng(1010)
    n_samples = 10_000
    failures = {key: 0 for key in (
        "psd-shift", "derivative-monotone", "cone-additive", "chain",
        "korevaar", "brute-force",
    )}

    for _ in range(n_samples):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        a = _random_sigma_matrix(rng, n, k)
        b = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        p = b @ b.T
        shifted = a + p
        if not in_sigma_k(shifted, k):
            failures["psd-shift"] += 1
        slack = 1e-10 * (1.0 + max(np.abs(eigenvalues(a)).max(),
                                   np.abs(eigenvalues(shifted)).max())) ** k
        if s_k_op(shifted, k) < s_k_op(a, k) - slack:
            failures["derivative-monotone"] += 1

    for _ in range(n_samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        draws = []
        while len(draws) < 2:
            lam = rng.normal(0.8, 1.0, n)
            if in_gamma_k(lam, k, strict=True):
                draws.append(lam)
        if not in_gamma_k(draws[0] + draws[1], k, strict=True):
            failures["cone-additive"] += 1

    for _ in range(n_samples):
        n = int(rng.integers(2, 6))
        lam = np.exp(rng.normal(0.0, 1.0, n))
        if not all(in_gamma_k(lam, j, strict=True) for j in range(1, n + 1)):
            failures["chain"] += 1

    checked = 0
    for _ in range(n_samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        lam = rng.normal(0.0, 1.0, n)
        sig = sigma_all(lam)
        scale = np.array([
            math.comb(n, j) * (1.0 + np.abs(lam).max()) ** j for j in range(n + 1)
        ])
        if np.any(np.abs(sig) < 1e-9 * scale):
            continue
        checked += 1
        if in_gamma_k(lam, k, strict=True) != in_gamma_k_korevaar(lam, k):
            failures["korevaar"] += 1

    for _ in range(n_samples):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        lam = rng.normal(0.0, 1.0, n)
        direct = sum(
            math.prod(lam[list(c)]) for c in itertools.combinations(range(n), k)
        )
        scale = math.comb(n, k) * (1.0 + np.abs(lam).max()) ** k
        if abs(sigma_all(lam)[k] - direct) > 1e-9 * scale:
            failures["brute-force"] += 1

    total = sum(failures.values())
    ok = total == 0 and checked > n_samples // 2
    _line(10, "cone property suite, 10^4 samples each", ok,
          f"failures {failures}, korevaar draws checked {checked}")
    assert ok, failures


def test_criterion_11_holder_stability():
    src = SourceTerm.constant(1.0)
    vals = [
        holder_seminorm(
            solve_radial_dirichlet(src, 1.0, 3, 2, SolverConfig(grid_size=g)), 0.5
        )
        for g in (512, 1024)
    ]
    drift = abs(vals[1] - vals[0]) / vals[0]
    ok = drift <= 0.05
    _line(11, "Holder 1/2-seminorm grid stability", ok,
          f"{vals[0]:.6f} -> {vals[1]:.6f}, drift {drift:.2e}")
    assert ok
