"""Per-layer benches for the eigenvalue engine and the Holder seminorm.

Opt-in: the file name does not match pytest's test_*.py pattern, so the
tier-1 command never collects it.  Run it by path:

    PYTHONPATH=src python -m pytest benches/bench_eigen.py --benchmark-json=out.json

Inputs are fixed, all on the unit ball: estimate_lambda1 for (N, k) in
(2,1), (2,2), (3,2), (3,3), (5,2) at grids 512 and 2048 with default
settings; iterate_fixed_lambda at grid 512 for (3,2) at 0.9 and 1.1^2
times the oracle lambda_1, the two sides of the paper's dichotomy; the
certificate probes of an estimate, _iterate on each of its two probe
lambdas seeking the supersolution and the growth certificate as the
estimate runs them, on one shared solver, for (2,1), (3,2) and (5,3) at
grids 512 and 2048; rayleigh_quotient, S_k included, on the 513- and
2049-node eigenfunctions of (3,2) and (5,3); and holder_seminorm on
the 2049-node eigenfunctions of (3,2) (alpha = 1/2), (4,3) (alpha =
2/3) and (3,3) (alpha = 1) on the uniform grid, and of (3,3) on the
graded grid.  Each bench records what it computed in extra_info (the
bracket width and the error against the shooting oracle, the probe
verdicts, step counts and certificates, the seminorm), so a timing is
never read without the numbers it produced.
"""

import pytest

from khessian.dirichlet import SolverConfig, _FirstIntegral, holder_seminorm, make_grid
from khessian.eigen import (IterationConfig, _iterate, estimate_lambda1, iterate_fixed_lambda,
                            rayleigh_quotient)

# lambda_1 of the unit ball from the solve_ivp shooting oracle (rtol 1e-12)
ORACLE = {
    (2, 1): 5.783185962947232,
    (2, 2): 7.490039398681084,
    (3, 2): 28.143464172986913,
    (3, 3): 24.77526719273827,
    (5, 2): 134.82920302756673,
}


@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("N, k", list(ORACLE))
def test_estimate_lambda1(benchmark, N, k, grid):
    est = benchmark(estimate_lambda1, 1.0, N, k, solver_cfg=SolverConfig(grid_size=grid))
    lam = ORACLE[(N, k)]
    benchmark.extra_info.update({
        "bracket_rel_width": (est.lambda_hi - est.lambda_lo) / lam,
        "oracle_rel_err": abs(est.lambda_best - lam) / lam,
        "probes": [(p["reason"], p["n_iter"]) for p in est.diagnostics["probes"]],
        "holder": est.holder,
    })


@pytest.mark.parametrize("factor", [0.9, 1.1**2], ids=["below", "above"])
def test_iterate_fixed_lambda(benchmark, factor):
    lam = factor * ORACLE[(3, 2)]
    res = benchmark(iterate_fixed_lambda, lam, 1.0, 3, 2)
    benchmark.extra_info.update({"lam": lam, "reason": res.reason, "n_iter": res.n_iter})


@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("N, k", [(2, 1), (3, 2), (5, 3)])
def test_certificate_probes(benchmark, N, k, grid):
    cfg = IterationConfig()
    est = estimate_lambda1(1.0, N, k, cfg, SolverConfig(grid_size=grid))
    lams = [p["lam"] for p in est.diagnostics["probes"]]
    solver = _FirstIntegral(make_grid(1.0, grid), N, k, "trapezoid")

    def probes():
        return [_iterate(lam, solver, cfg.n_max, seek)
                for lam, seek in zip(lams, ("supersolution", "growth"))]

    runs = benchmark(probes)
    benchmark.extra_info.update({
        "lams": lams,
        "probes": [(res.reason, res.n_iter, res.certificate) for res in runs],
    })


@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("N, k", [(3, 2), (5, 3)])
def test_rayleigh_quotient(benchmark, N, k, grid):
    w = estimate_lambda1(1.0, N, k, solver_cfg=SolverConfig(grid_size=grid)).eigenfunction
    value = benchmark(rayleigh_quotient, w)
    benchmark.extra_info.update({"nodes": int(w.r.size), "rayleigh": value})


@pytest.mark.parametrize("N, k, graded", [(3, 2, False), (3, 3, False), (4, 3, False),
                                          (3, 3, True)],
                         ids=["3-2", "3-3", "4-3", "3-3-graded"])
def test_holder_seminorm(benchmark, N, k, graded):
    cfg = SolverConfig(grid_size=2048, graded=graded)
    w = estimate_lambda1(1.0, N, k, solver_cfg=cfg).eigenfunction
    alpha = 2.0 - N / k
    value = benchmark(holder_seminorm, w, alpha)
    benchmark.extra_info.update({"nodes": int(w.r.size), "alpha": alpha, "holder": value})
