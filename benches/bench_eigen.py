"""Per-layer benches for the eigenvalue engine and the Holder seminorm.

Opt-in: the file name does not match pytest's test_*.py pattern, so the
tier-1 command never collects it.  Run it by path:

    PYTHONPATH=src python -m pytest benches/bench_eigen.py --benchmark-json=out.json

Inputs are fixed, all on the unit ball: estimate_lambda1 for (N, k) in
(2,1), (2,2), (3,2), (3,3), (5,2) at grids 512 and 2048 with default
settings; iterate_fixed_lambda at grid 512 for (3,2) at 0.9 and 1.1^2
times the oracle lambda_1, the two sides of the paper's dichotomy; the
witness check of an estimate, _witnesses on the estimate's own solver,
last power-iteration vector and witness lambdas, its three solves, for
(2,1), (3,2) and (5,3) at grids 512 and 2048; rayleigh_quotient, S_k
included, on the 513- and 2049-node eigenfunctions of (3,2) and (5,3);
and holder_seminorm on
the 2049-node eigenfunctions of (3,2) (alpha = 1/2), (4,3) (alpha =
2/3) and (3,3) (alpha = 1) on the uniform grid, and of (3,3) on the
graded grid.  Each bench records what it computed in extra_info (the
bracket width and the error against the shooting oracle, the witness
lambdas with c and q, the seminorm), so a timing is never read without
the numbers it produced.
"""

import pytest

import khessian.eigen as eigen
from khessian.dirichlet import SolverConfig, holder_seminorm
from khessian.eigen import estimate_lambda1, iterate_fixed_lambda, rayleigh_quotient

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
        "probes": est.diagnostics["probes"],
        "holder": est.holder,
    })


@pytest.mark.parametrize("factor", [0.9, 1.1**2], ids=["below", "above"])
def test_iterate_fixed_lambda(benchmark, factor):
    lam = factor * ORACLE[(3, 2)]
    res = benchmark(iterate_fixed_lambda, lam, 1.0, 3, 2)
    benchmark.extra_info.update({"lam": lam, "reason": res.reason, "n_iter": res.n_iter})


@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("N, k", [(2, 1), (3, 2), (5, 3)])
def test_certificate_probes(benchmark, monkeypatch, N, k, grid):
    # the arguments the estimate passes its witness check, caught once
    calls = []
    witnesses = eigen._witnesses
    monkeypatch.setattr(eigen, "_witnesses", lambda *args: calls.append(args) or witnesses(*args))
    estimate_lambda1(1.0, N, k, solver_cfg=SolverConfig(grid_size=grid))
    monkeypatch.undo()
    probes, failed = benchmark(eigen._witnesses, *calls[0])
    assert not failed
    benchmark.extra_info.update({"lam": [p["lam"] for p in probes], "c": probes[0]["c"],
                                 "q": probes[1]["q"]})


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
