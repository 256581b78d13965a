"""Per-layer benches for the radial solve and the minimum-principle probe.

Opt-in: the file name does not match pytest's test_*.py pattern, so the
tier-1 command never collects it.  Run it by path:

    PYTHONPATH=src python -m pytest benches/bench_radial.py --benchmark-json=out.json

Inputs are fixed: the source f = 1 + r^2 on the uniform 513-node grid of
the unit ball at (N, k) = (3, 2) for one first_integral_solve per scheme;
the annulus 0.3 <= r <= 1 with f = 2 and h(0.3) = -0.4 at (3, 2) through
solve_radial_dirichlet on the default 512-interval grid, once per scheme;
and the 513-node quartic on the unit ball at (3, 2) probed just above
its sharp supersolution constant 32 (7/6)^3.  Each bench records what it
computed in extra_info (the annulus error |h(r_in) - h_in|, the probe
verdict), so a timing is never read without the numbers it produced.
"""

import pytest

from khessian.dirichlet import (
    SolverConfig,
    SourceTerm,
    first_integral_solve,
    make_grid,
    solve_radial_dirichlet,
)
from khessian.eigen import minimum_principle_probe
from khessian.radial import quartic_test_profile

N, K = 3, 2
R_IN, H_IN = 0.3, -0.4
# smallest lam for which the (3, 2) quartic on the unit ball is a
# supersolution everywhere, nudged above the tie
LAM_PROBE = 32.0 * (7.0 / 6.0) ** 3 * (1.0 + 1e-6)


@pytest.mark.parametrize("scheme", ["trapezoid", "simpson"])
def test_first_integral_solve(benchmark, scheme):
    r = make_grid(1.0, 512)
    f_nodes = 1.0 + r**2
    h, hp, hpp = benchmark(first_integral_solve, f_nodes, r, N, K, scheme)
    benchmark.extra_info.update({"nodes": int(r.size), "h0": float(h[0])})


@pytest.mark.parametrize("scheme", ["trapezoid", "simpson"])
def test_annulus_solve(benchmark, scheme):
    src = SourceTerm.constant(2.0)
    cfg = SolverConfig(quadrature=scheme)
    prof = benchmark(solve_radial_dirichlet, src, 1.0, N, K, cfg,
                     r_inner=R_IN, inner_value=H_IN)
    benchmark.extra_info.update({"nodes": int(prof.r.size),
                                 "h_in_error": float(abs(prof.h[0] - H_IN))})


def test_minimum_principle_probe(benchmark):
    prof = quartic_test_profile(1.0, N, K, 512)
    report = benchmark(minimum_principle_probe, prof, LAM_PROBE)
    benchmark.extra_info.update(
        {key: report[key] for key in ("supersolution_everywhere", "n_failed_nodes",
                                      "violates_minimum_principle")})
    benchmark.extra_info["nodes"] = int(prof.r.size)
