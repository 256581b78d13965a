"""Per-layer benches for the sigma kernel and the collar barrier verifiers.

Opt-in: the file name does not match pytest's test_*.py pattern, so the
tier-1 command never collects it.  Run it by path:

    PYTHONPATH=src python -m pytest benches/bench_sigma.py --benchmark-json=out.json

Inputs are fixed: 65,536 seeded random spectra of length 4, and three
collar fields verified at 64 depths with the barrier-field parameters of
perfbench (t = 0.5 mu, d0 = 0.25 / mu, lam = 0.05 mu^2k, fsup = 1, usup =
1 / mu^2): the 1024-sample ellipse with semi-axes (1, 0.6) at k = 2, the
128-sample ellipsoid (1, 0.8, 0.6) at k = 3 and the 32-sample unit sphere
in R^5 at k = 5.  Each verifier bench records its certificate values in
extra_info, so a timing is never read without the numbers it produced.
The one-vector bench times the 1-d path; the row-loop bench times one 1-d
sigma_all call per row, the way the verifiers evaluated their cells
before they were batched.
"""

import numpy as np
import pytest

from khessian.geometry import (
    ellipsoid_field,
    sphere_field,
    verify_exp_boundary_barrier,
    verify_log_boundary_barrier,
)
from khessian.symfun import sigma_all

N_DEPTH = 64
# id: (field builder, order k)
COLLARS = {
    "ellipse-1024-k2": (lambda: ellipsoid_field([1.0, 0.6], n_samples=1024), 2),
    "ellipsoid-128-k3": (lambda: ellipsoid_field([1.0, 0.8, 0.6], n_samples=128), 3),
    "sphere5-32-k5": (lambda: sphere_field(1.0, 5, n_samples=32), 5),
}


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(20241018).standard_normal((65536, 4))


@pytest.fixture(scope="module", params=list(COLLARS))
def collar(request):
    make, k = COLLARS[request.param]
    field = make()
    mu = field.mu
    return field, k, {"t": 0.5 * mu, "d0": 0.25 / mu, "lam": 0.05 * mu ** (2 * k),
                      "fsup": 1.0, "usup": 1.0 / mu**2}


def test_sigma_all_batched(benchmark, rows):
    out = benchmark(sigma_all, rows)
    benchmark.extra_info["equal_to_row_loop"] = bool(
        np.array_equal(out, [sigma_all(row) for row in rows]))


def test_sigma_all_one_vector(benchmark, rows):
    # the 1-d path, which cone and eigenvalue checks call once per spectrum
    out = benchmark(sigma_all, rows[0])
    benchmark.extra_info["sigma"] = out.tolist()


def test_sigma_all_row_loop(benchmark, rows):
    benchmark(lambda: [sigma_all(row) for row in rows])


def test_verify_exp(benchmark, collar):
    field, k, p = collar
    report = benchmark(verify_exp_boundary_barrier, field, k, p["lam"], p["t"], p["d0"],
                       n_depth=N_DEPTH)
    benchmark.extra_info.update(
        {key: report[key] for key in ("min_sj", "worst_margin", "passed")})


def test_verify_log(benchmark, collar):
    field, k, p = collar
    _, report = benchmark(verify_log_boundary_barrier, field, k, p["fsup"], p["usup"],
                          p["t"], p["d0"], n_depth=N_DEPTH)
    benchmark.extra_info.update(
        {key: report[key] for key in ("beta", "M", "min_sj", "worst_margin", "passed")})
