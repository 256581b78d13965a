"""barrier-field: the per-cell sigma_all loops of geometry and symfun.

Fields come from ellipsoid_field and sphere_field, from 32 to 1024
samples, each verified at 64 depths for every order k listed with it.
The seed sets the scale of each ellipsoid; the collar width, barrier rate
and bounds scale with the curvature, so the work is the same for every
seed.  The spheres have unit radius.

bracket_rel_width and oracle_rel_err here measure how far the sampled
certificate sits above the exact infimum over the closed collar [0, d0]:
the verifiers sample d = d0 i / 64, i >= 1, and on a sphere the infimum
lies at the unsampled edge d -> 0.
"""

from __future__ import annotations

import numpy as np

import checks
from checks import close, require

N_DEPTH = 64
CONVEXITY_SAMPLES = 1024
# (generator, shape, samples, orders): shape is the semi-axes of an
# ellipsoid at scale 1, or the dimension of a sphere.  Besides the 1024-sample
# ellipse, sample counts fall as the per-cell cost rises with N, so most
# verifications cost about the same; the kind medians and the pooled 90th
# percentile then sit inside a cluster of like operations.  The convexity
# checks (strictly_km1_convex, augment_r) run on a 1024-sample field of each
# shape: on ~100 samples they take about a millisecond, and such short calls
# swing far more with the machine's speed than the rest.
FIELDS = (
    ("ellipsoid", (1.0, 0.6), 1024, (2,)),
    ("ellipsoid", (1.0, 0.6), 160, (1, 2)),
    ("ellipsoid", (1.0, 0.8, 0.6), 128, (1, 2, 3)),
    ("sphere", 3, 128, (1, 2, 3)),
    ("sphere", 4, 96, (1, 2, 3, 4)),
    ("sphere", 5, 32, (1, 2, 3, 4, 5)),
)
RATE, COLLAR, LAM, FSUP, USUP = 0.5, 0.25, 0.05, 1.0, 1.0
RTOL = 1e-12


def barrier_params(mu: float, k: int) -> dict:
    """Rate, collar and bounds for curvature scale mu; invariant under dilation."""
    return {"t": RATE * mu, "d0": COLLAR / mu, "lam": LAM * mu ** (2 * k),
            "fsup": FSUP, "usup": USUP / mu**2}


def check_field(field, gen, axes):
    """Curvatures against the closed form; spheres carry 1/R everywhere."""
    if gen == "sphere":
        require(close(field.kappas, 1.0 / axes[0], 1e-14), "sphere curvatures are not 1/R")
        require(close(np.linalg.norm(field.points, axis=1), axes[0], 1e-12),
                "sphere points off the sphere")
        return
    require(close(np.sum(field.points**2 / np.asarray(axes) ** 2, axis=1), 1.0, 1e-12),
            "ellipsoid points off the surface")
    prod_ref, mean_ref = checks.ellipsoid_curvature_invariants(field.points, axes)
    require(close(np.prod(field.kappas, axis=1), prod_ref, 1e-9),
            "ellipsoid Gauss curvature differs from the closed form")
    require(close(np.mean(field.kappas, axis=1), mean_ref, 1e-9),
            "ellipsoid mean curvature differs from the closed form")


def op_list(fields, ctx):
    from khessian import geometry

    ops = []
    for gen, axes, field, wide, orders in fields:
        mu = checks.max_curvature(axes)
        sphere = gen == "sphere"
        for k in orders:
            p = barrier_params(mu, k)
            ops.append(ctx.op("verify_exp_boundary_barrier",
                              _exp_run(geometry, field, k, p), _exp_check(field, k, p, sphere)))
            ops.append(ctx.op("verify_log_boundary_barrier",
                              _log_run(geometry, field, k, p), _log_check(field, k, p, sphere)))
            if k >= 2:
                ops.append(ctx.op("strictly_km1_convex",
                                  lambda f=wide, k=k: geometry.strictly_km1_convex(f, k),
                                  _convex_check(wide, k)))
                ops.append(ctx.op("augment_r",
                                  lambda f=wide, k=k: geometry.augment_r(f, k),
                                  _augment_check(wide, k)))
    return ops


def _exp_run(geometry, field, k, p):
    return lambda: geometry.verify_exp_boundary_barrier(field, k, p["lam"], p["t"], p["d0"],
                                                        n_depth=N_DEPTH)


def _log_run(geometry, field, k, p):
    return lambda: geometry.verify_log_boundary_barrier(field, k, p["fsup"], p["usup"],
                                                        p["t"], p["d0"], n_depth=N_DEPTH)


def exp_check_report(rep, kappas, k, p, acc, sphere):
    """Recompute an exp-barrier report cell by cell; on spheres record the gap."""
    min_sj, margin = checks.exp_barrier_values(
        kappas, k, p["lam"], p["t"], checks.program_depths(p["d0"], N_DEPTH))
    require(close(rep["min_sj"], min_sj, RTOL), f"exp min_sj {rep['min_sj']!r} vs {min_sj!r}")
    require(close(rep["worst_margin"], margin, RTOL, 1e-12 * abs(min_sj)),
            f"exp worst_margin {rep['worst_margin']!r} vs {margin!r}")
    require(rep["passed"] == (min_sj > 0 and margin > 0), "exp verdict")
    if sphere:
        inf, _ = checks.exp_barrier_values(kappas[:1], k, p["lam"], p["t"],
                                           checks.collar_depths(p["d0"]))
        acc.bracket.append((rep["min_sj"] - inf) / inf)


def log_check_report(rep, M, kappas, k, p, acc, sphere):
    ref = checks.log_barrier_values(kappas, k, p["fsup"], p["usup"], p["t"], p["d0"],
                                    checks.program_depths(p["d0"], N_DEPTH))
    for key in ("beta", "M", "min_sj"):
        require(close(rep[key], ref[key], RTOL), f"log {key} {rep[key]!r} vs {ref[key]!r}")
    require(close(M, ref["M"], RTOL), "log amplitude")
    require(close(rep["worst_margin"], ref["worst_margin"], RTOL, 1e-12 * ref["min_sj"]),
            f"log worst_margin {rep['worst_margin']!r} vs {ref['worst_margin']!r}")
    if sphere:
        inf = checks.log_barrier_values(kappas[:1], k, p["fsup"], p["usup"], p["t"], p["d0"],
                                        checks.collar_depths(p["d0"]))["beta"]
        acc.oracle.append((rep["beta"] - inf) / inf)


def _exp_check(field, k, p, sphere):
    return lambda rep, acc: exp_check_report(rep, field.kappas, k, p, acc, sphere)


def _log_check(field, k, p, sphere):
    def check(result, acc):
        M, rep = result
        log_check_report(rep, M, field.kappas, k, p, acc, sphere)
    return check


def _convex_check(field, k):
    def check(verdict, acc):
        ref = all(bool(np.all(checks.sigma_def(field.kappas, j) > 0)) for j in range(1, k))
        require(verdict == ref, f"strict {k - 1}-convexity verdict {verdict} vs {ref}")
    return check


def _augment_check(field, k):
    def check(R, acc):
        aug = np.column_stack([field.kappas, np.full(field.kappas.shape[0], R)])
        require(all(bool(np.all(checks.sigma_def(aug, j) > 0)) for j in range(1, k + 1)),
                f"augmented (kappa, {R!r}) not in the k={k} cone")
        # the fields are convex, so every R > 0 is admissible and the search
        # must return its starting seed 1e-6 (1 + max|kappa|)
        require(0 < R <= 2e-6 * (1.0 + np.abs(field.kappas).max()), f"augment_r {R!r} not minimal")
    return check


def _make_field(geometry, gen, shape, n, rng_scale):
    if gen == "sphere":
        # unit spheres: the accuracy gaps take a minimum over the orders
        # j, and S_j scales as R^-2j, so a seeded radius would move them
        return (1.0,) * shape, geometry.sphere_field(1.0, shape, n_samples=n)
    axes = tuple(rng_scale * a for a in shape)
    return axes, geometry.ellipsoid_field(axes, n_samples=n)


def build(seed: int, ctx):
    from khessian import geometry

    rng = np.random.default_rng(seed)
    fields, wide = [], {}
    for gen, shape, n, orders in FIELDS:
        scale = float(rng.uniform(0.8, 1.25))
        axes, field = _make_field(geometry, gen, shape, n, scale)
        ctx.input_checks.append(lambda acc, f=field, g=gen, a=axes: check_field(f, g, a))
        if (gen, shape) not in wide:
            wide[gen, shape] = (field if n == CONVEXITY_SAMPLES else
                                _make_field(geometry, gen, shape, CONVEXITY_SAMPLES, scale)[1])
            ctx.input_checks.append(
                lambda acc, f=wide[gen, shape], g=gen, a=axes: check_field(f, g, a))
        fields.append((gen, axes, field, wide[gen, shape], orders))
    return op_list(fields, ctx)
