"""cli-batch: `khess` subcommands through cli.main, one small call at a time.

A round is twenty-one operations of 4-70 ms: solves from const, poly and
file sources at grids 512-4096, cone membership for spectra and matrix
files, the hopf, minprinciple and barrier verifications, and two library
annulus solves (the one dirichlet path with no CLI entry).  The seed sets
radii, sources, spectra and matrices; the operations and grids are fixed.
On the first round each CLI call is run again into a second directory and
its outputs, manifest.json aside, must be byte-identical.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import barrier_field
import checks
from checks import close, require

SOLVES = (  # (source kind, N, k, grid)
    ("const", 2, 1, 512), ("const", 3, 2, 1024), ("const", 5, 3, 4096),
    ("poly", 2, 2, 512), ("poly", 4, 2, 2048),
    ("file", 3, 1, 512), ("file", 3, 3, 1024),
)
SPECTRA = ((3, 2), (5, 3))  # (n, k) for cone --lambda
MATRICES = ((3, 2), (4, 3))  # (n, k) for cone --matrix
HOPF = ((2, 1), (4, 2))
ANNULI = ((2, 1), (3, 2))
FILE_NODES = 65


def _radius(rng) -> float:
    return float(rng.uniform(0.8, 1.25))


def _spectrum(rng, n, k) -> np.ndarray:
    """A spectrum whose sigma_1..sigma_n all keep clear of zero."""
    while True:
        v = rng.normal(0.5, 1.0, n)
        if all(abs(checks.sigma_def(v, j)) > 1e-2 for j in range(1, n + 1)):
            return v


def _check_solve_files(result, acc, N, k, R, grid, f_of_r):
    prof = result.csv("profile.csv")
    rep = result.json("solve.json")
    r, h, hp, hpp = prof["r"], prof["h"], prof["hp"], prof["hpp"]
    require(r.size - 1 >= grid, "solve grid")
    require(rep["residual"] <= rep["tol_residual"], f"solve residual {rep['residual']!r}")
    require(r[0] == 0.0 and close(r[-1], R, 1e-14) and h[-1] == 0.0, "solve boundary values")
    require(bool(np.all(hp >= 0)), "solve profile is not k-convex (h' < 0)")
    f = f_of_r(r)
    sk = checks.radial_s_k(r, hp, hpp, N, k)
    require(close(sk, f, 1e-8, 1e-8), f"S_k from profile.csv columns misses f by "
                                       f"{np.max(np.abs(sk - f)):.3e}")
    return r, h, hp


def _solve_op(ctx, rng, inputs, kind, N, k, grid):
    R = _radius(rng)
    if kind == "const":
        c = math.comb(N, k)
        source = f"const:{c}"
        f_of_r = lambda r: np.full_like(r, c)  # noqa: E731
    elif kind == "poly":
        coef = rng.uniform(0.5, 2.0, 3)
        source = "poly:" + ",".join(repr(float(x)) for x in coef)
        f_of_r = lambda r: coef[0] + coef[1] * r + coef[2] * r**2  # noqa: E731
    else:
        nodes = np.linspace(0.0, R, FILE_NODES)
        amp, freq = rng.uniform(0.2, 0.8), rng.uniform(1.0, 3.0)
        vals = 1.0 + amp * np.sin(freq * nodes) ** 2
        path = inputs / f"source-{N}{k}.csv"
        with open(path, "w") as fh:
            fh.write("r,f\n")
            fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(nodes, vals))
        source = f"file:{path}"
        f_of_r = lambda r: np.interp(r, nodes, vals)  # noqa: E731
    argv = ["solve", "--dim", str(N), "--order", str(k), "--radius", repr(R),
            "--source", source, "--grid", str(grid)]

    def check(result, acc):
        r, h, hp = _check_solve_files(result, acc, N, k, R, grid, f_of_r)
        if kind == "const":
            # S_k(I) = C(N,k): the solution is the paraboloid (r^2 - R^2) / 2
            require(close(h, 0.5 * (r**2 - R**2), 0.0, 1e-12 * R**2), "const solve is not the paraboloid")
        if kind == "poly":
            # first integral with the moment integrated exactly for f = sum c_j r^j
            moment = sum(c * r ** (N + j) / (N + j) for j, c in enumerate(coef))
            ref = ((k / math.comb(N - 1, k - 1)) * moment * np.where(r > 0, r, 1.0) ** (k - N)) ** (1 / k)
            require(close(hp, np.where(r > 0, ref, 0.0), 1e-9, 1e-14), "poly solve h' vs first integral")

    return ctx.cli_op("solve", argv, check)


def _cone_lambda_op(ctx, rng, n, k):
    v = _spectrum(rng, n, k)
    argv = ["cone", "--order", str(k), "--lambda=" + ",".join(repr(float(x)) for x in v)]

    def check(result, acc):
        rep = result.json("cone.json")
        sig = [checks.sigma_def(v, j) for j in range(1, n + 1)]
        require(close(rep["eigenvalues"], np.sort(v), 0.0), "cone eigenvalues")
        require(close(rep["sigma"], sig, 1e-12, 1e-12), "cone sigma_j vs subset sums")
        require(rep["verdicts"]["in_gamma_k"] == all(s > 0 for s in sig[:k]), "in_gamma_k verdict")
        require(rep["verdicts"]["in_gamma_k_closed"] == all(s >= 0 for s in sig[:k]),
                "closed cone verdict")

    return ctx.cli_op("cone", argv, check)


def _cone_matrix_op(ctx, rng, inputs, n, k):
    from khessian import cones

    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(_spectrum(rng, n, k)) @ q.T
    a = 0.5 * (a + a.T)
    path = inputs / f"matrix-{n}{k}.json"
    cones.save_matrix_json(path, a)
    argv = ["cone", "--order", str(k), "--matrix", str(path)]

    def check(result, acc):
        rep = result.json("cone.json")
        sig = [checks.sigma_k_minors(a, j) for j in range(1, n + 1)]
        scale = 1.0 + np.abs(a).max()
        for j, s in enumerate(sig, 1):
            require(abs(rep["sigma"][j - 1] - s) <= 1e-9 * scale**j,
                    f"sigma_{j} {rep['sigma'][j - 1]!r} vs principal minors {s!r}")
        inside = all(s > 0 for s in sig[:k])
        require(rep["verdicts"]["in_sigma_k"] == inside, "in_sigma_k verdict")
        require(rep["verdicts"]["in_sigma_k_open"] == inside, "open cone verdict")
        neg_inside = all((-1) ** j * s > 0 for j, s in enumerate(sig[:k], 1))
        require(rep["verdicts"]["in_dual_sigma_k"] == (not neg_inside), "dual cone verdict")

    return ctx.cli_op("cone", argv, check)


def _hopf_op(ctx, rng, N, k):
    R = _radius(rng)
    argv = ["verify", "hopf", "--dim", str(N), "--order", str(k), "--radius", repr(R)]

    def check(result, acc):
        rep = result.json("report.json")
        a = math.comb(N, k) ** (-1.0 / k)  # f = 1: h = a (r^2 - R^2) / 2
        r_in = 0.5 * R
        m = 1.05 * (N - k) / (k * r_in) + 1.0 / R
        c0 = 0.5 * a * (r_in**2 - R**2) / (math.exp(-m * R) - math.exp(-m * r_in))
        c1 = c0 * m * math.exp(-m * R)
        r = np.linspace(0.0, R, 513)
        r = r[r >= r_in]
        worst = np.min(-c1 * (R - r) - 0.5 * a * (r**2 - R**2))
        require(close([rep["r_in"], rep["m"], rep["C0"], rep["C1"]], [r_in, m, c0, c1], 1e-9),
                f"hopf constants {rep}")
        require(abs(rep["worst_margin"] - worst) <= 1e-9 * c1 * R, "hopf worst margin")
        require(rep["passed"] and worst >= 0, "hopf bound fails")

    return ctx.cli_op("verify-hopf", argv, check)


def _minprinciple_op(ctx, N, k, R, lam):
    argv = ["verify", "minprinciple", "--quartic", "--dim", str(N), "--order", str(k),
            "--radius", repr(R)] + ([] if lam is None else ["--lam", repr(lam)])
    cand = 4.0**k * math.comb(N, k) * R ** (-2 * k) if lam is None else lam

    def check(result, acc):
        m = re.search(r"supersolution at lam = (\S+): (True|False), interior min (\S+) at r = (\S+)",
                      result.stdout)
        require(m is not None, f"minprinciple output: {result.stdout!r}")
        require(close(float(m.group(1)), cand, 1e-15), "minprinciple candidate lam")
        r = np.linspace(0.0, R, 513)
        h = -0.25 * (R**2 - r**2) ** 2
        hp, hpp = r * (R**2 - r**2), R**2 - 3.0 * r**2
        q = np.where(r > 0, hp / np.where(r > 0, r, 1.0), hpp)
        spec = np.column_stack([np.repeat(q[:, None], N - 1, axis=1), hpp])
        sig = [checks.sigma_def(spec, j) for j in range(1, k + 1)]
        slack = 1e-10 * (1.0 + np.abs(spec).sum(axis=1)) ** k
        admissible = np.all([s >= -slack for s in sig], axis=0)
        value = sig[-1] - cand * np.abs(h) ** k
        sup_ok = bool(np.all((value <= slack) | ~admissible))
        require(sup_ok and m.group(2) == "True", "quartic is not a supersolution everywhere")
        require(close(float(m.group(3)), -0.25 * R**4, 1e-12) and float(m.group(4)) == 0.0,
                "quartic interior minimum")

    return ctx.cli_op("verify-minprinciple", argv, check, out=False)


def _barrier_ops(ctx, rng, inputs):
    from khessian import geometry

    ops = []
    # the log verifier makes two passes, so it gets half the samples
    samples = {"exp": 32, "log": 16}
    for kind, N, k in (("exp", 3, 2), ("log", 4, 3)):
        # unit spheres, as in barrier-field: the accuracy gaps are read here
        kappas = np.ones((samples[kind], N - 1))
        ops.append(_barrier_op(ctx, kind, N, k, 1.0, lambda kap=kappas: kap, sphere=True,
                               where=["--sphere", "1.0", "--samples", str(samples[kind])]))
    for kind, shape, k in (("exp", (1.0, 0.6), 2), ("log", (1.0, 0.8, 0.6), 2)):
        axes = tuple(_radius(rng) * a for a in shape)
        path = inputs / f"field-{kind}.json"
        geometry.save_field_json(path, geometry.ellipsoid_field(axes, n_samples=samples[kind]))
        ops.append(_barrier_op(ctx, kind, len(axes), k, checks.max_curvature(axes),
                               lambda path=path: _field_kappas(path), sphere=False,
                               where=["--field", str(path)]))
    return ops


def _field_kappas(path) -> np.ndarray:
    """Curvatures of a field file, read without the program."""
    with open(path) as fh:
        return np.array([row["kappa"] for row in json.load(fh)], dtype=float)


def _barrier_op(ctx, kind, N, k, mu, kappas_of, sphere, where):
    p = barrier_field.barrier_params(mu, k)
    flags = (["--lam", repr(p["lam"])] if kind == "exp"
             else ["--fsup", repr(p["fsup"]), "--usup", repr(p["usup"])])
    argv = (["verify", f"barrier-{kind}", "--dim", str(N), "--order", str(k)] + flags
            + where + ["--t", repr(p["t"]), "--d0", repr(p["d0"])])

    def check(result, acc):
        kap = kappas_of()
        rep = result.json("report.json")
        require(rep["passed"], f"barrier-{kind} verdict")
        if kind == "exp":
            barrier_field.exp_check_report(rep, kap, k, p, acc, sphere)
        else:
            barrier_field.log_check_report(rep, rep["M"], kap, k, p, acc, sphere)

    return ctx.cli_op(f"verify-barrier-{kind}", argv, check)


def _annulus_op(ctx, rng, N, k):
    from khessian import dirichlet

    R = _radius(rng)
    rho = R * float(rng.uniform(0.2, 0.5))
    c = float(rng.uniform(0.5, 2.0))
    a = (c / math.comb(N, k)) ** (1.0 / k)
    # twice the paraboloid's depth at rho: below what the zero-constant
    # branch reaches, so the matching constant exists
    inner = -a * (R**2 - rho**2)
    src = dirichlet.SourceTerm.constant(c)
    cfg = dirichlet.SolverConfig()

    def run():
        return dirichlet.solve_radial_dirichlet(src, R, N, k, cfg, r_inner=rho, inner_value=inner)

    def check(prof, acc):
        require(prof.r[0] == rho and close(prof.r[-1], R, 1e-14), "annulus grid ends")
        require(abs(prof.h[-1]) <= 1e-14 * abs(inner), f"annulus h(R) = {prof.h[-1]!r}")
        require(close(prof.h[0], inner, 1e-9), f"annulus h(rho) = {prof.h[0]!r} vs {inner!r}")
        require(bool(np.all(prof.hp >= 0)), "annulus h' < 0")
        sk = checks.radial_s_k(prof.r, prof.hp, prof.hpp, N, k)
        require(close(sk, c, 1e-8), "annulus S_k differs from the source")

    return ctx.op("annulus_solve", run, check)


def build(seed: int, ctx):
    rng = np.random.default_rng(seed)
    inputs = ctx.out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = [_solve_op(ctx, rng, inputs, *spec) for spec in SOLVES]
    ops += [_cone_lambda_op(ctx, rng, n, k) for n, k in SPECTRA]
    ops += [_cone_matrix_op(ctx, rng, inputs, n, k) for n, k in MATRICES]
    ops += [_hopf_op(ctx, rng, N, k) for N, k in HOPF]
    # N = 2: the default candidate 4^k C(N,k) R^-2k is exactly sharp, with
    # equality at the origin, so R is a power of two to keep that tie exact
    ops.append(_minprinciple_op(ctx, 2, 2, float(rng.choice([0.5, 1.0, 2.0])), None))
    R = _radius(rng)
    ops.append(_minprinciple_op(ctx, 3, 2, R, checks.quartic_sharp_constant(3, 2)
                                * (1 + 1e-6) * R ** (-4)))
    ops += _barrier_ops(ctx, rng, inputs)
    ops += [_annulus_op(ctx, rng, N, k) for N, k in ANNULI]
    return ops
