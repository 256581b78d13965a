"""khess: batch command line for eigenvalue runs, solves, and verifications.

Each subcommand handler computes and returns a Run; main() alone prints
it and, given an output directory, writes its files and a manifest.json.
The manifest holds the command, its parameters (every parsed argument
but --out), its config (the value of each settings key the command
reads, resolved from defaults, --config and flags, grouped by settings
object; empty for cone, the barrier checks and a --profile probe; a
--config key or flag the run does not read is refused),
its inputs (the sha256 of every input file it read, by path), a sha256
config_hash of those four, the version, the output paths and the wall
time.  Re-running the same command reproduces
the output files byte for byte; wall time lives only in the manifest.
A write that fails removes the files the run had created and exits 1.
Exit codes: 0 success, 1 usage, input or write error, 2 numerical
inconsistency or failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cones import (eigenvalues, in_dual_sigma_k, in_sigma_k, load_matrix_json,
                    membership_slack)
from .dirichlet import (
    SolverConfig,
    SourceTerm,
    solution_residual,
    solve_radial_dirichlet,
)
from .eigen import (
    IterationConfig,
    domain_monotonicity_check,
    estimate_lambda1,
    lower_bound,
    minimum_principle_probe,
    upper_bound,
)
from .errors import (ConvergenceError, DomainError, InconsistencyError, SearchError,
                     check_int, float_range)
from .geometry import (
    load_field_json,
    sphere_field,
    verify_exp_boundary_barrier,
    verify_log_boundary_barrier,
)
from .radial import RadialProfile, hopf_linear_bound, quartic_test_profile
from .symfun import in_gamma_k, sigma_all

def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {text!r}")


def _config_keys(cls) -> dict:
    """--config key -> converter for each field of the settings dataclass cls:
    _parse_bool for a bool default, float for a None default, else the
    type of the default."""
    return {f.name: _parse_bool if isinstance(f.default, bool)
            else float if f.default is None else type(f.default)
            for f in fields(cls)}


_SOLVER_FIELDS = _config_keys(SolverConfig)
_ITER_FIELDS = _config_keys(IterationConfig)
# the eigen engine reads the grid and the bracket width, a solve the SolverConfig keys
_ENGINE_KEYS = ("grid_size", "graded", "bisect_tol")
_SOLVE_KEYS = tuple(_SOLVER_FIELDS)


def read_config(path: str, reads, command: str) -> dict:
    """key=value config file; # comments and blank lines are skipped.

    A key of SolverConfig or IterationConfig that is not in reads, the
    keys the command reads, is refused as an unknown key is."""
    overrides = {}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        val = val.strip().strip("\"'")
        conv = _SOLVER_FIELDS.get(key) or _ITER_FIELDS.get(key)
        if conv is None:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        if key not in reads:
            raise DomainError(f"{path}:{lineno}: config key {key!r} is not read by "
                              f"khess {command}")
        try:
            overrides[key] = conv(val)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return overrides


def resolve_configs(args, reads) -> tuple:
    """(SolverConfig, IterationConfig) from defaults, then --config file
    entries, then explicit flags; reads names the keys the command reads,
    and --grid is refused where grid_size is not one of them."""
    overrides = (read_config(args.config, reads, _command(args))
                 if getattr(args, "config", None) else {})
    solver_kw = {k: v for k, v in overrides.items() if k in _SOLVER_FIELDS}
    iter_kw = {k: v for k, v in overrides.items() if k in _ITER_FIELDS}
    if getattr(args, "grid", None) is not None:
        if "grid_size" not in reads:
            raise DomainError(f"--grid is not read by this khess {_command(args)} run")
        solver_kw["grid_size"] = args.grid
    if getattr(args, "bisect_tol", None) is not None:
        iter_kw["bisect_tol"] = args.bisect_tol
    return SolverConfig(**solver_kw), IterationConfig(**iter_kw)


def _recorded(reads, solver_cfg, iter_cfg) -> dict:
    """The manifest's config: {settings name: {key: value}} for each key in
    reads, defaults included; a settings object with no such key is left out."""
    config: dict = {}
    for key in reads:
        name, cfg = (("solver", solver_cfg) if key in _SOLVER_FIELDS
                     else ("iteration", iter_cfg))
        config.setdefault(name, {})[key] = getattr(cfg, key)
    return config


def _command(args) -> str:
    """The subcommand of args, with its check for verify: "verify bounds"."""
    return " ".join(filter(None, (args.command, getattr(args, "check", None))))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return str(obj)


def _write_json(path: Path, payload: dict) -> None:
    # one write of the whole text; dump would write it chunk by chunk
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _input_hashes(args) -> dict:
    """{path: sha256 of its bytes} for each input file the run of args read:
    --config, --matrix, --field, --profile and a --source CSV."""
    paths = [getattr(args, name, None) for name in ("config", "matrix", "field", "profile")]
    source = getattr(args, "source", None)
    if source is not None and not source.startswith(("const:", "poly:")):
        paths.append(source.removeprefix("file:"))
    hashes = {}
    for path in filter(None, paths):
        try:
            hashes[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError as exc:
            raise DomainError(f"cannot read the input file {path}: {exc}") from exc
    return hashes


def write_manifest(out_dir: Path, command: str, parameters: dict,
                   config: dict, inputs: dict, outputs: list, t0: float) -> Path:
    identity = {"command": command, "parameters": parameters, "config": config,
                "inputs": inputs}
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)
    manifest = {
        "command": command,
        "parameters": parameters,
        "config": config,
        "inputs": inputs,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_time_s": time.perf_counter() - t0,
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _out_dir(path: str) -> tuple:
    """Create the output directory.

    Returns it and the directories this call made, deepest first.
    """
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot use {out} as the output directory: {exc}") from exc
    return out, made


@dataclass
class Run:
    """What a subcommand computed: its output files (name -> a dict written
    as JSON, or a callable that writes the file at a path), its summary
    lines and the verdict of a verify check.
    """

    outputs: dict
    lines: list
    passed: Optional[bool] = None


def cmd_eigen(args, solver_cfg, iter_cfg) -> Run:
    est = estimate_lambda1(args.radius, args.dim, args.order, iter_cfg, solver_cfg)
    profile_name = f"eigenfunction.{args.format}"
    return Run(
        outputs={"estimate.json": est.to_json_dict(profile_ref=profile_name),
                 profile_name: getattr(est.eigenfunction, f"save_{args.format}")},
        lines=[f"lambda_best = {est.lambda_best!r}",
               f"bracket     [{est.lambda_lo!r}, {est.lambda_hi!r}]",
               f"bounds      [{est.bounds['lower']!r}, {est.bounds['upper']!r}]",
               f"rayleigh    {est.rayleigh!r}",
               f"residual_max {est.residual_max!r}"],
    )


def cmd_solve(args, solver_cfg, _) -> Run:
    src = SourceTerm.parse(args.source)
    profile = solve_radial_dirichlet(src, args.radius, args.dim, args.order,
                                     solver_cfg)
    residual = solution_residual(profile, src)
    report = {
        "N": args.dim,
        "k": args.order,
        "R": args.radius,
        "source": args.source,
        "grid_size": profile.r.size - 1,
        "residual": residual,
        "tol_residual": solver_cfg.tol_residual,
        "sup_norm": profile.sup_norm,
        "profile_ref": "profile.csv",
    }
    return Run(
        outputs={"profile.csv": profile.save_csv, "solve.json": report},
        lines=[f"residual = {residual!r} (tol {solver_cfg.tol_residual!r})",
               f"sup norm = {profile.sup_norm!r}"],
    )


def cmd_cone(args, *_) -> Run:
    k = args.order
    if (args.matrix is None) == (args.lam_values is None):
        raise DomainError("provide exactly one of --matrix or --lambda")
    if args.matrix is not None:
        a = load_matrix_json(args.matrix)
        vals, subject = eigenvalues(a), f"matrix {args.matrix}"
    else:
        try:
            vals = np.array([float(t) for t in args.lam_values.split(",") if t.strip()])
        except ValueError as exc:
            raise DomainError(f"bad --lambda list {args.lam_values!r}") from exc
        if vals.size == 0:
            raise DomainError("empty --lambda list")
        a, subject = None, "eigenvalue list"
    check_int("order k", k, 1, vals.size)
    overflow = f"sigma_j of the {subject} or the cone slack overflows a float"
    with float_range(overflow):
        sig = sigma_all(np.sort(vals))
        slack = 0.0 if a is None else membership_slack(a, k)
    if not np.isfinite(slack):  # its norm is a dot product, which need not flag it
        raise DomainError(overflow)
    if a is None:
        verdicts = {"in_gamma_k": in_gamma_k(vals, k, strict=True),
                    "in_gamma_k_closed": in_gamma_k(vals, k, strict=False)}
    else:
        verdicts = {"in_sigma_k": in_sigma_k(a, k, strict=False),
                    "in_sigma_k_open": in_sigma_k(a, k, strict=True),
                    "in_dual_sigma_k": in_dual_sigma_k(a, k)}
    report = {"k": k, "eigenvalues": np.sort(vals), "sigma": sig[1:],
              "verdicts": verdicts}
    return Run(
        outputs={"cone.json": report},
        lines=[f"{subject}, k = {k}",
               *(f"sigma_{j} = {float(sig[j])!r}" for j in range(1, vals.size + 1)),
               *(f"{name}: {bool(verdict)}" for name, verdict in verdicts.items())],
    )


def _load_field(args):
    if (args.field is None) == (args.sphere is None):
        raise DomainError("provide exactly one of --field or --sphere")
    if args.sphere is not None:
        if args.samples is None:
            args.samples = 32  # the manifest records the count used
        return sphere_field(args.sphere, args.dim, n_samples=args.samples)
    if args.samples is not None:
        raise DomainError("--samples is read only with --sphere")
    field = load_field_json(args.field)
    if field.ambient_dim != args.dim:
        raise DomainError(f"--dim {args.dim} is not the field's dimension {field.ambient_dim}")
    return field


def cmd_bounds(args, solver_cfg, iter_cfg) -> Run:
    est = estimate_lambda1(args.radius, args.dim, args.order, iter_cfg, solver_cfg)
    lb, ub = est.bounds["lower"], est.bounds["upper"]
    report = est.to_json_dict()
    report["passed"] = lb <= est.lambda_best <= ub
    return Run({"report.json": report},
               [f"{lb!r} <= lambda_hat = {est.lambda_best!r} <= {ub!r}"],
               passed=report["passed"])


def cmd_monotone(args, solver_cfg, iter_cfg) -> Run:
    report = domain_monotonicity_check(args.dim, args.order, args.r1, args.r2,
                                       iter_cfg, solver_cfg)
    line = (f"lambda({report['R_big']!r}) = {report['lambda_big']!r} "
            f"vs lambda({report['R_small']!r}) = {report['lambda_small']!r}")
    return Run({"report.json": report}, [line], passed=report["passed"])


def cmd_hopf(args, solver_cfg, _) -> Run:
    profile = solve_radial_dirichlet(SourceTerm.constant(1.0), args.radius,
                                     args.dim, args.order, solver_cfg)
    report = hopf_linear_bound(profile)
    line = (f"h <= -C1 (R - r) on [{report['r_in']!r}, R] with "
            f"C1 = {report['C1']!r}, worst margin {report['worst_margin']!r}")
    return Run({"report.json": report}, [line], passed=report["passed"])


def cmd_minprinciple(args, solver_cfg, _) -> Run:
    if args.quartic == (args.profile is not None):
        raise DomainError("provide exactly one of --quartic or --profile")
    if args.quartic:
        profile = quartic_test_profile(args.radius, args.dim, args.order,
                                       solver_cfg.grid_size)
    else:
        profile = RadialProfile.load_csv(args.profile, args.dim, args.order)
        if profile.R != args.radius:
            raise DomainError(f"--radius {args.radius!r} is not the profile's R {profile.R!r}")
    lam = args.lam if args.lam is not None else upper_bound(
        args.dim, args.order, profile.R)
    report = minimum_principle_probe(profile, lam)
    line = (f"supersolution at lam = {lam!r}: "
            f"{report['supersolution_everywhere']}, interior min "
            f"{report['interior_min']!r} at r = {report['argmin_r']!r}")
    return Run({"report.json": report}, [line],
               passed=report["violates_minimum_principle"])


def cmd_barrier_exp(args, *_) -> Run:
    report = verify_exp_boundary_barrier(_load_field(args), args.order, args.lam,
                                         args.t, args.d0, n_depth=args.depth)
    line = (f"min S_j margin {report['worst_margin']!r} over "
            f"{report['samples']} samples x {report['depth_nodes']} depths")
    return Run({"report.json": report}, [line], passed=report["passed"])


def cmd_barrier_log(args, *_) -> Run:
    M, report = verify_log_boundary_barrier(_load_field(args), args.order,
                                            args.fsup, args.usup, args.t,
                                            args.d0, n_depth=args.depth)
    line = f"amplitude M = {M!r}, beta = {report['beta']!r}"
    return Run({"report.json": report}, [line], passed=report["passed"])


def _add_problem_flags(p, radius=True):
    p.add_argument("--dim", type=int, required=True, help="ambient dimension N")
    p.add_argument("--order", type=int, required=True, help="Hessian order k")
    if radius:
        p.add_argument("--radius", type=float, required=True, help="ball radius R")


def _add_settings(p, reads):
    """Declare the settings keys the command of p reads, the one source both
    for refusing a --config key and for the manifest's config: store reads
    as args.reads, add --grid and --config, and --bisect-tol when reads
    holds bisect_tol."""
    p.set_defaults(reads=reads)
    p.add_argument("--grid", type=int, default=None, help="grid intervals")
    p.add_argument("--config", default=None,
                   help="key=value file of the SolverConfig/IterationConfig "
                        "fields the command reads")
    if "bisect_tol" in reads:
        p.add_argument("--bisect-tol", type=float, default=None, dest="bisect_tol",
                       help="widest eigenvalue bracket accepted (default: 1e-10 "
                            "times its upper end); rounding floors it near "
                            "4k*size*2.2e-16 times the eigenvalue, so fine grids "
                            "need a larger value")


def _add_field_flags(p):
    p.add_argument("--field", default=None, help="curvature field JSON")
    p.add_argument("--sphere", type=float, default=None,
                   help="use a sphere of this radius instead of --field")
    p.add_argument("--samples", type=int, default=None,
                   help="boundary samples for --sphere (default: 32)")
    p.add_argument("--t", type=float, required=True, help="barrier rate")
    p.add_argument("--d0", type=float, required=True, help="collar depth")
    p.add_argument("--depth", type=int, default=64, help="depth grid nodes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The khess argument parser, built once per process: parsing never
    changes it, and each parse_args call returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="khess",
        description="k-Hessian principal eigenvalue toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="estimate the principal eigenvalue")
    _add_problem_flags(p)
    _add_settings(p, _ENGINE_KEYS)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="eigenfunction file format")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("solve", help="solve the radial Dirichlet problem")
    _add_problem_flags(p)
    _add_settings(p, _SOLVE_KEYS)
    p.add_argument("--source", required=True,
                   help="const:<c>, poly:<c0,c1,...>, or file:<csv>")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cone", help="cone membership for a matrix or spectrum")
    p.add_argument("--matrix", default=None, help='JSON {"n": N, "entries": [...]}')
    p.add_argument("--lambda", dest="lam_values", default=None,
                   help="comma-separated eigenvalues")
    p.add_argument("--order", type=int, required=True, help="Hessian order k")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("verify", help="run a verification harness")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("bounds", help="analytic bounds vs measured estimate")
    _add_problem_flags(v)
    _add_settings(v, _ENGINE_KEYS)
    v.set_defaults(func=cmd_bounds)

    v = vsub.add_parser("monotone", help="domain monotonicity on nested balls")
    _add_problem_flags(v, radius=False)
    v.add_argument("--r1", type=float, required=True, help="radius of one ball")
    v.add_argument("--r2", type=float, required=True,
                   help="radius of the other ball, distinct from --r1")
    _add_settings(v, _ENGINE_KEYS)
    v.set_defaults(func=cmd_monotone)

    v = vsub.add_parser("hopf", help="linear boundary decay of the f=1 solve")
    _add_problem_flags(v)
    _add_settings(v, _SOLVE_KEYS)
    v.set_defaults(func=cmd_hopf)

    v = vsub.add_parser("minprinciple",
                        help="supersolution with a negative interior minimum")
    _add_problem_flags(v)
    # only the quartic is built on a grid: main reads nothing for --profile
    _add_settings(v, ("grid_size",))
    v.add_argument("--quartic", action="store_true",
                   help="use the built-in quartic test profile")
    v.add_argument("--profile", default=None, help="profile CSV to probe")
    v.add_argument("--lam", type=float, default=None,
                   help="eigenvalue candidate (default: 4^k C(N,k) R^-2k)")
    v.set_defaults(func=cmd_minprinciple)

    v = vsub.add_parser("barrier-exp", help="exponential boundary barrier")
    _add_problem_flags(v, radius=False)
    v.add_argument("--lam", type=float, required=True,
                   help="lam of the check S_k(D^2 phi) > lam |phi|^k")
    _add_field_flags(v)
    v.set_defaults(func=cmd_barrier_exp)

    v = vsub.add_parser("barrier-log", help="logarithmic boundary barrier")
    _add_problem_flags(v, radius=False)
    v.add_argument("--fsup", type=float, required=True,
                   help="sup f: the barrier's S_k stays >= it over the collar")
    v.add_argument("--usup", type=float, required=True,
                   help="sup |u|: M log(1 + t d0) must reach it")
    _add_field_flags(v)
    v.set_defaults(func=cmd_barrier_log)

    for v in vsub.choices.values():
        v.add_argument("--out", default=None, help="optional output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    t0 = time.perf_counter()
    made = []
    try:
        # resolve the output directory before any computation, so a bad
        # --out costs no run
        if args.out is not None:
            args.out, made = _out_dir(args.out)
        # cone and the barrier checks read no settings, nor does --profile
        reads = (() if getattr(args, "profile", None) is not None
                 else getattr(args, "reads", ()))
        solver_cfg, iter_cfg = resolve_configs(args, reads)
        run = args.func(args, solver_cfg, iter_cfg)
        for line in run.lines:
            print(line)
        if run.passed is not None:
            print(f"{args.check}: {'PASS' if run.passed else 'FAIL'}")
        if args.out is not None:
            params = {k: v for k, v in vars(args).items() if k not in ("func", "out", "reads")}
            config = _recorded(reads, solver_cfg, iter_cfg)
            inputs = _input_hashes(args)
            paths = [args.out / name for name in run.outputs]
            # a failed write takes back the files this run created, never
            # one that was there before it
            fresh = [p for p in (*paths, args.out / "manifest.json") if not p.exists()]
            try:
                for path, payload in zip(paths, run.outputs.values()):
                    if callable(payload):
                        payload(path)
                    else:
                        _write_json(path, payload)
                manifest = write_manifest(args.out, _command(args), params, config, inputs,
                                          paths, t0)
            except OSError as exc:
                for path in fresh:
                    with contextlib.suppress(OSError):
                        path.unlink(missing_ok=True)
                raise DomainError(f"cannot write the outputs: {exc}") from exc
            print(f"wrote {', '.join(map(str, paths))}, {manifest}")
        return 2 if run.passed is False else 0
    except (DomainError, MemoryError) as exc:
        # numpy raises MemoryError at once for an array too large, e.g. --grid 1e18
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except (InconsistencyError, SearchError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        if exc.trace:
            print(json.dumps(exc.trace, sort_keys=True, default=_jsonable),
                  file=sys.stderr)
        code = 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        code = 2
    # a run that fails leaves no empty directory of its own behind
    for d in made:
        try:
            d.rmdir()
        except OSError:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
