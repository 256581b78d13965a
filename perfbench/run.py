#!/usr/bin/env python3
"""Seeded, oracle-checked benchmark for khessian.

    python3 perfbench/run.py --workload eigen-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Load is a closed loop: one client in this process runs a workload's
operations back to back, in whole rounds, until the timed work reaches
--seconds.  Every operation's output is checked against a computation made
apart from the program (checks.py, oracle.py) outside the timed region.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end with --trace 0 and per-layer with
--trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("eigen-sweep", "barrier-field", "cli-batch")
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_gmean_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "bracket_rel_width": "1", "oracle_rel_err": "1",
}
PER_LAYER = {
    "symfun.sigma_all.calls": "count",
    "symfun.sigma_all.self_ms": "ms",
    "symfun.in_gamma_k.calls": "count",
    "cones.in_sigma_k.calls": "count",
    "cones.in_sigma_k.self_ms": "ms",
    "radial.s_k_on_profile.self_ms": "ms",
    "radial.save_csv.ms": "ms",
    "dirichlet.first_integral_solve.calls": "count",
    "dirichlet.first_integral_solve.us_per_call": "us",
    "dirichlet.first_integral_solve.self_ms": "ms",
    "dirichlet.solve_radial_dirichlet.ms": "ms",
    "dirichlet.grid_refinements": "count",
    "dirichlet.annulus_solve.ms": "ms",
    "dirichlet.holder_seminorm.ms": "ms",
    "dirichlet.holder_seminorm.bytes": "B",
    "eigen.estimate_lambda1.ms": "ms",
    "eigen.probes": "count",
    "eigen.probe_solves": "count",
    "eigen.polish_solves": "count",
    "eigen.decided_solve_ratio": "1",
    "eigen.rayleigh_quotient.ms": "ms",
    "eigen.domain_monotonicity_check.ms": "ms",
    "eigen.minimum_principle_probe.ms": "ms",
    "geometry.verify_exp_boundary_barrier.ms": "ms",
    "geometry.verify_log_boundary_barrier.ms": "ms",
    "geometry.cells": "count",
    "geometry.us_per_cell": "us",
    "geometry.augment_r.ms": "ms",
    "geometry.ellipsoid_field.ms": "ms",
    "geometry.load_field_json.ms": "ms",
    **{f"cli.main.{sub}.ms": "ms" for sub in (
        "eigen", "solve", "cone", "verify-hopf", "verify-minprinciple",
        "verify-barrier-exp", "verify-barrier-log")},
    "cli.self_ms": "ms",
    "cli.write_manifest.ms": "ms",
    "cli.bytes_written": "B",
    "import_s": "s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class Op:
    """One operation: `run` is timed, `prepare` and `check` are not."""

    def __init__(self, kind, run, check, expect_fail=False, prepare=None):
        self.kind, self.run, self.check = kind, run, check
        self.expect_fail, self.prepare = expect_fail, prepare


class CliResult:
    def __init__(self, code, stdout, stderr, out_dir):
        self.code, self.stdout, self.stderr, self.out_dir = code, stdout, stderr, out_dir

    def json(self, name):
        with open(self.out_dir / name) as fh:
            return json.load(fh)

    def csv(self, name):
        return np.genfromtxt(self.out_dir / name, delimiter=",", names=True)

    def files(self) -> dict:
        if self.out_dir is None or not self.out_dir.exists():
            return {}
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())
                if p.name != "manifest.json"}


class Acc:
    """What checks accumulate across a run: accuracy values and layer counts."""

    def __init__(self):
        self.table = oracle.load_table()
        self.bracket: list = []
        self.oracle: list = []
        self.first = True  # first round of the run: CLI ops are also rerun
        self.tracer = None

    def count(self, name, value=1.0):
        if self.tracer is not None:
            self.tracer.count(name, value)


class Context:
    """Builds Op objects for a workload; owns the output directories."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.input_checks: list = []

    def op(self, kind, run, check, expect_fail=False):
        return Op(kind, run, check, expect_fail)

    def cli_op(self, kind, argv, check, out=True):
        from khessian import cli

        work = self.out_dir / "cli"
        target = work / "a" if out else None
        full = argv + (["--out", str(target)] if out else [])

        def call(args):
            so, se = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                code = cli.main(args)
            return code, so.getvalue(), se.getvalue()

        def prepare():
            shutil.rmtree(work, ignore_errors=True)

        def run():
            return CliResult(*call(full), target)

        def check_all(result, acc):
            require(result.code == 0,
                    f"khess {' '.join(argv)} exited {result.code}: {result.stderr.strip()}")
            files = result.files()
            acc.count("cli.bytes_written", sum(len(b) for b in files.values()))
            if acc.first:
                twin = work / "b" if out else None
                again = CliResult(*call(argv + (["--out", str(twin)] if out else [])), twin)
                require(again.files() == files, f"khess {argv[0]}: rerun outputs differ")
                if not out:
                    require(again.stdout == result.stdout, f"khess {argv[0]}: rerun output differs")
            check(result, acc)

        return Op(kind, run, check_all, prepare=prepare)


def build_workload(name: str, seed: int, ctx: Context) -> list:
    if name == "eigen-sweep":
        import eigen_sweep as mod
    elif name == "barrier-field":
        import barrier_field as mod
    else:
        import cli_batch as mod
    return mod.build(seed, ctx)


def run_rounds(ops, seconds, acc, tracer=None) -> dict:
    """Whole rounds of ops until the timed work reaches `seconds`."""
    lat = defaultdict(list)
    timed = 0.0
    rounds = attempted = failed = 0
    unexpected: list = []
    while rounds == 0 or timed < seconds:
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.begin_op()
            err = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op; keep measuring
                err = exc
            dt = time.perf_counter() - t0
            timed += dt
            lat[op.kind].append(dt)
            attempted += 1
            if err is None:
                try:
                    op.check(result, acc)
                except Exception as exc:  # CheckFailed, or output too malformed to check
                    err = exc
            if err is not None:
                failed += 1
                if not op.expect_fail:
                    unexpected.append(f"{op.kind}: {type(err).__name__}: {err}")
        rounds += 1
        acc.first = False
    return {"lat": lat, "timed": timed, "rounds": rounds, "attempted": attempted,
            "failed": failed, "unexpected": unexpected}


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing khessian."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import khessian"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(name: str, seed: int, out_dir: Path) -> tuple:
    """Build the inputs SETUP_REPEATS times; returns (ops, ctx, median build s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        ctx = Context(out_dir)
        t0 = time.perf_counter()
        ops = build_workload(name, seed, ctx)
        times.append(time.perf_counter() - t0)
    return ops, ctx, statistics.median(times)


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if len(values) else 0.0


def end_to_end(res, setup_s, acc) -> dict:
    pooled = [x for xs in res["lat"].values() for x in xs]
    return {
        "setup_s": setup_s,
        "ops_per_s": res["attempted"] / res["timed"],
        "op_gmean_ms": checks.geometric_mean(median_ms(xs) for xs in res["lat"].values()),
        "op_p90_ms": 1e3 * statistics.quantiles(pooled, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bracket_rel_width": checks.geometric_mean(acc.bracket),
        "oracle_rel_err": checks.geometric_mean(acc.oracle),
    }


def per_layer(spans, tracer, rounds, import_s, untraced, traced) -> dict:
    c = tracer.counts
    fis = spans.durations("dirichlet.first_integral_solve")
    polish = spans.calls("dirichlet.first_integral_solve", under="eigen.estimate_lambda1")
    inner = c["eigen.probe_solves"] + polish
    cells = c["geometry.cells"]
    barrier = (spans.durations("geometry.verify_exp_boundary_barrier").sum()
               + spans.durations("geometry.verify_log_boundary_barrier").sum())
    out = {
        "symfun.sigma_all.calls": spans.calls("symfun.sigma_all") / rounds,
        "symfun.sigma_all.self_ms": 1e3 * spans.self_total("symfun.sigma_all") / rounds,
        "symfun.in_gamma_k.calls": spans.calls("symfun.in_gamma_k") / rounds,
        "cones.in_sigma_k.calls": spans.calls("cones.in_sigma_k") / rounds,
        "cones.in_sigma_k.self_ms": 1e3 * spans.self_total("cones.in_sigma_k") / rounds,
        "radial.s_k_on_profile.self_ms": 1e3 * spans.self_total("radial.s_k_on_profile") / rounds,
        "radial.save_csv.ms": median_ms(spans.durations("radial.save_csv")),
        "dirichlet.first_integral_solve.calls": fis.size / rounds,
        "dirichlet.first_integral_solve.us_per_call": 1e6 * fis.mean() if fis.size else 0.0,
        "dirichlet.first_integral_solve.self_ms":
            1e3 * spans.self_total("dirichlet.first_integral_solve") / rounds,
        "dirichlet.solve_radial_dirichlet.ms":
            median_ms(spans.durations("dirichlet.solve_radial_dirichlet")),
        "dirichlet.grid_refinements": c["dirichlet.grid_refinements"] / rounds,
        "dirichlet.annulus_solve.ms": median_ms(spans.durations("dirichlet.annulus_solve")),
        "dirichlet.holder_seminorm.ms": median_ms(spans.durations("dirichlet.holder_seminorm")),
        "dirichlet.holder_seminorm.bytes": c["dirichlet.holder_seminorm.bytes"],
        "eigen.estimate_lambda1.ms": median_ms(spans.durations("eigen.estimate_lambda1")),
        "eigen.probes": c["eigen.probes"] / rounds,
        "eigen.probe_solves": c["eigen.probe_solves"] / rounds,
        "eigen.polish_solves": polish / rounds,
        "eigen.decided_solve_ratio": c["eigen.decided_solves"] / inner if inner else 0.0,
        "eigen.rayleigh_quotient.ms": median_ms(spans.durations("eigen.rayleigh_quotient")),
        "eigen.domain_monotonicity_check.ms":
            median_ms(spans.durations("eigen.domain_monotonicity_check")),
        "eigen.minimum_principle_probe.ms":
            median_ms(spans.durations("eigen.minimum_principle_probe")),
        "geometry.verify_exp_boundary_barrier.ms":
            median_ms(spans.durations("geometry.verify_exp_boundary_barrier")),
        "geometry.verify_log_boundary_barrier.ms":
            median_ms(spans.durations("geometry.verify_log_boundary_barrier")),
        "geometry.cells": cells / rounds,
        "geometry.us_per_cell": 1e6 * barrier / cells if cells else 0.0,
        "geometry.augment_r.ms": median_ms(spans.durations("geometry.augment_r")),
        "geometry.ellipsoid_field.ms": median_ms(spans.durations("geometry.ellipsoid_field")),
        "geometry.load_field_json.ms": median_ms(spans.durations("geometry.load_field_json")),
        "cli.self_ms": 1e3 * spans.self_total("cli.main.") / rounds,
        "cli.write_manifest.ms": median_ms(spans.durations("cli.write_manifest")),
        "cli.bytes_written": c["cli.bytes_written"] / rounds,
        "import_s": import_s,
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced,
    }
    for name in PER_LAYER:
        if name.startswith("cli.main."):
            out[name] = median_ms(spans.durations(name[: -len(".ms")]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = OUT / f"{name}-{seed}-{'trace' if trace else 'plain'}"
    import_s = import_seconds()
    ops, ctx, build_s = setup(name, seed, out_dir)
    acc = Acc()
    bad_inputs = []
    for fn in ctx.input_checks:
        try:
            fn(acc)
        except CheckFailed as exc:
            bad_inputs.append(f"input: {exc}")
    if not trace:
        res = run_rounds(ops, seconds, acc)
        metrics = end_to_end(res, import_s + build_s, acc)
        units = END_TO_END
    else:
        import tracing

        res_plain = run_rounds(ops, seconds / 2, acc)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            acc.tracer = tracer
            ops = build_workload(name, seed, Context(out_dir))
            res = run_rounds(ops, seconds / 2, acc, tracer)
        finally:
            tracer.uninstall()
        spans = tracing.Spans(tracer)
        untraced = res_plain["attempted"] / res_plain["timed"]
        traced = res["attempted"] / res["timed"]
        metrics = per_layer(spans, tracer, res["rounds"], import_s, untraced, traced)
        units = PER_LAYER
        for key in ("attempted", "failed", "unexpected"):
            res[key] = res_plain[key] + res[key]
    shutil.rmtree(out_dir, ignore_errors=True)
    res["unexpected"] += bad_inputs
    for msg in dict.fromkeys(res["unexpected"]):
        print(f"FAILED {msg}", file=sys.stderr)
    return {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "khessian" / "__init__.py").is_file():
        print(f"error: no khessian sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 2
            results[name] = json.loads(lines[-1])
        for name, res in results.items():
            print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
