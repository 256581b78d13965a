"""End-to-end CLI runs, exit codes, manifests, and byte determinism.

Everything goes through main(argv) in process; coarse grids and a loose
bracket tolerance keep each invocation well under a second.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import khessian
import khessian.cli as cli
from khessian.cli import main
from khessian.dirichlet import SolverConfig, SourceTerm, solve_radial_dirichlet
from khessian.eigen import IterationConfig, estimate_lambda1
from khessian.radial import quartic_test_profile
from khessian.cones import save_matrix_json
from khessian.geometry import CurvatureField, ellipsoid_field, save_field_json
from reference import write_json_dump

FAST = ["--grid", "64", "--bisect-tol", "0.1"]


def run(argv):
    return main([str(a) for a in argv])


def test_version_and_help(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    assert run(["eigen", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--radius" in out


def test_every_option_has_help():
    # -h of every command explains each of its options
    def undocumented(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from undocumented(sub)
            elif action.option_strings and not action.help:
                yield f"{parser.prog} {action.option_strings[0]}"

    assert list(undocumented(cli.build_parser())) == []


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["eigen", "--dim", "2", "--radius", "1"]) == 1
    assert run(["nonsense"]) == 1


def test_parser_is_built_once_and_parses_afresh(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    base = ["eigen", "--dim", "2", "--order", "2", "--radius", "1"] + FAST
    assert run(base + ["--no-such-flag"]) == 1
    assert run(["eigen", "--help"]) == 0
    assert run(base + ["--format", "json", "--out", tmp_path / "json"]) == 0
    # the default format again: nothing of the last parse is left over
    assert run(base + ["--out", tmp_path / "csv"]) == 0
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == [
        "eigenfunction.csv", "estimate.json", "manifest.json"]
    man = json.loads((tmp_path / "csv" / "manifest.json").read_text())
    assert man["parameters"]["format"] == "csv"


def test_write_json_matches_the_reference_bytes(tmp_path):
    prof = quartic_test_profile(1.0, 3, 2, 4096)
    payload = {**prof.to_json_dict(), "h": prof.h, "awkward": np.array(
        [-0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0]), "scalar": np.float64(-0.0),
        "count": np.int64(7), "flag": np.bool_(True), "none": None,
        "nested": {"b": [1, 2.5], "a": "text"}, "path": tmp_path}
    cli._write_json(tmp_path / "new.json", payload)
    write_json_dump(tmp_path / "ref.json", payload, cli._jsonable)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_library_and_every_subcommand_run_without_scipy(tmp_path):
    # a fresh interpreter: a Simpson ball solve, an annulus solve, an
    # estimate (its Rayleigh quotient included) and one main() call per
    # subcommand, after which no scipy module may be loaded
    problem = ["--dim", "2", "--order", "2", "--grid", "64"]
    field = ["--sphere", "1", "--samples", "4", "--t", "3", "--d0", "0.1", "--depth", "8"]
    calls = [
        ["eigen", "--radius", "1", *problem, "--bisect-tol", "0.1"],
        ["solve", "--radius", "1", *problem, "--source", "const:3"],
        ["cone", "--order", "2", "--lambda=1.5,-0.25,2"],
        ["verify", "bounds", "--radius", "1", *problem, "--bisect-tol", "0.1"],
        ["verify", "monotone", "--r1", "1", "--r2", "0.8", *problem, "--bisect-tol", "0.1"],
        ["verify", "hopf", "--radius", "1", *problem],
        ["verify", "minprinciple", "--radius", "1", *problem, "--quartic"],
        ["verify", "barrier-exp", "--dim", "2", "--order", "1", "--lam", "1", *field],
        ["verify", "barrier-log", "--dim", "2", "--order", "1", "--fsup", "1", "--usup",
         "1", *field],
    ]
    calls = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(calls)]
    code = (
        "import contextlib, io, json, sys\n"
        "from khessian import SolverConfig, SourceTerm, solve_radial_dirichlet\n"
        "from khessian.cli import main\n"
        "from khessian.eigen import estimate_lambda1\n"
        "f = SourceTerm.polynomial([1.0, 2.0])\n"
        "ball = solve_radial_dirichlet(f, 1.0, 3, 2, SolverConfig(grid_size=64))\n"
        "ring = solve_radial_dirichlet(f, 1.0, 3, 2, SolverConfig(grid_size=64),\n"
        "                              r_inner=0.5, inner_value=-1.0)\n"
        "est = estimate_lambda1(1.0, 3, 2, solver_cfg=SolverConfig(grid_size=64))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'values': [ball.sup_norm, ring.sup_norm,\n"
        "                  est.rayleigh], 'scipy': sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')}))\n"
    )
    src = str(Path(khessian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["scipy"] == []
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 0, 0, 0]
    f = SourceTerm.polynomial([1.0, 2.0])
    cfg = SolverConfig(grid_size=64)
    assert result["values"] == [
        solve_radial_dirichlet(f, 1.0, 3, 2, cfg).sup_norm,
        solve_radial_dirichlet(f, 1.0, 3, 2, cfg, r_inner=0.5, inner_value=-1.0).sup_norm,
        estimate_lambda1(1.0, 3, 2, solver_cfg=cfg).rayleigh]


def test_eigen_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--out", out] + FAST)
    assert code == 0
    printed = capsys.readouterr().out
    assert "lambda_best" in printed and "np.float64" not in printed
    est = json.loads((out / "estimate.json").read_text())
    assert est["N"] == 2 and est["k"] == 1
    assert est["bounds"] == {"lower": 2.0, "upper": 8.0}
    assert 2.0 <= est["lambda_best"] <= 8.0
    assert est["profile_ref"] == "eigenfunction.csv"
    assert (out / "eigenfunction.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "eigen"
    assert len(man["config_hash"]) == 64
    assert any(o.endswith("estimate.json") for o in man["outputs"])
    assert man["wall_time_s"] >= 0.0


def test_eigen_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["eigen", "--dim", "2", "--order", "2", "--radius", "1",
                    "--out", d] + FAST) == 0
    for name in ("estimate.json", "eigenfunction.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    diag = json.loads((a / "estimate.json").read_text())["diagnostics"]
    assert set(diag) == {"probes", "power_solves", "effective_bisect_tol"}
    assert [p["reason"] for p in diag["probes"]] == ["supersolution", "growth"]
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config_hash"] == mb["config_hash"]


@pytest.mark.parametrize("radius", ["1e-4", "1e-5"])
def test_eigen_on_a_small_ball(radius, tmp_path):
    # the witnesses compare solves that scale as R^2 with each other; an
    # absolute fixed-point test once stopped both cross-checks at step 1
    # and exited 2
    out = tmp_path / "small"
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", radius,
                "--out", out]) == 0
    unit = estimate_lambda1(1.0, 2, 1).diagnostics["probes"]
    diag = json.loads((out / "estimate.json").read_text())["diagnostics"]
    assert [p["reason"] for p in diag["probes"]] == ["supersolution", "growth"]
    assert diag["probes"][1]["q"] - 1.0 == pytest.approx(unit[1]["q"] - 1.0, rel=1e-2)


def test_eigen_with_a_loose_bisect_tol(tmp_path, capsys):
    # a probe placed under the midpoint of a wide bracket once sat above
    # lambda_1, ran to n-max and exited 2 with "disagrees with the bracket"
    out = tmp_path / "loose"
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--bisect-tol", "5", "--out", out]) == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["lambda_hi"] - est["lambda_lo"] > 1.0
    assert [p["reason"] for p in est["diagnostics"]["probes"]] == ["supersolution", "growth"]


def test_eigen_below_the_rounding_floor_is_an_input_error(tmp_path, capsys):
    # the default width 1e-10 lambda_hi is below the floor of this grid;
    # it used to exit 2 after 200 solves
    out = tmp_path / "fine"
    assert run(["eigen", "--dim", "6", "--order", "6", "--radius", "1",
                "--grid", "32768", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bracket width ") and err.count("\n") == 1
    assert "rounding floor" in err and "32768" in err
    assert not out.exists()


def test_eigen_json_format(tmp_path):
    out = tmp_path / "j"
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--format", "json", "--out", out] + FAST) == 0
    prof = json.loads((out / "eigenfunction.json").read_text())
    assert len(prof["r"]) == len(prof["h"]) == 65


def test_solve_paraboloid(tmp_path, capsys):
    out = tmp_path / "s"
    code = run(["solve", "--dim", "3", "--order", "2", "--radius", "1",
                "--source", "const:3", "--out", out])
    assert code == 0
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    r, h = rows[:, 0], rows[:, 1]
    np.testing.assert_allclose(h, (r**2 - 1.0) / 2.0, atol=1e-9)
    info = json.loads((out / "solve.json").read_text())
    assert info["residual"] <= 1e-12


def test_solve_negative_source_rejected(tmp_path):
    assert run(["solve", "--dim", "3", "--order", "2", "--radius", "1",
                "--source", "const:-1", "--out", tmp_path]) == 1


@pytest.mark.parametrize("rows", ["0,1\nabc,1\n1,1\n", "0,1\n0.5,abc\n1,1\n"],
                         ids=["node", "sample"])
def test_solve_names_the_unparsable_row_of_a_source_file(rows, tmp_path, capsys):
    # the CSV reader turns "abc" into NaN; a NaN node once passed as ascending
    # and the solve wrote a profile
    bad = tmp_path / "bad.csv"
    bad.write_text("r,f\n" + rows)
    out = tmp_path / "o"
    assert run(["solve", "--dim", "2", "--order", "1", "--radius", "1",
                "--source", f"file:{bad}", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: source file {bad}: sampled source data row 2 "
                   "is not a finite r,f pair\n")
    assert not (out / "profile.csv").exists()


def test_cone_spectrum_and_matrix(tmp_path, capsys):
    assert run(["cone", "--order", "2", "--lambda=-1,1"]) == 0
    out = capsys.readouterr().out
    assert "sigma_1 = 0.0" in out
    assert "in_gamma_k: False" in out and "in_gamma_k_closed: False" in out

    path = tmp_path / "m.json"
    save_matrix_json(path, np.diag([-1.0, 1.0]))
    assert run(["cone", "--order", "2", "--matrix", path]) == 0
    out = capsys.readouterr().out
    assert "in_sigma_k: False" in out and "in_dual_sigma_k: True" in out


@pytest.mark.parametrize("order, values", [
    (1, "0.5,-0.6,0.1"), (1, "0.1,-0.6,0.5"), (2, "-1,1"), (2, "1.5,-0.25,2"),
    (3, "1.5,-0.25,2"), (2, "0.3,0.2,-0.1,-0.1"),
])
def test_cone_verdicts_follow_the_reported_sigma(order, values, tmp_path, capsys):
    # 0.5 - 0.6 + 0.1 rounds to +2.8e-17 in the order given, and to 0 in
    # the ascending order the report uses; the verdicts are read off the
    # same ascending spectrum
    assert run(["cone", "--order", order, f"--lambda={values}", "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "cone.json").read_text())
    sig = rep["sigma"][:order]
    assert rep["verdicts"]["in_gamma_k"] == all(s > 0 for s in sig)
    assert rep["verdicts"]["in_gamma_k_closed"] == all(s >= 0 for s in sig)
    out = capsys.readouterr().out
    assert f"in_gamma_k: {rep['verdicts']['in_gamma_k']}" in out


def test_cone_requires_exactly_one_input(tmp_path):
    assert run(["cone", "--order", "2"]) == 1
    path = tmp_path / "m.json"
    save_matrix_json(path, np.eye(2))
    assert run(["cone", "--order", "2", "--matrix", path, "--lambda=1,1"]) == 1


def test_cone_bad_matrix_files(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["cone", "--order", "2", "--matrix", missing]) == 1
    asym = tmp_path / "asym.json"
    asym.write_text('{"n": 2, "entries": [0.0, 1.0, 0.0, 0.0]}\n')
    assert run(["cone", "--order", "2", "--matrix", asym]) == 1


def test_verify_bounds(capsys):
    assert run(["verify", "bounds", "--dim", "3", "--order", "2",
                "--radius", "1"] + FAST) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "lambda_hat" in out and "np.float64" not in out


def test_verify_monotone(tmp_path, capsys):
    out = tmp_path / "mono"
    assert run(["verify", "monotone", "--dim", "2", "--order", "1",
                "--r1", "1.0", "--r2", "1.5", "--out", out] + FAST) == 0
    assert "PASS" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] and rep["lambda_small"] > rep["lambda_big"]


def test_verify_hopf(capsys):
    assert run(["verify", "hopf", "--dim", "3", "--order", "2",
                "--radius", "1", "--grid", "128"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_minprinciple_quartic(capsys):
    assert run(["verify", "minprinciple", "--quartic", "--dim", "2",
                "--order", "2", "--radius", "1", "--grid", "128"]) == 0
    assert "PASS" in capsys.readouterr().out
    # at (3,2) the default candidate 4^k C(N,k) narrowly misses the
    # supersolution certificate, a numerical-verdict failure, not usage
    assert run(["verify", "minprinciple", "--quartic", "--dim", "3",
                "--order", "2", "--radius", "1", "--grid", "128"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_minprinciple_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "mp"
    assert run(["verify", "minprinciple", "--quartic", "--dim", "2",
                "--order", "2", "--radius", "1", "--grid", "128",
                "--out", out]) == 0
    capsys.readouterr()
    rep = json.loads((out / "report.json").read_text())
    assert rep["violates_minimum_principle"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify minprinciple"
    assert manifest["outputs"] == [str(out / "report.json")]


def test_verify_minprinciple_bad_profile_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,4\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    blank = tmp_path / "blank.csv"
    blank.write_text("\n  \n# r,h,hp,hpp\n")
    for path in (bad, empty, blank, tmp_path / "missing.csv"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["verify", "minprinciple", "--dim", "2", "--order", "1",
                        "--radius", "1", "--profile", path]) == 1
        assert caught == []
        err = capsys.readouterr().err
        # one line, the error message, and nothing else
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "r,h,hp,hpp" in err


def test_verify_minprinciple_needs_exactly_one_profile(tmp_path, capsys):
    prof = tmp_path / "p.csv"
    quartic_test_profile(1.0, 2, 2, 64).save_csv(prof)
    problem = ["verify", "minprinciple", "--dim", "2", "--order", "2", "--radius", "1"]
    for extra in ([], ["--quartic", "--profile", prof]):
        assert run(problem + extra) == 1
        err = capsys.readouterr().err
        assert err == "error: provide exactly one of --quartic or --profile\n"


def test_verify_minprinciple_profile_radius_must_be_its_outer_radius(tmp_path, capsys):
    prof = tmp_path / "p.csv"
    quartic_test_profile(1.0, 2, 2, 64).save_csv(prof)
    problem = ["verify", "minprinciple", "--dim", "2", "--order", "2", "--profile", prof]
    for radius in ("50", "0.999", "nan"):
        assert run(problem + ["--radius", radius]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --radius {float(radius)!r} is not the profile's R 1.0\n"
    assert run(problem + ["--radius", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_minprinciple_profile_reads_no_settings(tmp_path, capsys):
    # only the quartic is built on a grid: a --grid or a grid_size key with
    # --profile was once accepted and recorded although nothing read it
    prof = tmp_path / "p.csv"
    quartic_test_profile(1.0, 2, 2, 64).save_csv(prof)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid_size = 64\n")
    problem = ["verify", "minprinciple", "--dim", "2", "--order", "2", "--radius", "1",
               "--profile", prof]
    for extra, message in (
            (["--grid", "4096"],
             "--grid is not read by this khess verify minprinciple run"),
            (["--config", cfg],
             f"{cfg}:1: config key 'grid_size' is not read by khess verify minprinciple")):
        assert run(problem + extra + ["--out", tmp_path / "bad"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bad").exists()
    assert run(problem + ["--out", tmp_path / "o"]) == 0
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"] == {}


def _write_field(path, kappas) -> None:
    """A field JSON at the origin with the curvatures of each sample in the
    order given."""
    point = [0.0] * (kappas.shape[1] + 1)
    path.write_text(json.dumps([{"point": point, "kappa": kap} for kap in kappas.tolist()]))


# the data flags of each barrier check
_BARRIER_CHECKS = [["barrier-exp", "--lam", "0.01"], ["barrier-log", "--fsup", "1", "--usup", "0.1"]]


@pytest.mark.parametrize("check", _BARRIER_CHECKS, ids=["exp", "log"])
def test_barrier_field_dimension_must_match_dim(check, tmp_path, capsys):
    path = tmp_path / "field.json"
    save_field_json(path, ellipsoid_field([1.0, 0.8, 0.6], n_samples=16))
    argv = ["verify", *check, "--order", "2", "--field", path, "--t", "1", "--d0", "0.1"]
    for dim in ("9", "2"):
        assert run(argv + ["--dim", dim, "--out", tmp_path / dim]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --dim {dim} is not the field's dimension 3\n"
        assert not (tmp_path / dim).exists()
    assert run(argv + ["--dim", "3"]) == 0


@pytest.mark.parametrize("check", _BARRIER_CHECKS, ids=["exp", "log"])
def test_barrier_samples_are_read_only_with_a_sphere(check, tmp_path, capsys):
    # --samples 999 on a 16-sample field once exited 0 and was recorded
    path = tmp_path / "field.json"
    save_field_json(path, ellipsoid_field([1.0, 0.8, 0.6], n_samples=16))
    argv = ["verify", *check, "--dim", "3", "--order", "2", "--t", "1", "--d0", "0.1"]
    assert run(argv + ["--field", path, "--samples", "999", "--out", tmp_path / "bad"]) == 1
    assert capsys.readouterr().err == "error: --samples is read only with --sphere\n"
    assert not (tmp_path / "bad").exists()
    # a sphere keeps its default of 32 samples, in the report and the manifest
    assert run(argv + ["--sphere", "1", "--out", tmp_path / "o"]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["samples"] == 32
    man = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert man["parameters"]["samples"] == 32


@pytest.mark.parametrize("check", _BARRIER_CHECKS, ids=["exp", "log"])
def test_barrier_reports_do_not_depend_on_the_order_of_the_curvatures(check, tmp_path, capsys):
    # each ordering of the three curvature columns gives the same
    # report.json bytes; taken in the order given, these seeded fields
    # read different beta, min_sj or margins
    rng = np.random.default_rng(11)
    for trial in range(6):
        kap = rng.standard_normal((16, 3)) + 1.5
        t, d0 = float(np.max(np.abs(kap))), 0.4 / float(np.max(np.abs(kap)))
        reports = set()
        for perm in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            path = tmp_path / f"f{trial}{''.join(map(str, perm))}.json"
            _write_field(path, kap[:, list(perm)])
            out = tmp_path / f"o{path.stem}"
            code = run(["verify", *check, "--dim", "4", "--order", "3", "--field", path,
                        "--t", repr(t), "--d0", repr(d0), "--out", out])
            # an infeasible log barrier exits 2 with its diagnostics, no report
            report = out / "report.json"
            reports.add((code, report.read_bytes() if report.exists()
                         else capsys.readouterr().err))
        assert len(reports) == 1, trial
    capsys.readouterr()


def test_verify_barrier_exp(capsys):
    assert run(["verify", "barrier-exp", "--dim", "3", "--order", "2",
                "--lam", "1.0", "--sphere", "1.0", "--t", "3.0",
                "--d0", "0.1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_barrier_exp_saddle_field_fails(tmp_path, capsys):
    path = tmp_path / "saddle.json"
    save_field_json(path, CurvatureField(
        points=np.zeros((2, 3)), kappas=np.array([[-5.0, -5.0], [-5.0, -4.0]])
    ))
    assert run(["verify", "barrier-exp", "--dim", "3", "--order", "2",
                "--lam", "1.0", "--field", path, "--t", "3.0",
                "--d0", "0.1"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_barrier_log(tmp_path, capsys):
    out = tmp_path / "log"
    assert run(["verify", "barrier-log", "--dim", "3", "--order", "2",
                "--fsup", "1.0", "--usup", "1.0", "--sphere", "1.0",
                "--t", "3.0", "--d0", "0.1", "--out", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["M"] >= 1.0


def test_verify_barrier_log_infeasible(tmp_path):
    path = tmp_path / "bad.json"
    save_field_json(path, CurvatureField(
        points=np.zeros((1, 3)), kappas=np.array([[-5.0, -5.0]])
    ))
    assert run(["verify", "barrier-log", "--dim", "3", "--order", "2",
                "--fsup", "1.0", "--usup", "1.0", "--field", path,
                "--t", "3.0", "--d0", "0.1"]) == 2


@pytest.mark.parametrize("t, d0", [
    ("1e-200", "1e-200"),  # t d0 underflows to 0: log(1 + t d0) == 0
    ("1e-170", "1e-150"),  # t d0 subnormal: usup / log(1 + t d0) overflows
])
def test_verify_barrier_log_degenerate_collar_is_input_error(t, d0, capsys):
    assert run(["verify", "barrier-log", "--dim", "3", "--order", "2",
                "--fsup", "1", "--usup", "1", "--sphere", "1",
                "--t", t, "--d0", d0]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "Traceback" not in captured.err and "error:" in captured.err


def test_out_naming_a_file_is_input_error(tmp_path, capsys, monkeypatch):
    # the output directory is refused before any computation starts
    def never(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "estimate_lambda1", never)
    monkeypatch.setattr(cli, "solve_radial_dirichlet", never)
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in (["eigen"] + FAST, ["solve", "--source", "const:1"],
                 ["verify", "bounds"] + FAST):
        assert run(argv + ["--dim", "2", "--order", "1", "--radius", "1",
                           "--out", afile]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "output directory" in err
        assert afile.read_text() == ""


def test_non_finite_radius_is_input_error(tmp_path, capsys):
    for radius in ("inf", "nan"):
        for argv in (["eigen"], ["solve", "--source", "const:1"]):
            assert run(argv + ["--dim", "2", "--order", "1", "--radius", radius,
                               "--out", tmp_path / "r"] + FAST[:2]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert f"radius R={radius} must be a real number in (0, inf)" in err
    assert not (tmp_path / "r").exists()


def test_config_file(tmp_path):
    cfg = tmp_path / "khess.cfg"
    cfg.write_text("# coarse run\ngrid_size = 64\nbisect_tol = 0.1\n")
    out = tmp_path / "c"
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", cfg, "--out", out]) == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["lambda_hi"] - est["lambda_lo"] <= 0.1 * 1.0001 * 6.0

    # flags win over the file
    out2 = tmp_path / "c2"
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", cfg, "--grid", "128", "--out", out2]) == 0
    prof = np.loadtxt(out2 / "eigenfunction.csv", delimiter=",", skiprows=1)
    assert prof.shape[0] == 129


def test_config_file_rejects_garbage(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("grid = 64\n")
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", bad_key, "--out", tmp_path]) == 1
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("grid_size = many\n")
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", bad_val, "--out", tmp_path]) == 1


BARRIER_EXP = ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "1.0",
               "--sphere", "1.0", "--t", "3.0", "--d0", "0.1"]


def _config_hash(argv, out):
    assert run(argv + ["--out", out]) in (0, 2)
    return json.loads((out / "manifest.json").read_text())["config_hash"]


@pytest.mark.parametrize("base, one, other", [
    (["verify", "bounds", "--dim", "2", "--order", "1", "--radius", "1",
      "--bisect-tol", "0.1"], ["--grid", "64"], ["--grid", "128"]),
    (["verify", "monotone", "--dim", "2", "--order", "1", "--r1", "1", "--r2", "1.5",
      "--bisect-tol", "0.1"], ["--grid", "64"], ["--grid", "128"]),
    (["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1"],
     ["--grid", "64"], ["--grid", "128"]),
    (BARRIER_EXP, ["--samples", "8"], ["--samples", "16"]),
    (BARRIER_EXP, ["--samples", "8"], ["--samples", "8", "--depth", "4"]),
    (["verify", "minprinciple", "--dim", "2", "--order", "2", "--radius", "1"],
     ["--profile", "PROFILE64"], ["--profile", "PROFILE128"]),
], ids=["bounds-grid", "monotone-grid", "hopf-grid", "barrier-exp-samples",
        "barrier-exp-depth", "minprinciple-profile"])
def test_config_hash_tells_runs_apart(base, one, other, tmp_path, capsys):
    for grid in (64, 128):
        quartic_test_profile(1.0, 2, 2, grid).save_csv(tmp_path / f"PROFILE{grid}")
    one, other = ([tmp_path / a if a.startswith("PROFILE") else a for a in extra]
                  for extra in (one, other))
    first = _config_hash(base + one, tmp_path / "a")
    # the output directory is not part of a run's identity
    assert _config_hash(base + one, tmp_path / "b") == first
    assert _config_hash(base + other, tmp_path / "c") != first


def test_manifest_records_arguments_and_settings(tmp_path, capsys):
    out = tmp_path / "hopf"
    assert run(["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1",
                "--grid", "128", "--out", out]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["parameters"]["grid"] == 128
    assert "out" not in man["parameters"] and "func" not in man["parameters"]
    assert list(man["config"]) == ["solver"]
    assert man["config"]["solver"]["grid_size"] == 128

    out = tmp_path / "exp"
    assert run(BARRIER_EXP + ["--samples", "8", "--depth", "4", "--out", out]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["parameters"]["samples"] == 8 and man["parameters"]["depth"] == 4
    assert man["config"] == {}


@pytest.mark.parametrize("argv, blocked", [
    (["eigen", "--dim", "2", "--order", "1", "--radius", "1"] + FAST, "estimate.json"),
    (["eigen", "--dim", "2", "--order", "1", "--radius", "1", "--format", "json"] + FAST,
     "eigenfunction.json"),
    (["solve", "--dim", "3", "--order", "2", "--radius", "1", "--source", "const:3"],
     "profile.csv"),
    (["cone", "--order", "2", "--lambda=1,2"], "cone.json"),
    (["verify", "bounds", "--dim", "2", "--order", "1", "--radius", "1"] + FAST,
     "report.json"),
    (["verify", "monotone", "--dim", "2", "--order", "1", "--r1", "1", "--r2", "1.5"]
     + FAST, "report.json"),
    (["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1"], "report.json"),
    (["verify", "minprinciple", "--quartic", "--dim", "2", "--order", "2",
      "--radius", "1", "--grid", "64"], "report.json"),
    (BARRIER_EXP, "report.json"),
    (["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "1",
      "--sphere", "1", "--t", "3", "--d0", "0.1"], "report.json"),
    (["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1"], "manifest.json"),
], ids=["eigen", "eigen-json", "solve", "cone", "bounds", "monotone", "hopf",
        "minprinciple", "barrier-exp", "barrier-log", "manifest"])
def test_write_error_is_input_error(argv, blocked, tmp_path, capsys):
    (tmp_path / blocked).mkdir()
    assert run(argv + ["--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and blocked in err


def test_failed_write_removes_only_the_files_it_created(tmp_path, capsys):
    out = tmp_path / "w"
    (out / "manifest.json").mkdir(parents=True)
    argv = ["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1", "--out", out]
    assert run(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert (out / "manifest.json").is_dir()
    # a file that was there before the run stays, rewritten or not
    (out / "report.json").write_text("kept\n")
    assert run(argv) == 1
    assert (out / "report.json").exists()


# one non-default value for every field of SolverConfig and IterationConfig
CONFIG_VALUES = {
    "grid_size": 64, "quadrature": "trapezoid", "tol_residual": 1e-3, "refine_max": 1,
    "graded": True, "n_max": 400, "bisect_tol": 0.1,
}


# the --config keys each command reads; it refuses the others
ENGINE_KEYS = {"grid_size", "graded", "bisect_tol"}
SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
READS = {
    "eigen": ENGINE_KEYS,
    "verify bounds": ENGINE_KEYS,
    "verify monotone": ENGINE_KEYS,
    "solve": SOLVER_KEYS,
    "verify hopf": SOLVER_KEYS,
    "verify minprinciple": {"grid_size"},
}
PROBLEM = {
    "eigen": ["--dim", "2", "--order", "1", "--radius", "1"],
    "verify bounds": ["--dim", "2", "--order", "1", "--radius", "1"],
    "verify monotone": ["--dim", "2", "--order", "1", "--r1", "1", "--r2", "1.5"],
    "solve": ["--dim", "2", "--order", "1", "--radius", "1", "--source", "const:1"],
    "verify hopf": ["--dim", "2", "--order", "1", "--radius", "1"],
    "verify minprinciple": ["--dim", "2", "--order", "1", "--radius", "1", "--quartic"],
}


def _config_text(keys) -> str:
    return "".join(f"{key} = {str(CONFIG_VALUES[key]).lower()}\n" for key in sorted(keys))


def test_every_settings_field_is_a_config_key(tmp_path, capsys):
    iteration = {f.name for f in dataclasses.fields(IterationConfig)}
    assert set(CONFIG_VALUES) == SOLVER_KEYS | iteration
    # every key a command reads is taken and recorded in its manifest
    cfg = tmp_path / "all.cfg"
    for command in ("eigen", "solve"):
        cfg.write_text(_config_text(READS[command]))
        out = tmp_path / command
        assert run([command, *PROBLEM[command], "--config", cfg, "--out", out]) == 0
        man = json.loads((out / "manifest.json").read_text())
        recorded = {**man["config"]["solver"], **man["config"].get("iteration", {})}
        assert {key: recorded[key] for key in READS[command]} == {
            key: CONFIG_VALUES[key] for key in READS[command]}

    capsys.readouterr()
    cfg.write_text("grid_size = 64\nsimpson = true\n")
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", cfg, "--out", tmp_path / "bad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'simpson'" in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_config_keys_a_command_does_not_read_are_refused(command, tmp_path, capsys):
    # quadrature = trapezoid was once accepted by eigen and recorded in its
    # manifest, yet changed nothing
    cfg = tmp_path / "c.cfg"
    for key in sorted(set(CONFIG_VALUES) - READS[command]):
        cfg.write_text(f"# one key the command does not read\n{_config_text([key])}")
        assert run([*command.split(), *PROBLEM[command], "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {cfg}:2: config key {key!r} is not read by "
                       f"khess {command}\n")
        assert not (tmp_path / "o").exists()


def test_config_keys_a_command_reads_are_recorded_as_flags_are(tmp_path, capsys):
    # a config of keys the command reads gives the manifest the same config
    # as the flags that set them
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid_size = 64\nbisect_tol = 0.1\n")
    mans = []
    for extra, out in ((["--config", cfg], "a"), (FAST, "b")):
        assert run(["eigen", *PROBLEM["eigen"], *extra, "--out", tmp_path / out]) == 0
        mans.append(json.loads((tmp_path / out / "manifest.json").read_text()))
    assert mans[0]["config"] == mans[1]["config"]
    assert mans[0]["config"] == {"solver": {"grid_size": 64, "graded": False},
                                 "iteration": {"bisect_tol": 0.1}}


def test_eigen_refuses_n_max(tmp_path, capsys):
    # the estimate runs no fixed-lambda scheme, so no command reads n_max
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_max = 400\n")
    assert run(["eigen", *PROBLEM["eigen"], "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "config key 'n_max' is not read by khess eigen" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eigen", "--dim", "2", "--order", "1", "--radius", "1e200"],
    ["eigen", "--dim", "2", "--order", "1", "--radius", "1e-200"],
    ["eigen", "--dim", "3", "--order", "3", "--radius", "1e60"],
    # radii that pass the R^(2k) check, but where r^(N-1), r^((k-N)/k) or
    # lambda_1 leaves the float range inside the estimate
    ["eigen", "--dim", "4", "--order", "1", "--radius", "1e80"],
    ["eigen", "--dim", "6", "--order", "1", "--radius", "1e60"],
    ["eigen", "--dim", "6", "--order", "1", "--radius", "1e-60"],
    ["eigen", "--dim", "2", "--order", "1", "--radius", "1e-150"],
    ["eigen", "--dim", "3", "--order", "3", "--radius", "1e40"],
    ["eigen", "--dim", "2", "--order", "1", "--radius", "1", "--bisect-tol", "nan"],
    ["verify", "bounds", "--dim", "2", "--order", "2", "--radius", "1e-100"],
    ["verify", "monotone", "--dim", "2", "--order", "1", "--r1", "1", "--r2", "1e300"],
    ["solve", "--dim", "3", "--order", "2", "--radius", "1e200", "--source", "const:1"],
    ["solve", "--dim", "3", "--order", "2", "--radius", "1e-200", "--source", "const:1"],
    ["verify", "hopf", "--dim", "3", "--order", "2", "--radius", "1e200"],
    # sizes numpy refuses at once, before any memory is touched
    ["solve", "--dim", "3", "--order", "2", "--radius", "1", "--source", "const:1",
     "--grid", "1000000000000000000"],
    ["verify", "minprinciple", "--dim", "3", "--order", "2", "--radius", "1", "--quartic",
     "--grid", "1000000000000000000"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "1",
     "--sphere", "1", "--t", "3", "--d0", "0.1", "--depth", "1000000000000000000"],
    # non-finite radii and spectral parameters, which once gave verdicts
    ["verify", "monotone", "--dim", "3", "--order", "2", "--r1", "1", "--r2", "nan"],
    ["verify", "minprinciple", "--quartic", "--dim", "3", "--order", "2", "--radius", "1",
     "--lam", "inf"],
    ["verify", "minprinciple", "--quartic", "--dim", "3", "--order", "2", "--radius", "1",
     "--lam", "nan"],
    # quartics whose depth R^4 / 4 or S_k, of order R^(2k), leaves the float
    # range: once a traceback, or a numpy warning before the error line
    ["verify", "minprinciple", "--quartic", "--dim", "2", "--order", "1", "--radius", "1e200"],
    ["verify", "minprinciple", "--quartic", "--dim", "3", "--order", "2", "--radius", "1e100"],
    ["verify", "minprinciple", "--quartic", "--dim", "2", "--order", "1", "--radius", "1e-100"],
    ["verify", "minprinciple", "--quartic", "--dim", "2", "--order", "1", "--radius", "inf"],
    ["verify", "minprinciple", "--quartic", "--dim", "2", "--order", "1", "--radius", "nan"],
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "nan",
     "--sphere", "1", "--t", "3", "--d0", "0.1"],
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "inf",
     "--sphere", "1", "--t", "3", "--d0", "0.1"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "nan", "--usup", "1",
     "--sphere", "1", "--t", "3", "--d0", "0.1"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "nan",
     "--sphere", "1", "--t", "3", "--d0", "0.1"],
    # non-finite rates and collar widths, refused before any array is built
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "1",
     "--sphere", "1", "--t", "inf", "--d0", "0.1"],
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "1",
     "--sphere", "1", "--t", "nan", "--d0", "0.1"],
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "1",
     "--sphere", "1", "--t", "3", "--d0", "nan"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "1",
     "--sphere", "1", "--t", "inf", "--d0", "0.1"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "1",
     "--sphere", "1", "--t", "nan", "--d0", "0.1"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1", "--usup", "1",
     "--sphere", "1", "--t", "3", "--d0", "nan"],
    # barrier factors and S_j that overflow, which once gave a NaN FAIL or an inf PASS
    ["verify", "barrier-exp", "--dim", "3", "--order", "2", "--lam", "0.1",
     "--sphere", "1", "--t", "1e200", "--d0", "0.1"],
    ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1e308", "--usup", "1",
     "--sphere", "1", "--t", "3", "--d0", "0.1"],
    # radii inside the R^(2k) check whose solve still leaves the float range
    ["solve", "--dim", "6", "--order", "1", "--radius", "1e100", "--source", "const:1"],
    ["solve", "--dim", "6", "--order", "1", "--radius", "1e-100", "--source", "const:1"],
    ["verify", "hopf", "--dim", "6", "--order", "1", "--radius", "1e80"],
    # |h|^2 of the quartic overflows in the probe, which once warned and passed
    ["verify", "minprinciple", "--quartic", "--dim", "3", "--order", "3", "--radius", "1e50"],
    # the source overflows in its own evaluation, which once warned first
    ["solve", "--dim", "2", "--order", "2", "--radius", "1", "--source", "poly:1e308,1e308"],
], ids=["radius-1e200", "radius-1e-200", "radius-1e60-k3", "radius-1e80-n4",
        "radius-1e60-n6", "radius-1e-60-n6", "radius-1e-150-n2", "radius-1e40-k3",
        "bisect-tol-nan",
        "bounds-radius-1e-100", "monotone-r2-1e300", "solve-radius-1e200",
        "solve-radius-1e-200", "hopf-radius-1e200", "solve-grid-1e18",
        "minprinciple-grid-1e18", "barrier-log-depth-1e18", "monotone-r2-nan",
        "minprinciple-lam-inf", "minprinciple-lam-nan", "quartic-radius-1e200",
        "quartic-radius-1e100-k2", "quartic-radius-1e-100", "quartic-radius-inf",
        "quartic-radius-nan", "barrier-exp-lam-nan",
        "barrier-exp-lam-inf", "barrier-log-fsup-nan", "barrier-log-usup-nan",
        "barrier-exp-t-inf", "barrier-exp-t-nan", "barrier-exp-d0-nan", "barrier-log-t-inf",
        "barrier-log-t-nan", "barrier-log-d0-nan", "barrier-exp-t-1e200",
        "barrier-log-fsup-1e308", "solve-radius-1e100-n6", "solve-radius-1e-100-n6",
        "hopf-radius-1e80-n6", "quartic-radius-1e50-k3", "solve-source-poly-1e308"])
def test_out_of_range_numbers_are_input_errors(argv, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["cone", "--order", "2", "--matrix", np.diag([1e200, 1e200])],
    ["cone", "--order", "3", "--matrix", np.diag([1e150, 1e150, 1e150])],
    ["cone", "--order", "2", "--lambda=1e308,1e308"],
    ["cone", "--order", "2", "--lambda=1e200,-1e200,1e200"],
    # every sigma_j is finite, but the slack's squared norm is not
    ["cone", "--order", "1", "--matrix", np.diag([-1e160, 0])],
], ids=["matrix-sigma-2", "matrix-slack-k3", "spectrum-sigma-1", "spectrum-sigma-2",
        "matrix-slack-k1"])
def test_overflowing_spectra_are_input_errors(argv, tmp_path, capsys):
    # sigma_j or the slack overflowing to inf gave verdicts and wrote Infinity
    if not isinstance(argv[-1], str):
        save_matrix_json(tmp_path / "m.json", argv[-1])
        argv = argv[:-1] + [tmp_path / "m.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "barrier-exp", "--dim", "3", "--order", "3", "--lam", "0"],
    ["verify", "barrier-log", "--dim", "3", "--order", "3", "--fsup", "1", "--usup", "1"],
], ids=["barrier-exp", "barrier-log"])
def test_overflowing_collar_sigma_is_input_error(argv, tmp_path, capsys):
    # curvatures near 1e200 overflow sigma_2 of the collar, which once
    # printed a numpy warning before the error line
    field = tmp_path / "f.json"
    field.write_text(json.dumps([{"point": p, "kappa": [1e200, 1e200]}
                                 for p in ([1, 0, 0], [0, 1, 0])]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--field", field, "--t", "1", "--d0", "1e-201",
                           "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["tol_residual", "bisect_tol"])
def test_nan_config_tolerance_is_input_error(key, tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key} = nan\n")
    assert run(["eigen", "--dim", "2", "--order", "1", "--radius", "1",
                "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


def test_manifest_hashes_the_input_files(tmp_path, monkeypatch, capsys):
    # one matrix path, two contents: the runs differ, so must their hashes
    monkeypatch.chdir(tmp_path)
    hashes, verdicts = [], []
    for diag, out in (([1.0, 2.0], "a"), ([-1.0, 2.0], "b")):
        save_matrix_json("m.json", np.diag(diag))
        assert run(["cone", "--order", "2", "--matrix", "m.json", "--out", out]) == 0
        verdicts.append(json.loads((tmp_path / out / "cone.json").read_text())
                        ["verdicts"]["in_sigma_k"])
        man = json.loads((tmp_path / out / "manifest.json").read_text())
        digest = hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest()
        assert man["inputs"] == {"m.json": digest}
        hashes.append(man["config_hash"])
    assert verdicts == [True, False]
    assert hashes[0] != hashes[1]


def test_manifest_inputs_name_every_file_read(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid_size = 64\n")
    # a probe of a --profile file reads no settings key
    empty = tmp_path / "e.cfg"
    empty.write_text("# no key\n")
    src = tmp_path / "f.csv"
    src.write_text("r,f\n0,1\n1,2\n")
    prof = tmp_path / "p.csv"
    quartic_test_profile(1.0, 2, 2, 64).save_csv(prof)
    cases = [
        (["solve", "--source", f"file:{src}"], [cfg, src]),
        (["solve", "--source", str(src)], [cfg, src]),
        (["solve", "--source", "const:1"], [cfg]),
        (["verify", "minprinciple", "--profile", str(prof)], [empty, prof]),
        (["verify", "minprinciple", "--quartic"], [cfg]),
    ]
    for i, (argv, read) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert run(argv + ["--dim", "2", "--order", "2", "--radius", "1",
                           "--config", read[0], "--out", out]) in (0, 2)
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(man["inputs"]) == sorted(str(p) for p in read)


# numeric flag values: the awkward ones, ordinary ones, and any sign
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
                     "0", "-1", "1"]),
    st.floats(0.05, 4.0).map(repr),
    st.floats(-4.0, 4.0).map(repr),
)
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5"])
_GRID = st.sampled_from(["-1", "63", "64", "96", "256"])
_COMMON = {"--dim": _SMALL, "--order": _SMALL}
_RADIUS = {"--radius": _NUMBER}
_SOLVER = {"--grid": _GRID}
_ITER = {"--bisect-tol": _NUMBER}
_FIELD = {"--sphere": _NUMBER, "--samples": st.integers(-1, 64).map(str),
          "--t": _NUMBER, "--d0": _NUMBER, "--depth": st.integers(-1, 16).map(str)}
_SUBCOMMANDS = {
    "eigen": {**_COMMON, **_RADIUS, **_SOLVER, **_ITER},
    "solve": {**_COMMON, **_RADIUS, **_SOLVER,
              "--source": st.one_of(_NUMBER.map("const:{}".format),
                                    st.lists(_NUMBER, min_size=1, max_size=3)
                                    .map(lambda c: "poly:" + ",".join(c)))},
    "cone": {"--order": _SMALL,
             "--lambda": st.lists(_NUMBER, min_size=1, max_size=4).map(",".join)},
    "verify bounds": {**_COMMON, **_RADIUS, **_SOLVER, **_ITER},
    "verify monotone": {**_COMMON, "--r1": _NUMBER, "--r2": _NUMBER, **_SOLVER, **_ITER},
    "verify hopf": {**_COMMON, **_RADIUS, **_SOLVER},
    "verify minprinciple": {**_COMMON, **_RADIUS, **_SOLVER, "--lam": _NUMBER},
    "verify barrier-exp": {**_COMMON, "--lam": _NUMBER, **_FIELD},
    "verify barrier-log": {**_COMMON, "--fsup": _NUMBER, "--usup": _NUMBER, **_FIELD},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = command.split()
    if command == "verify minprinciple":
        argv.append("--quartic")
    for flag, values in _SUBCOMMANDS[command].items():
        # --flag=value, so that argparse reads "-1e300" as a value
        argv.append(f"{flag}={draw(values)}")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_argv())
def test_fuzzed_numeric_flags_never_raise(argv):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv + [f"--out={out}"])
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


# input files that used to escape main() as a traceback
@pytest.mark.parametrize("name, content, argv", [
    ("c.cfg", b"grid_size = 64\n\xff\xfe\n",
     ["eigen", "--dim", "2", "--order", "1", "--radius", "1", "--config"]),
    ("m.json", b'{"n": 2, "entries": [[1, "a"], [0, 1]]}', ["cone", "--order", "1", "--matrix"]),
    ("m.json", b'{"n": 1e400, "entries": [1]}', ["cone", "--order", "1", "--matrix"]),
    ("m.json", b'\xff{"n": 1, "entries": [1]}', ["cone", "--order", "1", "--matrix"]),
    ("m.json", b'{"n": 0, "entries": []}', ["cone", "--order", "1", "--matrix"]),
    ("m.json", b'{"n": 2.5, "entries": [1, 0, 0, 1]}', ["cone", "--order", "1", "--matrix"]),
    ("m.json", b'{"n": true, "entries": [1]}', ["cone", "--order", "1", "--matrix"]),
    ("f.json", b'[{"point": [1, 0], "kappa": [\xff]}]',
     ["verify", "barrier-exp", "--dim", "2", "--order", "1", "--lam", "1", "--t", "3",
      "--d0", "0.1", "--field"]),
    ("f.json", b'[{"point": [1, 0], "kappa": [1' + b"0" * 400 + b']}]',
     ["verify", "barrier-exp", "--dim", "2", "--order", "1", "--lam", "1", "--t", "3",
      "--d0", "0.1", "--field"]),
], ids=["config-not-utf8", "matrix-string-entry", "matrix-n-1e400", "matrix-not-utf8",
        "matrix-n-0", "matrix-n-2.5", "matrix-n-true", "field-not-utf8",
        "field-huge-integer"])
def test_unreadable_input_files_are_input_errors(name, content, argv, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    assert run(argv + [path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


_SPECIAL = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
                            "1e-400", "1e300", "-1e300", "-0.0", "0", '"a"', "null",
                            "true", "[]", "{}", "", "1" + "0" * 400])


def _mostly(numbers):
    """A number from numbers, or in one draw of five an awkward value."""
    return st.tuples(st.integers(0, 4), numbers, _SPECIAL).map(
        lambda t: t[2] if t[0] == 0 else t[1])


_TOKEN = _mostly(st.floats(-4.0, 4.0).map(repr))
_POSITIVE = _mostly(st.floats(0.0, 4.0).map(repr))


def _json_list(tokens):
    return "[" + ",".join(tokens) + "]"


@st.composite
def _matrix_file(draw):
    n = draw(st.integers(1, 3))
    upper = draw(st.lists(_TOKEN, min_size=n * n, max_size=n * n))
    # symmetric as text, so that some files reach the cone tests
    rows = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):  # a ragged or short matrix
        del rows[draw(st.integers(0, n - 1))][-1]
    n_text = draw(st.one_of(st.just(str(n)), _TOKEN))
    entries = _json_list(_json_list(row) for row in rows)
    return '{"n": %s, "entries": %s}' % (n_text, entries), ["cone", "--order", "2",
                                                          "--matrix"]


@st.composite
def _field_file(draw):
    dim = draw(st.integers(2, 4))
    # one file in four has rows of the wrong length
    slack = int(draw(st.integers(0, 3)) == 0)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        point = draw(st.lists(_TOKEN, min_size=dim - slack, max_size=dim + slack))
        kappa = draw(st.lists(_POSITIVE, min_size=dim - 1 - slack, max_size=dim - 1 + slack))
        rows.append('{"point": %s, "kappa": %s}' % (_json_list(point), _json_list(kappa)))
    text = draw(st.sampled_from(["[%s]", "[%s]", '{"rows": [%s]}'])) % ",".join(rows)
    barrier = draw(st.sampled_from([["barrier-exp", "--lam", "1"],
                                    ["barrier-log", "--fsup", "1", "--usup", "1"]]))
    return text, ["verify", barrier[0], "--dim", str(dim), "--order", "2", *barrier[1:],
                  "--t", "3", "--d0", "0.1", "--depth", "8", "--field"]


@st.composite
def _csv_file(draw):
    header = draw(st.sampled_from(["r,f", "f,r", "r", "r,f,g", "r,h,hp,hpp", "x,y", ""]))
    nodes = sorted(draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6)))
    rows = [",".join([draw(_TOKEN) if draw(st.integers(0, 5)) == 0 else repr(x),
                      *draw(st.lists(_POSITIVE, max_size=3))]) for x in nodes]
    text = "\n".join([header, *rows]) + "\n"
    argv = draw(st.sampled_from([
        ["solve", "--dim", "3", "--order", "2", "--radius", "1", "--grid", "64",
         "--source"],
        ["verify", "minprinciple", "--dim", "2", "--order", "1", "--radius", "1",
         "--profile"],
    ]))
    return text, argv


# per config key, values that are wrong, awkward or small enough to run fast
_CONFIG_VALUES = {
    "grid_size": ["64", "256", "63", "-1", "1e400", "nan", "x"],
    "quadrature": ["trapezoid", "simpson", "Simpson", "1"],
    "tol_residual": ["1e-3", "1e-300", "0", "-1", "nan", "inf", "1e400", "1e-400"],
    "refine_max": ["0", "1", "-1", "1.5", "nan"],
    "graded": ["true", "false", "yes", "2", ""],
    "n_max": ["10", "50", "9", "-1", "1e3"],
    "bisect_tol": ["0.1", "1e-300", "0", "nan", "inf", "1e400"],
}


@st.composite
def _config_file(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from([*_CONFIG_VALUES, "grid", ""]))
        value = draw(st.sampled_from(_CONFIG_VALUES.get(key, ["1"])))
        lines.append(draw(st.sampled_from(["{} = {}", "{}={}  # note", "{} {}",
                                           "'{}' = \"{}\""])).format(key, value))
    argv = draw(st.sampled_from([
        ["eigen", "--dim", "2", "--order", "2", "--radius", "1"],
        ["solve", "--dim", "3", "--order", "2", "--radius", "1", "--source", "const:3"],
    ]))
    return "\n".join(lines) + "\n", argv + ["--config"]


@st.composite
def _input_file(draw):
    """(file bytes, argv that reads the file by the path appended to it)."""
    text, argv = draw(st.one_of(_matrix_file(), _field_file(), _csv_file(),
                                _config_file()))
    content = draw(st.one_of(st.just(text.encode()), st.binary(max_size=48),
                             st.just(text.encode()[:len(text) // 2] + b"\xff")))
    return content, argv


def _non_integer_size(content: bytes) -> bool:
    """Whether content is a JSON object whose "n" is not a JSON integer."""
    try:
        payload = json.loads(content)
    except ValueError:
        return False
    return isinstance(payload, dict) and "n" in payload and type(payload["n"]) is not int


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_input_file())
@example(case=(b'{"n": 2.5, "entries": [1, 0, 0, 1]}', ["cone", "--order", "1", "--matrix"]))
@example(case=(b'{"n": true, "entries": [1]}', ["cone", "--order", "1", "--matrix"]))
@example(case=(b"r,h,hp,hpp\n0,-1e200,0,1e200\n0.5,1e200,-1e200,-1e200\n1,0,1e200,1e200\n",
               ["verify", "minprinciple", "--dim", "2", "--order", "1", "--radius", "1",
                "--profile"]))
def test_fuzzed_input_files_never_raise(case):
    content, argv = case
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "input"
        path.write_bytes(content)
        code = main(argv + [str(path), f"--out={tmp}/out"])
    assert code in (0, 1, 2), (argv, content, code)
    if argv[0] == "cone" and _non_integer_size(content):
        assert code == 1, (argv, content, code)
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, content, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, content, err.getvalue())
