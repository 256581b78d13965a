"""End-to-end CLI runs, exit codes, manifests, and byte determinism.

Everything goes through main(argv) in process; coarse grids and a loose
bracket tolerance keep each invocation well under a second.
"""

import json
import warnings

import numpy as np
import pytest

import khessian.cli as cli
from khessian.cli import main
from khessian.radial import quartic_test_profile
from khessian.cones import save_matrix_json
from khessian.geometry import CurvatureField, save_field_json

FAST = ["--grid", "64", "--bisect-tol", "0.1"]


def run(argv):
    return main([str(a) for a in argv])


def test_version_and_help(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    assert run(["eigen", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--radius" in out


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["eigen", "--dim", "2", "--radius", "1"]) == 1
    assert run(["nonsense"]) == 1


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
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config_hash"] == mb["config_hash"]


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
            assert "Traceback" not in err and "finite" in err
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
