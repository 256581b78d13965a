"""The input rules of errors.check_int and errors.check_real at every
entry point.

Each order, dimension and count argument takes an int or a numpy
integer in its range.  A float, even 3.0, a bool, a NaN, a string or an
out-of-range value is refused with one DomainError before any
computation, never with a TypeError, ZeroDivisionError or ValueError from
deeper down, and never accepted as a number.  Each scalar real argument
(a radius, rate, depth, bound or tolerance) likewise takes an int, a
float or a numpy real in its interval, and refuses NaN, a string, None,
a bool and a value just outside the interval with a DomainError that
names it.
"""

import argparse
import json
import math
import re
import warnings

import numpy as np
import pytest

from khessian.cli import cmd_cone
from khessian.cones import load_matrix_json, membership_slack
from khessian.dirichlet import (
    SolverConfig,
    SourceTerm,
    first_integral_solve,
    holder_seminorm,
    make_grid,
    solve_radial_dirichlet,
)
from khessian.eigen import (
    IterationConfig,
    default_sup_cap,
    domain_monotonicity_check,
    estimate_lambda1,
    iterate_fixed_lambda,
    lower_bound,
    minimum_principle_probe,
    upper_bound,
)
from khessian.errors import DomainError, check_int, check_real
from khessian.geometry import (
    augment_r,
    ellipsoid_field,
    sphere_field,
    strictly_km1_convex,
    verify_exp_boundary_barrier,
    verify_log_boundary_barrier,
)
from khessian.radial import hopf_linear_bound, quartic_test_profile, s_k_radial
from khessian.symfun import in_gamma_k

_R = np.linspace(0.0, 1.0, 65)


def _matrix_file(tmp_path, n):
    path = tmp_path / "m.json"
    # a numpy integer is written as the JSON integer it stands for
    path.write_text(json.dumps({"n": n, "entries": [1, 0, 0, 1]}, default=int))
    return load_matrix_json(path)


# site: (call with the value under test, a valid value, an out-of-range value)
SITES = {
    "symfun.in_gamma_k k": (lambda v, _: in_gamma_k([1.0, 2.0, 3.0], v), 3, 4),
    "radial dimension N": (lambda v, _: lower_bound(v, 1, 1.0), 2, 0),
    "radial order k": (lambda v, _: s_k_radial(1.0, 1.0, 0.5, 3, v), 2, 4),
    "eigen.estimate_lambda1 k": (lambda v, _: estimate_lambda1(1.0, 2, v), 1, 3),
    "radial.quartic_test_profile grid_size":
        (lambda v, _: quartic_test_profile(1.0, 2, 1, v), 2, 1),
    "geometry.strictly_km1_convex k":
        (lambda v, _: strictly_km1_convex(sphere_field(1.0, 3), v), 2, 1),
    "geometry.augment_r k": (lambda v, _: augment_r(sphere_field(1.0, 3), v), 3, 4),
    "geometry.verify_exp_boundary_barrier k":
        (lambda v, _: verify_exp_boundary_barrier(sphere_field(1.0, 3), v, 1.0, 1.0, 0.1), 3, 4),
    "geometry.verify_log_boundary_barrier k":
        (lambda v, _: verify_log_boundary_barrier(sphere_field(1.0, 3), v, 1.0, 1.0, 1.0, 0.1),
         1, 0),
    "geometry collar n_depth":
        (lambda v, _: verify_exp_boundary_barrier(sphere_field(1.0, 3), 2, 1.0, 1.0, 0.1, v),
         1, 0),
    "geometry.sphere_field N": (lambda v, _: sphere_field(1.0, v), 2, 1),
    "geometry.sphere_field n_samples": (lambda v, _: sphere_field(1.0, 3, v), 1, 0),
    "geometry.ellipsoid_field n_samples": (lambda v, _: ellipsoid_field([1.0, 2.0], v), 1, 0),
    "dirichlet.SolverConfig grid_size": (lambda v, _: SolverConfig(grid_size=v), 64, 63),
    "dirichlet.SolverConfig refine_max": (lambda v, _: SolverConfig(refine_max=v), 0, -1),
    "dirichlet.make_grid grid_size": (lambda v, _: make_grid(1.0, v), 2, 1),
    "dirichlet.first_integral_solve N": (lambda v, _: first_integral_solve(_R, _R, v, 1), 1, 0),
    "dirichlet.first_integral_solve k": (lambda v, _: first_integral_solve(_R, _R, 2, v), 2, 3),
    "eigen.IterationConfig n_max": (lambda v, _: IterationConfig(n_max=v), 10, 9),
    "cones.membership_slack k": (lambda v, _: membership_slack(np.eye(2), v), 0, -1),
    "cones.load_matrix_json n": (lambda v, tmp: _matrix_file(tmp, v), 2, 0),
    "cli.cmd_cone k": (lambda v, _: cmd_cone(argparse.Namespace(order=v, matrix=None,
                                                                 lam_values="1,2,3")), 3, 4),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", [2.5, 3.0, True, math.nan, "3", "out of range"])
def test_integer_argument_refuses_non_integers(site, bad, tmp_path):
    call, _, out_of_range = SITES[site]
    value = out_of_range if bad == "out of range" else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be an integer"):
            call(value, tmp_path)


@pytest.mark.parametrize("site", SITES)
def test_integer_argument_accepts_numpy_integers(site, tmp_path):
    call, valid, _ = SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(np.int64(valid), tmp_path)


def test_check_int_names_the_argument_and_its_range():
    with pytest.raises(DomainError, match=r"^order k=True must be an integer in \[1, N=3\]$"):
        check_int("order k", True, 1, 3, "N")
    with pytest.raises(DomainError, match=r"^n_max=9 must be an integer >= 10$"):
        check_int("n_max", 9, 10)
    check_int("order k", np.int8(3), 1, 3)


# fast settings for the real-argument calls that run a solve or an estimate
_FAST = dict(cfg=IterationConfig(n_max=10, bisect_tol=0.1),
             solver_cfg=SolverConfig(grid_size=64))
_GRID = SolverConfig(grid_size=64)
# the quartic on the ball of radius 2: r_in = 1 and the rate floor 1 at N = 2, k = 1
_QUARTIC = quartic_test_profile(2.0, 2, 1, 64)
# tube bound 1/(2 mu) = 2, so a collar width of 1 fits
_SPHERE = sphere_field(4.0, 3)
# the float next below 0
_BELOW_0 = -5e-324

# name in the message: (call with the value under test, a valid value, a value
# just outside the interval or None when every real is allowed, None is a default)
REAL_SITES = {
    "radius R": [
        (lambda v: estimate_lambda1(v, 2, 1, **_FAST), 1, 0, False),
        (lambda v: iterate_fixed_lambda(1.0, v, 2, 1, **_FAST), 1, math.inf, False),
        (lambda v: lower_bound(2, 1, v), 1, 0, False),
        (lambda v: upper_bound(2, 1, v), 1, math.inf, False),
        (lambda v: solve_radial_dirichlet(SourceTerm.constant(1.0), v, 2, 1, _GRID), 1, 0,
         False),
        (lambda v: domain_monotonicity_check(2, 1, v, 2.0, **_FAST), 1, 0, False),
        (lambda v: quartic_test_profile(v, 2, 1, 64), 1, 0, False),
        (lambda v: make_grid(v, 4), 1, math.inf, False),
    ],
    "inner radius r_in": [(lambda v: hopf_linear_bound(_QUARTIC, r_in=v), 1, 2.0, True)],
    "rate m": [(lambda v: hopf_linear_bound(_QUARTIC, m=v), 3, 1.0, True)],
    "source constant c": [(lambda v: SourceTerm.constant(v), 1, _BELOW_0, False)],
    "tol_residual": [(lambda v: SolverConfig(tol_residual=v), 1, 0, False)],
    "inner radius r_inner": [
        (lambda v: make_grid(1.0, 4, r_inner=v), 0, 1.0, False),
        (lambda v: solve_radial_dirichlet(SourceTerm.constant(1.0), 2.0, 2, 1, _GRID,
                                          r_inner=v, inner_value=-1.0), 1, 2.0, False),
    ],
    "inner_value": [(lambda v: solve_radial_dirichlet(SourceTerm.constant(1.0), 2.0, 2, 1,
                                                      _GRID, r_inner=1.0, inner_value=v),
                     -1, 5e-324, True)],
    "Holder exponent alpha": [(lambda v: holder_seminorm(_QUARTIC, v), 1, 0, False)],
    "lam": [
        (lambda v: iterate_fixed_lambda(v, 1.0, 2, 1, **_FAST), 1, _BELOW_0, False),
        (lambda v: minimum_principle_probe(_QUARTIC, v), 1, math.inf, False),
        (lambda v: verify_exp_boundary_barrier(_SPHERE, 2, v, 3.0, 0.1), 1, _BELOW_0, False),
    ],
    "bisect_tol": [(lambda v: IterationConfig(bisect_tol=v), 1, 0, True)],
    "rhs": [(lambda v: minimum_principle_probe(_QUARTIC, 1.0, rhs=v), 0, None, False)],
    "collar width d0": [
        (lambda v: verify_exp_boundary_barrier(_SPHERE, 2, 1.0, 3.0, v), 1, 0, False),
        (lambda v: verify_log_boundary_barrier(_SPHERE, 2, 1.0, 1.0, 3.0, v), 1, math.inf,
         False),
    ],
    "rate t": [
        (lambda v: verify_exp_boundary_barrier(_SPHERE, 2, 1.0, v, 0.1), 3, 0, False),
        (lambda v: verify_log_boundary_barrier(_SPHERE, 2, 1.0, 1.0, v, 0.1), 3, math.inf,
         False),
    ],
    "fsup": [(lambda v: verify_log_boundary_barrier(_SPHERE, 2, v, 1.0, 3.0, 0.1), 1,
              _BELOW_0, False)],
    "usup": [(lambda v: verify_log_boundary_barrier(_SPHERE, 2, 1.0, v, 3.0, 0.1), 1,
              math.inf, False)],
    "sphere radius R": [(lambda v: sphere_field(v, 3), 1, 0, False)],
    "slack": [(lambda v: in_gamma_k([1.0, 2.0, 3.0], 2, slack=v), 0, _BELOW_0, False)],
}
_REAL_CASES = {f"{name} #{i}": (name, *site) for name, sites in REAL_SITES.items()
               for i, site in enumerate(sites)}
# 10**400 is an int too large for a float
_BAD_REALS = {"nan": math.nan, "str": "1", "None": None, "True": True, "int 10**400": 10**400}


@pytest.mark.parametrize("case, bad", [
    (case, bad) for case, (_, _, _, out, none_is_default) in _REAL_CASES.items()
    for bad in [*_BAD_REALS, "out of range"]
    if not (bad == "None" and none_is_default or bad == "out of range" and out is None)])
def test_real_argument_refuses_non_reals(case, bad):
    name, call, _, out_of_range, _ = _REAL_CASES[case]
    value = out_of_range if bad == "out of range" else _BAD_REALS[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(name)}=.* must be a real number in "):
            call(value)


@pytest.mark.parametrize("kind", [int, np.int64, np.float64, np.float32])
@pytest.mark.parametrize("case", _REAL_CASES)
def test_real_argument_accepts_ints_and_numpy_reals(case, kind):
    _, call, valid, _, _ = _REAL_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(kind(valid))


# an int real gives the bytes of float(int): R**2 of np.int64(4e9) once
# wrapped, and SourceTerm.constant(2**1023) must evaluate
_R_WRAPS = np.int64(4_000_000_000)
INT_REALS = {
    "quartic_test_profile R": (lambda v: quartic_test_profile(v, 2, 1, 8).h, _R_WRAPS),
    "quartic_test_profile R below 2^53": (lambda v: quartic_test_profile(v, 2, 1, 8).h, 3),
    "estimate_lambda1 R": (lambda v: estimate_lambda1(v, 2, 1, **_FAST).eigenfunction.h,
                           _R_WRAPS),
    "default_sup_cap R": (lambda v: default_sup_cap(2, 1, v), _R_WRAPS),
    "estimate_lambda1 R below 2^53": (lambda v: estimate_lambda1(v, 3, 2, **_FAST).lambda_lo,
                                      np.int64(3)),
    "SourceTerm.constant c": (lambda v: SourceTerm.constant(v).evaluate(_R), 2**1023),
    "SourceTerm.constant c below 2^53": (lambda v: SourceTerm.constant(v).evaluate(_R), 7),
}


@pytest.mark.parametrize("case", INT_REALS)
def test_int_reals_give_the_float_result(case):
    call, value = INT_REALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.asarray(call(value)).tobytes() == np.asarray(call(float(value))).tobytes()


def test_quartic_at_a_wrapping_radius_keeps_its_depth():
    # -R^4 / 4 at R = 4e9
    assert quartic_test_profile(_R_WRAPS, 2, 1, 8).h[0] == -6.4e37


def test_check_real_names_the_argument_and_its_interval():
    with pytest.raises(DomainError, match=r"^radius R=nan must be a real number in \(0, inf\)$"):
        check_real("radius R", math.nan, 0, math.inf, "()")
    with pytest.raises(DomainError, match=r"^alpha='1' must be a real number in \(0, 1\]$"):
        check_real("alpha", "1", 0, 1, "(]")
    with pytest.raises(DomainError, match=r"^rhs=None must be a real number in \[-inf, inf\]$"):
        check_real("rhs", None)
    with pytest.raises(DomainError, match=r"^lam=True must be a real number in \[0, inf\)$"):
        check_real("lam", True, 0, math.inf, "[)")
    # the closed ends take their bounds, inf included
    check_real("tol", math.inf, 0, math.inf, "(]")
    check_real("r_inner", 0, 0, 1.0, "[)")
    check_real("rhs", -math.inf)
