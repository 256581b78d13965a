"""The integer-input rule of errors.check_int at every entry point.

Each order, dimension and count argument takes an int or a numpy
integer in its range.  A float, even 3.0, a bool, a NaN, a string or an
out-of-range value is refused with one DomainError before any
computation, never with a TypeError, ZeroDivisionError or ValueError from
deeper down, and never accepted as a number.
"""

import argparse
import json
import math
import warnings

import numpy as np
import pytest

from khessian.cli import cmd_cone
from khessian.cones import load_matrix_json, membership_slack
from khessian.dirichlet import SolverConfig, first_integral_solve, make_grid
from khessian.eigen import IterationConfig, estimate_lambda1, lower_bound
from khessian.errors import DomainError, check_int
from khessian.geometry import (
    augment_r,
    ellipsoid_field,
    sphere_field,
    strictly_km1_convex,
    verify_exp_boundary_barrier,
    verify_log_boundary_barrier,
)
from khessian.radial import quartic_test_profile, s_k_radial
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
