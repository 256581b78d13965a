"""Matrix cone membership and the matrix-side operator S_k.

Eigenvalue-based sigma_k values are checked against characteristic-
polynomial coefficients and LU determinants, and the cone predicates on
matrices whose status is known by hand.
"""

import numpy as np
import pytest

from khessian.cones import (
    as_symmetric,
    eigenvalues,
    in_dual_sigma_k,
    in_sigma_k,
    load_matrix_json,
    membership_slack,
    save_matrix_json,
)
from khessian.errors import DomainError
from reference import s_k_op


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def test_symmetrize_and_validation():
    a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    s = as_symmetric(a)
    np.testing.assert_array_equal(s, s.T)
    with pytest.raises(DomainError):
        as_symmetric(np.ones((2, 3)))
    with pytest.raises(DomainError):
        as_symmetric(np.array([[1.0, 2.0], [5.0, 3.0]]))
    with pytest.raises(DomainError):
        as_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_eigenvalue_residuals():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(2, 7)
        a = random_symmetric(rng, n, scale=10.0)
        vals = eigenvalues(a)
        assert np.all(np.diff(vals) >= 0)
        w, v = np.linalg.eigh(a)
        res = np.linalg.norm(a @ v - v * w, axis=0)
        assert np.max(res) <= 1e-10 * max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(vals, w, rtol=1e-12, atol=1e-12)


def test_s_k_op_against_charpoly_and_det():
    # det(t I - A) = sum_m (-1)^m sigma_m(spec A) t^{N-m}, so the m-th
    # coefficient from np.poly recovers sigma_m; S_N doubles as an LU det
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = rng.integers(2, 7)
        a = random_symmetric(rng, n, scale=3.0)
        coeffs = np.poly(a)
        scale = max(1.0, np.max(np.abs(coeffs)))
        for k in range(1, n + 1):
            expected = (-1.0) ** k * coeffs[k]
            np.testing.assert_allclose(
                s_k_op(a, k), expected, rtol=1e-8, atol=1e-8 * scale
            )
        np.testing.assert_allclose(
            s_k_op(a, int(n)), np.linalg.det(a), rtol=1e-8,
            atol=1e-8 * scale,
        )


def test_orthogonal_invariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = rng.integers(2, 6)
        a = random_symmetric(rng, n, scale=2.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = q.T @ a @ q
        b = (b + b.T) / 2.0
        for k in range(1, n + 1):
            assert abs(s_k_op(a, k) - s_k_op(b, k)) <= 1e-10 * (
                1.0 + abs(s_k_op(a, k))
            )
            assert in_sigma_k(a, k) == in_sigma_k(b, k)


def test_membership_basics():
    eye = np.eye(3)
    for k in (1, 2, 3):
        assert in_sigma_k(eye, k, strict=True)
        assert in_dual_sigma_k(eye, k)
    zero = np.zeros((3, 3))
    for k in (1, 2, 3):
        assert in_sigma_k(zero, k, strict=False)
        assert not in_sigma_k(zero, k, strict=True)
    indef = np.diag([-1.0, 1.0])
    assert not in_sigma_k(indef, 2)
    assert in_sigma_k(indef, 1)  # trace is zero, closed cone passes


def test_dual_complement_identity():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = rng.integers(2, 6)
        a = random_symmetric(rng, n, scale=2.0)
        for k in range(1, n + 1):
            assert in_dual_sigma_k(a, k) == (not in_sigma_k(-a, k, strict=True))


def test_dual_example_indefinite():
    # diag(-1,1) is not 2-admissible, but -diag(-1,1) is not in the open
    # cone either, so the matrix does lie in the dual
    a = np.diag([-1.0, 1.0])
    assert not in_sigma_k(a, 2)
    assert in_dual_sigma_k(a, 2)
    # -I negates into the open cone, so it cannot be in the dual
    assert not in_dual_sigma_k(-np.eye(2), 2)


def test_membership_slack_scales():
    a = np.eye(2)
    assert membership_slack(a, 1) < membership_slack(100.0 * a, 1)
    assert membership_slack(a, 2) >= 1e-10


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(53)
    a = random_symmetric(rng, 4, scale=5.0)
    path = tmp_path / "a.json"
    save_matrix_json(path, a)
    b = load_matrix_json(path)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    path.write_text('{"n": 2, "entries": [1, 2, 3]}')
    with pytest.raises(DomainError):
        load_matrix_json(path)
    with pytest.raises(DomainError):
        load_matrix_json(tmp_path / "missing.json")
