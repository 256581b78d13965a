"""Elementary symmetric function algebra against subset enumeration.

The oracle used throughout is the literal definition: sigma_k as a sum
of k-fold products over index subsets, evaluated with exact Python
arithmetic on small vectors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian.errors import DomainError
from khessian.symfun import _sigma_columns, in_gamma_k, sigma_all
from reference import in_gamma_k_korevaar


def sigma_enumerated(vals, k):
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(vals, k))


def test_frozen_examples():
    # sigma of (1,2,3): e_1 = 6, e_2 = 11, e_3 = 6
    np.testing.assert_allclose(sigma_all([1.0, 2.0, 3.0]), [1.0, 6.0, 11.0, 6.0])
    assert sigma_all([1.0, 2.0, 3.0])[2] == 11.0
    for n in range(1, 9):
        for k in range(n + 1):
            assert sigma_all(np.ones(n))[k] == math.comb(n, k)


def test_matches_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = rng.integers(1, 9)
        lam = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
        sig = sigma_all(lam)
        for k in range(n + 1):
            expected = sigma_enumerated(lam.tolist(), k)
            np.testing.assert_allclose(
                sig[k], expected, rtol=1e-10, atol=1e-10 * max(1.0, abs(expected))
            )


def test_sigma_k_order_validation():
    with pytest.raises(DomainError):
        in_gamma_k([1.0, 2.0], 3)
    with pytest.raises(DomainError):
        in_gamma_k([1.0, 2.0], -1)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=7), st.data())
@settings(max_examples=200, deadline=None)
def test_permutation_invariance(vals, data):
    perm = data.draw(st.permutations(vals))
    np.testing.assert_allclose(
        sigma_all(vals), sigma_all(perm), rtol=1e-9, atol=1e-9
    )


def test_gamma_chain():
    # membership at order k implies membership at every lower order
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(500):
        n = rng.integers(2, 7)
        lam = rng.standard_normal(n) + rng.uniform(0.0, 1.5)
        for k in range(n, 0, -1):
            if in_gamma_k(lam, k):
                seen += 1
                for j in range(1, k):
                    assert in_gamma_k(lam, j)
                break
    assert seen > 100  # the draw actually exercises the cones


def test_positive_orthant_inside_every_cone():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(1, 8)
        lam = rng.uniform(0.1, 5.0, n)
        assert in_gamma_k(lam, int(n))


def test_korevaar_agreement():
    # skip draws whose sigmas sit within 1e-9 of zero: the two predicates
    # may legitimately differ on the cone boundary
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(400):
        n = rng.integers(2, 7)
        lam = rng.standard_normal(n) * 2.0
        sig = sigma_all(lam)
        if np.min(np.abs(sig[1:])) < 1e-9 * (1.0 + np.max(np.abs(sig))):
            continue
        for k in range(1, n + 1):
            assert in_gamma_k(lam, k) == in_gamma_k_korevaar(lam, k)
        checked += 1
    assert checked > 300


def test_gamma_1_is_positive_trace():
    assert in_gamma_k([-1.0, 0.5, 1.0], 1)
    assert not in_gamma_k([-1.0, 0.5, 0.4], 1)
    assert in_gamma_k([-1.0, 0.0, 1.0], 1, strict=False)


def test_in_gamma_k_ignores_the_order_at_rounding_ties():
    # 0.5 - 0.6 + 0.1 rounds to +2.8e-17 in this order and to 0 ascending;
    # every order gets the verdict of the ascending spectrum
    for lam in itertools.permutations([0.5, -0.6, 0.1]):
        assert not in_gamma_k(lam, 1)
        assert in_gamma_k(lam, 1, strict=False)


def test_closed_cone_slack():
    lam = np.array([0.0, 1.0])
    assert not in_gamma_k(lam, 2, strict=True)
    assert in_gamma_k(lam, 2, strict=False)
    assert in_gamma_k([-1e-12, 1.0], 2, strict=False, slack=1e-11)
    with pytest.raises(DomainError):
        in_gamma_k(lam, 2, slack=-1.0)


def test_batched_rows_match_single_calls():
    # an (M, n) batch runs the same recurrence along each row, so every row
    # equals the 1-d call on it exactly, not just to rounding
    rng = np.random.default_rng(71)
    for n in range(1, 7):
        rows = rng.standard_normal((257, n)) * 10.0 ** rng.integers(-2, 3, (257, 1))
        batched = sigma_all(rows)
        assert batched.shape == (257, n + 1)
        np.testing.assert_array_equal(batched, np.stack([sigma_all(row) for row in rows]))
    one_row = rng.standard_normal((1, 4))
    np.testing.assert_array_equal(sigma_all(one_row)[0], sigma_all(one_row[0]))


def test_batched_non_finite_raises():
    rows = np.ones((5, 3))
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(rows.shape[0]):
            poisoned = rows.copy()
            poisoned[i, i % 3] = bad
            with pytest.raises(DomainError):
                sigma_all(poisoned)


def test_core_truncated_at_top_is_bitwise_sigma_all():
    # order j never reads a slot above j, so stopping at top changes no bit
    rng = np.random.default_rng(89)
    for n in range(1, 8):
        rows = rng.standard_normal((64, n)) * 10.0 ** rng.integers(-3, 4, (64, 1))
        full = sigma_all(rows)
        for top in range(n + 1):
            core = _sigma_columns(rows.T, top)
            assert core.shape == (top + 1, 64)
            assert core.T.tobytes() == full[:, : top + 1].copy().tobytes()
            assert _sigma_columns(rows[0], top).tobytes() == full[0, : top + 1].tobytes()
        # orders above n stay exactly zero
        over = _sigma_columns(rows.T, n + 2)
        assert over[: n + 1].T.tobytes() == full.tobytes() and not over[n + 1 :].any()


def test_core_broadcast_columns_match_materialized_cells():
    # (S, 1) and (D,) columns and a scalar, as the collar passes them, give
    # the cells of the materialized (S, D, N) array, bit for bit
    rng = np.random.default_rng(97)
    S, D = 7, 5
    for n_rows in range(3):
        a = rng.standard_normal((S, 1))
        b = rng.standard_normal(D)
        cols = [a, b, 0.75] + [rng.standard_normal((S, D)) for _ in range(n_rows)]
        cells = np.stack(np.broadcast_arrays(*cols), axis=-1)
        n = cells.shape[-1]
        ref = sigma_all(cells.reshape(-1, n)).reshape(S, D, n + 1)
        for top in range(n + 1):
            got = _sigma_columns(cols, top)
            assert got.shape == (top + 1, S, D)
            assert np.moveaxis(got, 0, -1).copy().tobytes() == ref[..., : top + 1].copy().tobytes()
