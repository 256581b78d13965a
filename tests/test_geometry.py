"""Boundary curvature fields and collar barriers.

Ellipsoid curvatures are checked against the classical surface-of-
revolution formulas (meridional a b / (b^2 cos^2 u + a^2 sin^2 u)^{3/2},
parallel a / (b sqrt(b^2 cos^2 u + a^2 sin^2 u)) for semi-axes (a,b,b)),
and the collar operators against directly assembled diagonal Hessians.
"""

import itertools
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import khessian.geometry as geometry
from khessian.errors import DomainError, SearchError
from khessian.geometry import (
    CurvatureField,
    augment_r,
    ellipsoid_field,
    load_field_json,
    save_field_json,
    sphere_field,
    strictly_km1_convex,
    verify_exp_boundary_barrier,
    verify_log_boundary_barrier,
)
from khessian.symfun import in_gamma_k, sigma_all
from reference import (ellipsoid_curvatures_pointwise, exp_barrier_cells, log_barrier_cells,
                       s_k_op)


def test_sphere_field_curvatures():
    for n in (2, 3, 4):
        field = sphere_field(2.0, n, n_samples=16)
        assert field.ambient_dim == n
        assert field.kappas.shape == (16, n - 1)
        np.testing.assert_allclose(field.kappas, 0.5, rtol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(field.points, axis=1), 2.0, rtol=1e-12
        )
        for k in range(2, n + 1):
            assert strictly_km1_convex(field, k)


def test_ellipse_curvature_oracle():
    # plane ellipse x^2/a^2 + y^2/b^2 = 1: curvature a b / (a^2 sin^2 t
    # + b^2 cos^2 t)^{3/2} at (a cos t, b sin t)
    a, b = 2.0, 1.0
    field = ellipsoid_field([a, b], n_samples=64)
    for p, kap in zip(field.points, field.kappas):
        cos_t, sin_t = p[0] / a, p[1] / b
        expected = a * b / (a * a * sin_t**2 + b * b * cos_t**2) ** 1.5
        np.testing.assert_allclose(kap[0], expected, rtol=1e-9)


def test_spheroid_curvature_oracle():
    # prolate spheroid semi-axes (2,1,1); u is the angle from the long axis
    a, b = 2.0, 1.0
    field = ellipsoid_field([a, b, b], n_samples=48)
    for p, kap in zip(field.points, field.kappas):
        cos_u = p[0] / a
        w = b * b * cos_u**2 + a * a * (1.0 - cos_u**2)
        k_meridian = a * b / w**1.5
        k_parallel = a / (b * np.sqrt(w))
        np.testing.assert_allclose(
            np.sort(kap), np.sort([k_meridian, k_parallel]), rtol=1e-8
        )


def test_spheroid_curvature_range():
    # principal curvatures of the (2,1,1) spheroid live in [b/a^2, a/b^2]
    # = [0.25, 2], the extremes at equator meridian and pole umbilic
    a, b = 2.0, 1.0
    field = ellipsoid_field([a, b, b], n_samples=200)
    assert np.min(field.kappas) >= 0.25 - 1e-12
    assert np.max(field.kappas) <= 2.0 + 1e-12
    i_eq = int(np.argmin(np.abs(field.points[:, 0])))
    assert abs(field.points[i_eq, 0]) < 0.2
    np.testing.assert_allclose(
        np.sort(field.kappas[i_eq]), [0.25, 1.0], rtol=5e-2
    )


def test_augment_r_linear_oracle():
    # sigma_3(1, 1, -0.1, R) = -0.1 + 0.8 R crosses zero at R = 0.125 and
    # the lower sigmas are positive there, so the infimum is exactly 0.125
    field = CurvatureField(
        points=np.zeros((1, 4)), kappas=np.array([[1.0, 1.0, -0.1]])
    )
    r_cert = augment_r(field, 3)
    assert 0.125 < r_cert <= 0.125 * 1.002


def test_augment_r_is_the_largest_ratio_raised_by_1e3():
    # off the seed the threshold is max over samples and j of
    # -sigma_j / sigma_{j-1}, here about 1e9
    field = CurvatureField(
        points=np.zeros((2, 3)), kappas=np.array([[1.0, -1.0 + 1e-9], [2.0, -1.0]])
    )
    ratios = [-sigma_all(kap)[j] / sigma_all(kap)[j - 1] for kap in field.kappas for j in (1, 2)]
    r_cert = augment_r(field, 2)
    assert r_cert == pytest.approx(max(ratios) * 1.001, rel=1e-12)
    assert _ref_augmented_ok(field, 2, r_cert)


def test_augment_r_requires_strict_convexity():
    field = CurvatureField(
        points=np.zeros((1, 4)), kappas=np.array([[1.0, -1.0, -1.0]])
    )
    with pytest.raises(DomainError):
        augment_r(field, 3)


def test_distance_hessian_on_ball():
    # inside a ball of radius rho the distance Hessian has eigenvalues
    # -1/(rho - d) with multiplicity N-1 plus a zero normal direction, so
    # v = -M log(1 + t d) has the diagonal Hessian assembled below; the
    # log verifier at its one depth node must give its S_j
    rho, t = 2.0, 3.0
    for n in (2, 3, 5):
        field = sphere_field(rho, n, n_samples=4)
        for d in (0.3, 0.9):
            for k in range(1, n + 1):
                m_amp, report = verify_log_boundary_barrier(field, k, 1.0, 1.0, t, d,
                                                            n_depth=1)
                tangential = m_amp * t / ((1.0 + t * d) * (rho - d))
                normal = m_amp * t**2 / (1.0 + t * d) ** 2
                hess = np.diag(np.append(np.full(n - 1, tangential), normal))
                sj = [s_k_op(hess, j) for j in range(1, k + 1)]
                np.testing.assert_allclose(report["min_sj"], min(sj), rtol=1e-10)
                np.testing.assert_allclose(report["worst_margin"], sj[-1] - 1.0,
                                           rtol=1e-10, atol=1e-10 * sj[-1])


def test_composition_matches_assembled_matrix():
    # phi = g(dist) with g(d) = e^{-t d} - 1 has Hessian eigenvalues
    # -kappa_i g'(d) / (1 - kappa_i d) and g''(d); at one sample and one
    # depth with lam = 0 the exp verifier's worst margin is S_k of that
    # assembled matrix and min_sj the least S_j, j <= k
    rng = np.random.default_rng(67)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        kappa = rng.uniform(-0.4, 1.2, n - 1)
        d = float(rng.uniform(0.01, 0.4))  # inside the tube: 0.4 < 1/(2 * 1.2)
        t = float(rng.uniform(0.5, 4.0))
        gp, gpp = -t * math.exp(-t * d), t**2 * math.exp(-t * d)
        tangential = -kappa * gp / (1.0 - kappa * d)
        hess = np.diag(np.append(tangential, gpp))
        field = CurvatureField(points=np.zeros((1, n)), kappas=kappa[None, :])
        sj = [s_k_op(hess, j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            report = verify_exp_boundary_barrier(field, k, 0.0, t, d, n_depth=1)
            for got, expected in ((report["worst_margin"], sj[k - 1]),
                                  (report["min_sj"], min(sj[:k]))):
                np.testing.assert_allclose(
                    got, expected, rtol=1e-10, atol=1e-10 * (1.0 + abs(expected))
                )


def test_exp_barrier_on_sphere():
    field = sphere_field(1.0, 3)
    report = verify_exp_boundary_barrier(field, 2, 1.0, 3.0, 0.1)
    assert report["passed"]
    assert report["admissible"]
    assert report["worst_margin"] > 0
    assert report["kind"] == "exp-barrier"


def test_exp_barrier_margin_grows_with_rate():
    # a steeper barrier has more slack on the sphere; checked on a pair
    field = sphere_field(1.0, 3)
    lo = verify_exp_boundary_barrier(field, 2, 1.0, 3.0, 0.1)
    hi = verify_exp_boundary_barrier(field, 2, 1.0, 6.0, 0.1)
    assert hi["worst_margin"] > lo["worst_margin"]


def test_exp_barrier_fails_on_saddle_boundary():
    field = CurvatureField(
        points=np.zeros((2, 3)), kappas=np.array([[-5.0, -5.0], [-5.0, -4.0]])
    )
    report = verify_exp_boundary_barrier(field, 2, 1.0, 3.0, 0.1)
    assert not report["passed"]


def test_log_barrier_trivial_data():
    field = sphere_field(1.0, 3)
    m_amp, report = verify_log_boundary_barrier(field, 2, 0.0, 0.0, 3.0, 0.1)
    assert m_amp == 1.0
    assert report["passed"]


def test_log_barrier_scales_with_data():
    # at these parameters the boundary term 1/log(1+t d0) ~ 3.81 floors M,
    # so the source side needs a big push before it takes over
    field = sphere_field(1.0, 3)
    m_base, _ = verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, 0.1)
    m_usup, _ = verify_log_boundary_barrier(field, 2, 1.0, 10.0, 3.0, 0.1)
    m_fsup, _ = verify_log_boundary_barrier(field, 2, 1e4, 1.0, 3.0, 0.1)
    assert m_usup > m_base >= 1.0
    assert m_fsup > m_base


def test_log_barrier_infeasible_curvature():
    field = CurvatureField(
        points=np.zeros((1, 3)), kappas=np.array([[-5.0, -5.0]])
    )
    with pytest.raises(SearchError):
        verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, 0.1)


def test_tube_spec_validation():
    # the collar must lie in the regular tube 0 < d0 <= 1/(2 mu)
    field = sphere_field(0.5, 3)  # curvature 2 everywhere, tube bound 0.25
    assert verify_exp_boundary_barrier(field, 2, 1.0, 3.0, 0.25)["d0"] == 0.25
    assert verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, 0.25)[1]["d0"] == 0.25
    for d0 in (0.3, 0.0, -0.1):
        with pytest.raises(DomainError):
            verify_exp_boundary_barrier(field, 2, 1.0, 3.0, d0)
        with pytest.raises(DomainError):
            verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, d0)


def test_field_json_roundtrip(tmp_path):
    field = ellipsoid_field([2.0, 1.0, 1.0], n_samples=12)
    path = tmp_path / "field.json"
    save_field_json(path, field)
    back = load_field_json(path)
    np.testing.assert_allclose(back.points, field.points, rtol=1e-15)
    np.testing.assert_allclose(back.kappas, field.kappas, rtol=1e-15)
    with pytest.raises(DomainError):
        load_field_json(tmp_path / "nope.json")


def test_strict_convexity_orders():
    field = CurvatureField(
        points=np.zeros((1, 4)), kappas=np.array([[1.0, 1.0, -0.1]])
    )
    assert strictly_km1_convex(field, 3)  # needs sigma_1, sigma_2 > 0
    assert not strictly_km1_convex(field, 4)  # sigma_3 = -0.1
    with pytest.raises(DomainError):
        strictly_km1_convex(field, 1)


def _outcome(fn) -> str:
    """The bytes of a verifier's result, or the name of the error it raised."""
    try:
        return json.dumps(fn(), sort_keys=True)
    except (DomainError, SearchError) as exc:
        return type(exc).__name__


def test_results_do_not_depend_on_the_order_of_the_curvatures():
    # the sigma recurrence rounds by the order of its columns: taken in the
    # order given, these 160 cases give 64 exp reports, 22 log reports and
    # 29 augment_r values that change when the columns are reordered
    rng = np.random.default_rng(11)
    for _ in range(40):
        kap = rng.standard_normal((16, 3)) + 1.5
        fields = [CurvatureField(points=np.zeros((16, 4)), kappas=kap[:, list(perm)])
                  for perm in itertools.permutations(range(3))]
        assert all(np.array_equal(f.kappas, np.sort(kap, axis=1)) for f in fields)
        t, d0 = fields[0].mu, 0.4 / fields[0].mu
        for k in range(1, 5):
            checks = [lambda f: verify_exp_boundary_barrier(f, k, 0.01, t, d0),
                      lambda f: verify_log_boundary_barrier(f, k, 1.0, 0.1, t, d0)]
            if k >= 2:
                checks += [lambda f: augment_r(f, k), lambda f: strictly_km1_convex(f, k)]
            for check in checks:
                outcomes = {_outcome(lambda f=f: check(f)) for f in fields}
                assert len(outcomes) == 1, (k, outcomes)


def test_log_barrier_boundary_match_at_rounding_edge():
    # usup / log1p(t d0) rounds so that M log1p(t d0) lands 2.8e-17 below
    # usup; the amplitude must be stepped up until the match holds
    usup, t, d0 = 0.24239879652572363, 1.0155581006666958, 0.12308503070177838
    assert usup / math.log1p(t * d0) * math.log1p(t * d0) < usup
    # semi-axes s (1, 0.8, 0.6) give largest curvature mu = 1 / (0.36 s); the
    # data follow the barrier-field scaling t = 0.5 mu, d0 = 0.25 / mu
    scale = 1.0 / (0.36 * 2.0 * t)
    field = ellipsoid_field([scale, 0.8 * scale, 0.6 * scale], n_samples=16)
    m_amp, report = verify_log_boundary_barrier(field, 2, 1.0, usup, t, d0)
    assert m_amp * math.log1p(t * d0) >= usup
    assert m_amp <= math.nextafter(usup / math.log1p(t * d0), math.inf)
    assert report["boundary_match"]
    assert report["passed"]


@given(st.floats(1e-6, 1e6), st.floats(1e-3, 50.0), st.floats(1e-4, 0.5))
@settings(max_examples=300, deadline=None)
def test_log_barrier_boundary_term_always_matches(usup, t, d0):
    # fsup = 0 leaves the boundary term in charge of M
    field = sphere_field(1.0, 3, n_samples=4)
    m_amp, report = verify_log_boundary_barrier(field, 2, 0.0, usup, t, d0, n_depth=4)
    assert m_amp * math.log1p(t * d0) >= usup
    assert report["boundary_match"]
    assert report["passed"]


# Per-cell reference: the verifiers and convexity checks as they were
# before they were batched, one sigma_all call per sample x depth cell.

def _ref_exp(field, k, lam, t, d0, n_depth):
    depths = np.linspace(0.0, d0, n_depth + 1)[1:]
    min_sj = math.inf
    worst_margin = math.inf
    for kap in field.kappas:
        for d in depths:
            denom = 1.0 - kap * d
            vec = np.append(kap / denom, t)
            sig = sigma_all(vec)
            phi = math.exp(-t * d) - 1.0
            for j in range(1, k + 1):
                sj = t**j * math.exp(-j * t * d) * sig[j]
                min_sj = min(min_sj, sj)
                if j == k:
                    worst_margin = min(worst_margin, sj - lam * abs(phi) ** k)
    return {"min_sj": min_sj, "worst_margin": worst_margin,
            "admissible": min_sj > 0, "passed": min_sj > 0 and worst_margin > 0}


def _ref_log(field, k, fsup, usup, t, d0, n_depth):
    depths = np.linspace(0.0, d0, n_depth + 1)[1:]
    beta = math.inf
    for kap in field.kappas:
        for d in depths:
            denom = 1.0 - kap * d
            vec = np.append(kap / denom, t / (1.0 + t * d))
            sig = sigma_all(vec)
            beta = min(beta, float(np.min(sig[1 : k + 1])))
    if not beta > 0:
        return None
    beta_eff = 0.5 * beta
    m_pde = ((1.0 + t * d0) / t) * (fsup / beta_eff) ** (1.0 / k) if fsup > 0 else 0.0
    m_bc = usup / math.log1p(t * d0) if usup > 0 else 0.0
    M = max(m_pde, m_bc, 1.0 if fsup == 0 and usup == 0 else 0.0)
    while M * math.log1p(t * d0) < usup:
        M = math.nextafter(M, math.inf)
    min_sj = math.inf
    worst_margin = math.inf
    for kap in field.kappas:
        for d in depths:
            denom = 1.0 - kap * d
            vec = np.append(kap / denom, t / (1.0 + t * d))
            sig = sigma_all(vec)
            amp = M * t / (1.0 + t * d)
            for j in range(1, k + 1):
                sj = amp**j * sig[j]
                min_sj = min(min_sj, sj)
                if j == k:
                    worst_margin = min(worst_margin, sj - fsup)
    match = M * math.log1p(t * d0) >= usup
    return {"beta": beta, "M": M, "min_sj": min_sj, "worst_margin": worst_margin,
            "boundary_match": match, "admissible": min_sj > 0,
            "passed": min_sj > 0 and worst_margin >= 0 and match}


def _ref_strictly_km1_convex(field, k):
    return all(in_gamma_k(kap, k - 1, strict=True) for kap in field.kappas)


def _ref_augmented_ok(field, k, R):
    return all(in_gamma_k(np.append(kap, R), k, strict=True) for kap in field.kappas)


def _reference_fields():
    saddle = CurvatureField(
        points=np.zeros((2, 3)), kappas=np.array([[-5.0, -5.0], [-5.0, -4.0]])
    )
    return [
        ellipsoid_field([1.3, 0.7], n_samples=32),
        ellipsoid_field([1.0, 0.8, 0.6], n_samples=24),
        sphere_field(1.2, 3, n_samples=12),
        sphere_field(0.9, 4, n_samples=8),
        sphere_field(1.1, 5, n_samples=6),
        saddle,
    ]


def _assert_report_matches(got, ref):
    for key, value in ref.items():
        if isinstance(value, bool):
            assert got[key] == value, key
        else:
            np.testing.assert_allclose(got[key], value, rtol=1e-14, atol=0, err_msg=key)


def test_batched_verifiers_match_per_cell_reference():
    for field in _reference_fields():
        mu = field.mu
        for k in range(1, field.ambient_dim + 1):
            for rate, collar in ((0.5, 0.25), (3.0, 0.1)):
                t, d0 = rate * mu, collar / mu
                lam = 0.05 * mu ** (2 * k)
                got = verify_exp_boundary_barrier(field, k, lam, t, d0, n_depth=32)
                _assert_report_matches(got, _ref_exp(field, k, lam, t, d0, 32))
                usup = 1.0 / mu**2
                ref = _ref_log(field, k, 1.0, usup, t, d0, 32)
                if ref is None:
                    with pytest.raises(SearchError):
                        verify_log_boundary_barrier(field, k, 1.0, usup, t, d0, n_depth=32)
                    continue
                m_amp, got = verify_log_boundary_barrier(field, k, 1.0, usup, t, d0,
                                                         n_depth=32)
                _assert_report_matches(got, ref)
                assert m_amp == got["M"]


def _assert_same_bits(got, ref):
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, float):
            assert struct.pack("<d", got[key]) == struct.pack("<d", value), (key, got[key], value)
        else:
            assert got[key] == value, key


def _assert_verifiers_match_cells(field, k, t, d0, lam, fsup, usup, n_depth=64):
    got = verify_exp_boundary_barrier(field, k, lam, t, d0, n_depth=n_depth)
    _assert_same_bits(got, exp_barrier_cells(field, k, lam, t, d0, n_depth))
    ref = log_barrier_cells(field, k, fsup, usup, t, d0, n_depth)
    if ref is None:
        with pytest.raises(SearchError):
            verify_log_boundary_barrier(field, k, fsup, usup, t, d0, n_depth=n_depth)
        return
    m_amp, got = verify_log_boundary_barrier(field, k, fsup, usup, t, d0, n_depth=n_depth)
    assert struct.pack("<d", m_amp) == struct.pack("<d", ref[0])
    _assert_same_bits(got, ref[1])


def test_sample_minima_match_cellwise_products_bitwise():
    # the verifiers scale minima over samples; the batched cell layout
    # scaled every cell first.  Every report field must agree to the bit,
    # at three (rate, collar) pairs, with and without lam and the bounds.
    # The 1024-sample ellipse and the 300-sample ellipsoid span several
    # sample blocks, the second with a partial last block.
    fields = [ellipsoid_field([1.0, 0.6], n_samples=1024),
              ellipsoid_field([1.0, 0.8, 0.6], n_samples=300)] + _reference_fields()
    for field in fields:
        mu = field.mu
        for k in range(1, field.ambient_dim + 1):
            for rate, collar in ((0.5, 0.25), (3.0, 0.49), (0.01, 0.1)):
                t, d0 = rate * mu, collar / mu
                for lam, fsup, usup in ((0.05 * mu ** (2 * k), 1.0, 1.0 / mu**2),
                                        (0.0, 0.0, 0.0)):
                    _assert_verifiers_match_cells(field, k, t, d0, lam, fsup, usup)


def test_log_barrier_rounding_edge_matches_cellwise_products_bitwise():
    # the data of test_log_barrier_boundary_match_at_rounding_edge
    usup, t, d0 = 0.24239879652572363, 1.0155581006666958, 0.12308503070177838
    scale = 1.0 / (0.36 * 2.0 * t)
    field = ellipsoid_field([scale, 0.8 * scale, 0.6 * scale], n_samples=16)
    for k in (1, 2, 3):
        _assert_verifiers_match_cells(field, k, t, d0, 0.05, 1.0, usup)


def test_overflowing_barrier_values_are_domain_errors():
    field = sphere_field(1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # t^2 overflows, and e^{-2 t d} underflows to 0: their product is NaN
        with pytest.raises(DomainError, match="t\\^j"):
            verify_exp_boundary_barrier(field, 2, 0.1, 1e200, 0.1)
        # every factor is finite, but t^2 sigma_2 is not
        with pytest.raises(DomainError, match="S_j overflows"):
            verify_exp_boundary_barrier(field, 2, 0.0, 1e150, 1e-160)
        # M is finite, but M^2 t^2 / (1 + t d)^2 is not
        with pytest.raises(DomainError, match="amp\\^j"):
            verify_log_boundary_barrier(field, 2, 0.0, 1e300, 1e10, 0.1)
        # amp^2 is finite, but amp^2 sigma_2 is not
        with pytest.raises(DomainError, match="S_j overflows"):
            verify_log_boundary_barrier(field, 2, 1e308, 1.0, 3.0, 0.1)
        # every factor is finite, but sigma_2 of the collar curvatures is
        # not: refused in the recurrence, where a sample's +inf would hide
        # under the minimum over samples
        huge = CurvatureField(points=np.eye(3)[:2], kappas=np.full((2, 2), 1e200))
        with pytest.raises(DomainError, match="sigma_j on the collar overflows"):
            verify_exp_boundary_barrier(huge, 3, 0.0, 1.0, 1e-201)
        with pytest.raises(DomainError, match="sigma_j on the collar overflows"):
            verify_log_boundary_barrier(huge, 3, 1.0, 1.0, 1.0, 1e-201)
        # t d overflows in the collar's normal entry t / (1 + t d)
        with pytest.raises(DomainError, match="sigma_j on the collar overflows"):
            verify_log_boundary_barrier(sphere_field(1e10, 3), 2, 1.0, 1.0, 1e300, 4e9)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match=r"^rate t=.* in \(0, inf\)$"):
                verify_exp_boundary_barrier(field, 2, 0.1, bad, 0.1)
            with pytest.raises(DomainError, match=r"^rate t=.* in \(0, inf\)$"):
                verify_log_boundary_barrier(field, 2, 1.0, 1.0, bad, 0.1)
            with pytest.raises(DomainError, match=r"^collar width d0=.* in \(0, inf\)$"):
                verify_exp_boundary_barrier(CurvatureField(np.zeros((1, 3)), np.zeros((1, 2))),
                                            2, 0.1, 3.0, bad)
            with pytest.raises(DomainError, match=r"^collar width d0=.* in \(0, inf\)$"):
                verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, math.nan)


def test_batched_convexity_matches_per_cell_reference(monkeypatch):
    # random boundaries with mixed-sign curvatures, kept strictly
    # (k-1)-convex so augment_r has a nontrivial threshold to find
    rng = np.random.default_rng(83)
    raw = rng.uniform(-0.4, 1.5, (200, 3))
    fields = _reference_fields()
    for k in (2, 3):
        rows = raw[[in_gamma_k(kap, k - 1) for kap in raw]]
        fields.append(CurvatureField(points=np.zeros((rows.shape[0], 4)), kappas=rows))
    results = []
    for field in fields:
        for k in range(2, field.ambient_dim + 1):
            verdict = strictly_km1_convex(field, k)
            assert verdict == _ref_strictly_km1_convex(field, k)
            for R in (1e-6, 0.1, 0.37, 1.0, 10.0):
                sig = geometry._kappa_sigma(field, k)
                assert geometry._augmented_ok(sig, R) == _ref_augmented_ok(field, k, R)
            if verdict:
                results.append((field, k, augment_r(field, k)))
    assert any(r > 1e-3 for _, _, r in results)  # some searches leave the seed
    for field, k, r_cert in results:
        # augment_r hands the predicate sigma(kappa), computed once; the
        # reference recomputes everything per sample from the field
        monkeypatch.setattr(geometry, "_augmented_ok",
                            lambda sig, R, f=field, k=k: _ref_augmented_ok(f, k, R))
        assert augment_r(field, k) == r_cert


def test_collar_needs_a_depth_node():
    field = sphere_field(1.0, 3)
    for n_depth in (0, -3):
        with pytest.raises(DomainError):
            verify_exp_boundary_barrier(field, 2, 1.0, 3.0, 0.1, n_depth=n_depth)
        with pytest.raises(DomainError):
            verify_log_boundary_barrier(field, 2, 1.0, 1.0, 3.0, 0.1, n_depth=n_depth)


def test_sphere_points_lie_on_the_sphere_in_every_dimension():
    for n in range(2, 7):
        field = sphere_field(1.5, n, n_samples=40)
        np.testing.assert_allclose(np.linalg.norm(field.points, axis=1), 1.5, rtol=1e-12)
        assert np.all(field.kappas == 1.0 / 1.5)


def test_needle_ellipse_curvature_to_rounding():
    # a / b = 1e4: the curvature runs from b / a^2 = 1e-6 to a / b^2 = 1e6,
    # and every sample matches a b / (a^2 sin^2 t + b^2 cos^2 t)^{3/2}
    a, b = 100.0, 0.01
    field = ellipsoid_field([a, b], n_samples=1024)
    t = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    expected = a * b / (a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2) ** 1.5
    np.testing.assert_allclose(field.kappas[:, 0], expected, rtol=1e-13)


def test_batched_ellipsoid_curvatures_match_the_pointwise_loop():
    # the stacked eigvalsh reorders the arithmetic, so agreement is to a
    # few hundred ulps, with the largest spread on the flattest ellipsoid
    for axes in [(1.0, 0.6), (2.0, 0.5), (1.0, 0.8, 0.6), (2.0, 1.0, 1.0),
                 (1.3, 0.7, 0.9), (5.0, 0.1, 1.0)]:
        for n in (1, 7, 32, 160, 1024):
            field = ellipsoid_field(axes, n_samples=n)
            assert field.kappas.flags.c_contiguous
            np.testing.assert_allclose(
                field.kappas, ellipsoid_curvatures_pointwise(field.points, axes),
                rtol=2e-13, atol=0.0)
