"""Radial Hessian calculus against dense matrix assembly.

The oracle: for h(|x|) the Hessian is (h'/r)(I - xx^T/r^2) + h'' xx^T/r^2,
assembled as an actual N x N matrix at random points and fed through the
matrix-side operator.  The closed-form radial S_k must agree.
"""

import math

import numpy as np
import pytest

from khessian.errors import DomainError
from khessian.radial import (
    RadialProfile,
    hopf_linear_bound,
    quartic_test_profile,
    s_k_on_profile,
    s_k_radial,
    s_k_radial_origin,
)
from reference import residual_scale, s_k_op, save_csv_rows, save_json_dump


def dense_radial_hessian(x, hp, hpp):
    r = np.linalg.norm(x)
    u = x / r
    proj = np.outer(u, u)
    return (hp / r) * (np.eye(x.size) - proj) + hpp * proj


def s_k_radial_split(hp, hpp, r, N, k):
    """S_k of a radial function as the two-term expansion, a reference.

    hpp * sigma_{k-1}(tangential) + sigma_k(tangential) with the tangential
    eigenvalue hp/r repeated N-1 times; s_k_radial must agree with it.
    """
    q = np.asarray(hp, dtype=float) / np.asarray(r, dtype=float)
    out = math.comb(N - 1, k - 1) * q ** (k - 1) * np.asarray(hpp, dtype=float)
    if k <= N - 1:
        out = out + math.comb(N - 1, k) * q**k
    return out


def test_s_k_radial_matches_matrix_operator():
    rng = np.random.default_rng(223)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.05, 3.0))
        hp, hpp = rng.standard_normal(2) * 2.0
        x = rng.standard_normal(n)
        x *= r / np.linalg.norm(x)
        expected = s_k_op(dense_radial_hessian(x, hp, hpp), k)
        got = s_k_radial(hp, hpp, r, n, k)
        np.testing.assert_allclose(
            got, expected, rtol=1e-9, atol=1e-9 * (1.0 + abs(expected))
        )


def test_two_path_agreement_on_profiles():
    for n, k in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        prof = quartic_test_profile(1.0, n, k, 128)
        r, hp, hpp = prof.r[1:], prof.hp[1:], prof.hpp[1:]
        assert np.max(np.abs(s_k_radial(hp, hpp, r, n, k)
                             - s_k_radial_split(hp, hpp, r, n, k))) <= 1e-12
        rng = np.random.default_rng(n * 10 + k)
        r = np.linspace(0.01, 1.0, 200)
        hp = rng.standard_normal(200)
        hpp = rng.standard_normal(200)
        split = s_k_radial_split(hp, hpp, r, n, k)
        fact = s_k_radial(hp, hpp, r, n, k)
        scale = residual_scale(hp, hpp, r, k)
        assert np.max(np.abs(split - fact) / scale) <= 1e-12


def test_fundamental_profile_annihilates():
    # r^(2 - N/k) is S_k-harmonic away from the origin when 2k > N
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        alpha = 2.0 - n / k
        r = np.linspace(0.01, 2.0, 100)
        hp = alpha * r ** (alpha - 1.0)
        hpp = alpha * (alpha - 1.0) * r ** (alpha - 2.0)
        sk = s_k_radial(hp, hpp, r, n, k)
        scale = residual_scale(hp, hpp, r, k)
        assert np.max(np.abs(sk) / scale) <= 1e-10


def test_power_profile_closed_form():
    # S_j of r^alpha is C(N-1,j-1)/j (alpha r^(alpha-2))^j ((alpha-2)j + N):
    # zero at j = k for the critical exponent, positive below it while the
    # profile is admissible
    r = np.linspace(0.1, 1.5, 50)
    for n, k in [(3, 2), (4, 3)]:
        alpha = 2.0 - n / k
        hp = alpha * r ** (alpha - 1.0)
        hpp = alpha * (alpha - 1.0) * r ** (alpha - 2.0)
        scale = residual_scale(hp, hpp, r, n)
        for j in range(1, n + 1):
            closed = (math.comb(n - 1, j - 1) / j * (alpha * r ** (alpha - 2.0)) ** j
                      * ((alpha - 2.0) * j + n))
            assert np.max(np.abs(s_k_radial(hp, hpp, r, n, j) - closed) / scale) <= 1e-12
        assert np.max(np.abs(s_k_radial(hp, hpp, r, n, k)) / scale) <= 1e-12
        for j in range(1, k):
            assert np.all(s_k_radial(hp, hpp, r, n, j) > 0)


def test_origin_limit():
    for n in (2, 3, 5):
        for k in range(1, n + 1):
            for hpp0 in (0.5, 2.0, -1.0):
                got = s_k_radial_origin(hpp0, n, k)
                expected = s_k_op(hpp0 * np.eye(n), k)
                np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_s_k_on_profile_handles_origin_node():
    prof = quartic_test_profile(1.0, 3, 2, 64)
    sk = s_k_on_profile(prof)
    # analytic: S_2 at 0 is C(3,2) hpp(0)^2 = 3 R^4
    np.testing.assert_allclose(sk[0], 3.0, rtol=1e-12)
    assert np.all(np.isfinite(sk))


def test_quartic_profile_values():
    prof = quartic_test_profile(2.0, 3, 2, 100)
    r = prof.r
    np.testing.assert_allclose(prof.h, -((4.0 - r * r) ** 2) / 4.0, atol=1e-14)
    np.testing.assert_allclose(prof.hp, r * (4.0 - r * r), atol=1e-14)
    np.testing.assert_allclose(prof.hpp, 4.0 - 3.0 * r * r, atol=1e-14)
    assert prof.h[-1] == 0.0
    assert prof.R == 2.0


def test_quartic_operator_inequality():
    # S_k of the quartic stays below C(N,k) (R^2 - r^2)^k, with equality
    # only at the origin; this is the engine behind the upper bound
    for n, k in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        prof = quartic_test_profile(1.0, n, k, 256)
        sk = s_k_on_profile(prof)
        cap = math.comb(n, k) * (1.0 - prof.r**2) ** k
        assert np.all(sk <= cap + 1e-12)
        np.testing.assert_allclose(sk[0], cap[0], rtol=1e-12)


def test_exp_barrier_rate_floor_enforced():
    # the Hopf barrier C0 (e^{-mR} - e^{-mr}) is a strict supersolution on
    # [r_in, R] only for m > (N - k)/(k r_in)
    r = np.linspace(0.0, 1.0, 257)
    prof = RadialProfile(N=3, k=2, r=r, h=(r * r - 1.0) / 2.0, hp=r,
                         hpp=np.ones_like(r), k_convex=True)
    floor = (3 - 2) / (2 * 0.4)
    assert hopf_linear_bound(prof, r_in=0.4, m=1.01 * floor)["m"] == 1.01 * floor
    for m in (floor, 0.5 * floor):
        with pytest.raises(DomainError):
            hopf_linear_bound(prof, r_in=0.4, m=m)
    # e^{-mR} and e^{-m r_in} both underflow: the barrier's C0 once divided by 0
    with pytest.raises(DomainError, match=r"^rate m=10000\.0 is out of range"):
        hopf_linear_bound(prof, r_in=0.4, m=1e4)


def test_hopf_bound_on_closed_form():
    # h = (r^2 - R^2)/2 solves the constant-one source problem; the
    # exponential collar barrier must certify linear boundary decay
    r = np.linspace(0.0, 1.0, 257)
    prof = RadialProfile(
        N=3, k=2, r=r, h=(r * r - 1.0) / 2.0, hp=r, hpp=np.ones_like(r),
        k_convex=True,
    )
    report = hopf_linear_bound(prof)
    assert report["passed"]
    assert report["C1"] > 0
    assert report["worst_margin"] <= 1e-12
    # the linear bound it certifies really holds with the returned constant
    collar = r >= report["r_in"]
    assert np.all(prof.h[collar] <= -report["C1"] * (1.0 - r[collar]) + 1e-12)


def test_profile_validation_and_io(tmp_path):
    r = np.linspace(0.0, 1.0, 9)
    h = np.zeros(9)
    with pytest.raises(DomainError):
        RadialProfile(N=3, k=2, r=r[::-1], h=h, hp=h, hpp=h)
    with pytest.raises(DomainError):
        RadialProfile(N=3, k=2, r=r, h=h[:5], hp=h, hpp=h)
    with pytest.raises(DomainError):
        RadialProfile(N=3, k=5, r=r, h=h, hp=h, hpp=h)

    prof = quartic_test_profile(1.0, 3, 2, 32)
    path = tmp_path / "profile.csv"
    prof.save_csv(path)
    back = RadialProfile.load_csv(path, N=3, k=2)
    np.testing.assert_array_equal(back.r, prof.r)
    np.testing.assert_array_equal(back.h, prof.h)
    np.testing.assert_array_equal(back.hp, prof.hp)
    np.testing.assert_array_equal(back.hpp, prof.hpp)


def test_spectrum_rejects_nonpositive_radius():
    # the tangential eigenvalue h'/r needs r > 0; the origin has its own path
    for r in (0.0, -1.0, np.array([0.5, 0.0])):
        with pytest.raises(DomainError):
            s_k_radial(1.0, 1.0, r, 3, 2)


# values whose text is easy to get wrong: a signed zero, the smallest
# subnormal, the float extremes' neighbourhood and a repeating fraction
AWKWARD = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0, 0.0, 2.0**-1022]


@pytest.mark.parametrize("nodes", [65, 4097])
def test_profile_writers_match_the_reference_bytes(nodes, tmp_path):
    rng = np.random.default_rng(nodes)
    r = np.linspace(0.0, 1.0, nodes)
    r[1] = 5e-324
    cols = [rng.standard_normal(nodes) * 10.0 ** rng.uniform(-300, 300, nodes)
            for _ in range(3)]
    for j, col in enumerate(cols):
        col[j:j + 4 * len(AWKWARD):4] = AWKWARD
    prof = RadialProfile(N=3, k=2, r=r, h=cols[0], hp=cols[1], hpp=cols[2])
    for write, reference, name in ((RadialProfile.save_csv, save_csv_rows, "p.csv"),
                                   (RadialProfile.save_json, save_json_dump, "p.json")):
        write(prof, tmp_path / name)
        reference(prof, tmp_path / f"ref-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    fields = (tmp_path / "p.csv").read_bytes().decode().replace("\r\n", ",").split(",")
    assert {"-0", "4.9406564584124654e-324", "-1.0000000000000001e+300",
            "0.33333333333333331"} <= set(fields)
