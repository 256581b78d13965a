"""Radial Dirichlet solver against closed forms and quadrature oracles.

Primary oracles: the paraboloid a (r^2 - R^2)/2 for constant sources
(exact), the log profile on the annulus (exact), and direct adaptive
quadrature of the first integral for a non-polynomial source at (3,2).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, solve_ivp

import khessian.dirichlet as dirichlet
from khessian.dirichlet import (
    SolverConfig,
    SourceTerm,
    first_integral_solve,
    holder_seminorm,
    make_grid,
    solution_residual,
    solve_radial_dirichlet,
)
from khessian.errors import ConvergenceError, DomainError
from khessian.radial import RadialProfile, s_k_radial
from khessian.symfun import in_gamma_k


def test_source_term_forms(tmp_path):
    assert SourceTerm.parse("const:2.5").evaluate([0.0, 1.0]).tolist() == [2.5, 2.5]
    poly = SourceTerm.parse("poly:1,0,2")
    np.testing.assert_allclose(poly.evaluate([2.0]), [9.0])
    path = tmp_path / "f.csv"
    path.write_text("r,f\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    for text in (str(path), f"file:{path}"):
        samp = SourceTerm.parse(text)
        np.testing.assert_allclose(samp.evaluate([0.25]), [1.5])
    with pytest.raises(DomainError):
        SourceTerm.parse("const:abc")
    with pytest.raises(DomainError):
        SourceTerm.parse("poly:")
    with pytest.raises(DomainError):
        SourceTerm.parse(str(tmp_path / "missing.csv"))
    # an empty file is refused before numpy can warn or fail on it
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="r,f"):
            SourceTerm.parse(f"file:{empty}")
    with pytest.raises(DomainError):
        SourceTerm.constant(-1.0).evaluate([0.5])
    with pytest.raises(DomainError):
        SourceTerm.from_callable(lambda r: r - 0.5).evaluate([0.0, 1.0])


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(grid_size=32)
    with pytest.raises(DomainError):
        SolverConfig(quadrature="romberg")
    with pytest.raises(DomainError):
        SolverConfig(tol_residual=0.0)


def test_make_grid():
    g = make_grid(2.0, 128)
    assert g.size == 129 and g[0] == 0.0 and g[-1] == 2.0
    gg = make_grid(2.0, 128, graded=True)
    assert gg.size == 129 and gg[-1] == 2.0
    assert np.all(np.diff(gg) > 0)
    # graded grids concentrate nodes at the boundary
    assert np.diff(gg)[-1] < np.diff(gg)[0]
    ga = make_grid(2.0, 64, r_inner=0.5)
    assert ga[0] == 0.5 and ga[-1] == 2.0
    # graded widths keep a fixed last-to-first ratio, so every size ascends
    for n in (256, 512, 1024):
        widths = np.diff(make_grid(1.0, n, graded=True))
        assert np.all(widths > 0)
        np.testing.assert_allclose(widths[-1] / widths[0], 1e-2, rtol=1e-9)
        np.testing.assert_allclose(widths[1:] / widths[:-1], 1e-2 ** (1.0 / (n - 1)),
                                   rtol=1e-9)


def test_paraboloid_exact():
    # f = C(N,k) a^k gives h = a (r^2 - R^2)/2. The product rule fits f
    # by pairwise quadratics, so constant f is reproduced up to the
    # rounding accumulated in the cumulative sums; trapezoid is exact
    # only when the moment integrand s^{N-1} f is linear (N = 2)
    for n, k in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
        for a in (1.0, 2.0):
            src = SourceTerm.constant(math.comb(n, k) * a**k)
            cfg = SolverConfig(grid_size=512, quadrature="simpson")
            p = solve_radial_dirichlet(src, 1.0, n, k, cfg)
            exact = a * (p.r**2 - 1.0) / 2.0
            assert np.max(np.abs(p.h - exact)) <= 1e-10
            np.testing.assert_allclose(p.hp, a * p.r, atol=1e-11)
            np.testing.assert_allclose(p.hpp, a, atol=1e-10)
    for n, k in [(2, 1), (2, 2)]:
        cfg = SolverConfig(grid_size=512, quadrature="trapezoid")
        p = solve_radial_dirichlet(SourceTerm.constant(math.comb(n, k)), 1.0, n, k, cfg)
        assert np.max(np.abs(p.h - (p.r**2 - 1.0) / 2.0)) <= 1e-12
    # N >= 3 trapezoid carries the second-order moment error
    cfg = SolverConfig(grid_size=512, quadrature="trapezoid", tol_residual=1.0)
    p = solve_radial_dirichlet(SourceTerm.constant(3.0), 1.0, 3, 2, cfg)
    assert np.max(np.abs(p.h - (p.r**2 - 1.0) / 2.0)) <= 2e-5


def test_graded_paraboloid_at_default_size():
    # const:1 gives h = a (r^2 - R^2)/2 with C(N,k) a^k = 1 on any grid, so
    # the graded default grid must reproduce it to rounding
    for n, k in [(2, 1), (3, 2), (5, 3)]:
        p = solve_radial_dirichlet(SourceTerm.constant(1), 1.0, n, k,
                                   SolverConfig(graded=True))
        assert p.r.size == SolverConfig().grid_size + 1
        a = math.comb(n, k) ** (-1.0 / k)
        assert np.max(np.abs(p.h - a * (p.r**2 - 1.0) / 2.0)) <= 1e-14


def test_zero_source():
    p = solve_radial_dirichlet(SourceTerm.constant(0.0), 1.0, 3, 2)
    assert np.all(p.h == 0.0) and np.all(p.hp == 0.0)
    # isotropic fallback: h'' = (f / C(N,k))^{1/k} = 0 here
    assert np.all(p.hpp == 0.0)


def test_linear_laplace_closed_form():
    # N=2, k=1, f(r) = r: (r h')' = r^2 so h = (r^3 - 1)/9
    p = solve_radial_dirichlet(SourceTerm.from_callable(lambda r: r), 1.0, 2, 1)
    np.testing.assert_allclose(p.h, (p.r**3 - 1.0) / 9.0, atol=1e-11)


def test_hessian_route_against_quadrature_oracle():
    # (3,2), f = 1 + r: r (h')^2 = r^3/3 + r^4/4 analytically, so h(r) is
    # minus the adaptive quadrature of sqrt(s^2/3 + s^3/4) on [r, 1]
    src = SourceTerm.from_callable(lambda r: 1.0 + r)
    p = solve_radial_dirichlet(src, 1.0, 3, 2)
    hp_exact = lambda s: np.sqrt(s * s / 3.0 + s**3 / 4.0)
    for rv in (0.2, 0.5, 0.8):
        i = int(np.argmin(np.abs(p.r - rv)))
        h_exact = -quad(hp_exact, p.r[i], 1.0, epsabs=1e-14)[0]
        assert abs(p.h[i] - h_exact) <= 5e-10
    np.testing.assert_allclose(p.hp, hp_exact(p.r), atol=5e-7)


def test_shooting_oracle_nonpolynomial():
    # same pair via an ODE shooting oracle on h'': S_2 = f becomes
    # 2 (h'/r) h'' + (h'/r)^2 = f away from the origin
    src_fn = lambda r: 1.0 + np.exp(-(r**2))
    p = solve_radial_dirichlet(SourceTerm.from_callable(src_fn), 1.0, 3, 2)

    def rhs(r, y):
        q = y[1] / r
        return [y[1], (src_fn(r) - q * q) / (2.0 * q)]

    eps = p.r[4]
    sol = solve_ivp(rhs, (eps, 1.0), [p.h[4] - p.h[-1], p.hp[4]],
                    t_eval=p.r[4::64], rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(p.h[4::64] - p.h[-1], sol.y[0], atol=1e-7)


def test_convergence_order_on_smooth_source():
    # sup-node error of h against a fine reference; trapezoid moment is
    # second order, the product rule fourth, measured between doublings
    # on grids coarse enough that truncation dominates rounding
    src = SourceTerm.from_callable(lambda r: 1.0 + np.exp(-(r**2)))
    for scheme, min_order in (("trapezoid", 1.7), ("simpson", 3.5)):
        vals = []
        for g in (64, 128, 256):
            cfg = SolverConfig(grid_size=g, quadrature=scheme, tol_residual=1.0)
            p = solve_radial_dirichlet(src, 1.0, 3, 2, cfg)
            vals.append(p.h[0])
        ref_cfg = SolverConfig(grid_size=4096, quadrature="simpson")
        ref = solve_radial_dirichlet(src, 1.0, 3, 2, ref_cfg).h[0]
        errs = [abs(v - ref) for v in vals]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= min_order, (scheme, orders)


def test_monotone_source_dependence_exact():
    # trapezoid cumulative sums have nonnegative weights in a fixed
    # order, so f >= g nodewise forces h_f <= h_g with no float slack
    rng = np.random.default_rng(97)
    r = make_grid(1.0, 256)
    for _ in range(50):
        base = rng.uniform(0.0, 2.0, r.size)
        bump = rng.uniform(0.0, 1.0, r.size)
        h_g, _, _ = first_integral_solve(base, r, 3, 2, "trapezoid")
        h_f, _, _ = first_integral_solve(base + bump, r, 3, 2, "trapezoid")
        assert np.all(h_f <= h_g)


def test_output_is_k_convex():
    src = SourceTerm.from_callable(lambda r: 1.0 + r**3)
    for n, k in [(2, 2), (3, 2), (4, 3)]:
        p = solve_radial_dirichlet(src, 1.0, n, k)
        assert p.k_convex
        assert np.all(p.hp >= 0.0)
        for i in range(1, p.r.size, 37):
            lam = np.full(n, p.hp[i] / p.r[i])
            lam[0] = p.hpp[i]
            assert in_gamma_k(lam, k, strict=False, slack=1e-12)


def fd_witness_residual(profile, f, skip=0):
    """True pointwise PDE defect with h'' re-derived by finite differences.

    Unlike the stored h'', which comes from differentiating the first
    integral and satisfies the equation by construction, the
    finite-difference second derivative is an independent witness of how
    well the discrete h' actually solves the equation.  The cumulative
    quadrature has a startup layer at the origin where the moment is tiny
    and its relative error does not refine away; `skip` drops that many
    innermost interior nodes so the witness can measure the rest.
    """
    r, hp = profile.r, profile.hp
    f_nodes = f.evaluate(r)
    hpp_fd = np.gradient(hp, r, edge_order=2)
    lo = 1 + skip
    sk = s_k_radial(hp[lo:-1], hpp_fd[lo:-1], r[lo:-1], profile.N, profile.k)
    return float(np.max(np.abs(sk - f_nodes[lo:-1]) / (1.0 + np.abs(f_nodes[lo:-1]))))


def test_stored_residual_gate_and_fd_witness():
    src = SourceTerm.from_callable(lambda r: 1.0 + r)
    p = solve_radial_dirichlet(src, 1.0, 3, 2)
    assert solution_residual(p, src) <= 1e-14
    # the independent witness converges once the quadrature startup
    # layer at the origin is excluded
    coarse = solve_radial_dirichlet(src, 1.0, 3, 2, SolverConfig(grid_size=256))
    fine = solve_radial_dirichlet(src, 1.0, 3, 2, SolverConfig(grid_size=1024))
    assert fd_witness_residual(fine, src, skip=4) < fd_witness_residual(
        coarse, src, skip=4
    )
    assert fd_witness_residual(fine, src, skip=4) <= 1e-5


def test_holder_seminorm_closed_forms():
    # Lipschitz seminorm of the paraboloid approaches max |h'| = a R from
    # below: the best grid pair gives (r_M + r_{M-1}) / 2 = 1 - dr / 2;
    # the sqrt profile has 1/2-seminorm 1 attained exactly at the origin
    p = solve_radial_dirichlet(SourceTerm.constant(3.0), 1.0, 3, 2)
    np.testing.assert_allclose(holder_seminorm(p, 1.0), 1.0 - 1.0 / 1024.0, rtol=1e-10)
    r = make_grid(1.0, 512)
    prof = RadialProfile(
        N=3, k=2, r=r, h=np.sqrt(r), hp=np.ones_like(r), hpp=np.zeros_like(r)
    )
    np.testing.assert_allclose(holder_seminorm(prof, 0.5), 1.0, rtol=1e-12)
    with pytest.raises(DomainError):
        holder_seminorm(p, 0.0)
    with pytest.raises(DomainError):
        holder_seminorm(p, 1.5)


def test_holder_seminorm_blocked_matches_dense():
    # 257 nodes: one full row block and a one-row remainder
    r = make_grid(1.0, 256)
    h = np.cumsum(np.random.default_rng(257).normal(size=r.size))
    prof = RadialProfile(N=3, k=2, r=r, h=h, hp=np.zeros_like(r), hpp=np.zeros_like(r))
    dh = np.abs(h[:, None] - h[None, :])
    dr = np.abs(r[:, None] - r[None, :])
    mask = dr > 0
    for alpha in (0.25, 0.5, 1.0):
        dense = float(np.max(dh[mask] / dr[mask] ** alpha))
        assert holder_seminorm(prof, alpha) == dense


def test_trapezoid_cumsum_matches_scipy(monkeypatch):
    # the default grid has dyadic spacing, where any summation order is
    # exact; the R = 0.9 grid is not, so it pins the operation order
    cases = [(R, N, k) for R in (1.0, 0.9) for N, k in [(2, 1), (3, 2), (5, 3)]]

    def solve(R, N, k):
        r = make_grid(R, 512)
        return first_integral_solve(1.0 + (R**2 - r**2) ** k, r, N, k, scheme="trapezoid")

    new = [solve(*case) for case in cases]
    monkeypatch.setattr(dirichlet, "_cumulative",
                        lambda y, x, scheme: cumulative_trapezoid(y, x, initial=0.0))
    for case, got in zip(cases, new):
        for a, b in zip(got, solve(*case)):
            np.testing.assert_array_equal(a, b)


def test_holder_grid_stability():
    vals = []
    for g in (512, 1024):
        p = solve_radial_dirichlet(
            SourceTerm.constant(1.0), 1.0, 3, 2, SolverConfig(grid_size=g)
        )
        vals.append(holder_seminorm(p, 0.5))
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.05


def test_annulus_log_closed_form():
    # N=2, k=1, f = 0 on [1/2, 1] with h(1/2) = -1: harmonic in the
    # annulus, h = -log(1/r)/log(2)
    p = solve_radial_dirichlet(
        SourceTerm.constant(0.0), 1.0, 2, 1, r_inner=0.5, inner_value=-1.0
    )
    exact = -np.log(1.0 / p.r) / np.log(2.0)
    assert np.max(np.abs(p.h - exact)) <= 1e-10
    assert abs(p.h[0] + 1.0) <= 1e-12
    assert p.h[-1] == 0.0


def test_annulus_validation():
    with pytest.raises(DomainError):
        solve_radial_dirichlet(SourceTerm.constant(1.0), 1.0, 2, 1, r_inner=0.5)
    with pytest.raises(DomainError):
        solve_radial_dirichlet(
            SourceTerm.constant(1.0), 1.0, 2, 1, r_inner=0.5, inner_value=0.5
        )
    # inner value deeper than the zero-constant branch can reach is fine;
    # deeper than any admissible branch is not
    p = solve_radial_dirichlet(
        SourceTerm.constant(1.0), 1.0, 2, 1, r_inner=0.5, inner_value=-2.0
    )
    assert abs(p.h[0] + 2.0) <= 1e-9



@pytest.mark.parametrize("N, k", [(2.5, 1), (2, 1.0), (0, 1), (2, 3)])
def test_solve_refuses_bad_dimension_or_order(N, k):
    with pytest.raises(DomainError, match="N="):
        solve_radial_dirichlet(SourceTerm.constant(1.0), 1.0, N, k)


@pytest.mark.parametrize("inner_value", [math.nan, -math.inf])
def test_solve_refuses_non_finite_inner_value(inner_value, monkeypatch):
    # refused before any grid is built, not after four refinements
    monkeypatch.setattr(dirichlet, "make_grid", None)
    with pytest.raises(DomainError, match="finite"):
        solve_radial_dirichlet(SourceTerm.constant(1.0), 1.0, 2, 1,
                               r_inner=0.5, inner_value=inner_value)

@pytest.mark.parametrize("scheme", ["simpson", "trapezoid"])
@pytest.mark.parametrize("n, k", [(3, 2), (2, 1), (4, 3), (5, 2)])
def test_annulus_nonzero_source_consistency(n, k, scheme):
    # stored arrays satisfy the equation on the annulus too
    src = SourceTerm.constant(2.0)
    p = solve_radial_dirichlet(src, 1.0, n, k, SolverConfig(quadrature=scheme),
                               r_inner=0.3, inner_value=-0.4)
    assert solution_residual(p, src) <= 1e-10
    assert abs(p.h[0] + 0.4) <= 1e-9


def test_solver_input_validation():
    src = SourceTerm.constant(1.0)
    with pytest.raises(DomainError):
        solve_radial_dirichlet(src, -1.0, 3, 2)
    with pytest.raises(DomainError):
        solve_radial_dirichlet(src, 1.0, 3, 5)
    with pytest.raises(DomainError):
        solve_radial_dirichlet("const:1", 1.0, 3, 2)
