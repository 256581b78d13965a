"""Radial Dirichlet solver against closed forms and quadrature oracles.

Primary oracles: the paraboloid a (r^2 - R^2)/2 for constant sources
(exact), the log profile on the annulus (exact), and direct adaptive
quadrature of the first integral for a non-polynomial source at (3,2).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

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
from khessian.eigen import estimate_lambda1
from khessian.errors import ConvergenceError, DomainError
from khessian.radial import RadialProfile, s_k_radial
from khessian.symfun import in_gamma_k
from reference import holder_dense, simpson_profile_scipy, trapezoid_solve_scipy

# the nine (N, k) pairs of the shooting-oracle table
ORACLE_PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]


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
        SourceTerm(lambda r: r - 0.5).evaluate([0.0, 1.0])
    # a polynomial that overflows is refused without numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            SourceTerm.parse("poly:1e308,1e308").evaluate([0.0, 1.0])


@pytest.mark.parametrize("nodes, samples, row", [
    ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0], 2),
    ([0.0, 0.5, 1.0], [1.0, 1.0, math.inf], 3),
    ([-math.inf, 0.5, 1.0], [1.0, 1.0, 1.0], 1),
])
def test_sampled_source_refuses_non_finite_rows(nodes, samples, row):
    # NaN compares False both ways, so a NaN node once passed the ascent check
    with pytest.raises(DomainError, match=f"^sampled source data row {row} is not a finite"):
        SourceTerm.from_samples(nodes, samples)


def test_callable_source_keeps_numpy_error_state():
    # the masked idiom divides 0/0 in the branch it discards at r = 0; a
    # caller's own arithmetic is not the library's float-range policy
    sinc = SourceTerm(
        lambda r: np.where(r > 0, np.sin(r) / np.where(r > 0, r, 1.0), 1.0))
    masked = SourceTerm(lambda r: np.where(r > 0, np.sin(r) / r, 1.0))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        p = solve_radial_dirichlet(masked, 1.0, 2, 1)
    assert np.array_equal(p.h, solve_radial_dirichlet(sinc, 1.0, 2, 1).h)


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
    p = solve_radial_dirichlet(SourceTerm(lambda r: r), 1.0, 2, 1)
    np.testing.assert_allclose(p.h, (p.r**3 - 1.0) / 9.0, atol=1e-11)


def test_hessian_route_against_quadrature_oracle():
    # (3,2), f = 1 + r: r (h')^2 = r^3/3 + r^4/4 analytically, so h(r) is
    # minus the adaptive quadrature of sqrt(s^2/3 + s^3/4) on [r, 1]
    src = SourceTerm(lambda r: 1.0 + r)
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
    p = solve_radial_dirichlet(SourceTerm(src_fn), 1.0, 3, 2)

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
    src = SourceTerm(lambda r: 1.0 + np.exp(-(r**2)))
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
    src = SourceTerm(lambda r: 1.0 + r**3)
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
    src = SourceTerm(lambda r: 1.0 + r)
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


@pytest.mark.parametrize("N, k", [(2, 1), (3, 2), (5, 3)])
def test_residual_gate_refines_where_the_clamp_zeroes_hprime(N, k):
    # f rises from 0 to 1 within the pair of Simpson intervals around node
    # 257 of grid 512; the pair's quadratic dips below 0 at that mid node,
    # the moment's clamp zeroes h' where f > 0, and S_k of the stored
    # profile misses f there.  The gate doubles the grid once.  Trapezoid
    # moments never dip, so its solve stays on grid 512.
    h = 1.0 / 512
    src = SourceTerm.from_samples([0.0, 257 * h - 0.01 * h, 258 * h, 1.0], [0, 0, 1, 1])
    simpson = solve_radial_dirichlet(src, 1.0, N, k, SolverConfig(grid_size=512))
    assert simpson.r.size - 1 == 1024
    assert solution_residual(simpson, src) <= 1e-14
    trapezoid = solve_radial_dirichlet(src, 1.0, N, k,
                                       SolverConfig(grid_size=512, quadrature="trapezoid"))
    assert trapezoid.r.size - 1 == 512
    with pytest.raises(ConvergenceError, match="final grid 512"):
        solve_radial_dirichlet(src, 1.0, N, k, SolverConfig(grid_size=512, refine_max=0))


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
    # 257 nodes: blocks do not divide the node count; a random walk leaves
    # the pruning bounds little slack
    r = make_grid(1.0, 256)
    h = np.cumsum(np.random.default_rng(257).normal(size=r.size))
    prof = RadialProfile(N=3, k=2, r=r, h=h, hp=np.zeros_like(r), hpp=np.zeros_like(r))
    dh = np.abs(h[:, None] - h[None, :])
    dr = np.abs(r[:, None] - r[None, :])
    mask = dr > 0
    for alpha in (0.25, 0.5, 1.0):
        dense = float(np.max(dh[mask] / dr[mask] ** alpha))
        assert holder_seminorm(prof, alpha) == dense


def _profile(r, h):
    return RadialProfile(N=3, k=2, r=r, h=h, hp=np.zeros_like(r), hpp=np.zeros_like(r))


def test_holder_seminorm_pruned_matches_dense_on_eigenfunctions():
    cases = [(N, k, 512) for N, k in ORACLE_PAIRS] + [(3, 2, 2048), (4, 3, 2048)]
    for N, k, grid in cases:
        w = estimate_lambda1(1.0, N, k, solver_cfg=SolverConfig(grid_size=grid)).eigenfunction
        alphas = {0.25, 1.0} | ({2.0 - N / k} if 2 * k > N else set())
        for alpha in sorted(alphas):
            assert holder_seminorm(w, alpha) == holder_dense(w.r, w.h, alpha), (N, k, alpha)


@pytest.mark.parametrize("nodes", [65, 257, 2049])
def test_holder_seminorm_pruned_matches_dense_off_block(nodes):
    # node counts that are not multiples of the block, uniform and graded,
    # smooth, kinked and random-walk profiles
    rng = np.random.default_rng(nodes)
    for graded in (False, True):
        r = make_grid(1.0, nodes - 1, graded=graded)
        for h in (np.sin(7.0 * r) - r**0.3, np.abs(r - 0.37) ** 0.6,
                  np.cumsum(rng.normal(size=nodes))):
            for alpha in (0.3, 1.0):
                assert holder_seminorm(_profile(r, h), alpha) == holder_dense(r, h, alpha)


def test_holder_seminorm_pruned_matches_dense_on_sqrt():
    # sqrt(r) has 1/2-seminorm 1, attained at the origin against every node
    for graded in (False, True):
        r = make_grid(1.0, 512, graded=graded)
        for alpha in (0.5, 0.75, 1.0):
            value = holder_seminorm(_profile(r, np.sqrt(r)), alpha)
            assert value == holder_dense(r, np.sqrt(r), alpha)
        assert holder_seminorm(_profile(r, np.sqrt(r)), 0.5) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("grid", [512, 2048])
def test_holder_seminorm_matches_dense_at_alpha_1_on_graded_eigenfunctions(grid):
    # at alpha = 1 the slope bound prunes: the rise bound of a far pair
    # exceeds the steepest slope near r = R, where the graded grid is fine
    for N, k in [(2, 2), (3, 3), (4, 4)]:
        w = estimate_lambda1(1.0, N, k,
                             solver_cfg=SolverConfig(grid_size=grid, graded=True)).eigenfunction
        assert holder_seminorm(w, 1.0) == holder_dense(w.r, w.h, 1.0), (N, k)


@pytest.mark.parametrize("R", [1e-3, 37.0])
def test_holder_seminorm_matches_dense_off_the_unit_ball(R):
    # the bounds scale as R^(1 - alpha) times the slopes; the rounding
    # argument holds at any scale
    for N, k in [(2, 2), (3, 2), (4, 3), (5, 3)]:
        w = estimate_lambda1(R, N, k, solver_cfg=SolverConfig(grid_size=512)).eigenfunction
        for alpha in (2.0 - N / k, 1.0):
            assert holder_seminorm(w, alpha) == holder_dense(w.r, w.h, alpha), (N, k, alpha)


def _dense_argmax(r, h, alpha):
    dh = np.abs(h[:, None] - h[None, :])
    dr = np.abs(r[:, None] - r[None, :])
    q = np.where(dr > 0, dh / np.where(dr > 0, dr, 1.0) ** alpha, 0.0)
    a, b = np.unravel_index(np.argmax(q), q.shape)
    return min(a, b), max(a, b)


def test_holder_seminorm_finds_a_maximum_in_a_far_block_pair():
    # a peak at r = 0.2 (block 0) and a trough at r = 0.7 (block 2) of a
    # 257-node grid; the steepest adjacent slope is a step at r = 0.9,
    # outside that pair, and no pair with the first or the last node wins
    r = make_grid(1.0, 256)
    h = (np.exp(-((r - 0.2) / 0.05) ** 2) - np.exp(-((r - 0.7) / 0.05) ** 2)
         + 0.2 * (r > 0.9))
    a, b = _dense_argmax(r, h, 0.3)
    steepest = np.argmax(np.abs(np.diff(h)) / np.diff(r))
    assert b // 64 - a // 64 >= 2 and 0 < a and b < r.size - 1 and not a <= steepest < b
    assert holder_seminorm(_profile(r, h), 0.3) == holder_dense(r, h, 0.3)


def test_holder_seminorm_slope_bound_grows_with_the_span():
    # a ramp of slope 1 from r = 10 (block 2) to r = 27 (block 5) on a
    # ball of radius 37: the best quotient 17^0.7 exceeds every slope, so
    # a bound without the factor span^(1 - alpha) would stop too early
    r = make_grid(37.0, 512)
    h = np.clip(r, 10.0, 27.0)
    a, b = _dense_argmax(r, h, 0.3)
    assert b // 64 - a // 64 >= 2 and 0 < a and b < r.size - 1
    assert holder_seminorm(_profile(r, h), 0.3) == holder_dense(r, h, 0.3)


def test_holder_seminorm_slope_bound_counts_the_slope_between_blocks():
    # a ramp from r = 0.2 to 0.8 with a unit jump from node 127 to 128,
    # the last node of block 1 and the first of block 2: the best pair
    # spans the jump, and only that slope between blocks keeps its bound up
    r = make_grid(1.0, 256)
    h = np.clip(r, 0.2, 0.8) + (np.arange(r.size) >= 128)
    a, b = _dense_argmax(r, h, 0.05)
    assert b // 64 - a // 64 >= 2 and 0 < a <= 127 < b < r.size - 1
    assert holder_seminorm(_profile(r, h), 0.05) == holder_dense(r, h, 0.05)


def test_holder_seminorm_finds_a_maximum_inside_one_block():
    # a narrow bump at r = 0.6, nodes 146-161 of block 2; at alpha = 1/4
    # the best pair is the top against its foot, neither adjacent nor an end
    r = make_grid(1.0, 256)
    h = np.exp(-((r - 0.6) / 0.01) ** 2)
    a, b = _dense_argmax(r, h, 0.25)
    assert a // 64 == b // 64 == 2 and b - a >= 2
    assert holder_seminorm(_profile(r, h), 0.25) == holder_dense(r, h, 0.25)


def test_holder_seminorm_finds_a_maximum_between_gap_and_span():
    # a unit-slope ramp from node 100 (block 1) to node 300 (block 4): the
    # best quotient, (200/512)^(1/2) from one end of the ramp to the other,
    # is at a distance strictly between the gap and the span of its block
    # pair.  A small step from node 460 to 461 starts the best quotient
    # above rise / span^alpha and L gap^(1 - alpha), the pair's bound
    # with d* clipped to either end, so either would skip the pair
    r = make_grid(1.0, 512)
    h = np.clip(r, r[100], r[300]) + 0.026 * (np.arange(r.size) > 460)
    assert _dense_argmax(r, h, 0.5) == (100, 300)
    gap, span = r[256] - r[127], r[319] - r[64]
    assert gap < r[300] - r[100] < span
    best = holder_dense(r, h, 0.5)
    assert best == pytest.approx((200 / 512) ** 0.5, rel=1e-15)
    step = 0.026 / (r[461] - r[460]) ** 0.5
    assert max((r[300] - r[100]) / span**0.5, gap**0.5) < step < best
    assert holder_seminorm(_profile(r, h), 0.5) == best


# seeded random-walk and monotone profiles on irregular grids of 2 to 700
# nodes, against the dense pair matrix at every scale and exponent
@pytest.mark.parametrize("alpha", [0.1, 1 / 3, 0.5, 2 / 3, 0.9, 1.0],
                         ids=["0.1", "1/3", "1/2", "2/3", "0.9", "1"])
@pytest.mark.parametrize("R", [1e-3, 1.0, 37.0])
def test_holder_seminorm_matches_dense_on_random_profiles(R, alpha):
    rng = np.random.default_rng([int(R * 1e3), int(alpha * 1e3)])
    for nodes in (2, 700, *rng.integers(3, 700, size=2)):
        r = np.cumsum(rng.uniform(0.05, 1.0, nodes))
        r = R * (r - r[0]) / (r[-1] - r[0])
        walk = np.cumsum(rng.normal(size=nodes))
        rising = np.cumsum(rng.exponential(size=nodes))
        for h in (walk, rising - rising[-1]):
            assert holder_seminorm(_profile(r, h), alpha) == holder_dense(r, h, alpha), nodes


@pytest.mark.parametrize("nodes", [2, 3, 65])
def test_holder_seminorm_matches_dense_on_few_nodes(nodes):
    # one block, or a last block of one node; uniform and irregular spacing
    rng = np.random.default_rng(nodes)
    for r in (np.linspace(0.0, 1.0, nodes), np.cumsum(rng.uniform(0.1, 1.0, nodes))):
        for h in (r**2, -np.sqrt(r), rng.normal(size=nodes)):
            for alpha in (0.3, 0.5, 1.0):
                assert holder_seminorm(_profile(r, h), alpha) == holder_dense(r, h, alpha)


def test_trapezoid_cumsum_matches_scipy():
    # the in-place kernel is bitwise scipy's cumulative_trapezoid, both
    # passes; the default grid has dyadic spacing, where any summation
    # order is exact, while R = 0.9, 513 nodes and grading are not, so
    # they pin the operation order; at R = 1e-50 the weight r^5 makes the
    # moment's increments subnormal, where (dx s) / 2 and s (dx / 2) differ
    for R in (1.0, 0.9, 1e-50):
        for size, graded in [(512, False), (513, False), (2048, True)]:
            r = make_grid(R, size, graded=graded)
            for N, k in [(2, 1), (3, 2), (5, 3), (6, 6), (6, 1)]:
                f_nodes = 1.0 + (R**2 - r**2) ** k
                h, hp, _ = first_integral_solve(f_nodes, r, N, k, scheme="trapezoid")
                ref_h, ref_hp = trapezoid_solve_scipy(f_nodes, r, N, k)
                assert h.tobytes() == ref_h.tobytes() and hp.tobytes() == ref_hp.tobytes()


@pytest.mark.parametrize("size, graded", [(512, False), (512, True), (513, False),
                                           (513, True), (2048, True)])
def test_simpson_profile_matches_scipy_cumulative_simpson(size, graded):
    # the pairwise-quadratic kernel with weight 1 is cumulative Simpson,
    # the closing parabola of an odd interval count included
    sources = [lambda r: np.ones_like(r),
               lambda r: np.exp(3 * r) * (1 + 0.5 * np.sin(7 * r)),
               lambda r: (r >= 0.5).astype(float)]
    for R in (1.0, 0.9):
        r = make_grid(R, size, graded=graded)
        for f in sources:
            for N, k in [(2, 1), (3, 2), (3, 3), (5, 3)]:
                h, hp, _ = first_integral_solve(f(r), r, N, k, scheme="simpson")
                ref = simpson_profile_scipy(hp, r)
                assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", ["Simpson", "bogus", ""])
def test_unknown_scheme_is_refused(scheme):
    # an unknown name once ran a trapezoid moment under a Simpson profile
    r = make_grid(1.0, 64)
    with pytest.raises(DomainError, match="quadrature"):
        first_integral_solve(1.0 + r**2, r, 3, 2, scheme)


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


@pytest.mark.parametrize("inner_value", [-1, np.float32(-1.0), np.float64(-1.0)],
                         ids=["int", "float32", "float64"])
def test_annulus_bisection_runs_in_double_precision(inner_value):
    # a float32 inner value once carried the bracket and the bisection in
    # float32 and stopped at h(r_inner) = -1.0000000180
    p = solve_radial_dirichlet(SourceTerm.constant(1.0), 2.0, 2, 1, SolverConfig(grid_size=64),
                               r_inner=1, inner_value=inner_value)
    assert abs(p.h[0] + 1.0) <= 1e-12


@pytest.mark.parametrize("scheme", ["simpson", "trapezoid"])
def test_annulus_solve_is_first_integral_solve(scheme):
    # the annulus datum is a parameter of the one driver, which the
    # profile solve calls on its grid
    src = SourceTerm(lambda r: np.exp(3 * r) * (1 + 0.5 * np.sin(7 * r)))
    cfg = SolverConfig(grid_size=513, quadrature=scheme, graded=True)
    p = solve_radial_dirichlet(src, 0.9, 3, 2, cfg, r_inner=0.27, inner_value=-1.0)
    h, hp, hpp = first_integral_solve(src.evaluate(p.r), p.r, 3, 2, scheme, inner_value=-1.0)
    assert h.tobytes() == p.h.tobytes() and hp.tobytes() == p.hp.tobytes()
    assert hpp.tobytes() == p.hpp.tobytes()
    assert abs(h[0] + 1.0) <= 1e-9 and h[-1] == 0.0
    # on a ball grid the constant would make h' blow up at the origin
    ball = make_grid(0.9, 513)
    with pytest.raises(DomainError, match="annulus"):
        first_integral_solve(src.evaluate(ball), ball, 3, 2, scheme, inner_value=-1.0)


def test_ball_refuses_an_inner_value():
    # a ball has no inner boundary; the value was once dropped silently
    with pytest.raises(DomainError, match="annulus"):
        solve_radial_dirichlet(SourceTerm.constant(1.0), 1.0, 3, 2,
                               r_inner=0.0, inner_value=-5.0)


@pytest.mark.parametrize("N, k", [(2.5, 1), (2, 1.0), (0, 1), (2, 3), (2, True)])
def test_solve_refuses_bad_dimension_or_order(N, k):
    with pytest.raises(DomainError, match="N="):
        solve_radial_dirichlet(SourceTerm.constant(1.0), 1.0, N, k)


@pytest.mark.parametrize("inner_value", [math.nan, -math.inf])
def test_solve_refuses_non_finite_inner_value(inner_value, monkeypatch):
    # refused before any grid is built, not after four refinements
    monkeypatch.setattr(dirichlet, "make_grid", None)
    with pytest.raises(DomainError, match=r"^inner_value=.* in \(-inf, 0\]$"):
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


@pytest.mark.parametrize("R, k", [(1e200, 2), (1e-200, 2), (1e60, 3), (1e-60, 3)])
def test_solve_refuses_out_of_range_radius(R, k, monkeypatch):
    # R^(2k) or R^(-2k) leaves the float range: refused before any grid
    # is built, where it used to end in NaN or a failed residual gate
    monkeypatch.setattr(dirichlet, "make_grid", None)
    with pytest.raises(DomainError, match="out of range"):
        solve_radial_dirichlet(SourceTerm.constant(1.0), R, 3, k)


@pytest.mark.parametrize("R", [1e-3, 1e3])
def test_solve_accepts_the_ends_of_the_everyday_range(R):
    # S_k(I) = C(3,2) = 3: the paraboloid (r^2 - R^2) / 2
    p = solve_radial_dirichlet(SourceTerm.constant(3.0), R, 3, 2)
    assert np.allclose(p.h, 0.5 * (p.r**2 - R**2), rtol=0.0, atol=1e-12 * R**2)


def test_solver_input_validation():
    src = SourceTerm.constant(1.0)
    with pytest.raises(DomainError):
        solve_radial_dirichlet(src, -1.0, 3, 2)
    with pytest.raises(DomainError):
        solve_radial_dirichlet(src, 1.0, 3, 5)
    with pytest.raises(DomainError):
        solve_radial_dirichlet("const:1", 1.0, 3, 2)
