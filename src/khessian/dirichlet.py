"""Radial Dirichlet solver for S_k(D^2 u) = f via the exact first integral.

For radial k-convex u on a ball, S_k(D^2 u) = f integrates once exactly:

    r^(N-k) h'(r)^k = (k / C(N-1,k-1)) * int_0^r s^(N-1) f(s) ds,

so h' is a k-th root of a cumulative quadrature and h follows by a second
cumulative pass anchored at h(R) = 0.  No stepping scheme, no stability
constraint; the only error is quadrature error.  An annulus adds a free
constant to the integral; first_integral_solve drives both shapes.  h''
is recovered by differentiating the first integral, so the stored triple
satisfies the equation wherever h' > 0, and the residual gate is no error
measure (ROADMAP item 4): it acts only where the moment, clamped at 0,
zeroes h' while f > 0, as a Simpson quadratic of a steep rise can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, check_int, check_real, float_range
from .radial import (
    RadialProfile,
    _check_ball,
    _check_dim_order,
    read_csv_columns,
    s_k_on_profile,
)

__all__ = [
    "SourceTerm",
    "SolverConfig",
    "make_grid",
    "first_integral_solve",
    "solve_radial_dirichlet",
    "solution_residual",
    "holder_seminorm",
]


class SourceTerm:
    """Nonnegative radial source: SourceTerm(fn) wraps a callable of r; the
    constant, polynomial and sampled constructors check their data first."""

    def __init__(self, fn: Callable):
        self._fn = fn

    @classmethod
    def constant(cls, c: float) -> "SourceTerm":
        check_real("source constant c", c, 0, math.inf)
        c = float(c)
        return cls(lambda r: np.full_like(r, c))

    @classmethod
    def polynomial(cls, coeffs) -> "SourceTerm":
        coeffs = np.asarray(coeffs, dtype=float)
        def poly(r):
            with float_range("source evaluated to a non-finite value"):
                return np.polynomial.polynomial.polyval(r, coeffs)
        return cls(poly)

    @classmethod
    def from_samples(cls, nodes, samples) -> "SourceTerm":
        nodes = np.asarray(nodes, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if nodes.shape != samples.shape or nodes.ndim != 1:
            raise DomainError("sampled source arrays must be matching 1-d")
        bad = np.flatnonzero(~(np.isfinite(nodes) & np.isfinite(samples)))
        if bad.size:
            raise DomainError(f"sampled source data row {bad[0] + 1} is not a finite r,f pair")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("sampled source nodes must ascend")
        if np.any(samples < 0):
            raise DomainError("source must be nonnegative")
        return cls(lambda r: np.interp(r, nodes, samples))

    @classmethod
    def parse(cls, text: str) -> "SourceTerm":
        """CLI forms: const:<c>, poly:<c0,c1,...>, file:<csv> (bare paths too)."""
        if text.startswith("const:"):
            try:
                return cls.constant(float(text[6:]))
            except ValueError as exc:
                raise DomainError(f"bad constant source {text!r}") from exc
        if text.startswith("poly:"):
            try:
                coeffs = [float(tok) for tok in text[5:].split(",") if tok.strip()]
            except ValueError as exc:
                raise DomainError(f"bad polynomial source {text!r}") from exc
            if not coeffs:
                raise DomainError("empty polynomial source")
            return cls.polynomial(coeffs)
        if text.startswith("file:"):
            text = text[5:]
        columns = read_csv_columns(text, ("r", "f"), "source file")
        try:
            return cls.from_samples(columns["r"], columns["f"])
        except DomainError as exc:
            raise DomainError(f"source file {text}: {exc}") from exc

    def evaluate(self, r) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self._fn(np.asarray(r, dtype=float)), dtype=float))
        if np.any(~np.isfinite(out)):
            raise DomainError("source evaluated to a non-finite value")
        if np.any(out < 0):
            raise DomainError("source must be nonnegative on the grid")
        return out


# the quadratures of the first integral, see _FirstIntegral
_SCHEMES = ("trapezoid", "simpson")


@dataclass(frozen=True)
class SolverConfig:
    """Quadrature and acceptance knobs for the radial solve.

    grid_size counts intervals (>= 64); simpson is fourth order on smooth
    data, trapezoid second order with nonnegative weights.  The grid is
    doubled up to refine_max times while solution_residual exceeds
    tol_residual: a consistency check, not an error gate.
    """

    grid_size: int = 512
    quadrature: str = "simpson"
    tol_residual: float = 1e-5
    refine_max: int = 3
    graded: bool = False

    def __post_init__(self):
        check_int("grid_size", self.grid_size, 64)
        if self.quadrature not in _SCHEMES:
            raise DomainError("quadrature must be 'trapezoid' or 'simpson'")
        check_real("tol_residual", self.tol_residual, 0, math.inf, "(]")
        check_int("refine_max", self.refine_max, 0)


# last-to-first width ratio of a graded grid, fixed whatever the node count
_GRADED_WIDTH_RATIO = 1e-2


def make_grid(R: float, grid_size: int, graded: bool = False,
              r_inner: float = 0.0) -> np.ndarray:
    """Radial grid on [r_inner, R]: uniform, or geometrically boundary-graded.

    Graded widths shrink geometrically toward r = R, the last one 1e-2
    times the first, so neighbouring widths differ by the factor
    1e-2^(1/(grid_size-1)) and the grading stays bounded as the grid is
    refined.  That resolves the boundary layer Holder studies care about.
    """
    check_real("radius R", R, 0, math.inf, "()")
    check_real("inner radius r_inner", r_inner, 0, R, "[)")
    check_int("grid_size", grid_size, 2)
    if not graded:
        return np.linspace(r_inner, R, grid_size + 1)
    widths = np.geomspace(1.0, _GRADED_WIDTH_RATIO, grid_size)
    widths *= (R - r_inner) / widths.sum()
    grid = np.concatenate([[r_inner], r_inner + np.cumsum(widths)])
    grid[-1] = R
    if np.any(np.diff(grid) <= 0):
        raise DomainError(f"graded grid of {grid_size} intervals repeats nodes near R")
    return grid


def _weighted_moment_cumulative(f_nodes: np.ndarray, r: np.ndarray, N: int) -> np.ndarray:
    """Cumulative int_{r_0}^{r_m} s^(N-1) f(s) ds with the weight integrated exactly.

    Plain Simpson treats s^(N-1) f as the integrand and its startup error
    near the origin never refines at a fixed node index; fitting f alone
    by the pairwise quadratic and integrating s^(N-1) against it in closed
    form is exact for polynomial f of degree <= 2 at every node, for
    every N. Everything is evaluated in the local variable t = s - a per
    pair: antiderivative differences of global monomials would cancel to
    O(eps / Delta^3) and the rounding would grow under refinement.

    With N = 1 it is plain cumulative Simpson on any spacing, with the
    same closing parabola on an odd interval count as scipy's
    cumulative_simpson; the profile's h and the Rayleigh quotient use it.
    """

    n = r.size
    pairs = (n - 1) // 2
    i = np.arange(0, 2 * pairs, 2)
    if n % 2 == 0:
        # odd interval count: the trailing three-node parabola closes the last interval
        i = np.append(i, n - 3)
    a, u, v = r[i], r[i + 1] - r[i], r[i + 2] - r[i]
    f0, f1, f2 = f_nodes[i], f_nodes[i + 1], f_nodes[i + 2]
    # divided-difference coefficients of the local quadratic in t
    d1 = (f1 - f0) / u
    c2 = ((f2 - f0) / v - d1) / (v - u)
    c1 = d1 - c2 * u
    inc_mid = np.zeros_like(a)
    inc_full = np.zeros_like(a)
    # (a + t)^(N-1) expanded binomially; all powers are local
    for j in range(N):
        w = math.comb(N - 1, j) * a ** (N - 1 - j)
        for c, p in ((f0, j + 1), (c1, j + 2), (c2, j + 3)):
            inc_mid += w * c * u**p / p
            inc_full += w * c * v**p / p
    out = np.zeros(n)
    cum = np.concatenate(([0.0], np.cumsum(inc_full[:pairs])))
    out[0:2 * pairs + 1:2] = cum
    out[1:2 * pairs:2] = cum[:-1] + inc_mid[:pairs]
    if n % 2 == 0:
        out[-1] = out[-2] + (inc_full[-1] - inc_mid[-1])
    return out


class _FirstIntegral:
    """The first-integral solve of one source on one grid r.

    dx, dx / 2, r^(N-1) and r^((k-N)/k) are computed once, and N, k and the
    scheme checked once.  Simpson integrates the weight s^(N-1) exactly against
    the pairwise quadratic of the source.  The trapezoid scheme is one
    in-place kernel, solve_into(f_nodes, hp, rest), on caller-owned 1-d
    buffers of the grid's size: it fills hp with h' and rest with
    int_r^R h' ds = -h >= 0, both sums accumulated in place, the second
    straight into the reversed view of rest.  moment and profile run its
    two passes apart, so an annulus can add its constant in between.  The
    weights are nonnegative, so f >= g nodewise implies h_f <= h_g
    nodewise exactly in floating point, which the fixed-point iteration
    depends on, and rest never increases along r.
    """

    def __init__(self, r: np.ndarray, N: int, k: int, scheme: str):
        if scheme not in _SCHEMES:
            raise DomainError(f"quadrature {scheme!r} must be 'trapezoid' or 'simpson'")
        _check_dim_order(N, k)
        self.r, self.N, self.k = r, N, k
        self.trapezoid = scheme == "trapezoid"
        self.dx = np.diff(r)
        self.half_dx = self.dx / 2.0
        self.weight = r ** (N - 1)
        self.scale = k / math.comb(N - 1, k - 1)
        # r^((k-N)/k), and 0 at the origin: the moment vanishes there one
        # order faster than r^(N-k), so h'(0) = 0
        self.rpow = np.power(r, (k - N) / k, out=np.zeros_like(r), where=r > 0)

    def moment(self, f_nodes: np.ndarray) -> np.ndarray:
        """g = (k / C(N-1,k-1)) * max(int_{r_0}^r s^(N-1) f ds, 0), so r^(N-k) h'^k = g."""
        if self.trapezoid:
            g = np.empty(self.r.size)
            self._trapezoid_moment(f_nodes, np.empty(g.size), g)
        else:
            g = _weighted_moment_cumulative(f_nodes, self.r, self.N)
        return self._scaled(g)

    def profile(self, g: np.ndarray) -> tuple:
        """(h, h') from h' = g^(1/k) r^((k-N)/k) and h(R) = 0."""
        if self.trapezoid:
            rest = np.array(g, dtype=float)
            hp = np.empty_like(rest)
            self._trapezoid_profile(hp, rest)
            return -rest, hp
        hp = g ** (1.0 / self.k) * self.rpow
        integral = _weighted_moment_cumulative(hp, self.r, 1)
        return integral - integral[-1], hp

    def solve_into(self, f_nodes: np.ndarray, hp: np.ndarray, rest: np.ndarray) -> None:
        """The trapezoid solve in place: hp = h' and rest = -h of the source.

        f_nodes is read only; hp doubles as work space for the weighted source
        and rest holds the moment g until h' has been formed from it.
        """
        self._trapezoid_moment(f_nodes, hp, rest)
        self._scaled(rest)
        self._trapezoid_profile(hp, rest)

    def _trapezoid_moment(self, f_nodes, work, out) -> None:
        """out = int_{r_0}^r s^(N-1) f ds, the increments summed in place."""
        np.multiply(self.weight, f_nodes, out=work)
        inc = out[1:]
        np.add(work[1:], work[:-1], out=inc)
        # (dx s) / 2 and s (dx / 2) differ where the product is subnormal,
        # which the weight r^(N-1) reaches on small balls; keep the first
        inc *= self.dx
        inc /= 2.0
        np.add.accumulate(inc, out=inc)
        out[0] = 0.0

    def _scaled(self, g: np.ndarray) -> np.ndarray:
        np.maximum(g, 0.0, out=g)
        if self.scale != 1.0:  # it is 1 for every k = 1
            g *= self.scale
        return g

    def _trapezoid_profile(self, hp, rest) -> None:
        """From g in rest: hp = g^(1/k) r^((k-N)/k), then rest = int_r^R hp ds."""
        if self.k > 1:
            rest **= 1.0 / self.k
        np.multiply(rest, self.rpow, out=hp)
        inc = rest[:-1]
        np.add(hp[1:], hp[:-1], out=inc)
        inc *= self.half_dx
        # accumulated from the outer end, in the reversed view
        back = rest[-2::-1]
        np.add.accumulate(back, out=back)
        rest[-1] = 0.0

    def hpp(self, hp: np.ndarray, f_nodes: np.ndarray) -> np.ndarray:
        """h'' of one source from d/dr of the first integral; exact wherever h' > 0."""
        N, k = self.N, self.k
        hpp = np.empty_like(hp)
        pos = hp > 0
        rp = self.r[pos]
        hpp[pos] = ((k - N) / k) * hp[pos] / rp + (
            rp ** (k - 1) * f_nodes[pos] / (math.comb(N - 1, k - 1) * hp[pos] ** (k - 1))
        )
        # where h' = 0 the profile is locally isotropic: D^2 u = h''(r) I
        iso = ~pos
        hpp[iso] = (f_nodes[iso] / math.comb(N, k)) ** (1.0 / k)
        return hpp


def first_integral_solve(f_nodes: np.ndarray, r: np.ndarray, N: int, k: int,
                         scheme: str = "simpson",
                         inner_value: Optional[float] = None) -> tuple:
    """Core inversion on a fixed grid; returns (h, hp, hpp) node arrays.

    On an annulus, inner_value = h(r[0]) fixes the constant c0 >= 0 of
    r^(N-k) h'^k = g + c0; on a ball (inner_value None) c0 = 0.
    The trapezoid scheme has monotone nonnegative weights, so f >= g
    nodewise implies h_f <= h_g nodewise exactly in floating point; the
    fixed-point iteration depends on that and always uses 'trapezoid'.
    """
    if inner_value is not None and not r[0] > 0:
        raise DomainError("an inner boundary value needs an annulus grid, r[0] > 0")
    solver = _FirstIntegral(r, N, k, scheme)
    g = solver.moment(f_nodes)
    if inner_value is not None:
        g += _annulus_constant(solver, g, inner_value)
    h, hp = solver.profile(g)
    return h, hp, solver.hpp(hp, f_nodes)


def _annulus_constant(solver: _FirstIntegral, g: np.ndarray, inner_value: float) -> float:
    """The constant c0 >= 0 for which g + c0 gives h(r[0]) = inner_value.

    h(r[0]) falls as c0 grows, so c0 is bracketed by doubling and then
    bisected; each step only re-forms h' and h from g + c0.
    """
    # a numpy float32 would carry the bracket and the bisection in float32
    inner_value = float(inner_value)

    def h_inner(c0):
        return solver.profile(g + c0)[0][0]

    tol = 1e-12 * (1.0 + abs(inner_value))
    h0 = h_inner(0.0)
    if inner_value > h0 + tol:
        raise DomainError(
            f"inner value {inner_value:.6g} unreachable; k-convex branch "
            f"attains at most {h0:.6g} at the inner radius"
        )
    lo, hi = 0.0, 1.0 + abs(inner_value)
    while h_inner(hi) > inner_value:
        hi *= 2.0
        if hi > 1e30:
            raise ConvergenceError("annulus constant search diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h_inner(mid) > inner_value:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


def _relative_defect(profile: RadialProfile, f_nodes: np.ndarray) -> float:
    """Max over the nodes of |S_k(D^2 u) - f| / (1 + |f|) on the stored profile."""
    sk = s_k_on_profile(profile)
    return float(np.max(np.abs(sk - f_nodes) / (1.0 + np.abs(f_nodes))))


def solve_radial_dirichlet(f: SourceTerm, R: float, N: int, k: int,
                           cfg: SolverConfig = SolverConfig(),
                           r_inner: float = 0.0,
                           inner_value: Optional[float] = None) -> RadialProfile:
    """k-convex radial solution of S_k(D^2 u) = f with u(R) = 0.

    On the solid ball the first integral determines h' >= 0 outright.  On
    an annulus (r_inner > 0) the integration constant is free and is chosen
    by monotone bisection so that h(r_inner) matches inner_value, which
    must therefore be supplied; a ball refuses one.  The grid is doubled
    up to cfg.refine_max times while solution_residual exceeds
    cfg.tol_residual.  A solve that leaves the float range raises
    DomainError.
    """
    if not isinstance(f, SourceTerm):
        raise DomainError("f must be a SourceTerm")
    _check_ball(R, N, k)
    check_real("inner radius r_inner", r_inner, 0, R, "[)")
    if inner_value is not None:
        check_real("inner_value", inner_value, -math.inf, 0, "(]")
    elif r_inner > 0:
        raise DomainError("annular solve needs the inner boundary value")

    grid_size = cfg.grid_size
    for attempt in range(cfg.refine_max + 1):
        r = make_grid(R, grid_size, graded=cfg.graded, r_inner=r_inner)
        f_nodes = f.evaluate(r)
        with float_range(f"radius {R!r} or the source size is out of range "
                         f"for N = {N}, k = {k}"):
            h, hp, hpp = first_integral_solve(f_nodes, r, N, k, cfg.quadrature,
                                              inner_value)
            profile = RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
            residual = _relative_defect(profile, f_nodes)
        if residual <= cfg.tol_residual:
            return profile
        grid_size *= 2
    raise ConvergenceError(
        f"residual {residual:.3e} above tol {cfg.tol_residual:.3e} "
        f"after {cfg.refine_max} refinements (final grid {grid_size // 2})"
    )


def solution_residual(profile: RadialProfile, f: SourceTerm) -> float:
    """Max relative defect of the stored profile against the source."""
    return _relative_defect(profile, f.evaluate(profile.r))


# Nodes per block in holder_seminorm; temporaries stay O(block^2).
_HOLDER_BLOCK = 64
# Relative inflation of a block pair's bound, far above the few ulps by
# which the rounded power and quotients could undercut the exact bound.
_HOLDER_BOUND_SLACK = 1e-12


def holder_seminorm(profile: RadialProfile, alpha: float) -> float:
    """sup over node pairs of |h(r) - h(s)| / |r - s|^alpha, exactly.

    The nodes are cut into blocks of consecutive nodes, and every block
    pair i <= j, a block with itself included, gets an upper bound on
    its quotients.  Write rise for the largest difference of h between
    the two blocks, gap for the smallest distance between them (0 for
    i = j), span for the distance from the first node of block i to the
    last node of block j, and L for the largest adjacent slope |dh|/dr
    over that range.  A pair of nodes there at distance d in [gap, span]
    differs by at most rise and, as a weighted mean of those slopes, by
    at most L d, so its quotient is at most min(rise, L d) / d^alpha.
    That rises as L d^(1 - alpha) up to d = rise / L and falls as
    rise / d^alpha after it, so the pair's bound is its value at
    d* = clip(rise / L, gap, span): rise / gap^alpha or L span^(1 - alpha)
    when d* is an end, and less than both between them.
    The best quotient starts as the maximum over every adjacent pair and
    every pair with the first or the last node as an end.  Block pairs
    are then evaluated densely in descending order of their bound until
    the bound falls to the best quotient found.  Every quotient is formed
    exactly as in the full pair matrix, so the result is the same float
    as its maximum; for smooth h only a few block pairs are formed.

    Rounding: each computed quotient or slope is within a few units of
    eps = 2^-52 of its exact value, relative (a difference, a power, a
    quotient, each rounded once), and so are the rise, the gap, L and
    span.  d* is one more quotient: a relative error e in d* moves
    min(rise, L d) / d^alpha by at most a factor 1 + e.  1 - alpha is
    rounded once too, which moves a power of d by a factor
    exp(eps |ln d|) <= 1 + 710 eps for any normal d.  So a bound
    undercuts the exact bound of its pair, and a computed quotient
    exceeds its exact value, by far less than the factor
    1 + _HOLDER_BOUND_SLACK = 1 + 1e-12 (~4500 eps) by which every bound
    is inflated, while h and its differences are normal floats.
    """
    check_real("Holder exponent alpha", alpha, 0, 1, "(]")
    h, r = profile.h, profile.r
    starts = np.arange(0, r.size, _HOLDER_BLOCK)
    ends = np.minimum(starts + _HOLDER_BLOCK, r.size)

    # adjacent pairs, then every pair with node 0 or node n-1 as an end
    dh = np.abs(np.concatenate([np.diff(h), h[1:] - h[0], h[-1] - h[:-1]]))
    dr = np.abs(np.concatenate([np.diff(r), r[1:] - r[0], r[-1] - r[:-1]]))
    best = float(np.max(dh / dr ** alpha))

    # slope[m] from node m to m + 1, 0 after the last node; inner leaves
    # out the slope from each block's last node into the next block
    slope = np.append(dh[:r.size - 1] / dr[:r.size - 1], 0.0)
    inner = slope.copy()
    inner[ends - 1] = 0.0
    # prior[i, j]: the largest slope from block i's first node to block
    # j's first node, a running maximum along each block row
    through = np.append(0.0, np.maximum.reduceat(slope, starts)[:-1])
    prior = np.triu(np.broadcast_to(through, (starts.size,) * 2), 1)
    np.maximum.accumulate(prior, axis=1, out=prior)
    i, j = np.triu_indices(starts.size)
    lip = np.maximum(prior, np.maximum.reduceat(inner, starts))[i, j]
    h_max = np.maximum.reduceat(h, starts)
    h_min = np.minimum.reduceat(h, starts)
    rise = np.maximum(h_max[i] - h_min[j], h_max[j] - h_min[i])
    # negative on the diagonal, where the clip then only keeps d* >= 0
    gap = r[starts[j]] - r[ends[i] - 1]
    span = r[ends[j] - 1] - r[starts[i]]
    # where L = 0, h is constant over the pair and d* = span gives 0
    delta = np.divide(rise, lip, out=span.copy(), where=lip > 0)
    np.clip(delta, gap, span, out=delta)
    bound = np.minimum(rise, lip * delta)
    # d* = 0 only on a one-node or constant block, whose bound is 0
    np.divide(bound, delta ** alpha, out=bound, where=delta > 0)
    bound *= 1.0 + _HOLDER_BOUND_SLACK

    # the quotients of one block pair, in buffers allocated once; node
    # pairs of two blocks are distinct, so only the diagonal needs a mask
    dh_buf, dr_buf = (np.empty((_HOLDER_BLOCK, _HOLDER_BLOCK)) for _ in range(2))
    for p in np.argsort(-bound, kind="stable"):
        if bound[p] <= best:
            break
        rows = slice(starts[i[p]], ends[i[p]])
        cols = slice(starts[j[p]], ends[j[p]])
        if i[p] == j[p]:
            dh = np.abs(h[rows, None] - h[None, cols])
            dr = np.abs(r[rows, None] - r[None, cols])
            mask = dr > 0
            quotient = float(np.max(dh[mask] / dr[mask] ** alpha, initial=0.0))
        else:
            dh = dh_buf[:rows.stop - rows.start, :cols.stop - cols.start]
            dr = dr_buf[:dh.shape[0], :dh.shape[1]]
            np.subtract(h[rows, None], h[None, cols], out=dh)
            np.abs(dh, out=dh)
            np.subtract(r[None, cols], r[rows, None], out=dr)
            dr **= alpha
            dh /= dr
            quotient = float(dh.max())
        best = max(best, quotient)
    return best
