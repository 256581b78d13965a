"""Radial Dirichlet solver for S_k(D^2 u) = f via the exact first integral.

For radial k-convex u on a ball, S_k(D^2 u) = f integrates once exactly:

    r^(N-k) h'(r)^k = (k / C(N-1,k-1)) * int_0^r s^(N-1) f(s) ds,

so h' is a k-th root of a cumulative quadrature and h follows by a second
cumulative pass anchored at h(R) = 0.  No stepping scheme, no stability
constraint; the only error is quadrature error.  h'' is recovered by
differentiating the first integral, so the stored triple satisfies the
equation node-wise by construction; that identity is the residual gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import ConvergenceError, DomainError
from .radial import (
    RadialProfile,
    _check_dim_order,
    read_csv_columns,
    s_k_on_profile,
    s_k_radial,
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
    """Nonnegative radial source: constant, polynomial, sampled, or callable."""

    def __init__(self, kind: str, *, value: float = 0.0, coeffs=None,
                 nodes=None, samples=None, fn: Optional[Callable] = None):
        self.kind = kind
        self.value = value
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=float)
        self.samples = None if samples is None else np.asarray(samples, dtype=float)
        self.fn = fn
        if kind == "constant" and value < 0:
            raise DomainError("source must be nonnegative")
        if kind == "sampled":
            if self.nodes is None or self.samples is None:
                raise DomainError("sampled source needs nodes and samples")
            if self.nodes.shape != self.samples.shape or self.nodes.ndim != 1:
                raise DomainError("sampled source arrays must be matching 1-d")
            if np.any(np.diff(self.nodes) <= 0):
                raise DomainError("sampled source nodes must ascend")
            if np.any(self.samples < 0):
                raise DomainError("source must be nonnegative")

    @classmethod
    def constant(cls, c: float) -> "SourceTerm":
        return cls("constant", value=float(c))

    @classmethod
    def polynomial(cls, coeffs) -> "SourceTerm":
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def from_samples(cls, nodes, samples) -> "SourceTerm":
        return cls("sampled", nodes=nodes, samples=samples)

    @classmethod
    def from_callable(cls, fn: Callable) -> "SourceTerm":
        return cls("callable", fn=fn)

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
        return cls.from_samples(columns["r"], columns["f"])

    @property
    def closed_form(self) -> bool:
        return self.kind in ("constant", "polynomial", "callable")

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(r, self.value)
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(r, self.coeffs)
        elif self.kind == "sampled":
            out = np.interp(r, self.nodes, self.samples)
        else:
            out = np.asarray(self.fn(r), dtype=float)
        out = np.atleast_1d(np.asarray(out, dtype=float))
        if np.any(~np.isfinite(out)):
            raise DomainError("source evaluated to a non-finite value")
        if np.any(out < 0):
            raise DomainError("source must be nonnegative on the grid")
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Quadrature and acceptance knobs for the radial solve.

    grid_size counts intervals (>= 64); simpson is fourth order on smooth
    data, trapezoid second order with nonnegative weights.  The residual
    gate compares S_k of the stored (h', h'') against f at the interior
    nodes and refines the grid (doubling) up to refine_max times.
    """

    grid_size: int = 512
    quadrature: str = "simpson"
    tol_residual: float = 1e-5
    refine_max: int = 3
    graded: bool = False

    def __post_init__(self):
        if not isinstance(self.grid_size, int) or self.grid_size < 64:
            raise DomainError("grid_size must be an integer >= 64")
        if self.quadrature not in ("trapezoid", "simpson"):
            raise DomainError("quadrature must be 'trapezoid' or 'simpson'")
        if self.tol_residual <= 0:
            raise DomainError("tol_residual must be positive")
        if self.refine_max < 0:
            raise DomainError("refine_max must be nonnegative")


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
    if not 0 <= r_inner < R < math.inf:
        raise DomainError("need 0 <= r_inner < R with R finite")
    if grid_size < 2:
        raise DomainError("grid needs at least two intervals")
    if not graded:
        return np.linspace(r_inner, R, grid_size + 1)
    widths = np.geomspace(1.0, _GRADED_WIDTH_RATIO, grid_size)
    widths *= (R - r_inner) / widths.sum()
    grid = np.concatenate([[r_inner], r_inner + np.cumsum(widths)])
    grid[-1] = R
    if np.any(np.diff(grid) <= 0):
        raise DomainError(f"graded grid of {grid_size} intervals repeats nodes near R")
    return grid


def _cumulative(y: np.ndarray, x: np.ndarray, scheme: str) -> np.ndarray:
    if scheme == "trapezoid":
        # int_{x_0}^{x_m} y ds with nonnegative weights, in the operation
        # order of scipy's cumulative_trapezoid so results match it bitwise
        out = np.zeros_like(x)
        np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0, out=out[1:])
        return out
    return cumulative_simpson(y, x=x, initial=0.0)


def _reverse_cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_r^R y ds accumulated from the outer end with nonnegative weights."""
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    out = np.zeros_like(x)
    out[:-1] = np.cumsum(inc[::-1])[::-1]
    return out


def _weighted_moment_cumulative(f_nodes: np.ndarray, r: np.ndarray, N: int) -> np.ndarray:
    """Cumulative int_{r_0}^{r_m} s^(N-1) f(s) ds with the weight integrated exactly.

    Plain Simpson treats s^(N-1) f as the integrand and its startup error
    near the origin never refines at a fixed node index; fitting f alone
    by the pairwise quadratic and integrating s^(N-1) against it in closed
    form is exact for polynomial f of degree <= 2 at every node, for
    every N. Everything is evaluated in the local variable t = s - a per
    pair: antiderivative differences of global monomials would cancel to
    O(eps / Delta^3) and the rounding would grow under refinement.
    """

    def pair_increments(a, u, v, f0, f1, f2):
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
        return inc_mid, inc_full

    n = r.size
    out = np.zeros(n)
    last = n - 1 if (n - 1) % 2 == 0 else n - 2
    a, m, b = r[0:last - 1:2], r[1:last:2], r[2:last + 1:2]
    inc_mid, inc_full = pair_increments(
        a, m - a, b - a,
        f_nodes[0:last - 1:2], f_nodes[1:last:2], f_nodes[2:last + 1:2],
    )
    cum = np.concatenate(([0.0], np.cumsum(inc_full)))
    out[0:last + 1:2] = cum
    out[1:last:2] = cum[:-1] + inc_mid
    if last != n - 1:
        # odd interval count: close the final subinterval with the
        # trailing three-node parabola
        a1 = np.array([r[-3]])
        im, ifull = pair_increments(
            a1, np.array([r[-2] - r[-3]]), np.array([r[-1] - r[-3]]),
            np.array([f_nodes[-3]]), np.array([f_nodes[-2]]), np.array([f_nodes[-1]]),
        )
        out[-1] = out[-2] + float(ifull[0] - im[0])
    return out


def _scaled_moment(f_nodes: np.ndarray, r: np.ndarray, N: int, k: int,
                   scheme: str) -> np.ndarray:
    """g = (k / C(N-1,k-1)) * max(int_{r_0}^r s^(N-1) f ds, 0), so r^(N-k) h'^k = g."""
    if scheme == "simpson":
        moment = _weighted_moment_cumulative(f_nodes, r, N)
    else:
        moment = _cumulative(r ** (N - 1) * f_nodes, r, scheme)
    return (k / math.comb(N - 1, k - 1)) * np.maximum(moment, 0.0)


def _radial_power(r: np.ndarray, N: int, k: int) -> np.ndarray:
    """r^((k-N)/k) at r > 0, and 0 at the origin.

    The moment vanishes at the origin one order faster than r^(N-k), so
    h'(0) = 0; the 0 stands in for the infinite power there.
    """
    return np.power(r, (k - N) / k, out=np.zeros_like(r), where=r > 0)


def _profile_from_moment(g: np.ndarray, rpow: np.ndarray, r: np.ndarray, k: int,
                         scheme: str) -> tuple:
    """(h, h') from h' = g^(1/k) r^((k-N)/k), rpow = _radial_power(r, N, k), h(R) = 0."""
    hp = g ** (1.0 / k) * rpow
    if scheme == "trapezoid":
        return -_reverse_cumulative_trapezoid(hp, r), hp
    integral = _cumulative(hp, r, scheme)
    return integral - integral[-1], hp


def _recover_hpp(hp: np.ndarray, f_nodes: np.ndarray, r: np.ndarray, N: int,
                 k: int) -> np.ndarray:
    """h'' from d/dr of the first integral; exact wherever h' > 0."""
    hpp = np.empty_like(hp)
    pos = hp > 0
    rp = r[pos]
    hpp[pos] = ((k - N) / k) * hp[pos] / rp + (
        rp ** (k - 1) * f_nodes[pos] / (math.comb(N - 1, k - 1) * hp[pos] ** (k - 1))
    )
    # where h' = 0 the profile is locally isotropic: D^2 u = h''(r) I
    iso = ~pos
    hpp[iso] = (f_nodes[iso] / math.comb(N, k)) ** (1.0 / k)
    return hpp


def first_integral_solve(f_nodes: np.ndarray, r: np.ndarray, N: int, k: int,
                         scheme: str = "simpson") -> tuple:
    """Core inversion on a fixed grid; returns (h, hp, hpp) node arrays.

    The trapezoid scheme has monotone nonnegative weights, so f >= g
    nodewise implies h_f <= h_g nodewise exactly in floating point; the
    fixed-point iteration depends on that and always passes 'trapezoid'.
    """
    g = _scaled_moment(f_nodes, r, N, k, scheme)
    h, hp = _profile_from_moment(g, _radial_power(r, N, k), r, k, scheme)
    return h, hp, _recover_hpp(hp, f_nodes, r, N, k)


def _stored_residual(hp: np.ndarray, hpp: np.ndarray, r: np.ndarray,
                     f_nodes: np.ndarray, N: int, k: int) -> float:
    """Max relative defect of S_k on the stored (h', h'') pair at interior nodes."""
    sk = s_k_radial(hp[1:-1], hpp[1:-1], r[1:-1], N, k)
    return float(np.max(np.abs(sk - f_nodes[1:-1]) / (1.0 + np.abs(f_nodes[1:-1]))))


def solve_radial_dirichlet(f: SourceTerm, R: float, N: int, k: int,
                           cfg: SolverConfig = SolverConfig(),
                           r_inner: float = 0.0,
                           inner_value: Optional[float] = None) -> RadialProfile:
    """k-convex radial solution of S_k(D^2 u) = f with u(R) = 0.

    On the solid ball the first integral determines h' >= 0 outright.  On
    an annulus (r_inner > 0) the integration constant is free and is chosen
    by monotone bisection so that h(r_inner) matches inner_value, which
    must therefore be supplied.  The residual gate refines the grid up to
    cfg.refine_max doublings before giving up.
    """
    if not isinstance(f, SourceTerm):
        raise DomainError("f must be a SourceTerm")
    if R <= 0:
        raise DomainError("radius must be positive")
    _check_dim_order(N, k)
    if r_inner > 0 and inner_value is None:
        raise DomainError("annular solve needs the inner boundary value")
    if inner_value is not None and not math.isfinite(inner_value):
        raise DomainError(f"inner boundary value {inner_value!r} must be finite")
    if r_inner > 0 and inner_value > 0:
        raise DomainError("inner boundary value must be nonpositive")

    grid_size = cfg.grid_size
    for attempt in range(cfg.refine_max + 1):
        r = make_grid(R, grid_size, graded=cfg.graded, r_inner=r_inner)
        f_nodes = f.evaluate(r)
        if r_inner == 0.0:
            h, hp, hpp = first_integral_solve(f_nodes, r, N, k, cfg.quadrature)
        else:
            h, hp, hpp = _annulus_solve(f_nodes, r, N, k, cfg.quadrature, inner_value)
        residual = _stored_residual(hp, hpp, r, f_nodes, N, k)
        if residual <= cfg.tol_residual:
            return RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=True)
        grid_size *= 2
    raise ConvergenceError(
        f"residual {residual:.3e} above tol {cfg.tol_residual:.3e} "
        f"after {cfg.refine_max} refinements (final grid {grid_size // 2})"
    )


def _annulus_solve(f_nodes, r, N, k, scheme, inner_value):
    """First integral with a free constant c0, matched to h(r_inner).

    r^(N-k) h'^k = g + c0; the moment g and the power of r do not depend
    on c0, so each search step only re-assembles h' and h.
    """
    base = _scaled_moment(f_nodes, r, N, k, scheme)
    rpow = _radial_power(r, N, k)

    def assemble(c0):
        return _profile_from_moment(np.maximum(base + c0, 0.0), rpow, r, k, scheme)

    tol = 1e-12 * (1.0 + abs(inner_value))
    h0, _ = assemble(0.0)
    if inner_value > h0[0] + tol:
        raise DomainError(
            f"inner value {inner_value:.6g} unreachable; k-convex branch "
            f"attains at most {h0[0]:.6g} at the inner radius"
        )
    lo, hi = 0.0, 1.0 + abs(inner_value)
    while assemble(hi)[0][0] > inner_value:
        hi *= 2.0
        if hi > 1e30:
            raise ConvergenceError("annulus constant search diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h_mid, _ = assemble(mid)
        if h_mid[0] > inner_value:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + hi):
            break
    h, hp = assemble(0.5 * (lo + hi))
    return h, hp, _recover_hpp(hp, f_nodes, r, N, k)


def solution_residual(profile: RadialProfile, f: SourceTerm) -> float:
    """Max relative defect of the stored profile against the source."""
    f_nodes = f.evaluate(profile.r)
    sk = s_k_on_profile(profile)
    return float(np.max(np.abs(sk - f_nodes) / (1.0 + np.abs(f_nodes))))


# Rows per block in holder_seminorm: its temporaries stay O(block * n).
_HOLDER_BLOCK = 256


def holder_seminorm(profile: RadialProfile, alpha: float) -> float:
    """sup over node pairs of |h(r) - h(s)| / |r - s|^alpha.

    Evaluated over fixed-size row blocks of the pair matrix, so memory
    grows linearly with the node count; every quotient is formed exactly
    as in the full matrix, so the maximum is the same float.
    """
    if not 0 < alpha <= 1:
        raise DomainError("Holder exponent must lie in (0, 1]")
    h, r = profile.h, profile.r

    def block_max(i):
        dh = np.abs(h[i:i + _HOLDER_BLOCK, None] - h[None, :])
        dr = np.abs(r[i:i + _HOLDER_BLOCK, None] - r[None, :])
        mask = dr > 0
        return np.max(dh[mask] / dr[mask] ** alpha)

    return float(np.max([block_max(i) for i in range(0, r.size, _HOLDER_BLOCK)]))

