"""Radial calculus for the k-Hessian operator.

For w(x) = h(|x|) the Hessian spectrum at radius r > 0 is h'(r)/r with
multiplicity N-1 together with h''(r), so S_k(D^2 w) collapses to a one
dimensional expression.  This module carries the radial profiles used
throughout: the quartic test function, the exponential annulus barrier,
pure-power profiles, and profile serialization.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .symfun import sigma_k

__all__ = [
    "RadialProfile",
    "BarrierParams",
    "radial_hessian_spectrum",
    "s_k_radial",
    "s_k_radial_split",
    "s_k_radial_origin",
    "s_k_on_profile",
    "s_j_radial_power",
    "quartic_test_profile",
    "exp_barrier_profile",
    "exp_barrier_rate_floor",
    "hopf_linear_bound",
    "residual_scale",
]


def _check_dim_order(N: int, k: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise DomainError(f"dimension N={N!r} must be a positive integer")
    if not isinstance(k, (int, np.integer)) or k < 1 or k > N:
        raise DomainError(f"order k={k!r} must satisfy 1 <= k <= N={N}")


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function with consistent derivative data.

    Grid nodes ascend from r[0] >= 0 to the outer radius R = r[-1]; solid
    ball profiles start at 0, annulus barriers at their inner radius.
    """

    N: int
    k: int
    r: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    k_convex: bool = False

    def __post_init__(self):
        _check_dim_order(self.N, self.k)
        for name in ("r", "h", "hp", "hpp"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        r = self.r
        if r.ndim != 1 or r.size < 2:
            raise DomainError("profile grid needs at least two nodes")
        if not (np.all(np.diff(r) > 0) and r[0] >= 0.0):
            raise DomainError("profile grid must ascend from a nonnegative radius")
        for name in ("h", "hp", "hpp"):
            arr = getattr(self, name)
            if arr.shape != r.shape or not np.all(np.isfinite(arr)):
                raise DomainError(f"profile array {name} malformed")

    @property
    def R(self) -> float:
        return float(self.r[-1])

    @property
    def r_inner(self) -> float:
        return float(self.r[0])

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.h)))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "h", "hp", "hpp"])
            for row in zip(self.r, self.h, self.hp, self.hpp):
                writer.writerow([f"{x:.17g}" for x in row])

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "R": self.R,
            "k_convex": self.k_convex,
            "r": self.r.tolist(),
            "h": self.h.tolist(),
            "hp": self.hp.tolist(),
            "hpp": self.hpp.tolist(),
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load_csv(cls, path, N: int, k: int, k_convex: bool = False) -> "RadialProfile":
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
            columns = {name: np.atleast_1d(data[name]) for name in ("r", "h", "hp", "hpp")}
        except (OSError, ValueError, IndexError) as exc:
            raise DomainError(f"profile file {path} needs columns r,h,hp,hpp: {exc}") from exc
        return cls(N=N, k=k, k_convex=k_convex, **columns)


@dataclass(frozen=True)
class BarrierParams:
    """Free parameters of the annulus barrier in exp_barrier_profile.

    Amplitude C0, decay rate m and the interior sphere radius delta; their
    positivity and the rate floor are checked where they are used.  C0 is
    signed: the annulus barrier C0*(exp(-m*delta) - exp(-m*r)) is a
    negative strict supersolution for C0 > 0, which is the reading every
    harness here uses, but the amplitude may be flipped to study the
    reflected object.
    """

    C0: float = 1.0
    m: float = 0.0
    delta: float = 0.0


def radial_hessian_spectrum(hp: float, hpp: float, r: float, N: int) -> np.ndarray:
    """Hessian eigenvalues of a radial function at radius r > 0, ascending.

    h'(r)/r carries multiplicity N-1 (tangential) and h''(r) multiplicity
    one (radial).  At the origin the tangential value degenerates to
    h''(0); evaluate that limit through s_k_radial_origin instead.
    """
    _check_dim_order(N, 1)
    if r <= 0:
        raise DomainError("radial spectrum needs r > 0; use the origin limit path")
    vals = np.full(N, hp / r)
    vals[0] = hpp
    return np.sort(vals)


def s_k_radial(hp, hpp, r, N: int, k: int):
    """S_k(D^2 w) for radial w, factored form.

    C(N-1, k-1) * (hp/r)^(k-1) * [hpp + (hp/r) * (N-k)/k], vectorized over
    nodes.  Requires r > 0 everywhere.
    """
    _check_dim_order(N, k)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("s_k_radial needs r > 0; use s_k_radial_origin at r = 0")
    q = np.asarray(hp, dtype=float) / r
    out = math.comb(N - 1, k - 1) * q ** (k - 1) * (
        np.asarray(hpp, dtype=float) + q * (N - k) / k
    )
    return out if out.ndim else float(out)


def s_k_radial_split(hp, hpp, r, N: int, k: int):
    """Same operator as s_k_radial, written as the two-term expansion.

    hpp * sigma_{k-1}(tangential) + sigma_k(tangential) with the tangential
    eigenvalue hp/r repeated N-1 times.  Kept as an independent code path;
    the two must agree identically.
    """
    _check_dim_order(N, k)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("s_k_radial_split needs r > 0")
    q = np.asarray(hp, dtype=float) / r
    hpp = np.asarray(hpp, dtype=float)
    out = math.comb(N - 1, k - 1) * q ** (k - 1) * hpp
    if k <= N - 1:
        out = out + math.comb(N - 1, k) * q**k
    return out if out.ndim else float(out)


def s_k_radial_origin(hpp0, N: int, k: int):
    """Origin limit of S_k: the Hessian is hpp(0) * identity there."""
    _check_dim_order(N, k)
    return math.comb(N, k) * np.asarray(hpp0, dtype=float) ** k


def s_k_on_profile(profile: RadialProfile, k: Optional[int] = None) -> np.ndarray:
    """Evaluate S_k(D^2 w) at every profile node, origin included."""
    k = profile.k if k is None else k
    r, hp, hpp = profile.r, profile.hp, profile.hpp
    out = np.empty_like(r)
    if r[0] == 0.0:
        out[0] = s_k_radial_origin(hpp[0], profile.N, k)
        out[1:] = s_k_radial(hp[1:], hpp[1:], r[1:], profile.N, k)
    else:
        out[:] = s_k_radial(hp, hpp, r, profile.N, k)
    return out


def s_j_radial_power(c: float, alpha: float, r, N: int, j: int):
    """S_j of the pure power profile w = c * r^alpha.

    Equals (c*alpha*r^(alpha-2))^j * (N-1)! / (j! (N-j)!) * ((alpha-2)j + N);
    the bracket vanishes exactly at alpha = 2 - N/j, which is how the
    fundamental-solution exponent annihilates S_k.
    """
    _check_dim_order(N, j)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("power profiles are evaluated away from the origin")
    coef = math.factorial(N - 1) / (math.factorial(j) * math.factorial(N - j))
    out = (c * alpha * r ** (alpha - 2.0)) ** j * coef * ((alpha - 2.0) * j + N)
    return out if out.ndim else float(out)


def residual_scale(hp, hpp, r, k: int) -> np.ndarray:
    """Local magnitude (1 + |hp/r| + |hpp|)^k used to scale S_k tolerances."""
    r = np.asarray(r, dtype=float)
    q = np.where(r > 0, np.asarray(hp, dtype=float) / np.where(r > 0, r, 1.0), 0.0)
    return (1.0 + np.abs(q) + np.abs(np.asarray(hpp, dtype=float))) ** k


def quartic_test_profile(R: float, N: int, k: int, grid_size: int) -> RadialProfile:
    """The quartic h(r) = -(R^2 - r^2)^2 / 4 with analytic derivatives.

    Vanishes at r = R with negative interior minimum -R^4/4 at the origin.
    Its S_k obeys S_k <= C(N,k) (R^2 - r^2)^k, which drives the
    minimum-principle demonstration; no convexity flag is claimed since
    the Hessian leaves the cone near the boundary.
    """
    _check_dim_order(N, k)
    if R <= 0 or grid_size < 2:
        raise DomainError("need R > 0 and at least two grid intervals")
    r = np.linspace(0.0, R, grid_size + 1)
    h = -0.25 * (R**2 - r**2) ** 2
    hp = r * (R**2 - r**2)
    hpp = R**2 - 3.0 * r**2
    return RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=False)


def exp_barrier_rate_floor(N: int, k: int, delta: float) -> float:
    """Smallest admissible decay rate for the annulus barrier: 2(N-k)/(k*delta)."""
    _check_dim_order(N, k)
    if delta <= 0:
        raise DomainError("delta must be positive")
    return 2.0 * (N - k) / (k * delta)


def exp_barrier_profile(params: BarrierParams, N: int, k: int, grid_size: int) -> RadialProfile:
    """Exponential barrier w = C0 (e^{-m delta} - e^{-m r}) on [delta/2, delta].

    With m above the rate floor the bracket hpp + (hp/r)(N-k)/k is strictly
    negative on the annulus, so for C0 > 0 the barrier is a strict
    supersolution of S_k = 0 there: S_k(D^2 w) < 0 at every node.  It
    vanishes on the outer sphere and is negative inside, which is what a
    Hopf-type boundary estimate needs.
    """
    _check_dim_order(N, k)
    if params.delta <= 0:
        raise DomainError("barrier needs delta > 0")
    if params.C0 == 0.0:
        raise DomainError("barrier needs a nonzero amplitude C0")
    floor = exp_barrier_rate_floor(N, k, params.delta)
    if params.m <= floor:
        raise DomainError(
            f"barrier rate m={params.m} must exceed 2(N-k)/(k*delta) = {floor:.6g}"
        )
    if grid_size < 2:
        raise DomainError("need at least two grid intervals")
    r = np.linspace(0.5 * params.delta, params.delta, grid_size + 1)
    decay = np.exp(-params.m * r)
    h = params.C0 * (math.exp(-params.m * params.delta) - decay)
    hp = params.C0 * params.m * decay
    hpp = -params.C0 * params.m**2 * decay
    return RadialProfile(N=N, k=k, r=r, h=h, hp=hp, hpp=hpp, k_convex=False)


def hopf_linear_bound(profile: RadialProfile, r_in: Optional[float] = None,
                      m: Optional[float] = None) -> dict:
    """Linear boundary decay of a nonpositive radial profile via the barrier.

    Mirrors the Hopf argument on the ball: the exponential supersolution
    w(r) = C0 (e^{-mR} - e^{-mr}) dominates the profile on the boundary
    annulus [r_in, R] once C0 = h(r_in) / (e^{-mR} - e^{-m r_in}) matches
    it on the inner sphere, and expanding w at r = R gives
    h(r) <= -C1 (R - r) with C1 = C0 m e^{-mR}.  The rate must satisfy
    m > (N - k)/(k r_in) so that w is a strict supersolution there.  The
    claimed inequality is checked literally on the annulus nodes; the
    report carries the constants, the worst margin
    min(-C1 (R - r) - h(r)), and the pass flag.
    """
    if profile.r_inner != 0.0:
        raise DomainError("hopf bound harness expects a solid-ball profile")
    if np.any(profile.h > 0):
        raise DomainError("hopf bound harness expects a nonpositive profile")
    R = profile.R
    if r_in is None:
        r_in = 0.5 * R
    if not 0 < r_in < R:
        raise DomainError("inner radius must lie in (0, R)")
    floor = (profile.N - profile.k) / (profile.k * r_in)
    if m is None:
        m = 1.05 * floor + 1.0 / R
    elif m <= floor:
        raise DomainError(f"rate m must exceed (N-k)/(k*r_in) = {floor:.6g}")

    h_at = float(np.interp(r_in, profile.r, profile.h))
    denom = math.exp(-m * R) - math.exp(-m * r_in)
    C0 = h_at / denom
    C1 = C0 * m * math.exp(-m * R)
    collar = profile.r >= r_in
    margins = -C1 * (R - profile.r[collar]) - profile.h[collar]
    worst = float(np.min(margins)) if margins.size else 0.0
    return {
        "r_in": float(r_in),
        "m": float(m),
        "C0": float(C0),
        "C1": float(C1),
        "collar_nodes": int(np.count_nonzero(collar)),
        "worst_margin": worst,
        "passed": bool(worst >= -1e-12 * (1.0 + abs(C1) * R)),
    }


def two_path_agreement(profile: RadialProfile) -> float:
    """Max discrepancy between the two S_k code paths on a profile grid."""
    mask = profile.r > 0
    a = s_k_radial(profile.hp[mask], profile.hpp[mask], profile.r[mask], profile.N, profile.k)
    b = s_k_radial_split(profile.hp[mask], profile.hpp[mask], profile.r[mask], profile.N, profile.k)
    return float(np.max(np.abs(a - b)))


def spectrum_matrix(hp: float, hpp: float, r: float, N: int) -> np.ndarray:
    """Assembled diagonal Hessian with the radial spectrum, for jet building."""
    vals = radial_hessian_spectrum(hp, hpp, r, N)
    return np.diag(vals)
