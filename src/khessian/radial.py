"""Radial calculus for the k-Hessian operator.

For w(x) = h(|x|) the Hessian spectrum at radius r > 0 is h'(r)/r with
multiplicity N-1 together with h''(r), so S_k(D^2 w) collapses to a one
dimensional expression.  This module carries the radial profiles used
throughout: the quartic test function, the Hopf boundary estimate, and
profile serialization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, check_int, check_real

__all__ = [
    "RadialProfile",
    "s_k_radial",
    "s_k_radial_origin",
    "s_k_on_profile",
    "quartic_test_profile",
    "hopf_linear_bound",
]


def _check_dim_order(N: int, k: int) -> None:
    check_int("dimension N", N, 1)
    check_int("order k", k, 1, N, "N")


def _check_ball(R: float, N: int, k: int, powers: Optional[dict] = None) -> None:
    """Refuse a bad dimension or order, a radius that is not positive and
    finite, or one at which R^p is not a finite nonzero float for a p of
    powers ({name: p}), by default R^(2k) and R^(-2k).  A Python float
    power raises OverflowError rather than return inf.

    lambda_1 scales as R^(-2k) and the source that sets a solution's size
    as R^(2k); outside that range an estimate or a solve is void.
    """
    _check_dim_order(N, k)
    check_real("radius R", R, 0, math.inf, "()")
    powers = powers or {"R^(2k)": 2 * k, "R^(-2k)": -2 * k}
    try:
        if all(float(R) ** p for p in powers.values()):
            return
    except OverflowError:
        pass
    raise DomainError(f"radius {R!r} is out of range: {' and '.join(powers)} "
                      f"must be finite and nonzero for k = {k}")


# one row of a profile CSV
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g\r\n"


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
        """Header r,h,hp,hpp, then one row per node with each value as
        %.17g and CRLF line ends: the bytes csv.writer wrote, since %.17g
        text needs no quoting."""
        rows = np.column_stack([self.r, self.h, self.hp, self.hpp]).tolist()
        text = "".join([_CSV_ROW % tuple(row) for row in rows])
        with open(path, "w", newline="") as fh:
            fh.write("r,h,hp,hpp\r\n" + text)

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
        # dumps without indent runs the C encoder; dump would run the
        # Python one and write chunk by chunk, for the same bytes
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load_csv(cls, path, N: int, k: int) -> "RadialProfile":
        columns = read_csv_columns(path, ("r", "h", "hp", "hpp"), "profile file")
        return cls(N=N, k=k, **columns)


def read_csv_columns(path, names, what: str) -> dict:
    """The named columns of a CSV file with a header row, as 1-d arrays.

    A missing, empty or unparsable file, or one without every named
    column, raises DomainError naming `what` and the columns it needs.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
        # genfromtxt only warns on a file without data lines, then fails
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("the file is empty")
        data = np.genfromtxt(lines, delimiter=",", names=True)
        return {name: np.atleast_1d(data[name]) for name in names}
    except (OSError, KeyError, ValueError, IndexError) as exc:
        need = ",".join(names)
        # genfromtxt lists bad lines one per line; the error stays one line
        detail = " ".join(str(exc).split())
        raise DomainError(f"{what} {path} needs columns {need}: {detail}") from exc


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


def s_k_radial_origin(hpp0, N: int, k: int):
    """Origin limit of S_k: the Hessian is hpp(0) * identity there."""
    _check_dim_order(N, k)
    return math.comb(N, k) * np.asarray(hpp0, dtype=float) ** k


def s_k_on_profile(profile: RadialProfile) -> np.ndarray:
    """Evaluate S_k(D^2 w) at every profile node, origin included."""
    k = profile.k
    r, hp, hpp = profile.r, profile.hp, profile.hpp
    out = np.empty_like(r)
    if r[0] == 0.0:
        out[0] = s_k_radial_origin(hpp[0], profile.N, k)
        out[1:] = s_k_radial(hp[1:], hpp[1:], r[1:], profile.N, k)
    else:
        out[:] = s_k_radial(hp, hpp, r, profile.N, k)
    return out


def quartic_test_profile(R: float, N: int, k: int, grid_size: int) -> RadialProfile:
    """The quartic h(r) = -(R^2 - r^2)^2 / 4 with analytic derivatives.

    Vanishes at r = R with negative interior minimum -R^4/4 at the origin.
    Its S_k obeys S_k <= C(N,k) (R^2 - r^2)^k, which drives the
    minimum-principle demonstration; no convexity flag is claimed since
    the Hessian leaves the cone near the boundary.
    """
    # the depth R^4 / 4, and S_k of a Hessian of order R^2
    _check_ball(R, N, k, {"R^4": 4, "R^(2k)": 2 * k})
    check_int("grid_size", grid_size, 2)
    # R**2 of a numpy integer would wrap
    R = float(R)
    r = np.linspace(0.0, R, grid_size + 1)
    h = -0.25 * (R**2 - r**2) ** 2
    hp = r * (R**2 - r**2)
    hpp = R**2 - 3.0 * r**2
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
    r_in = 0.5 * R if r_in is None else r_in
    check_real("inner radius r_in", r_in, 0, R, "()")
    floor = (profile.N - profile.k) / (profile.k * r_in)
    m = 1.05 * floor + 1.0 / R if m is None else m
    check_real("rate m", m, floor, math.inf, "()")

    h_at = float(np.interp(r_in, profile.r, profile.h))
    denom = math.exp(-m * R) - math.exp(-m * r_in)
    if denom == 0.0:
        raise DomainError(f"rate m={m!r} is out of range: e^(-m r) underflows on [r_in, R]")
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

