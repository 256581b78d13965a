"""Independent principal eigenvalue of the k-Hessian on the unit ball.

The oracle shares no code with khessian.  The radial eigenfunction
h(r) < 0 of S_k(D^2 u) = lam |u|^k carries the first integral

    w = r^(N-k) h'^k,   w' = (k / C(N-1,k-1)) lam r^(N-1) (-h)^k,

so scipy's solve_ivp shoots (h, w) from the origin with h(0) = -1 and
brentq finds the first zero radius rho of h on the dense output.  The
equation is homogeneous of degree k in u, so lam only dilates the
solution: shooting once at lam = 1 gives lambda_1(R) = (rho / R)^(2k),
which is the dilation law R^(-2k).

Run as a script to recompute the table the benchmark checks against:

    python3 perfbench/oracle.py            # rewrite perfbench/oracle.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
TABLE = Path(__file__).with_name("oracle.json")
RTOL = 1e-12


def lambda1_unit(N: int, k: int) -> float:
    """lambda_1 of S_k on the unit ball in R^N by shooting at lam = 1."""
    c = 1.0 / math.comb(N, k) ** (1.0 / k)  # h''(0): S_k(c I) = C(N,k) c^k = 1
    coef = k / math.comb(N - 1, k - 1)
    r0 = 1e-6

    def rhs(r, y):
        h, w = y
        hp = (max(w, 0.0) * r ** (k - N)) ** (1.0 / k)
        return [hp, coef * r ** (N - 1) * max(-h, 0.0) ** k]

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = 1
    y0 = [-1.0 + 0.5 * c * r0**2, r0 ** (N - k) * (c * r0) ** k]
    sol = solve_ivp(rhs, (r0, 100.0), y0, method="DOP853", rtol=RTOL,
                    atol=1e-14, dense_output=True, events=crossing)
    if sol.status != 1:
        raise RuntimeError(f"no zero radius found for (N,k)=({N},{k})")
    r_hit = float(sol.t_events[0][0])
    rho = brentq(lambda r: sol.sol(r)[0], 0.5 * r_hit, r_hit + 1e-9,
                 xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return rho ** (2 * k)


def lambda1(N: int, k: int, R: float, table: dict) -> float:
    """Table value at R = 1 scaled by the dilation law R^(-2k)."""
    return table[f"{N},{k}"] * R ** (-2 * k)


def anchors() -> dict:
    """Closed-form checks: j_{0,1}^2 on the disk and pi^2 on the 3-ball."""
    import mpmath

    return {"2,1": float(mpmath.besseljzero(0, 1)) ** 2, "3,1": math.pi**2}


def compute_table() -> dict:
    table = {f"{N},{k}": lambda1_unit(N, k) for N, k in PAIRS}
    for key, exact in anchors().items():
        err = abs(table[key] - exact) / exact
        if err > 1e-9:
            raise RuntimeError(f"oracle misses its anchor {key}: rel err {err:.3e}")
    return table


def load_table() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)["lambda1_unit_ball"]


def main() -> int:
    table = compute_table()
    payload = {
        "method": "solve_ivp DOP853 shooting on the first integral, brentq on the zero radius",
        "rtol": RTOL,
        "anchors": anchors(),
        "lambda1_unit_ball": table,
    }
    with open(TABLE, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, v in table.items():
        print(f"({key})  {v!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
