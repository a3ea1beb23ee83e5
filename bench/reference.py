"""References the benchmark checks polqg's outputs against.

Nothing here imports polqg.  The scalar references are the tanh closed
forms of the benchmark model; the n=3 reference integrates the paper's
equations with scipy's DOP853 at tight tolerances, knot interval by knot
interval so that no step straddles a kink of the piecewise-linear
coefficients:

  Sigma' = A Sigma + Sigma A^T + C C^T + D D^T
           - (Sigma H^T + C K^T) N^{-1} (H Sigma + K C^T),  Sigma(0) = 0
  P'     = -P A - A^T P - Q + (B^T P + S)^T R^{-1} (B^T P + S),  P(T) = G
  phi'   = -A^T phi - P a - q + (B^T P + S)^T R^{-1} (B^T phi + r),  phi(T) = g
  Pi'    = -Pi curlyA - curlyA^T Pi - Q,  Pi(T) = G
  curlyA = A - (Sigma H^T + C K^T) N^{-1} H,  N = K K^T

and carries the value integrand as one more backward state, so the value
needs no quadrature rule.  Sigma is integrated first (forward) and read
from DOP853's dense output during the backward pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from inputs import KNOTS, TV3_DIMS

RTOL, ATOL = 1e-12, 1e-13


def tanh_value() -> float:
    """J* = tanh 1 + log cosh 1 + int_0^1 tanh(1-t) tanh(t)^2 dt."""
    integral, _ = quad(lambda t: math.tanh(1.0 - t) * math.tanh(t) ** 2,
                       0.0, 1.0, epsabs=1e-15, epsrel=1e-14)
    return math.tanh(1.0) + math.log(math.cosh(1.0)) + integral


def tanh_tilde_J() -> float:
    """Irreducible filtering cost of the scalar benchmark, log cosh 1."""
    return math.log(math.cosh(1.0))


def _interp(knots: dict, field: str, t: float, j: int) -> np.ndarray:
    w = t * KNOTS - j
    return (1.0 - w) * knots[field][j] + w * knots[field][j + 1]


def _coeffs(knots: dict, t: float, j: int) -> dict:
    return {f: _interp(knots, f, t, j)
            for f in ("A", "B", "a", "C", "D", "H", "h", "K",
                      "Q", "S", "R", "q", "r")}


def tv3_value(knots: dict) -> float:
    """Optimal value of the n=3 model built from `knots` (see inputs.py)."""
    n = TV3_DIMS["n"]
    tk = np.arange(KNOTS + 1) / KNOTS

    def sigma_rhs(j):
        def rhs(t, y):
            c = _coeffs(knots, t, j)
            Sig = y.reshape(n, n)
            Lam = Sig @ c["H"].T + c["C"] @ c["K"].T
            N = c["K"] @ c["K"].T
            dS = (c["A"] @ Sig + Sig @ c["A"].T + c["C"] @ c["C"].T
                  + c["D"] @ c["D"].T - Lam @ np.linalg.solve(N, Lam.T))
            return dS.ravel()
        return rhs

    sigma_pieces = []
    y = np.zeros(n * n)
    for j in range(KNOTS):
        sol = solve_ivp(sigma_rhs(j), (tk[j], tk[j + 1]), y, method="DOP853",
                        rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"Sigma reference failed on piece {j}: {sol.message}")
        sigma_pieces.append(sol.sol)
        y = sol.y[:, -1]

    def backward_rhs(j):
        sigma_at = sigma_pieces[j]

        def rhs(t, y):
            c = _coeffs(knots, t, j)
            P = y[:n * n].reshape(n, n)
            phi = y[n * n:n * n + n]
            Pi = y[n * n + n:2 * n * n + n].reshape(n, n)
            Sig = sigma_at(t).reshape(n, n)
            A, B, C, D, H, K, R = (c[f] for f in "ABCDHKR")
            N = K @ K.T
            BPS = B.T @ P + c["S"]
            v = B.T @ phi + c["r"]
            Rinv_BPS = np.linalg.solve(R, BPS)
            dP = -P @ A - A.T @ P - c["Q"] + BPS.T @ Rinv_BPS
            dphi = -A.T @ phi - P @ c["a"] - c["q"] + Rinv_BPS.T @ v
            curlyA = A - (Sig @ H.T + C @ K.T) @ np.linalg.solve(N, H)
            dPi = -Pi @ curlyA - curlyA.T @ Pi - c["Q"]
            Delta = Sig @ np.linalg.solve(K, H).T
            DC = Delta + C
            f = (np.trace(D.T @ Pi @ D) + np.trace(Delta.T @ Pi @ Delta)
                 + np.trace(DC.T @ P @ DC) - v @ np.linalg.solve(R, v)
                 + 2.0 * phi @ c["a"])
            return np.concatenate([dP.ravel(), dphi, dPi.ravel(), [-f]])
        return rhs

    y = np.concatenate([knots["G"].ravel(), knots["g"], knots["G"].ravel(), [0.0]])
    for j in range(KNOTS - 1, -1, -1):
        sol = solve_ivp(backward_rhs(j), (tk[j + 1], tk[j]), y, method="DOP853",
                        rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"backward reference failed on piece {j}: {sol.message}")
        y = sol.y[:, -1]

    P0 = y[:n * n].reshape(n, n)
    phi0 = y[n * n:n * n + n]
    x0 = knots["x0"]
    return float(x0 @ P0 @ x0 + 2.0 * phi0 @ x0 + y[-1])
