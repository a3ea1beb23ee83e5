"""Deterministic backbone of the control problem.

Everything the optimal policy and the value formula need is a handful of
matrix/vector ODEs on one shared grid, integrated with fixed-step classical
RK4 (no adaptivity, so reruns are bitwise reproducible):

  P      backward Riccati equation for the control problem
  Theta  feedback gain built from P
  phi    backward affine offset
  Sigma  forward filter error covariance (Riccati of Kalman-Bucy type)
  Delta  Sigma (K^{-1} H)^T, the error diffusion loading
  curlyA closed-loop error drift A - gain H
  Pi, pi backward Lyapunov pair used by the value decomposition
  gain   Kalman-Bucy filter gain (Sigma H^T + C K^T) N^{-1}, N = K K^T
  ff     feed-forward R^{-1}(B^T phi + r) of the optimal control

All of them read one NodeTable: the model's coefficients resampled once
onto the nodes of the solve grid and the RK4 midpoints between them.  An
RK4 stage indexes the table by knot; a path already computed on the grid
enters the stages of a later equation the same way, its midpoint values
interpolated linearly between nodes.  Symmetric matrices are
re-symmetrized after every step so roundoff cannot accumulate skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import NonFinite, PSDViolation, SingularMatrix
from .model import (
    ModelSpec,
    NodeTable,
    TimeGrid,
    ToleranceConfig,
    at_knots,
    solve_stack,
)
from .model import interp_table  # noqa: F401  bench/tracer.py counts its calls here by name
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name

__all__ = [
    "MatrixPath",
    "DeterministicSolution",
    "integrate_matrix_ode",
    "solve_P",
    "compute_Theta",
    "solve_phi",
    "compute_ff",
    "solve_Sigma",
    "compute_Delta",
    "compute_gain",
    "compute_curlyA",
    "solve_Pi",
    "solve_pi",
    "solve_filter_side",
    "solve_all",
]


@dataclass(frozen=True)
class MatrixPath:
    """Matrix- or vector-valued function of time stored at grid nodes."""

    grid: TimeGrid
    values: np.ndarray  # (steps+1, ...)

    def knots(self) -> np.ndarray:
        """Values at the knots of the grid, for the RK4 stages of a later
        equation."""
        return at_knots(self.grid, self.grid, self.values)


@dataclass(frozen=True)
class DeterministicSolution:
    """All deterministic paths on one grid, and the table they were solved
    from; boundary nodes hold the boundary data bitwise."""

    grid: TimeGrid
    table: NodeTable
    P: MatrixPath       # (n, n)
    Theta: MatrixPath   # (m, n)
    phi: MatrixPath     # (n,)
    ff: MatrixPath      # (m,)
    Sigma: MatrixPath   # (n, n)
    Delta: MatrixPath   # (n, d)
    gain: MatrixPath    # (n, d)
    curlyA: MatrixPath  # (n, n)
    Pi: MatrixPath      # (n, n)
    pi_vec: MatrixPath  # (n,)


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def integrate_matrix_ode(
    rhs: Callable[[int, np.ndarray], np.ndarray],
    boundary: np.ndarray,
    grid: TimeGrid,
    direction: Literal["forward", "backward"],
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
    what: str = "integrate_matrix_ode",
) -> np.ndarray:
    """Classical fixed-step RK4 over the grid, either direction.

    rhs(j, y) is evaluated at knot j of the grid (see TimeGrid.knots):
    the step between t_i and t_{i+1} uses knots 2i, 2i+1 (twice) and 2i+2,
    in reverse order and with a negative step when integrating backward.
    forward: boundary is the value at t_0, integrate up to t_N.
    backward: boundary is the value at t_N, integrate down to t_0.
    The boundary node stores `boundary` unchanged.  Raises NonFinite,
    naming `what` and the node, as soon as a step produces a NaN or
    infinity.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    nodes = grid.nodes
    y = np.array(boundary, dtype=float)
    out = np.empty((grid.steps + 1,) + y.shape)
    forward = direction == "forward"
    out[0 if forward else grid.steps] = y
    for i in (range(grid.steps) if forward else range(grid.steps - 1, -1, -1)):
        # one step from node a to node b, hs signed; knot a + b is the midpoint
        a, b = (i, i + 1) if forward else (i + 1, i)
        hs = nodes[b] - nodes[a]
        k1 = rhs(2 * a, y)
        k2 = rhs(a + b, y + (0.5 * hs) * k1)
        k3 = rhs(a + b, y + (0.5 * hs) * k2)
        k4 = rhs(2 * b, y + hs * k3)
        y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post_step is not None:
            y = post_step(y)
        if not np.isfinite(y).all():
            raise NonFinite(what, b)
        out[b] = y
    return out


def _assert_psd(name: str, values: np.ndarray, psd_tol: float):
    floor = -psd_tol * (1.0 + np.linalg.norm(values, axis=(1, 2)))
    eigmin = np.linalg.eigvalsh(0.5 * (values + values.mT))[:, 0]
    bad = np.flatnonzero(eigmin < floor)
    if bad.size:
        i = int(bad[0])
        raise PSDViolation(name, i, float(eigmin[i]), float(floor[i]))


def _solve(mat: np.ndarray, rhs: np.ndarray, name: str, t: float) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrix(name, t) from None


def solve_P(tab: NodeTable, tol: ToleranceConfig = ToleranceConfig()) -> MatrixPath:
    """Backward Riccati path with terminal value G, symmetrized each step
    and checked positive semidefinite at every node."""

    def rhs(j, P):
        A = tab.A[j]
        BtPS = tab.B[j].T @ P + tab.S[j]
        return (-(P @ A) - A.T @ P - tab.Q[j]
                + BtPS.T @ _solve(tab.R[j], BtPS, "R", float(tab.grid.knots[j])))

    values = integrate_matrix_ode(rhs, tab.G, tab.grid, "backward",
                                  post_step=_symmetrize, what="P")
    _assert_psd("P", values, tol.psd_tol)
    return MatrixPath(tab.grid, values)


def compute_Theta(P: MatrixPath, tab: NodeTable) -> MatrixPath:
    """Feedback gain -R^{-1}(B^T P + S) at every node of P's grid."""
    B, S, R = tab.B[::2], tab.S[::2], tab.R[::2]
    return MatrixPath(P.grid, -solve_stack(R, B.mT @ P.values + S, "R", P.grid.nodes))


def solve_phi(tab: NodeTable, Theta: MatrixPath, P: MatrixPath) -> MatrixPath:
    """Backward affine offset with terminal value g."""
    Th_k, P_k = Theta.knots(), P.knots()

    def rhs(j, phi):
        Th = Th_k[j]
        return (-(tab.A[j] + tab.B[j] @ Th).T @ phi - Th.T @ tab.r[j]
                - P_k[j] @ tab.a[j] - tab.q[j])

    values = integrate_matrix_ode(rhs, tab.g, tab.grid, "backward", what="phi")
    return MatrixPath(tab.grid, values)


def compute_ff(phi: MatrixPath, tab: NodeTable) -> MatrixPath:
    """Feed-forward R^{-1}(B^T phi + r) of the optimal control at every node."""
    v = np.einsum("tnm,tn->tm", tab.B[::2], phi.values) + tab.r[::2]
    ff = solve_stack(tab.R[::2], v[:, :, None], "R", phi.grid.nodes)[:, :, 0]
    return MatrixPath(phi.grid, ff)


def solve_Sigma(tab: NodeTable, tol: ToleranceConfig = ToleranceConfig()) -> MatrixPath:
    """Forward filter error covariance from Sigma(0) = 0."""

    def rhs(j, Sig):
        Acl, H = tab.Acl[j], tab.H[j]
        SH = Sig @ H.T
        SHNHS = SH @ _solve(tab.N[j], H @ Sig, "N", float(tab.grid.knots[j]))
        return Acl @ Sig + Sig @ Acl.T - SHNHS + tab.DDt[j]

    n = tab.dims.n
    values = integrate_matrix_ode(rhs, np.zeros((n, n)), tab.grid, "forward",
                                  post_step=_symmetrize, what="Sigma")
    _assert_psd("Sigma", values, tol.psd_tol)
    return MatrixPath(tab.grid, values)


def compute_Delta(Sigma: MatrixPath, tab: NodeTable) -> MatrixPath:
    """Error diffusion loading Sigma (K^{-1} H)^T at every node."""
    return MatrixPath(Sigma.grid, Sigma.values @ tab.KinvH[::2].mT)


def compute_gain(Sigma: MatrixPath, tab: NodeTable) -> MatrixPath:
    """Kalman-Bucy gain (Sigma H^T + C K^T) N^{-1} at every node."""
    Lam = Sigma.values @ tab.H[::2].mT + tab.C[::2] @ tab.K[::2].mT
    gain = solve_stack(tab.N[::2], Lam.mT, "N", Sigma.grid.nodes).mT
    return MatrixPath(Sigma.grid, gain)


def compute_curlyA(gain: MatrixPath, tab: NodeTable) -> MatrixPath:
    """Closed-loop error drift A - gain H at every node."""
    return MatrixPath(gain.grid, tab.A[::2] - gain.values @ tab.H[::2])


def solve_Pi(tab: NodeTable, curlyA: MatrixPath,
             tol: ToleranceConfig = ToleranceConfig()) -> MatrixPath:
    """Backward Lyapunov path with terminal value G."""
    Av_k = curlyA.knots()

    def rhs(j, Pi):
        Av = Av_k[j]
        return -(Pi @ Av) - Av.T @ Pi - tab.Q[j]

    values = integrate_matrix_ode(rhs, tab.G, tab.grid, "backward",
                                  post_step=_symmetrize, what="Pi")
    _assert_psd("Pi", values, tol.psd_tol)
    return MatrixPath(tab.grid, values)


def solve_pi(tab: NodeTable, curlyA: MatrixPath) -> MatrixPath:
    """Backward linear offset with terminal value g."""
    Av_k = curlyA.knots()

    def rhs(j, piv):
        return -Av_k[j].T @ piv - tab.q[j]

    values = integrate_matrix_ode(rhs, tab.g, tab.grid, "backward", what="pi")
    return MatrixPath(tab.grid, values)


def solve_filter_side(Sigma: MatrixPath, tab: NodeTable,
                      tol: ToleranceConfig = ToleranceConfig()) -> dict[str, MatrixPath]:
    """Every path that depends on Sigma: Delta, the gain, curlyA, Pi and pi,
    keyed by their DeterministicSolution field names (Sigma included)."""
    gain = compute_gain(Sigma, tab)
    curlyA = compute_curlyA(gain, tab)
    return {"Sigma": Sigma, "Delta": compute_Delta(Sigma, tab), "gain": gain,
            "curlyA": curlyA, "Pi": solve_Pi(tab, curlyA, tol),
            "pi_vec": solve_pi(tab, curlyA)}


def solve_all(model: ModelSpec, grid: TimeGrid,
              tol: ToleranceConfig = ToleranceConfig()) -> DeterministicSolution:
    """Solve every deterministic path on one grid from one NodeTable.

    Control side first (P, then Theta, then phi and the feed-forward),
    filter side second (Sigma, then Delta, the gain and curlyA, then Pi
    and pi).
    """
    tab = NodeTable.build(model, grid)
    P = solve_P(tab, tol)
    Theta = compute_Theta(P, tab)
    phi = solve_phi(tab, Theta, P)
    return DeterministicSolution(
        grid=grid, table=tab, P=P, Theta=Theta, phi=phi, ff=compute_ff(phi, tab),
        **solve_filter_side(solve_Sigma(tab, tol), tab, tol),
    )
