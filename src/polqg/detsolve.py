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
onto the nodes of the solve grid and the RK4 midpoints between them,
together with every operator the RK4 stages need, so no stage solves a
linear system.  solve_all steps the five ODEs in three RK4 loops:

  1. P and Sigma together, on a stacked (2, n, n) array with Sigma in
     reversed time (_solve_riccati); both have the right-hand side
     -(Y F + (Y F)^T - Y M Y + C) for knot arrays F, M and C.
  2. phi, on its own, from the knot arrays -(A + B Theta)^T and
     -Theta^T r - P a - q (solve_phi).
  3. Pi and pi together, on Y = [Pi | pi] of shape (n, n+1), inside
     solve_filter_side, so a rescaled Sigma rebuilds both.

Every path is a plain (N+1, ...) array of its values at the nodes of
table.grid.  An RK4 stage indexes the table by knot; a path already
computed on the grid enters the stages of a later equation the same way,
its midpoint values interpolated linearly between nodes.  Symmetric
matrices are re-symmetrized after every step so roundoff cannot
accumulate skew.
For callers that need one path, solve_P and solve_Sigma run loop 1 on
that equation alone, and solve_Pi and solve_pi return their part of
loop 3; solve_all calls none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import NonFinite, PSDViolation
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
class DeterministicSolution:
    """All deterministic paths on one grid, and the table they were solved
    from.  Each path is an (N+1, ...) array of node values on table.grid;
    boundary nodes hold the boundary data bitwise."""

    table: NodeTable
    P: np.ndarray       # (N+1, n, n)
    Theta: np.ndarray   # (N+1, m, n)
    phi: np.ndarray     # (N+1, n)
    ff: np.ndarray      # (N+1, m)
    Sigma: np.ndarray   # (N+1, n, n)
    Delta: np.ndarray   # (N+1, n, d)
    gain: np.ndarray    # (N+1, n, d)
    curlyA: np.ndarray  # (N+1, n, n)
    Pi: np.ndarray      # (N+1, n, n)
    pi_vec: np.ndarray  # (N+1, n)

    @property
    def grid(self) -> TimeGrid:
        return self.table.grid


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.mT)


def integrate_matrix_ode(
    rhs: Callable[[int, np.ndarray], np.ndarray],
    boundary: np.ndarray,
    grid: TimeGrid,
    direction: Literal["forward", "backward"],
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
    what: str | Callable[[np.ndarray, int], NonFinite] = "integrate_matrix_ode",
) -> np.ndarray:
    """Classical fixed-step RK4 over the grid, either direction.

    rhs(j, y) is evaluated at knot j of the grid (see TimeGrid.knots):
    the step between t_i and t_{i+1} uses knots 2i, 2i+1 (twice) and 2i+2,
    in reverse order and with a negative step when integrating backward.
    forward: boundary is the value at t_0, integrate up to t_N.
    backward: boundary is the value at t_N, integrate down to t_0.
    The boundary node stores `boundary` unchanged.  As soon as a step
    produces a NaN or infinity at node i it raises NonFinite(what, i), or,
    when `what` is callable, what(y, i), so a stacked solve can name the
    equation that blew up.
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
            raise what(y, b) if callable(what) else NonFinite(what, b)
        out[b] = y
    return out


def _assert_psd(name: str, values: np.ndarray, psd_tol: float):
    floor = -psd_tol * (1.0 + np.linalg.norm(values, axis=(1, 2)))
    eigmin = np.linalg.eigvalsh(0.5 * (values + values.mT))[:, 0]
    bad = np.flatnonzero(eigmin < floor)
    if bad.size:
        i = int(bad[0])
        raise PSDViolation(name, i, float(eigmin[i]), float(floor[i]))


def _riccati_operators(tab: NodeTable, name: str):
    """Knot arrays (F, M, C) of P or Sigma, stepped backward from t_N as
    dY/dt = -(Y F + (Y F)^T - Y M Y + C):

    P:     dP/dt = -(P Abar + Abar^T P - P B R^{-1} B^T P + Qbar).
    Sigma runs forward from t_0, so its slot at node i holds
    Sigma(t_{N-i}) and its arrays are reversed in knot order; in reversed
    time dSigma/dt = Acl Sigma + Sigma Acl^T - Sigma H^T N^{-1} H Sigma + D D^T
    takes the same form with F = Acl^T, M = H^T N^{-1} H and C = D D^T.
    """
    if name == "P":
        return tab.Abar, tab.BRBt, tab.Qbar
    return tab.Acl.mT[::-1], tab.HNH[::-1], tab.DDt[::-1]


def _solve_riccati(tab: NodeTable, names=("P", "Sigma"),
                   tol: ToleranceConfig = ToleranceConfig()) -> dict[str, np.ndarray]:
    """The Riccati paths named in `names` ("P", "Sigma" or both) in one RK4
    loop over a stacked (len(names), n, n) array.

    P ends at G and Sigma starts at 0, both stored bitwise; every step is
    symmetrized, and each path is checked positive semidefinite at every
    node.  A blow-up raises NonFinite naming the equation and its node.
    """
    N, n = tab.grid.steps, tab.dims.n
    F, M_half, minus_C = (np.stack(ops, axis=1)
                          for ops in zip(*(_riccati_operators(tab, nm) for nm in names)))
    M_half *= 0.5
    np.negative(minus_C, out=minus_C)

    def rhs(j, Y):
        # two products: Y F + (Y F)^T - Y M Y = Z + Z^T for Z = Y (F - M Y / 2)
        Z = Y @ (F[j] - M_half[j] @ Y)
        return minus_C[j] - (Z + Z.mT)

    def blowup(Y, i):
        k = int(np.argmin(np.isfinite(Y).all(axis=(1, 2))))
        return NonFinite(names[k], i if names[k] == "P" else N - i)

    boundary = np.stack([tab.G if nm == "P" else np.zeros((n, n)) for nm in names])
    out = integrate_matrix_ode(rhs, boundary, tab.grid, "backward",
                               post_step=_symmetrize, what=blowup)
    paths = {}
    for k, nm in enumerate(names):
        paths[nm] = np.ascontiguousarray(out[:, k] if nm == "P" else out[::-1, k])
        _assert_psd(nm, paths[nm], tol.psd_tol)
    return paths


def solve_P(tab: NodeTable, tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Backward Riccati path with terminal value G, symmetrized each step
    and checked positive semidefinite at every node."""
    return _solve_riccati(tab, ("P",), tol)["P"]


def compute_Theta(P: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Feedback gain -R^{-1}(B^T P + S) at every node."""
    B, S, R = tab.B[::2], tab.S[::2], tab.R[::2]
    return -solve_stack(R, B.mT @ P + S, "R", tab.grid.nodes)


def solve_phi(tab: NodeTable, Theta: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Backward affine offset with terminal value g:
    dphi/dt = -(A + B Theta)^T phi - Theta^T r - P a - q, whose matrix and
    constant term are built at every knot before the loop."""
    Th_k, P_k = (at_knots(tab.grid, tab.grid, v) for v in (Theta, P))
    F = -(tab.A + tab.B @ Th_k).mT
    c = -(Th_k.mT @ tab.r[..., None] + P_k @ tab.a[..., None])[..., 0] - tab.q
    return integrate_matrix_ode(lambda j, phi: F[j] @ phi + c[j], tab.g,
                                tab.grid, "backward", what="phi")


def compute_ff(phi: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Feed-forward R^{-1}(B^T phi + r) of the optimal control at every node."""
    v = np.einsum("tnm,tn->tm", tab.B[::2], phi) + tab.r[::2]
    return solve_stack(tab.R[::2], v[:, :, None], "R", tab.grid.nodes)[:, :, 0]


def solve_Sigma(tab: NodeTable, tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Forward filter error covariance from Sigma(0) = 0."""
    return _solve_riccati(tab, ("Sigma",), tol)["Sigma"]


def compute_Delta(Sigma: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Error diffusion loading Sigma (K^{-1} H)^T at every node."""
    return Sigma @ tab.KinvH[::2].mT


def compute_gain(Sigma: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Kalman-Bucy gain (Sigma H^T + C K^T) N^{-1} at every node."""
    Lam = Sigma @ tab.H[::2].mT + tab.C[::2] @ tab.K[::2].mT
    return solve_stack(tab.N[::2], Lam.mT, "N", tab.grid.nodes).mT


def compute_curlyA(gain: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Closed-loop error drift A - gain H at every node."""
    return tab.A[::2] - gain @ tab.H[::2]


def _solve_Pi_pi(tab: NodeTable, curlyA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pi (terminal value G) and pi (terminal value g) in one backward RK4
    loop over Y = [Pi | pi], shape (n, n+1):

        dY/dt = -(curlyA^T Y + Y W + [Q | q]),  W = [[curlyA, 0], [0, 0]],

    whose first n columns are dPi/dt = -(Pi curlyA + curlyA^T Pi + Q) and
    whose last is dpi/dt = -(curlyA^T pi + q).  The Pi block is
    symmetrized each step.
    """
    n = tab.dims.n
    Av = at_knots(tab.grid, tab.grid, curlyA)
    AvT = np.ascontiguousarray(Av.mT)
    W = np.zeros((len(Av), n + 1, n + 1))
    W[:, :n, :n] = Av
    minus_Qq = -np.concatenate((tab.Q, tab.q[..., None]), axis=-1)

    def rhs(j, Y):
        return minus_Qq[j] - (AvT[j] @ Y + Y @ W[j])

    def symmetrize_Pi(Y):
        Y[:, :n] = _symmetrize(Y[:, :n])
        return Y

    def blowup(Y, i):
        return NonFinite("pi" if np.isfinite(Y[:, :n]).all() else "Pi", i)

    boundary = np.concatenate((tab.G, tab.g[:, None]), axis=1)
    out = integrate_matrix_ode(rhs, boundary, tab.grid, "backward",
                               post_step=symmetrize_Pi, what=blowup)
    return np.ascontiguousarray(out[:, :, :n]), np.ascontiguousarray(out[:, :, n])


def solve_Pi(tab: NodeTable, curlyA: np.ndarray,
             tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Backward Lyapunov path with terminal value G, checked positive
    semidefinite at every node."""
    Pi, _ = _solve_Pi_pi(tab, curlyA)
    _assert_psd("Pi", Pi, tol.psd_tol)
    return Pi


def solve_pi(tab: NodeTable, curlyA: np.ndarray) -> np.ndarray:
    """Backward linear offset with terminal value g."""
    return _solve_Pi_pi(tab, curlyA)[1]


def solve_filter_side(Sigma: np.ndarray, tab: NodeTable,
                      tol: ToleranceConfig = ToleranceConfig()) -> dict[str, np.ndarray]:
    """Every path that depends on Sigma: Delta, the gain, curlyA, Pi and pi,
    keyed by their DeterministicSolution field names (Sigma included).
    Pi and pi share one RK4 loop."""
    gain = compute_gain(Sigma, tab)
    curlyA = compute_curlyA(gain, tab)
    Pi, pi_vec = _solve_Pi_pi(tab, curlyA)
    _assert_psd("Pi", Pi, tol.psd_tol)
    return {"Sigma": Sigma, "Delta": compute_Delta(Sigma, tab), "gain": gain,
            "curlyA": curlyA, "Pi": Pi, "pi_vec": pi_vec}


def solve_all(model: ModelSpec, grid: TimeGrid,
              tol: ToleranceConfig = ToleranceConfig()) -> DeterministicSolution:
    """Solve every deterministic path on one grid from one NodeTable.

    P and Sigma first, in one loop; then Theta, phi and the feed-forward;
    then Delta, the gain and curlyA, and Pi and pi in one loop.
    """
    tab = NodeTable.build(model, grid)
    riccati = _solve_riccati(tab, ("P", "Sigma"), tol)
    P = riccati["P"]
    Theta = compute_Theta(P, tab)
    phi = solve_phi(tab, Theta, P)
    return DeterministicSolution(
        table=tab, P=P, Theta=Theta, phi=phi, ff=compute_ff(phi, tab),
        **solve_filter_side(riccati["Sigma"], tab, tol),
    )
