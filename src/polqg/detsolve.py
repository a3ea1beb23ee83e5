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
  Pi     backward Lyapunov equation used by the value decomposition
  gain   Kalman-Bucy filter gain (Sigma H^T + C K^T) N^{-1}, N = K K^T
  ff     feed-forward R^{-1}(B^T phi + r) of the optimal control

All of them read one NodeTable: the model's coefficients resampled once
onto the nodes of the solve grid and the RK4 midpoints between them,
together with every operator the RK4 stages need, so no stage solves a
linear system.  solve_all steps the four ODEs in three RK4 loops, two of
them on one Riccati loop body, -(Y F + (Y F)^T - Y M Y + C) for knot
arrays F, M and C (_solve_riccati):

  1. P and Sigma together, on a stacked (2, n, n) array with Sigma in
     reversed time.
  2. phi, on its own, from the knot arrays -(A + B Theta)^T and
     -Theta^T r - P a - q (solve_phi).
  3. Pi, with M = 0, inside solve_filter_side, so a rescaled Sigma
     rebuilds it.

Every path is a plain (N+1, ...) array of its values at the nodes of
table.grid.  An RK4 stage indexes the table by knot; a path already
computed on the grid enters the stages of a later equation the same way,
its midpoint values interpolated linearly between nodes.  Symmetric
matrices are re-symmetrized after every step so roundoff cannot
accumulate skew.
For callers that need one path, solve_P and solve_Sigma run loop 1 on
that equation alone.  solve_pi steps the backward offset
dpi/dt = -(curlyA^T pi + q), pi(T) = g, which no value term reads: pi
could enter only through 2<pi, E Xtil>, and E Xtil = 0 since Xtil_0 = 0
and the error recursion has no forcing term; solve_all does not call it.
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
    _eig_floor,
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
    """Raise PSDViolation at the first node that fails validate's PSD rule
    (see model._eig_floor)."""
    slack = _eig_floor(values, psd_tol)
    bad = np.flatnonzero(slack < 0)
    if bad.size:
        i = int(bad[0])
        floor = -psd_tol * (1.0 + np.linalg.norm(values[i]))
        raise PSDViolation(name, i, float(slack[i] + floor), float(floor))


def _riccati_operators(tab: NodeTable, name: str, curlyA: np.ndarray | None):
    """Knot arrays (F, M, C) of P, Sigma or Pi, stepped backward from t_N as
    dY/dt = -(Y F + (Y F)^T - Y M Y + C):

    P:     dP/dt = -(P Abar + Abar^T P - P B R^{-1} B^T P + Qbar).
    Sigma runs forward from t_0, so its slot at node i holds
    Sigma(t_{N-i}) and its arrays are reversed in knot order; in reversed
    time dSigma/dt = Acl Sigma + Sigma Acl^T - Sigma H^T N^{-1} H Sigma + D D^T
    takes the same form with F = Acl^T, M = H^T N^{-1} H and C = D D^T.
    Pi:    dPi/dt = -(Pi curlyA + curlyA^T Pi + Q), so F = curlyA at the
    knots, M = 0 and C = Q.
    """
    if name == "P":
        return tab.Abar, tab.BRBt, tab.Qbar
    if name == "Sigma":
        return tab.Acl.mT[::-1], tab.HNH[::-1], tab.DDt[::-1]
    Av = at_knots(tab.grid, tab.grid, curlyA)
    return Av, np.zeros_like(Av), tab.Q


def _solve_riccati(tab: NodeTable, names=("P", "Sigma"),
                   tol: ToleranceConfig = ToleranceConfig(),
                   curlyA: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The paths named in `names` ("P", "Sigma" or "Pi"; Pi needs curlyA)
    in one RK4 loop over a stacked (len(names), n, n) array.

    P and Pi end at G and Sigma starts at 0, all stored bitwise; every
    step is symmetrized, and each path is checked positive semidefinite at
    every node.  A blow-up raises NonFinite naming the equation and its
    node.
    """
    N, n = tab.grid.steps, tab.dims.n
    F, M_half, minus_C = (np.stack(ops, axis=1) for ops in zip(
        *(_riccati_operators(tab, nm, curlyA) for nm in names)))
    M_half *= 0.5
    np.negative(minus_C, out=minus_C)

    def rhs(j, Y):
        # two products: Y F + (Y F)^T - Y M Y = Z + Z^T for Z = Y (F - M Y / 2)
        Z = Y @ (F[j] - M_half[j] @ Y)
        return minus_C[j] - (Z + Z.mT)

    def blowup(Y, i):
        k = int(np.argmin(np.isfinite(Y).all(axis=(1, 2))))
        return NonFinite(names[k], N - i if names[k] == "Sigma" else i)

    boundary = np.stack([np.zeros((n, n)) if nm == "Sigma" else tab.G for nm in names])
    out = integrate_matrix_ode(rhs, boundary, tab.grid, "backward",
                               post_step=_symmetrize, what=blowup)
    paths = {}
    for k, nm in enumerate(names):
        paths[nm] = np.ascontiguousarray(out[::-1, k] if nm == "Sigma" else out[:, k])
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


def solve_Pi(tab: NodeTable, curlyA: np.ndarray,
             tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Backward Lyapunov path with terminal value G, on the Riccati loop
    body with M = 0, symmetrized each step and checked positive
    semidefinite at every node."""
    return _solve_riccati(tab, ("Pi",), tol, curlyA)["Pi"]


def solve_pi(tab: NodeTable, curlyA: np.ndarray) -> np.ndarray:
    """Backward linear offset dpi/dt = -(curlyA^T pi + q) with terminal
    value g; see the module docstring for why solve_all leaves it out."""
    Av = at_knots(tab.grid, tab.grid, curlyA)
    return integrate_matrix_ode(lambda j, p: -(Av[j].T @ p + tab.q[j]), tab.g,
                                tab.grid, "backward", what="pi")


def solve_filter_side(Sigma: np.ndarray, tab: NodeTable,
                      tol: ToleranceConfig = ToleranceConfig()) -> dict[str, np.ndarray]:
    """Every path that depends on Sigma: Delta, the gain, curlyA and Pi,
    keyed by their DeterministicSolution field names (Sigma included)."""
    gain = compute_gain(Sigma, tab)
    curlyA = compute_curlyA(gain, tab)
    return {"Sigma": Sigma, "Delta": compute_Delta(Sigma, tab), "gain": gain,
            "curlyA": curlyA, "Pi": solve_Pi(tab, curlyA, tol)}


def solve_all(model: ModelSpec, grid: TimeGrid,
              tol: ToleranceConfig = ToleranceConfig()) -> DeterministicSolution:
    """Solve every deterministic path on one grid from one NodeTable.

    P and Sigma first, in one loop; then Theta, phi and the feed-forward;
    then Delta, the gain, curlyA and Pi.
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
