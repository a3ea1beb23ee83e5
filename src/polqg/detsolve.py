"""Deterministic backbone of the control problem.

Everything the optimal policy and the value formula need is a handful of
matrix/vector ODEs on one shared grid, stepped with fixed-step classical
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
onto the knots of the solve grid (its nodes and the midpoints between
them).  No equation is stepped node by node.  Each is the image of a
linear system, and RK4 on a linear system z' = L z is a linear map per
step, so every step map is built at once from the knot arrays
(_rk4_maps) and the maps are composed (_scan_backward):

  Riccati  P, Sigma and Pi share dY/dt = -(Y F + (Y F)^T - Y M Y + C)
           for knot arrays F, M and C (_riccati_operators).  By Radon's
           lemma Y = V U^{-1}, where [U; V]' = L [U; V] with the
           Hamiltonian L = [[F, -M], [-C, -F^T]] and [U; V](T) = [I; Y(T)]
           (Davison & Maki, IEEE TAC 18(1), 1973).  A product S of step
           maps carries Y to (S21 + S22 Y)(S11 + S12 Y)^{-1}.  P and
           Sigma are composed together, Sigma in reversed time
           (_solve_riccati); Pi has M = 0 and is solved inside
           solve_filter_side, so a rescaled Sigma rebuilds it.
  phi, pi  dy/dt = -(F^T y + c), for phi with F = A + B Theta and
           c = Theta^T r + P a + q, for pi with F = curlyA and c = q, is
           affine (_solve_offset), so z = [y; 1] is linear and a product S
           carries y to S11 y + S12.  That is RK4 on y itself, up to roundoff.

Composition runs from t_N down, a fixed chunk of _CHUNK steps at a time,
so no (2N+1, 2n, 2n) array is ever held.  A chunk is cut into blocks
wherever the summed log-norms of a block's maps would pass _LOG_CAP, far
below overflow; inside a block the product of the maps from each step to
the block's top is formed by Hillis-Steele doubling (the associative scan
of Sarkka & Garcia-Fernandez, IEEE TAC 66(1), 2021), and every node of the
block is the block's top value mapped by its product, in one batched
solve.  Each block restarts from [I; Y] at its top, symmetrized, which
renormalizes the products.  The Hamiltonian maps are RK4 on [U; V], not on
Y, so P, Sigma and Pi differ from RK4 on the Riccati itself by O(h^4).

Every path is a plain (N+1, ...) array of its values at the nodes of
table.grid.  A path already computed on the grid enters the knot arrays
of a later equation with its midpoint values interpolated linearly
between nodes.  Symmetric paths are symmetrized at every node.
For callers that need one path, solve_P and solve_Sigma compose that
equation alone.  No value term reads the backward offset pi: pi
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


_CHUNK = 256      # steps whose maps are built and composed at once
_LOG_CAP = 200.0  # bound on log ||product|| within a block; overflow is at 709


def _symmetrize(M: np.ndarray) -> np.ndarray:
    # halves first, so a finite M near the overflow threshold stays finite
    return 0.5 * M + 0.5 * M.mT


def _rk4_maps(L: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Backward RK4 step maps of the linear system z' = L z.

    L holds the values (2s+1, ..., p, p) of s consecutive steps at their
    knots and hs their signed lengths; map i carries z from the step's
    upper node to its lower one through knots 2i+2, 2i+1 and 2i, the
    stages integrate_matrix_ode evaluates.
    """
    h = hs.reshape(hs.shape + (1,) * (L.ndim - 1))
    Lb, Lm, La = L[2::2], L[1::2], L[:-1:2]
    # K1 = Lb, K2 = Lm (I + h/2 K1), K3 = Lm (I + h/2 K2), K4 = La (I + h K3),
    # each formed in place, and Phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    K = Lm @ Lb
    K *= 0.5 * h
    K += Lm
    Phi = Lb + K
    Phi += K
    K = Lm @ K
    K *= 0.5 * h
    K += Lm
    Phi += K
    Phi += K
    K = La @ K
    K *= h
    K += La
    Phi += K
    Phi *= h / 6.0
    Phi += np.eye(L.shape[-1])
    return Phi


def _solve_right(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V U^{-1} for each stacked pair; a pair whose U is singular or not
    finite gives NaN, which the caller reports as a blow-up."""
    try:
        return np.linalg.solve(U.mT, V.mT).mT
    except np.linalg.LinAlgError:
        out = np.full(V.shape, np.nan)
        for j in np.ndindex(U.shape[:-2]):
            try:
                out[j] = np.linalg.solve(U[j].T, V[j].T).T
            except np.linalg.LinAlgError:
                pass
        return out


def _scan_backward(grid: TimeGrid, L_at: Callable[[slice], np.ndarray],
                   boundary: np.ndarray, apply, blowup) -> np.ndarray:
    """Node values y_0..y_N of y_i = apply(Phi_i, y_{i+1}), where Phi_i is
    the RK4 map of step i of z' = L z and apply(S, y) maps y through a
    product S = Phi_i Phi_{i+1} ... Phi_{j-1} all at once.

    L_at(knots) returns L at a slice of the grid's knots.  The maps are
    built _CHUNK steps at a time from t_N down, and each chunk is cut into
    blocks (see the module docstring); apply(S, y) takes a block's stacked
    products and its top value and returns the value at every node of the
    block.  y_N is `boundary`, stored unchanged.  The first node, counted
    from t_N, whose value is not finite raises blowup(value, node).
    """
    N = grid.steps
    hs = -np.diff(grid.nodes)
    y = np.asarray(boundary, dtype=float)
    out = np.empty((N + 1,) + y.shape)
    out[N] = y
    for k1 in range(N, 0, -_CHUNK):
        k0 = max(k1 - _CHUNK, 0)
        # processing order: row r is step k1 - 1 - r; a map that is not
        # finite makes its node's value not finite, which raises blowup
        with np.errstate(over="ignore", invalid="ignore"):
            S = np.ascontiguousarray(
                _rk4_maps(L_at(slice(2 * k0, 2 * k1 + 1)), hs[k0:k1])[::-1])
        s = len(S)
        # a block's rows sum to at most _LOG_CAP, so no product overflows
        c = np.cumsum(np.log(np.maximum(np.abs(S).sum(axis=-1).reshape(s, -1).max(axis=1), 1.0)))
        starts = [0]
        while True:
            base = c[starts[-1] - 1] if starts[-1] else 0.0
            nxt = max(int(np.searchsorted(c, base + _LOG_CAP, side="right")), starts[-1] + 1)
            if nxt >= s:
                break
            starts.append(nxt)
        ends = starts[1:] + [s]
        first = np.repeat(starts, np.subtract(ends, starts))
        # Hillis-Steele: row r becomes the product of rows r, r-1, ..., first[r]
        rows, d = np.arange(s), 1
        while True:
            r = rows[d:][rows[d:] - d >= first[d:]]
            if not r.size:
                break
            with np.errstate(over="ignore", invalid="ignore"):  # raises blowup below
                S[r] = S[r] @ S[r - d]
            d *= 2
        for a, b in zip(starts, ends):
            with np.errstate(over="ignore", invalid="ignore"):
                vals = apply(S[a:b], y)
            bad = ~np.isfinite(vals).reshape(b - a, -1).all(axis=1)
            if bad.any():
                r = int(np.argmax(bad))
                raise blowup(vals[r], k1 - 1 - a - r)
            out[k1 - b:k1 - a] = vals[::-1]
            y = vals[-1]
    return out


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
    The boundary node stores `boundary` unchanged.  As soon as a step
    produces a NaN or infinity at node i it raises NonFinite(what, i).

    Every solver in this module composes step maps instead (see the module
    docstring).  This loop stays as the plain form of the same RK4 for the
    tests' per-equation references, which step the equations as written,
    and for bench/tracer.py, which counts its steps by this name.
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
                   curlyA: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The paths named in `names` ("P", "Sigma" or "Pi"; Pi needs curlyA),
    composed together from the step maps of their Hamiltonian systems.

    P and Pi end at G and Sigma starts at 0, all stored bitwise; every
    node is symmetrized, and each path is checked positive semidefinite at
    every node against tab.psd_tol.  A blow-up raises NonFinite naming the
    equation and its node.
    """
    N, n = tab.grid.steps, tab.dims.n
    ops = [_riccati_operators(tab, nm, curlyA) for nm in names]

    def hamiltonian(knots):
        L = np.empty((knots.stop - knots.start, len(ops), 2 * n, 2 * n))
        for e, (F, M, C) in enumerate(ops):
            L[:, e, :n, :n] = F[knots]
            L[:, e, :n, n:] = -M[knots]
            L[:, e, n:, :n] = -C[knots]
            L[:, e, n:, n:] = -F[knots].mT
        return L

    def moebius(S, Y):
        # [U; V] = S [I; Y], and Y at each node is V U^{-1}
        W = S[..., :n] + S[..., n:] @ Y
        return _symmetrize(_solve_right(W[..., :n, :], W[..., n:, :]))

    def blowup(Y, i):
        k = int(np.argmin(np.isfinite(Y).all(axis=(1, 2))))
        return NonFinite(names[k], N - i if names[k] == "Sigma" else i)

    boundary = np.stack([np.zeros((n, n)) if nm == "Sigma" else tab.G for nm in names])
    out = _scan_backward(tab.grid, hamiltonian, boundary, moebius, blowup)
    paths = {}
    for k, nm in enumerate(names):
        paths[nm] = np.ascontiguousarray(out[::-1, k] if nm == "Sigma" else out[:, k])
        _assert_psd(nm, paths[nm], tab.psd_tol)
    return paths


def solve_P(tab: NodeTable) -> np.ndarray:
    """Backward Riccati path with terminal value G, symmetrized and checked
    positive semidefinite at every node."""
    return _solve_riccati(tab, ("P",))["P"]


def compute_Theta(P: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Feedback gain -R^{-1}(B^T P + S) at every node."""
    B, S, R = tab.B[::2], tab.S[::2], tab.R[::2]
    return -solve_stack(R, B.mT @ P + S, "R", tab.grid.nodes)


def _solve_offset(tab: NodeTable, F: np.ndarray, c: np.ndarray, name: str) -> np.ndarray:
    """Backward offset dy/dt = -(F^T y + c), y(T) = g, for knot arrays F and
    c, composed from the step maps of z = [y; 1], whose matrix
    [[-F^T, -c], [0, 0]] is built at every knot first; a blow-up raises
    NonFinite(name, node)."""
    n = tab.dims.n
    L = np.zeros((len(F), n + 1, n + 1))
    L[:, :n, :n] = -F.mT
    L[:, :n, n] = -c
    return _scan_backward(tab.grid, lambda knots: L[knots], tab.g,
                          lambda S, y: S[..., :n, :n] @ y + S[..., :n, n],
                          lambda _, i: NonFinite(name, i))


def solve_phi(tab: NodeTable, Theta: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Backward affine offset with terminal value g:
    dphi/dt = -(A + B Theta)^T phi - Theta^T r - P a - q."""
    Th_k, P_k = (at_knots(tab.grid, tab.grid, v) for v in (Theta, P))
    c = (Th_k.mT @ tab.r[..., None] + P_k @ tab.a[..., None])[..., 0] + tab.q
    return _solve_offset(tab, tab.A + tab.B @ Th_k, c, "phi")


def compute_ff(phi: np.ndarray, tab: NodeTable) -> np.ndarray:
    """Feed-forward R^{-1}(B^T phi + r) of the optimal control at every node."""
    v = np.einsum("tnm,tn->tm", tab.B[::2], phi) + tab.r[::2]
    return solve_stack(tab.R[::2], v[:, :, None], "R", tab.grid.nodes)[:, :, 0]


def solve_Sigma(tab: NodeTable) -> np.ndarray:
    """Forward filter error covariance from Sigma(0) = 0."""
    return _solve_riccati(tab, ("Sigma",))["Sigma"]


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


def solve_Pi(tab: NodeTable, curlyA: np.ndarray) -> np.ndarray:
    """Backward Lyapunov path with terminal value G, composed as a Riccati
    path with M = 0, symmetrized and checked positive semidefinite at
    every node."""
    return _solve_riccati(tab, ("Pi",), curlyA)["Pi"]


def solve_pi(tab: NodeTable, curlyA: np.ndarray) -> np.ndarray:
    """Backward linear offset dpi/dt = -(curlyA^T pi + q) with terminal
    value g; see the module docstring for why solve_all leaves it out."""
    return _solve_offset(tab, at_knots(tab.grid, tab.grid, curlyA), tab.q, "pi")


def solve_filter_side(Sigma: np.ndarray, tab: NodeTable) -> dict[str, np.ndarray]:
    """Every path that depends on Sigma: Delta, the gain, curlyA and Pi,
    keyed by their DeterministicSolution field names (Sigma included)."""
    gain = compute_gain(Sigma, tab)
    curlyA = compute_curlyA(gain, tab)
    return {"Sigma": Sigma, "Delta": compute_Delta(Sigma, tab), "gain": gain,
            "curlyA": curlyA, "Pi": solve_Pi(tab, curlyA)}


def solve_all(model: ModelSpec, grid: TimeGrid) -> DeterministicSolution:
    """Solve every deterministic path on one grid from one NodeTable.

    P and Sigma first, in one loop; then Theta, phi and the feed-forward;
    then Delta, the gain, curlyA and Pi.  P, Sigma and Pi are checked
    positive semidefinite against the model's psd_tol.
    """
    tab = NodeTable.build(model, grid)
    riccati = _solve_riccati(tab, ("P", "Sigma"))
    P = riccati["P"]
    Theta = compute_Theta(P, tab)
    phi = solve_phi(tab, Theta, P)
    return DeterministicSolution(
        table=tab, P=P, Theta=Theta, phi=phi, ff=compute_ff(phi, tab),
        **solve_filter_side(riccati["Sigma"], tab),
    )
