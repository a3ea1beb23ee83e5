"""Euler-Maruyama simulation of the closed loop and its error process.

One step, all left-endpoint coefficients, in this exact order:

  u_i     = policy(t_i, Xhat_i)
  X_{i+1} = X_i + (A X_i + B u_i + a) h + C dW_i + D dW'_i
  Y_{i+1} = Y_i + (H X_i + h_coef) h + K dW_i
  dV_i    = (Y_{i+1} - Y_i) - (H Xhat_i + h_coef) h
  Xhat_{i+1} = Xhat_i + (A Xhat_i + B u_i + a) h + (Sigma H^T + C K^T) N^{-1} dV_i
  Vcheck_{i+1} = Vcheck_i + K^{-1} dV_i

Policies only ever see the filtered state, never the truth; the control
law, the optimal u = Theta Xhat - R^{-1}(B^T phi + r) and its variants,
lives only in _policy_controls.  The realized cost is computed after
stepping, by value.path_cost on the true path: the left Riemann sum of the
running cost plus the terminal cost.  Noise comes from a counter-based
generator keyed by (seed, path_index), so any path can be regenerated on
its own and batches are bitwise independent of scheduling.

The stepping kernel is vectorized over a leading path axis; the public
single-path functions run it with one path, so batch and single-path
results agree bitwise.  It reads every coefficient, the gain
(Sigma H^T + C K^T) N^{-1}, K^{-1} and the feed-forward R^{-1}(B^T phi + r)
from the DeterministicSolution and its NodeTable, by node index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detsolve import DeterministicSolution
from .errors import NonFinite, ShapeMismatch
from .model import ModelSpec, Dimensions, TimeGrid
from .model import interp_table  # noqa: F401  bench/tracer.py counts its calls here by name
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .value import path_cost

__all__ = [
    "NoiseDraw",
    "ControlPolicy",
    "PathBundle",
    "draw_noise",
    "simulate_closed_loop",
    "simulate_error_direct",
    "bundle_to_csv",
]

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseDraw:
    """Brownian increments over one grid; each entry has variance h."""

    grid: TimeGrid
    dW: np.ndarray   # (steps, d) common noise
    dWp: np.ndarray  # (steps, k) state-only noise


def draw_noise(seed: int, path_index: int, grid: TimeGrid, dims: Dimensions) -> NoiseDraw:
    """Increments for one path from a Philox stream keyed by (seed, path_index).

    The key fixes the whole stream, so the same arguments reproduce the
    same draw bitwise no matter how many other paths were drawn, in what
    order, or on how many workers.
    """
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    key = ((int(path_index) & _M64) << 64) | (int(seed) & _M64)
    gen = np.random.Generator(np.random.Philox(key=key))
    scale = np.sqrt(grid.h)
    dW = scale * gen.standard_normal((grid.steps, dims.d))
    dWp = scale * gen.standard_normal((grid.steps, dims.k))
    return NoiseDraw(grid, dW, dWp)


@dataclass(frozen=True)
class ControlPolicy:
    """Admissible control law fed to the simulator.

    kind is one of 'filter_feedback', 'zero', 'open_loop',
    'perturbed_feedback'.  Open-loop tables are grid-aligned, one control
    per node; perturbation offsets are either grid-aligned or a single
    constant m-vector.
    """

    kind: str
    table: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("filter_feedback", "zero", "open_loop", "perturbed_feedback"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.table is not None:
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    @classmethod
    def filter_feedback(cls) -> "ControlPolicy":
        return cls("filter_feedback")

    @classmethod
    def zero(cls) -> "ControlPolicy":
        return cls("zero")

    @classmethod
    def open_loop(cls, table, label="open_loop") -> "ControlPolicy":
        return cls("open_loop", table, label)

    @classmethod
    def perturbed_feedback(cls, offset, label="perturbed_feedback") -> "ControlPolicy":
        return cls("perturbed_feedback", offset, label)


@dataclass(frozen=True)
class PathBundle:
    """Everything recorded along one simulated path."""

    grid: TimeGrid
    X: np.ndarray       # (N+1, n) true state
    Y: np.ndarray       # (N+1, d) observation
    Xhat: np.ndarray    # (N+1, n) filtered state
    Xtil: np.ndarray    # (N+1, n) X - Xhat, exact by construction
    V: np.ndarray       # (N+1, d) innovation
    Vcheck: np.ndarray  # (N+1, d) normalized innovation
    u: np.ndarray       # (N+1, m) applied control (row N: policy value, unused)
    cost: float


def _policy_controls(policy: ControlPolicy, sol: DeterministicSolution, i: int,
                     Xhat: np.ndarray, m: int) -> np.ndarray:
    npaths = Xhat.shape[0]
    if policy.kind == "zero":
        return np.zeros((npaths, m))
    if policy.kind == "open_loop":
        return np.broadcast_to(policy.table[i], (npaths, m)).copy()
    u = Xhat @ sol.Theta[i].T - sol.ff[i]
    if policy.kind == "perturbed_feedback":
        off = policy.table if policy.table.ndim == 1 else policy.table[i]
        u = u + off
    return u


def _check_policy_table(policy: ControlPolicy, grid: TimeGrid, m: int):
    if policy.kind == "open_loop":
        if policy.table is None or policy.table.shape != (grid.steps + 1, m):
            raise ShapeMismatch(
                f"open-loop table must have shape {(grid.steps + 1, m)}")
    if policy.kind == "perturbed_feedback":
        if policy.table is None or policy.table.shape not in ((m,), (grid.steps + 1, m)):
            raise ShapeMismatch(
                f"perturbation offsets must have shape {(m,)} or {(grid.steps + 1, m)}")


def _closed_loop_arrays(model: ModelSpec, sol: DeterministicSolution,
                        policy: ControlPolicy, dW: np.ndarray, dWp: np.ndarray):
    """Step every path at once; leading axis of dW/dWp indexes paths."""
    grid = sol.grid
    dims = model.dims
    n, m, d = dims.n, dims.m, dims.d
    N = grid.steps
    _check_policy_table(policy, grid, m)
    tab = sol.table
    Gain = sol.gain
    npaths = dW.shape[0]

    X = np.empty((npaths, N + 1, n))
    Y = np.empty((npaths, N + 1, d))
    Xhat = np.empty((npaths, N + 1, n))
    V = np.empty((npaths, N + 1, d))
    Vcheck = np.empty((npaths, N + 1, d))
    u = np.empty((npaths, N + 1, m))

    X[:, 0] = model.x0
    Xhat[:, 0] = model.x0
    Y[:, 0] = 0.0
    V[:, 0] = 0.0
    Vcheck[:, 0] = 0.0

    nodes = grid.nodes
    for i in range(N):
        hs = nodes[i + 1] - nodes[i]
        j = 2 * i  # knot of node i in the table
        Xi, Xhi, Yi = X[:, i], Xhat[:, i], Y[:, i]
        Ui = _policy_controls(policy, sol, i, Xhi, m)
        u[:, i] = Ui
        drift_truth = Xi @ tab.A[j].T + Ui @ tab.B[j].T + tab.a[j]
        X[:, i + 1] = (Xi + hs * drift_truth + dW[:, i] @ tab.C[j].T
                       + dWp[:, i] @ tab.D[j].T)
        # the filter consumes the observation increment itself, not the
        # difference of accumulated levels, so dV carries no cancellation
        dY = hs * (Xi @ tab.H[j].T + tab.h[j]) + dW[:, i] @ tab.K[j].T
        Y[:, i + 1] = Yi + dY
        dV = dY - hs * (Xhi @ tab.H[j].T + tab.h[j])
        drift_filter = Xhi @ tab.A[j].T + Ui @ tab.B[j].T + tab.a[j]
        Xhat[:, i + 1] = Xhi + hs * drift_filter + dV @ Gain[i].T
        V[:, i + 1] = V[:, i] + dV
        Vcheck[:, i + 1] = Vcheck[:, i] + dV @ tab.Kinv[j].T
        if not np.isfinite(X[:, i + 1]).all() or not np.isfinite(Xhat[:, i + 1]).all():
            raise NonFinite("simulate_closed_loop", i + 1)

    u[:, N] = _policy_controls(policy, sol, N, Xhat[:, N], m)
    return {"X": X, "Y": Y, "Xhat": Xhat, "Xtil": X - Xhat, "V": V,
            "Vcheck": Vcheck, "u": u, "cost": path_cost(tab, X, u)}


def _bundle(grid: TimeGrid, arrs, p: int) -> PathBundle:
    """Path p of a _closed_loop_arrays output."""
    paths = ("X", "Y", "Xhat", "Xtil", "V", "Vcheck", "u")
    return PathBundle(grid=grid, cost=float(arrs["cost"][p]),
                      **{f: arrs[f][p] for f in paths})


def simulate_closed_loop(model: ModelSpec, sol: DeterministicSolution,
                         policy: ControlPolicy, noise: NoiseDraw) -> PathBundle:
    """Simulate one path of the controlled system and its filter."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    arrs = _closed_loop_arrays(model, sol, policy,
                               noise.dW[None, ...], noise.dWp[None, ...])
    return _bundle(sol.grid, arrs, 0)


def _error_direct_arrays(model: ModelSpec, sol: DeterministicSolution,
                         dW: np.ndarray, dWp: np.ndarray) -> np.ndarray:
    """Euler chain for the error SDE dXtil = curlyA Xtil dt - Delta dW + D dW'."""
    grid = sol.grid
    n = model.dims.n
    N = grid.steps
    D = sol.table.D[::2]
    Av = sol.curlyA
    Dl = sol.Delta
    npaths = dW.shape[0]
    Xt = np.zeros((npaths, N + 1, n))
    nodes = grid.nodes
    for i in range(N):
        hs = nodes[i + 1] - nodes[i]
        Xt[:, i + 1] = (Xt[:, i] + hs * (Xt[:, i] @ Av[i].T)
                        - dW[:, i] @ Dl[i].T + dWp[:, i] @ D[i].T)
        if not np.isfinite(Xt[:, i + 1]).all():
            raise NonFinite("simulate_error_direct", i + 1)
    return Xt


def simulate_error_direct(model: ModelSpec, sol: DeterministicSolution,
                          noise: NoiseDraw) -> np.ndarray:
    """Simulate the estimation error on its own, without the loop.

    Feeding the same draw here and into simulate_closed_loop must give
    X - Xhat up to roundoff, which is the discrete consistency check
    between the filter and the error dynamics.
    """
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    return _error_direct_arrays(model, sol, noise.dW[None, ...], noise.dWp[None, ...])[0]


def bundle_to_csv(bundle: PathBundle, fileobj):
    """Write one path as CSV: a row per node, 17 significant digits, and a
    trailing comment record with the realized cost.  One %.17g row
    template is applied over the whole (N+1, columns) block.  No
    timestamps, so identical bundles serialize byte-identically."""
    n = bundle.X.shape[1]
    d = bundle.Y.shape[1]
    m = bundle.u.shape[1]
    cols = (["t"]
            + [f"X{j+1}" for j in range(n)]
            + [f"Y{j+1}" for j in range(d)]
            + [f"Xhat{j+1}" for j in range(n)]
            + [f"Xtil{j+1}" for j in range(n)]
            + [f"V{j+1}" for j in range(d)]
            + [f"u{j+1}" for j in range(m)])
    fileobj.write(",".join(cols) + "\n")
    block = np.concatenate((bundle.grid.nodes[:, None], bundle.X, bundle.Y,
                            bundle.Xhat, bundle.Xtil, bundle.V, bundle.u), axis=1)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    fileobj.write((row * len(block)) % tuple(block.ravel().tolist()))
    fileobj.write(f"# cost,{bundle.cost:.17g}\n")
