"""Euler-Maruyama simulation of the closed loop and its error process.

Policies see only the filter Xhat, which the innovation drives, and the
error X - Xhat never sees the control, so the kernel steps (X, Xhat) only.
One step, all left-endpoint coefficients, in this exact order:

  u_i        = policy(t_i, Xhat_i)
  X_{i+1}    = X_i + (A X_i + B u_i + a) h + C dW_i + D dW'_i
  dV_i       = H (X_i - Xhat_i) h + K dW_i
  Xhat_{i+1} = Xhat_i + (A Xhat_i + B u_i + a) h + (Sigma H^T + C K^T) N^{-1} dV_i

The kernel returns X, Xhat, u, the innovation increments dV and each
path's cost; its readers derive the rest.  A PathBundle's Y and V sum
dY_i = dV_i + (H Xhat_i + h_coef) h and dV_i from 0, and its Xtil is
X - Xhat; verify forms the normalized increments K^{-1} dV_i itself.

The control law, the optimal u = Theta Xhat - R^{-1}(B^T phi + r) and its
variants, lives only in _policy_controls.  The realized cost is computed
after stepping, by value.path_cost on the true path: the left Riemann sum
of the running cost plus the terminal cost.  Noise comes from a
counter-based generator keyed by (seed, path_index), so any path can be
regenerated on its own.

The kernel is vectorized over a leading path axis; the public single-path
functions run it with one path.  No per-path product goes through BLAS
matmul, whose kernel depends on the batch size: the kernel and
_policy_controls multiply at one node with a two-operand np.einsum, and
the derived paths and value.path_cost at all nodes at once with
value._matvec.  Both contract each path in the same order in any batch,
so for every n a path's outputs and cost are bitwise the same alone, in
any batch and at any chunk size.  The kernel reads every coefficient, the
gain (Sigma H^T + C K^T) N^{-1} and the feed-forward R^{-1}(B^T phi + r)
from the DeterministicSolution and its NodeTable, by node index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .detsolve import DeterministicSolution
from .errors import NonFinite, ShapeMismatch
from .model import ModelSpec, Dimensions, TimeGrid
from .model import interp_table  # noqa: F401  bench/tracer.py counts its calls here by name
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .value import _matvec, path_cost

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
    """Everything recorded along one simulated path; the fields are the
    columns of bundle_to_csv plus the realized cost."""

    grid: TimeGrid
    X: np.ndarray       # (N+1, n) true state
    Y: np.ndarray       # (N+1, d) observation, running sum of the dY_i
    Xhat: np.ndarray    # (N+1, n) filtered state
    Xtil: np.ndarray    # (N+1, n) X - Xhat, exact
    V: np.ndarray       # (N+1, d) innovation, running sum of the kernel's dV_i
    u: np.ndarray       # (N+1, m) applied control (row N: policy value, unused)
    cost: float


def _policy_controls(policy: ControlPolicy, sol: DeterministicSolution, i: int,
                     Xhat: np.ndarray, m: int) -> np.ndarray:
    npaths = Xhat.shape[0]
    if policy.kind == "zero":
        return np.zeros((npaths, m))
    if policy.kind == "open_loop":
        return np.broadcast_to(policy.table[i], (npaths, m)).copy()
    u = np.einsum("ij,pj->pi", sol.Theta[i], Xhat) - sol.ff[i]
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
    """Step every path at once; leading axis of dW/dWp indexes paths.

    Returns X and Xhat (paths, N+1, n), u (paths, N+1, m), the innovation
    increments dV (paths, N, d) the filter consumed, and the cost of each
    path."""
    grid = sol.grid
    dims = model.dims
    n, m, d = dims.n, dims.m, dims.d
    N = grid.steps
    _check_policy_table(policy, grid, m)
    tab = sol.table
    npaths = dW.shape[0]

    X = np.empty((npaths, N + 1, n))
    Xhat = np.empty((npaths, N + 1, n))
    u = np.empty((npaths, N + 1, m))
    dV = np.empty((npaths, N, d))
    X[:, 0] = model.x0
    Xhat[:, 0] = model.x0

    nodes = grid.nodes
    for i in range(N):
        hs = nodes[i + 1] - nodes[i]
        j = 2 * i  # knot of node i in the table
        Xi, Xhi, dWi = X[:, i], Xhat[:, i], dW[:, i]
        Ui = _policy_controls(policy, sol, i, Xhi, m)
        u[:, i] = Ui
        Bu = np.einsum("ij,pj->pi", tab.B[j], Ui)
        drift_truth = np.einsum("ij,pj->pi", tab.A[j], Xi) + Bu + tab.a[j]
        X[:, i + 1] = (Xi + hs * drift_truth + np.einsum("ij,pj->pi", tab.C[j], dWi)
                       + np.einsum("ij,pj->pi", tab.D[j], dWp[:, i]))
        dV[:, i] = (hs * np.einsum("ij,pj->pi", tab.H[j], Xi - Xhi)
                    + np.einsum("ij,pj->pi", tab.K[j], dWi))
        drift_filter = np.einsum("ij,pj->pi", tab.A[j], Xhi) + Bu + tab.a[j]
        Xhat[:, i + 1] = (Xhi + hs * drift_filter
                          + np.einsum("ij,pj->pi", sol.gain[i], dV[:, i]))
        if not np.isfinite(X[:, i + 1]).all() or not np.isfinite(Xhat[:, i + 1]).all():
            raise NonFinite("simulate_closed_loop", i + 1)

    u[:, N] = _policy_controls(policy, sol, N, Xhat[:, N], m)
    return {"X": X, "Xhat": Xhat, "u": u, "dV": dV, "cost": path_cost(tab, X, u)}


def _bundles(sol: DeterministicSolution, arrs) -> Iterator[PathBundle]:
    """The paths of a _closed_loop_arrays output as PathBundles; Y and V
    are summed from their increments in place, for all paths."""
    tab = sol.table
    X, Xhat, dV = arrs["X"], arrs["Xhat"], arrs["dV"]
    shape = X.shape[:2] + dV.shape[2:]
    # each level allocated just before it is filled, not as one block,
    # to keep the chunk's peak RSS down
    Y = np.zeros(shape)
    dY = _matvec(tab.H[:-1:2], Xhat[:, :-1], out=Y[:, 1:])
    dY += tab.h[:-1:2]
    dY *= np.diff(sol.grid.nodes)[:, None]
    dY += dV
    V = np.zeros(shape)
    V[:, 1:] = dV
    for level in (Y, V):
        np.cumsum(level[:, 1:], axis=1, out=level[:, 1:])
    for p, cost in enumerate(arrs["cost"]):
        yield PathBundle(sol.grid, X[p], Y[p], Xhat[p], X[p] - Xhat[p], V[p],
                         arrs["u"][p], float(cost))


def simulate_closed_loop(model: ModelSpec, sol: DeterministicSolution,
                         policy: ControlPolicy, noise: NoiseDraw) -> PathBundle:
    """Simulate one path of the controlled system and its filter."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    arrs = _closed_loop_arrays(model, sol, policy,
                               noise.dW[None, ...], noise.dWp[None, ...])
    return next(_bundles(sol, arrs))


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
