"""Euler-Maruyama simulation of the closed loop and its error process.

The scheme, every coefficient at the left endpoint t_i of the step and
L = (Sigma H^T + C K^T) N^{-1} the filter gain:

  u_i        = policy(t_i, Xhat_i)
  X_{i+1}    = X_i + (A X_i + B u_i + a) h + C dW_i + D dW'_i
  dV_i       = H (X_i - Xhat_i) h + K dW_i
  Xhat_{i+1} = Xhat_i + (A Xhat_i + B u_i + a) h + L dV_i

The kernel steps it as two chains, since the error Xtil = X - Xhat never
sees the control.  First the policy-free error chain (curlyA = A - L H,
Delta = L K - C), which simulate_error_direct also runs alone:

  Xtil_0 = 0,  Xtil_{i+1} = (I + h curlyA_i) Xtil_i - Delta_i dW_i + D_i dW'_i

then dV_i = h H Xtil_i + K dW_i at all nodes, then the filter chain

  Xhat_{i+1} = (I + h A_i) Xhat_i + h B_i u_i + (h a_i + L_i dV_i)

with its bracket written for all nodes before the loop, and last
X = Xhat + Xtil: the scheme up to roundoff, at four per-node products per
feedback step.  All-node terms are written into the output buffers, so a
call allocates little beyond them.  It returns X, Xhat, u, dV and the
costs, from value.path_cost; the control law, Theta Xhat - R^{-1}(B^T phi
+ r) and its variants, lives only in _policy_controls.  Noise is keyed by
(seed, path_index), so any path can be redrawn alone.

Paths run on a leading axis, one path for the public functions.  No
per-path product goes through BLAS matmul, whose kernel depends on the
batch size: per-node products are two-operand np.einsum, all-node ones
_add_matvec or value._matvec, each contracting a path in the same order
in any batch, so for every n a path's outputs and cost are bitwise the
same alone, in any batch and at any chunk size.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _rekeyable():
    """A Philox generator and its fresh state, made on first use (numpy.random loads lazily)."""
    gen = np.random.Generator(np.random.Philox(key=0))
    return gen, gen.bit_generator.state


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
    order, or on how many workers: a fresh Philox(key=(path_index << 64)
    | seed), here one generator re-keyed per call (not thread-safe).
    """
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    gen, fresh = _rekeyable()
    fresh["state"]["key"] = np.array([int(seed) & _M64, int(path_index) & _M64],
                                     dtype=np.uint64)
    gen.bit_generator.state = fresh
    scale = np.sqrt(grid.h)
    return NoiseDraw(grid, scale * gen.standard_normal((grid.steps, dims.d)),
                     scale * gen.standard_normal((grid.steps, dims.k)))


# policy kind -> the scenario field of the table it reads, if any
_POLICY_KINDS = {"filter_feedback": None, "zero": None,
                 "open_loop": "table", "perturbed_feedback": "offset"}


@dataclass(frozen=True)
class ControlPolicy:
    """Admissible control law fed to the simulator.

    kind is a key of _POLICY_KINDS, and a table is given exactly when the
    kind reads one: the per-node controls of 'open_loop', one per node of
    the grid, or the offset that 'perturbed_feedback' adds to the optimal
    feedback, grid-aligned or a single constant m-vector.
    """

    kind: str
    table: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        reads = _POLICY_KINDS[self.kind]
        if (self.table is None) != (reads is None):
            raise ValueError(f"policy kind {self.kind!r} reads {reads or 'no table'}")
        if self.table is not None:
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class PathBundle:
    """Everything recorded along one simulated path: the fields and the
    derived error Xtil are the columns of bundle_to_csv, plus the realized
    cost."""

    grid: TimeGrid
    X: np.ndarray       # (N+1, n) true state
    Y: np.ndarray       # (N+1, d) observation, running sum of the dY_i
    Xhat: np.ndarray    # (N+1, n) filtered state
    V: np.ndarray       # (N+1, d) innovation, running sum of the kernel's dV_i
    u: np.ndarray       # (N+1, m) applied control (row N: policy value, unused)
    cost: float

    @property
    def Xtil(self) -> np.ndarray:
        """(N+1, n) estimation error X - Xhat, computed on each read."""
        return self.X - self.Xhat


def _policy_controls(policy: ControlPolicy, sol: DeterministicSolution, i: int,
                     Xhat: np.ndarray, out: np.ndarray):
    """Write the controls at node i of the paths at Xhat into out (paths, m)."""
    if policy.kind == "zero":
        out[...] = 0.0
    elif policy.kind == "open_loop":
        out[...] = policy.table[i]
    else:
        np.einsum("ij,pj->pi", sol.Theta[i], Xhat, out=out)
        out -= sol.ff[i]
        if policy.kind == "perturbed_feedback":
            out += policy.table if policy.table.ndim == 1 else policy.table[i]


def _check_policy_table(policy: ControlPolicy, grid: TimeGrid, m: int,
                        where: str | None = None):
    """ShapeMismatch, naming the table `where` (default: by its kind),
    unless the policy's table fits m controls on grid."""
    shapes = {"open_loop": ((grid.steps + 1, m),),
              "perturbed_feedback": ((m,), (grid.steps + 1, m))}.get(policy.kind)
    if shapes and policy.table.shape not in shapes:
        raise ShapeMismatch(f"{where or policy.kind + ' table'}: expected shape "
                            + " or ".join(map(str, shapes)) + f", got {policy.table.shape}")


def _add_matvec(out, M, x, tmp):
    """out += M x for M (N, i, j), x (paths, N, j), summed in the order of
    j one scalar product at a time through the (paths, N) scratch tmp."""
    for i in range(M.shape[-2]):
        o = out[..., i]
        for j in range(M.shape[-1]):
            o += np.multiply(M[:, i, j], x[..., j], out=tmp)


def _check_finite(where: str, *paths):
    """NonFinite at the first node where a path is not finite (per-node extremes, no mask)."""
    bad = np.logical_or.reduce([~np.isfinite(e) for a in paths
                                for e in (a.min(0).min(1), a.max(0).max(1))])
    if bad.any():
        raise NonFinite(where, int(bad.argmax()))


def _error_chain(sol: DeterministicSolution, dW, dWp, Xt, tmp):
    """The policy-free error chain into Xt (paths, N+1, n); its noise terms
    are written for all nodes first, through the (paths, N) scratch tmp."""
    F = np.eye(Xt.shape[-1]) + np.diff(sol.grid.nodes)[:, None, None] * sol.curlyA[:-1]
    Xt[...] = 0.0
    _add_matvec(Xt[:, 1:], -sol.Delta[:-1], dW, tmp)
    _add_matvec(Xt[:, 1:], sol.table.D[:-1:2], dWp, tmp)
    for i in range(sol.grid.steps):
        nxt = Xt[:, i + 1]
        nxt += np.einsum("ij,pj->pi", F[i], Xt[:, i])


def _closed_loop_arrays(model: ModelSpec, sol: DeterministicSolution,
                        policy: ControlPolicy, dW: np.ndarray, dWp: np.ndarray):
    """Step every path at once (leading axis of dW/dWp) and return X and
    Xhat (paths, N+1, n), u (paths, N+1, m), the innovation increments dV
    (paths, N, d) the filter consumed, and the cost of each path."""
    grid, tab = sol.grid, sol.table
    n, m, d = model.dims.n, model.dims.m, model.dims.d
    npaths, N = dW.shape[0], grid.steps
    _check_policy_table(policy, grid, m)
    h = np.diff(grid.nodes)[:, None, None]
    X = np.empty((npaths, N + 1, n))  # holds Xtil until the last line
    Xhat = np.empty((npaths, N + 1, n))
    u = np.empty((npaths, N + 1, m))
    dV = np.zeros((npaths, N, d))
    tmp = u[:, :-1, 0]  # scratch until the filter loop writes the controls
    with np.errstate(invalid="ignore", over="ignore"):  # _check_finite reports
        _error_chain(sol, dW, dWp, X, tmp)
        _add_matvec(dV, h * tab.H[:-1:2], X[:, :-1], tmp)
        _add_matvec(dV, tab.K[:-1:2], dW, tmp)
        Xhat[:, 0] = model.x0
        Xhat[:, 1:] = h[:, 0] * tab.a[:-1:2]
        _add_matvec(Xhat[:, 1:], sol.gain[:-1], dV, tmp)
        Ah = np.eye(n) + h * tab.A[:-1:2]
        hB = h * tab.B[:-1:2]
        for i in range(N):
            _policy_controls(policy, sol, i, Xhat[:, i], u[:, i])
            nxt = Xhat[:, i + 1]
            nxt += np.einsum("ij,pj->pi", Ah[i], Xhat[:, i])
            nxt += np.einsum("ij,pj->pi", hB[i], u[:, i])
        _policy_controls(policy, sol, N, Xhat[:, N], u[:, N])
        X += Xhat
    _check_finite("simulate_closed_loop", X, Xhat)
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
        yield PathBundle(sol.grid, X[p], Y[p], Xhat[p], V[p], arrs["u"][p],
                         float(cost))


def simulate_closed_loop(model: ModelSpec, sol: DeterministicSolution,
                         policy: ControlPolicy, noise: NoiseDraw) -> PathBundle:
    """Simulate one path of the controlled system and its filter."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    arrs = _closed_loop_arrays(model, sol, policy, noise.dW[None], noise.dWp[None])
    return next(_bundles(sol, arrs))


def simulate_error_direct(model: ModelSpec, sol: DeterministicSolution,
                          noise: NoiseDraw) -> np.ndarray:
    """The estimation error of one path on its own: the kernel's error
    chain, without the loop.  Fed the same draw, simulate_closed_loop must
    give X - Xhat up to roundoff, the discrete consistency check between
    the filter and the error dynamics."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    N = sol.grid.steps
    Xt = np.empty((1, N + 1, model.dims.n))
    with np.errstate(invalid="ignore", over="ignore"):
        _error_chain(sol, noise.dW[None], noise.dWp[None], Xt, np.empty((1, N)))
    _check_finite("simulate_error_direct", Xt)
    return Xt[0]


def bundle_to_csv(bundle: PathBundle, fileobj):
    """Write one path as CSV: a row per node, 17 significant digits, and a
    trailing comment record with the realized cost.  One %.17g row
    template is applied over the whole (N+1, columns) block.  No
    timestamps, so identical bundles serialize byte-identically."""
    levels = (("X", bundle.X), ("Y", bundle.Y), ("Xhat", bundle.Xhat),
              ("Xtil", bundle.Xtil), ("V", bundle.V), ("u", bundle.u))
    cols = ["t"] + [f"{name}{j+1}" for name, a in levels for j in range(a.shape[1])]
    fileobj.write(",".join(cols) + "\n")
    block = np.concatenate([bundle.grid.nodes[:, None]] + [a for _, a in levels], axis=1)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    fileobj.write((row * len(block)) % tuple(block.ravel().tolist()))
    fileobj.write(f"# cost,{bundle.cost:.17g}\n")
