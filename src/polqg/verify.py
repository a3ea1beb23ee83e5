"""Monte Carlo evidence that the deterministic solution is right.

One pass, simulate_statistics, draws each chunk's noise once and runs
filter feedback and every extra policy on those same increments (common
random numbers).  It reduces each policy's output to per-path numbers
before the next policy runs: the costs, and on the feedback paths the
error statistics at each probe node, the normalized innovation increment
sums and the cost split along X = Xhat + Xtil.  The reports only reduce
these, so one pass feeds every statistic and no path is simulated twice.
Each statistic is reduced in exactly one report:

    compare_policies     every policy's cost mean and SE, and the paired
                         excess over filter feedback
    run_batch            error covariance and <Xtil, Xhat> at a probe node
    brownianity_report   innovation increment mean, quadratic-variation
                         ratio, lag-1 autocorrelation, Vcheck(T) variance
    decomposition_check  the cross term and the Xtil cost tildeJ

The analytic targets (optimal value, tilde_J) live on PathStatistics,
and Sigma on the solution; no report copies them.

discrete_moments holds the exact law of the chain the kernel steps: the
mean and covariance of (Xtil, Xhat) node by node, and from them the
expected costs, Xtil cost and error covariance that the pass's estimates
converge to on the same grid.  `polqg verify` makes one pass, on its own
grid, and takes the Euler bias allowance of its biased rows from
discrete_moments on that grid and on the grid with twice the steps, so no
path is simulated on a second grid.

Per-path noise comes from draw_noise(seed, path_index) and every per-path
number is bitwise independent of the chunk its path ran in (see
polqg.simulate).  The pass cuts paths 0..n_paths-1 into one contiguous
share per CPU this process may run on (_run_in_shares): forked children
run the shares after the first and this process the first, each writing
its rows into PathStatistics arrays carved before the fork from one
anonymous shared mmap.  The reports reduce the complete per-path arrays
with numpy after every child is reaped, so they are bitwise reproducible
for fixed (model, seed, n_paths, policies), independent of chunk size,
worker count or scheduling.  _run_in_shares, the only place polqg forks,
reruns the whole pass in this process if any share fails, in a child or
here, so that an error names the first bad node over the same chunks,
with the same message and exit code, as a single-process run.

Each share runs its paths in chunks, and _simulate_chunks is the one
place a chunk is sized.  A path costs 8 (N+1)(3n + m + 2d + k) bytes: its
noise, the kernel's X, Xhat, u and dV, and room for one more state-sized
temporary.  A chunk holds as many paths as fit _CHUNK_BYTES (12 MiB), but
at least _MIN_CHUNK (512) so that the kernel's per-step Python overhead
stays amortised, and a share is cut evenly into the fewest such chunks.
Only one chunk's noise and one policy's output are live at a time, so
each process holds about one budget of Monte Carlo arrays on top of the
solutions and the shared statistics, however many paths it runs; more
only where 512 paths exceed the budget (from N = 438 on the scalar
model).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import astuple, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .detsolve import DeterministicSolution
from .errors import InsufficientPaths, NonFinite
from .model import ModelSpec, TimeGrid
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .simulate import (
    ControlPolicy,
    PathBundle,
    _bundles,
    _PATH_BLOCK,
    _closed_loop_arrays,
    _node_major,
    draw_noise,
)
from .value import _first_nonfinite, _matvec, optimal_value, path_cost, tilde_J

__all__ = [
    "PathStatistics",
    "BatchReport",
    "PolicyCostRow",
    "PolicyComparison",
    "BrownianityReport",
    "DecompositionReport",
    "simulate_statistics",
    "run_batch",
    "compare_policies",
    "brownianity_report",
    "decomposition_check",
    "DiscreteMoments",
    "discrete_moments",
    "expected_discrete_error_cov",
    "iter_path_bundles",
    "default_probe_nodes",
]

_FEEDBACK = ControlPolicy("filter_feedback")


def _mean_se(a: np.ndarray):
    """Mean and standard error along the path axis."""
    return a.mean(axis=0), a.std(axis=0, ddof=1) / np.sqrt(a.shape[0])


def default_probe_nodes(grid: TimeGrid) -> tuple[int, ...]:
    """Grid indices closest to T/4, T/2, 3T/4 and T."""
    return tuple(int(round(grid.steps * f)) for f in (0.25, 0.5, 0.75, 1.0))


# ---------------------------------------------------------------------------
# the chunk loop

# the chunk rule's byte budget and floor (see the module docstring)
_CHUNK_BYTES = 12 * 2**20
_MIN_CHUNK = 512


def _noise_stack(seed: int, j0: int, j1: int, grid, dims):
    """The increments of paths j0..j1-1 from draw_noise: dW (paths, N, d)
    and dWp (paths, N, k), stored node-major like the kernel's arrays.
    _PATH_BLOCK paths at a time are drawn into the rows of a path-major
    scratch and written into the stacks as one block."""
    N, d, k = grid.steps, dims.d, dims.k
    dW, dWp = _node_major(j1 - j0, N, d), _node_major(j1 - j0, N, k)
    scratch = np.empty((min(_PATH_BLOCK, j1 - j0), N * (d + k)))
    for b0 in range(j0, j1, _PATH_BLOCK):
        z = scratch[:min(_PATH_BLOCK, j1 - b0)]
        for j, row in enumerate(z, b0):
            draw_noise(seed, j, grid, dims, out=row)
        rows = slice(b0 - j0, b0 - j0 + len(z))
        dW[rows] = z[:, :N * d].reshape(-1, N, d)
        dWp[rows] = z[:, N * d:].reshape(-1, N, k)
    return dW, dWp


def _simulate_chunks(model: ModelSpec, sol: DeterministicSolution,
                     policies: Sequence[ControlPolicy], first: int, stop: int,
                     seed: int, chunk_size: int | None = None):
    """Yield (j0, j1, policy, kernel output) for paths first..stop-1 chunk
    by chunk: each chunk's noise is drawn once and every policy runs on it,
    in the given order.  This is the one place a chunk is sized: by the
    chunk rule of the module docstring, the paths cut evenly into the
    fewest chunks of at most max(_CHUNK_BYTES // bytes per path,
    _MIN_CHUNK) paths, or else chunk_size paths, which only the
    chunk-invariance tests pass.  The noise is freed before the chunk's
    last output is yielded, and no output is held here once the caller
    resumes, so a caller that drops each output holds only one at a time."""
    if chunk_size is None:
        dims, count = model.dims, stop - first
        per_path = 8 * (sol.grid.steps + 1) * (3 * dims.n + dims.m + 2 * dims.d + dims.k)
        chunks = -(-count // max(_CHUNK_BYTES // per_path, _MIN_CHUNK))
        chunk_size = max(-(-count // max(chunks, 1)), 1)
    elif chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    for j0 in range(first, stop, chunk_size):
        j1 = min(j0 + chunk_size, stop)
        dW, dWp = _noise_stack(seed, j0, j1, sol.grid, model.dims)
        for k, policy in enumerate(policies):
            arrs = _closed_loop_arrays(model, sol, policy, dW, dWp)
            if k == len(policies) - 1:
                del dW, dWp
            yield j0, j1, policy, arrs
            del arrs


def iter_path_bundles(model: ModelSpec, sol: DeterministicSolution,
                      policy: ControlPolicy, n_paths: int, seed: int,
                      chunk_size: int | None = None) -> Iterator[PathBundle]:
    """Yield PathBundles for path indices 0..n_paths-1 in order, simulated
    in chunks (see _simulate_chunks) so memory stays bounded."""
    for _, _, _, arrs in _simulate_chunks(model, sol, (policy,), 0, n_paths,
                                          seed, chunk_size):
        yield from _bundles(sol, arrs)


# ---------------------------------------------------------------------------
# forked workers

def _run_in_shares(count: int, work: Callable[[int, int], None]):
    """Call work(a, b) on range(count) cut into one contiguous share [a, b)
    per CPU this process may run on, at most count shares and at least one
    (work(0, 0) when count is 0).  Forked children run the shares after the
    first and leave through os._exit, never returning here; this process
    runs the first, then any share whose child could not be forked.  Every
    child is reaped, also when this process's own work raises.  If any
    share failed, here or in a child, work(0, count) runs again in this
    process, so that an error is the one a single-process run raises."""
    workers = max(min(len(os.sched_getaffinity(0)), count), 1)
    cuts = [w * count // workers for w in range(workers + 1)]
    children, here, failed = [], [(0, cuts[1])], False
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            try:
                pid = os.fork()
            except OSError:
                here.append((a, b))
                continue
            if pid == 0:
                code = 1
                try:
                    work(a, b)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        for a, b in here:
            work(a, b)
    except Exception:
        failed = True
    finally:
        failed |= any([os.waitpid(pid, 0)[1] for pid in children])  # a list: reap all
    if failed:
        work(0, count)


def _shared_zeros(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Zero float arrays of the given shapes, carved from one anonymous
    shared mmap, so that what a forked child writes reaches this process."""
    import mmap  # here, so that `polqg solve` and `validate` never load it

    sizes = [math.prod(shape) for shape in shapes]
    buf = mmap.mmap(-1, 8 * sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    return [np.frombuffer(buf, float, size, 8 * start).reshape(shape)
            for shape, size, start in zip(shapes, sizes, starts)]


# ---------------------------------------------------------------------------
# the single pass

@dataclass(frozen=True)
class PathStatistics:
    """Per-path numbers of one simulate_statistics pass; everything but
    `costs` comes from the filter feedback paths."""

    sol: DeterministicSolution
    n_paths: int
    analytic_value: float          # optimal_value(model, sol).total
    tildeJ_analytic: float         # tilde_J(model, sol)
    costs: dict[str, np.ndarray]   # policy label -> (n_paths,), feedback first
    error_outer: dict[int, np.ndarray]  # probe node -> (n_paths, n, n) Xtil Xtil^T
    orth: dict[int, np.ndarray]    # probe node -> (n_paths,) <Xtil, Xhat>
    inc_sums: np.ndarray           # (n_paths, d) sum of the dVcheck, = Vcheck(T)
    inc_sq: np.ndarray             # (n_paths, d) sum of dVcheck**2
    lag_sums: np.ndarray           # (n_paths, d) sum of dVcheck_i dVcheck_{i+1}
    hatJ: np.ndarray               # (n_paths,) cost along Xhat
    tildeJ: np.ndarray             # (n_paths,) cost along Xtil


def _record_feedback(arrs, stats: PathStatistics, rows: slice):
    """Write the per-path numbers of one chunk of filter feedback paths
    into rows of stats: the innovation increment sums, the probe
    statistics, and the cost split along X = Xhat + Xtil, where
    value.path_cost prices Xhat with the applied controls and Xtil with
    none.  K^{-1} dV and its products are formed _PATH_BLOCK paths at a
    time in path-major scratch, so every sum over nodes runs in the order
    it runs on a path-major array.  The chunk's X buffer becomes Xtil, so
    arrs no longer holds X afterwards."""
    tab = stats.sol.table
    dV = arrs["dV"]
    scratch = np.empty((2, min(_PATH_BLOCK, len(dV))) + dV.shape[1:])
    for b0 in range(0, len(dV), _PATH_BLOCK):
        block = dV[b0:b0 + _PATH_BLOCK]
        dvc, sq = scratch[:, :len(block)]
        _matvec(tab.Kinv[:-1:2], block, out=dvc)  # K^{-1} dV
        out = slice(rows.start + b0, rows.start + b0 + len(block))
        stats.inc_sums[out] = dvc.sum(axis=1)
        stats.inc_sq[out] = np.square(dvc, out=sq).sum(axis=1)
        stats.lag_sums[out] = np.multiply(dvc[:, :-1], dvc[:, 1:], out=sq[:, :-1]).sum(axis=1)
    del scratch, dvc, sq  # before the path costs' temporaries
    Xtil = np.subtract(arrs["X"], arrs["Xhat"], out=arrs["X"])
    for pn in stats.error_outer:
        til = Xtil[:, pn]
        stats.error_outer[pn][rows] = til[:, :, None] * til[:, None, :]
        stats.orth[pn][rows] = np.einsum("pi,pi->p", til, arrs["Xhat"][:, pn])
    stats.hatJ[rows] = path_cost(tab, arrs["Xhat"], arrs["u"])
    stats.tildeJ[rows] = path_cost(tab, Xtil, 0.0)


def simulate_statistics(model: ModelSpec, sol: DeterministicSolution,
                        n_paths: int, seed: int, probes: Sequence[int] = (),
                        policies: Sequence[ControlPolicy] = (),
                        chunk_size: int | None = None) -> PathStatistics:
    """Simulate paths 0..n_paths-1 under filter feedback and, on the same
    noise, under each extra policy; keep the per-path numbers every report
    needs, with the error statistics at each probe node.  The paths run in
    one forked worker per CPU, each in chunks of at most the 12 MiB byte
    budget, so each process holds about one budget of noise and kernel
    output (see the module docstring); chunk_size fixes the paths per
    chunk instead, for the chunk-invariance tests.  `polqg verify` runs
    one such pass; the exact expectations of these numbers on any grid
    come from discrete_moments, with no paths."""
    if n_paths < 2:
        raise InsufficientPaths(f"need at least 2 paths, got {n_paths}")
    for pn in probes:
        if not 0 <= pn <= sol.grid.steps:
            raise IndexError(f"probe_node {pn} outside 0..{sol.grid.steps}")
    runs = (_FEEDBACK, *policies)
    labels = [p.label for p in runs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"policy labels must be unique, got {labels}")
    n, d = model.dims.n, model.dims.d

    costs, outer, orth, incs, split = _shared_zeros(
        (len(labels), n_paths), (len(probes), n_paths, n, n),
        (len(probes), n_paths), (3, n_paths, d), (2, n_paths))
    stats = PathStatistics(
        sol=sol, n_paths=n_paths,
        analytic_value=optimal_value(model, sol).total,
        tildeJ_analytic=tilde_J(model, sol),
        costs=dict(zip(labels, costs)),
        error_outer=dict(zip(probes, outer)), orth=dict(zip(probes, orth)),
        inc_sums=incs[0], inc_sq=incs[1], lag_sums=incs[2],
        hatJ=split[0], tildeJ=split[1],
    )

    def fill(first: int, stop: int):
        for j0, j1, policy, arrs in _simulate_chunks(model, sol, runs, first, stop,
                                                     seed, chunk_size):
            stats.costs[policy.label][j0:j1] = arrs["cost"]
            if policy is _FEEDBACK:
                _record_feedback(arrs, stats, slice(j0, j1))
            del arrs  # free this output before the next kernel call

    _run_in_shares(n_paths, fill)
    return stats


# ---------------------------------------------------------------------------
# batch report

@dataclass(frozen=True)
class BatchReport:
    """The filter error statistics of the feedback paths at one probe
    node; the matching Sigma is sol.Sigma[probe_node]."""

    probe_node: int
    emp_error_cov: np.ndarray     # (n, n)
    emp_error_cov_se: np.ndarray  # (n, n) elementwise standard errors
    orth_stat: float              # mean of <Xtil, Xhat> at the probe node
    orth_se: float


def run_batch(stats: PathStatistics, probe_node: int) -> BatchReport:
    """The feedback statistics at one of the pass's probe nodes (KeyError
    for a node the pass did not record)."""
    cov_mean, cov_se = _mean_se(stats.error_outer[probe_node])
    orth_mean, orth_se = _mean_se(stats.orth[probe_node])
    return BatchReport(probe_node, cov_mean, cov_se,
                       float(orth_mean), float(orth_se))


# ---------------------------------------------------------------------------
# policy comparison (common random numbers)

@dataclass(frozen=True)
class PolicyCostRow:
    label: str
    cost_mean: float
    cost_se: float
    excess_mean: float | None  # paired mean of cost - feedback cost
    excess_se: float | None


@dataclass(frozen=True)
class PolicyComparison:
    """Per-policy realized costs under common random numbers, sorted by
    ascending mean.  Excess columns are paired against the filter feedback
    baseline, which has none.  The filter_feedback row is the only home of
    the feedback cost mean and SE."""

    rows: tuple[PolicyCostRow, ...]

    def row(self, label: str) -> PolicyCostRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def compare_policies(stats: PathStatistics) -> PolicyComparison:
    """Tabulate the costs of every policy of the pass against feedback."""
    baseline = stats.costs[_FEEDBACK.label]
    rows = []
    for lab, costs in stats.costs.items():
        mean, se = _mean_se(costs)
        excess = (None, None)
        if lab != _FEEDBACK.label:
            excess = tuple(float(v) for v in _mean_se(costs - baseline))
        rows.append(PolicyCostRow(lab, float(mean), float(se), *excess))
    rows.sort(key=lambda r: r.cost_mean)
    return PolicyComparison(tuple(rows))


# ---------------------------------------------------------------------------
# Brownianity of the normalized innovation

@dataclass(frozen=True)
class BrownianityReport:
    """Increment statistics of Vcheck pooled over paths and steps.

    If Vcheck really is a standard Brownian motion the increments are iid
    N(0, h I), so their mean vanishes with SE sqrt(h / (n_paths*steps)),
    the quadratic variation per component and unit time is 1, the lag-1
    autocorrelation vanishes, and Vcheck(T) has variance T per component.
    """

    increment_mean: np.ndarray     # (d,)
    qv_ratio: float                # sum ||dVcheck||^2 / (n_paths * d * T)
    lag1_autocorr: np.ndarray      # (d,)
    lag1_band: float               # 3/sqrt(n_paths*steps) reference band
    terminal_var: np.ndarray       # (d,) expected T
    terminal_var_se: np.ndarray    # (d,)


def brownianity_report(stats: PathStatistics) -> BrownianityReport:
    """Pool the feedback paths' innovation increment statistics; the
    lag-1 autocorrelation needs at least 2 steps (ValueError)."""
    count, grid = stats.n_paths, stats.sol.grid
    steps, d = grid.steps, stats.inc_sums.shape[1]
    if steps < 2:
        raise ValueError(f"need at least 2 steps for the lag-1 autocorrelation, got {steps}")
    inc_mean = stats.inc_sums.sum(axis=0) / (count * steps)
    inc_sq = stats.inc_sq.sum(axis=0)
    qv_ratio = float(inc_sq.sum() / (count * d * grid.T))
    lag_sum = stats.lag_sums.sum(axis=0)
    denom = np.where(inc_sq > 0, inc_sq, 1.0)
    lag1 = np.where(inc_sq > 0, lag_sum / denom * steps / (steps - 1.0), 0.0)

    tvar = stats.inc_sums.var(axis=0, ddof=1)
    tvar_se = tvar * np.sqrt(2.0 / (count - 1))

    return BrownianityReport(inc_mean, qv_ratio, lag1,
                             3.0 / np.sqrt(count * steps), tvar, tvar_se)


# ---------------------------------------------------------------------------
# cost decomposition

@dataclass(frozen=True)
class DecompositionReport:
    """Empirical check of cost = filtered cost + irreducible remainder; the
    Xtil cost is compared with stats.tildeJ_analytic."""

    tildeJ_mean: float
    tildeJ_se: float
    cross_mean: float  # mean of hatJ + tildeJ - cost, should vanish
    cross_se: float


def decomposition_check(stats: PathStatistics) -> DecompositionReport:
    """Test that the cross terms of the feedback cost split average to
    zero and that the Xtil part matches tilde_J."""
    til_mean, til_se = _mean_se(stats.tildeJ)
    cross_mean, cross_se = _mean_se(
        stats.hatJ + stats.tildeJ - stats.costs[_FEEDBACK.label])
    return DecompositionReport(float(til_mean), float(til_se),
                               float(cross_mean), float(cross_se))


# ---------------------------------------------------------------------------
# exact law of the simulated chain

@dataclass(frozen=True)
class DiscreteMoments:
    """Exact expectations over the Euler chain the kernel steps, on one grid."""

    costs: np.ndarray      # (len(offsets),) E path_cost under each offset
    tildeJ: float          # E path_cost(Xtil, 0)
    error_cov: np.ndarray  # (N+1, n, n) Cov Xtil at every node


def discrete_moments(model: ModelSpec, sol: DeterministicSolution,
                     offsets: Sequence = (0.0,)) -> DiscreteMoments:
    """The exact law of Z = (Xtil, Xhat) as simulate._closed_loop_arrays
    steps it under the optimal feedback plus each offset (an m-vector or
    one per node, as a perturbed_feedback table; 0.0 is filter feedback).

    The chain is linear with independent Gaussian increments, so with the
    kernel's left-endpoint coefficients and L = sol.gain its mean and
    covariance obey

        mu_{i+1} = F_i mu_i + c_i,  Gam_{i+1} = F_i Gam_i F_i^T + h_i G_i G_i^T,
        F_i = [[I + h curlyA, 0], [h L H, I + h (A + B Theta)]],
        c_i = (0, h (a + B (offset - ff))),  G_i = [[-Delta, D], [L K, 0]],

    from mu_0 = (0, x0) and Gam_0 = 0; Gam is the same for every offset.
    The costs are path_cost's weights and left Riemann sum in expectation:
    E <W w, w> = tr(W Cov w) + <W E w, E w> for w = (X, u) = (Xtil + Xhat,
    Theta Xhat + offset - ff).  They differ from the continuous targets by
    the simulator's O(h) Euler bias (Talay & Tubaro, Stoch. Anal. Appl.
    8(4), 1990), which verify allows for with |E_N - E_2N|.  An expectation
    that is not finite raises NonFinite at the first node whose expected
    running cost is not finite, else node N.
    """
    grid, tab = sol.grid, sol.table
    (n, m, d, k), N = astuple(model.dims), grid.steps
    A, B, a, D, H, K, Q, S, R, q, r = (getattr(tab, f)[::2] for f in (
        "A", "B", "a", "D", "H", "K", "Q", "S", "R", "q", "r"))
    dt = np.diff(grid.nodes)
    h = dt[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFinite
        F = np.zeros((N, 2 * n, 2 * n))
        F[:, :n, :n] = np.eye(n) + h * sol.curlyA[:-1]
        F[:, n:, :n] = h * sol.gain[:-1] @ H[:-1]
        F[:, n:, n:] = np.eye(n) + h * (A[:-1] + B[:-1] @ sol.Theta[:-1])
        G = np.zeros((N, 2 * n, d + k))
        G[:, :n] = np.concatenate((-sol.Delta, D), axis=2)[:-1]
        G[:, n:, :d] = (sol.gain @ K)[:-1]
        GGt = h * (G @ G.mT)
        u0 = np.stack([np.broadcast_to(o, (N + 1, m)) for o in offsets]) - sol.ff
        c = dt[:, None] * (a[:-1] + np.einsum("tij,ptj->pti", B[:-1], u0[:, :-1]))
        cov = np.zeros((N + 1, 2 * n, 2 * n))
        mean = np.zeros((len(u0), N + 1, 2 * n))
        mean[:, 0, n:] = model.x0
        for i in range(N):
            cov[i + 1] = F[i] @ cov[i] @ F[i].T + GGt[i]
            mean[:, i + 1] = mean[:, i] @ F[i].T
            mean[:, i + 1, n:] += c[:, i]
        # w = E Z + (0, u0), priced by W = [[Q, S^T], [S, R]] and (q, r)
        E = np.zeros((N + 1, n + m, 2 * n))
        E[:, :n] = np.eye(n, 2 * n) + np.eye(n, 2 * n, n)
        E[:, n:, n:] = sol.Theta
        W = np.concatenate((np.concatenate((Q, S.mT), axis=2),
                            np.concatenate((S, R), axis=2)), axis=1)
        cov_w = E @ cov @ E.mT
        mean_w = np.einsum("tij,ptj->pti", E, mean)
        mean_w[:, :, n:] += u0
        running = (np.einsum("tij,tji->t", W, cov_w)
                   + np.einsum("pti,tij,ptj->pt", mean_w, W, mean_w)
                   + 2.0 * np.einsum("ti,pti->pt", np.concatenate((q, r), axis=1), mean_w))
        XT = mean_w[:, N, :n]
        costs = (running[:, :-1] @ dt + np.trace(tab.G @ cov_w[N, :n, :n])
                 + np.einsum("pi,ij,pj->p", XT, tab.G, XT) + 2.0 * XT @ tab.g)
        til = cov[:, :n, :n]  # E Xtil = 0: the error chain has no forcing
        tildeJ = np.einsum("tij,tji->t", Q[:-1], til[:-1]) @ dt + np.trace(tab.G @ til[N])
    if not np.isfinite([*costs, tildeJ]).all():
        raise NonFinite("discrete_moments", _first_nonfinite(running, N))
    return DiscreteMoments(costs, float(tildeJ), til)


def expected_discrete_error_cov(model: ModelSpec,
                                sol: DeterministicSolution) -> np.ndarray:
    """Cov Xtil of the Euler error chain at every node, the Xtil block of
    discrete_moments.  The difference to Sigma is the discretization bias
    of the simulator, which is what a covariance comparison must allow
    for."""
    return discrete_moments(model, sol).error_cov
