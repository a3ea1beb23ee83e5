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

Per-path noise comes from draw_noise(seed, path_index) and every per-path
number is bitwise independent of the chunk its path ran in (see
polqg.simulate).  The pass cuts paths 0..n_paths-1 into one contiguous
share per CPU this process may run on (_run_in_shares): forked children
run the shares after the first and this process the first, each writing
its rows into PathStatistics arrays carved before the fork from one
anonymous shared mmap.  The reports reduce the complete per-path arrays
with numpy after every child is reaped, so they are bitwise reproducible
for fixed (model, seed, n_paths, policies), independent of chunk size,
worker count or scheduling.  If any share fails, in a child or here, the
whole pass runs again in this process, so that an error names the first
bad node over the same chunks, with the same message and exit code, as a
single-process run.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .detsolve import DeterministicSolution
from .errors import InsufficientPaths
from .model import ModelSpec, TimeGrid
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .simulate import (
    ControlPolicy,
    PathBundle,
    _bundles,
    _closed_loop_arrays,
    draw_noise,
)
from .value import _matvec, optimal_value, path_cost, tilde_J

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

def _noise_stack(seed: int, j0: int, j1: int, grid, dims):
    dW = np.empty((j1 - j0, grid.steps, dims.d))
    dWp = np.empty((j1 - j0, grid.steps, dims.k))
    for j in range(j0, j1):
        nd = draw_noise(seed, j, grid, dims)
        dW[j - j0] = nd.dW
        dWp[j - j0] = nd.dWp
    return dW, dWp


def _simulate_chunks(model: ModelSpec, sol: DeterministicSolution,
                     policies: Sequence[ControlPolicy], first: int, stop: int,
                     seed: int, chunk_size: int):
    """Yield (j0, j1, policy, kernel output) for paths first..stop-1 chunk
    by chunk: each chunk's noise is drawn once and every policy runs on it,
    in the given order."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    for j0 in range(first, stop, chunk_size):
        j1 = min(j0 + chunk_size, stop)
        dW, dWp = _noise_stack(seed, j0, j1, sol.grid, model.dims)
        for policy in policies:
            yield j0, j1, policy, _closed_loop_arrays(model, sol, policy, dW, dWp)


def iter_path_bundles(model: ModelSpec, sol: DeterministicSolution,
                      policy: ControlPolicy, n_paths: int, seed: int,
                      chunk_size: int = 1024) -> Iterator[PathBundle]:
    """Yield PathBundles for path indices 0..n_paths-1 in order, simulated
    in chunks so memory stays bounded."""
    for _, _, _, arrs in _simulate_chunks(model, sol, (policy,), 0, n_paths,
                                          seed, chunk_size):
        yield from _bundles(sol, arrs)


# ---------------------------------------------------------------------------
# forked workers

def _run_in_shares(count: int, work: Callable[[int, int], None]) -> list[tuple[int, int]]:
    """Call work(a, b) on range(count), count >= 1, cut into one contiguous
    share [a, b) per CPU this process may run on, at most count shares.
    Forked children run the shares after the first and leave through
    os._exit, never returning here; this process runs the first, then any
    share whose child could not be forked.  Every child is reaped, also
    when this process's own work raises.  Returns the shares whose child
    did not exit 0, for the caller to redo in this process so that their
    error surfaces."""
    workers = min(len(os.sched_getaffinity(0)), count)
    cuts = [w * count // workers for w in range(workers + 1)]
    children, here = {}, [(0, cuts[1])]
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
            children[pid] = (a, b)
        for a, b in here:
            work(a, b)
    finally:
        failed = [share for pid, share in children.items() if os.waitpid(pid, 0)[1]]
    return failed


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
    into rows of stats: the probe statistics, the innovation increment
    sums, and the cost split along X = Xhat + Xtil, where value.path_cost
    prices Xhat with the applied controls and Xtil with none."""
    tab = stats.sol.table
    dvc = _matvec(tab.Kinv[:-1:2], arrs["dV"])  # K^{-1} dV
    stats.inc_sums[rows] = dvc.sum(axis=1)
    stats.inc_sq[rows] = (dvc ** 2).sum(axis=1)
    stats.lag_sums[rows] = (dvc[:, :-1] * dvc[:, 1:]).sum(axis=1)
    del dvc  # before the path costs' temporaries
    Xtil = arrs["X"] - arrs["Xhat"]
    for pn in stats.error_outer:
        til = Xtil[:, pn]
        stats.error_outer[pn][rows] = til[:, :, None] * til[:, None, :]
        stats.orth[pn][rows] = np.einsum("pi,pi->p", til, arrs["Xhat"][:, pn])
    stats.hatJ[rows] = path_cost(tab, arrs["Xhat"], arrs["u"])
    stats.tildeJ[rows] = path_cost(tab, Xtil, 0.0)


def simulate_statistics(model: ModelSpec, sol: DeterministicSolution,
                        n_paths: int, seed: int, probes: Sequence[int] = (),
                        policies: Sequence[ControlPolicy] = (),
                        chunk_size: int = 2048) -> PathStatistics:
    """Simulate paths 0..n_paths-1 under filter feedback and, on the same
    noise, under each extra policy; keep the per-path numbers every report
    needs, with the error statistics at each probe node.  The paths run in
    one forked worker per CPU (see the module docstring)."""
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

    try:
        whole = bool(_run_in_shares(n_paths, fill))
    except Exception:  # this process's share failed: rerun the pass below
        whole = True
    if whole:  # in one process, so an error names the node a single-process run does
        fill(0, n_paths)
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
    """Pool the feedback paths' innovation increment statistics."""
    count, grid = stats.n_paths, stats.sol.grid
    steps, d = grid.steps, stats.inc_sums.shape[1]
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
# discrete-chain covariance oracle

def expected_discrete_error_cov(model: ModelSpec,
                                sol: DeterministicSolution) -> np.ndarray:
    """Exact second moments of the Euler error chain at every node.

    The simulated error recursion is linear with independent Gaussian
    increments, so its covariance obeys

        Cov_{i+1} = F_i Cov_i F_i^T + (Delta_i Delta_i^T + D_i D_i^T) h,
        F_i = I + h curlyA_i,  Cov_0 = 0.

    The difference to Sigma is the discretization bias of the simulator,
    which is what a covariance comparison must allow for.
    """
    grid = sol.grid
    n = model.dims.n
    D = sol.table.D[::2]
    out = np.zeros((grid.steps + 1, n, n))
    hsteps = np.diff(grid.nodes)
    eye = np.eye(n)
    for i in range(grid.steps):
        hs = hsteps[i]
        F = eye + hs * sol.curlyA[i]
        Dl = sol.Delta[i]
        out[i + 1] = F @ out[i] @ F.T + hs * (Dl @ Dl.T + D[i] @ D[i].T)
    return out
