"""Monte Carlo evidence that the deterministic solution is right.

One pass, simulate_statistics, draws each chunk's noise once and runs
filter feedback and every extra policy on those same increments (common
random numbers).  It reduces each policy's output to per-path numbers
before the next policy runs: the costs, and on the feedback paths the
error statistics at each probe node, the normalized innovation increment
sums and the cost split along X = Xhat + Xtil.  The reports (run_batch,
compare_policies, brownianity_report, decomposition_check) only reduce
these, so one pass feeds every statistic and no path is simulated twice.

All cross-path reductions run sequentially in path-index order, so a
report is bitwise reproducible for fixed (model, seed, n_paths, policies),
independent of chunk size or scheduling.  Per-path noise comes from
draw_noise(seed, path_index), so chunking never changes the draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .detsolve import DeterministicSolution
from .errors import InsufficientPaths
from .model import ModelSpec, TimeGrid
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .simulate import (
    ControlPolicy,
    PathBundle,
    _bundle,
    _closed_loop_arrays,
    draw_noise,
)
from .value import optimal_value, path_cost, tilde_J

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

_FEEDBACK = ControlPolicy.filter_feedback()


# ---------------------------------------------------------------------------
# sequential reductions (fixed index order, hence scheduling-independent)

def _seq_sum(a: np.ndarray) -> np.ndarray:
    acc = np.zeros(a.shape[1:])
    for v in a:
        acc = acc + v
    return acc


def _seq_mean_se(a: np.ndarray):
    """Mean and standard error along axis 0, reduced in index order."""
    p = a.shape[0]
    mean = _seq_sum(a) / p
    var = _seq_sum((a - mean) ** 2) / (p - 1)
    return mean, np.sqrt(var / p)


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
                     policies: Sequence[ControlPolicy], n_paths: int,
                     seed: int, chunk_size: int):
    """Yield (j0, j1, policy, kernel output) chunk by chunk: each chunk's
    noise is drawn once and every policy runs on it, in the given order."""
    for j0 in range(0, n_paths, chunk_size):
        j1 = min(j0 + chunk_size, n_paths)
        dW, dWp = _noise_stack(seed, j0, j1, sol.grid, model.dims)
        for policy in policies:
            yield j0, j1, policy, _closed_loop_arrays(model, sol, policy, dW, dWp)


def iter_path_bundles(model: ModelSpec, sol: DeterministicSolution,
                      policy: ControlPolicy, n_paths: int, seed: int,
                      chunk_size: int = 1024) -> Iterator[PathBundle]:
    """Yield PathBundles for path indices 0..n_paths-1 in order, simulated
    in chunks so memory stays bounded."""
    for j0, j1, _, arrs in _simulate_chunks(model, sol, (policy,), n_paths,
                                            seed, chunk_size):
        for p in range(j1 - j0):
            yield _bundle(sol.grid, arrs, p)


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
    inc_sums: np.ndarray           # (n_paths, d) sum of the dVcheck
    inc_sq: np.ndarray             # (n_paths, d) sum of dVcheck**2
    lag_sums: np.ndarray           # (n_paths, d) sum of dVcheck_i dVcheck_{i+1}
    qv: np.ndarray                 # (n_paths,) sum of ||dVcheck||^2
    terminal: np.ndarray           # (n_paths, d) Vcheck(T)
    hatJ: np.ndarray               # (n_paths,) cost along Xhat
    tildeJ: np.ndarray             # (n_paths,) cost along Xtil


def _record_feedback(arrs, stats: PathStatistics, rows: slice):
    """Write the per-path numbers of one chunk of filter feedback paths
    into rows of stats: the probe statistics, the innovation increment
    sums, and the cost split along X = Xhat + Xtil, where value.path_cost
    prices Xhat with the applied controls and Xtil with none."""
    for pn in stats.error_outer:
        til = arrs["Xtil"][:, pn]
        stats.error_outer[pn][rows] = til[:, :, None] * til[:, None, :]
        stats.orth[pn][rows] = np.einsum("pi,pi->p", til, arrs["Xhat"][:, pn])
    dvc = np.diff(arrs["Vcheck"], axis=1)
    stats.inc_sums[rows] = dvc.sum(axis=1)
    stats.inc_sq[rows] = (dvc ** 2).sum(axis=1)
    stats.lag_sums[rows] = (dvc[:, :-1] * dvc[:, 1:]).sum(axis=1)
    stats.qv[rows] = np.einsum("ptd,ptd->p", dvc, dvc)
    stats.terminal[rows] = arrs["Vcheck"][:, -1]
    tab = stats.sol.table
    stats.hatJ[rows] = path_cost(tab, arrs["Xhat"], arrs["u"])
    stats.tildeJ[rows] = path_cost(tab, arrs["Xtil"], 0.0)


def simulate_statistics(model: ModelSpec, sol: DeterministicSolution,
                        n_paths: int, seed: int, probes: Sequence[int] = (),
                        policies: Sequence[ControlPolicy] = (),
                        chunk_size: int = 2048) -> PathStatistics:
    """Simulate paths 0..n_paths-1 under filter feedback and, on the same
    noise, under each extra policy; keep the per-path numbers every report
    needs, with the error statistics at each probe node."""
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

    stats = PathStatistics(
        sol=sol, n_paths=n_paths,
        analytic_value=optimal_value(model, sol).total,
        tildeJ_analytic=tilde_J(model, sol),
        costs={lab: np.empty(n_paths) for lab in labels},
        error_outer={pn: np.empty((n_paths, n, n)) for pn in probes},
        orth={pn: np.empty(n_paths) for pn in probes},
        inc_sums=np.empty((n_paths, d)), inc_sq=np.empty((n_paths, d)),
        lag_sums=np.empty((n_paths, d)), qv=np.empty(n_paths),
        terminal=np.empty((n_paths, d)),
        hatJ=np.empty(n_paths), tildeJ=np.empty(n_paths),
    )
    for j0, j1, policy, arrs in _simulate_chunks(model, sol, runs, n_paths,
                                                 seed, chunk_size):
        stats.costs[policy.label][j0:j1] = arrs["cost"]
        if policy is _FEEDBACK:
            _record_feedback(arrs, stats, slice(j0, j1))
        del arrs  # free this output before the next kernel call
    return stats


# ---------------------------------------------------------------------------
# batch report

@dataclass(frozen=True)
class BatchReport:
    """Summary statistics of one Monte Carlo batch at one probe node."""

    n_paths: int
    probe_node: int
    cost_mean: float
    cost_se: float
    analytic_value: float
    emp_error_cov: np.ndarray     # (n, n)
    emp_error_cov_se: np.ndarray  # (n, n) elementwise standard errors
    Sigma_at_node: np.ndarray     # (n, n)
    orth_stat: float              # mean of <Xtil, Xhat> at the probe node
    orth_se: float
    innovation_increment_mean: np.ndarray  # (d,)
    innovation_qv_ratio: float    # sum ||dVcheck||^2 / (n_paths * d * T)


def run_batch(stats: PathStatistics, probe_node: int) -> BatchReport:
    """The feedback statistics at one of the pass's probe nodes (KeyError
    for a node the pass did not record)."""
    n_paths, grid = stats.n_paths, stats.sol.grid
    d = stats.inc_sums.shape[1]
    cost_mean, cost_se = _seq_mean_se(stats.costs[_FEEDBACK.label])
    cov_mean, cov_se = _seq_mean_se(stats.error_outer[probe_node])
    orth_mean, orth_se = _seq_mean_se(stats.orth[probe_node])
    inc_mean = _seq_sum(stats.inc_sums) / (n_paths * grid.steps)
    qv_ratio = float(_seq_sum(stats.qv) / (n_paths * d * grid.T))

    return BatchReport(
        n_paths=n_paths, probe_node=probe_node,
        cost_mean=float(cost_mean), cost_se=float(cost_se),
        analytic_value=stats.analytic_value,
        emp_error_cov=cov_mean, emp_error_cov_se=cov_se,
        Sigma_at_node=stats.sol.Sigma.values[probe_node].copy(),
        orth_stat=float(orth_mean), orth_se=float(orth_se),
        innovation_increment_mean=inc_mean, innovation_qv_ratio=qv_ratio,
    )


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
    baseline, which has none."""

    n_paths: int
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
        mean, se = _seq_mean_se(costs)
        excess = (None, None)
        if lab != _FEEDBACK.label:
            excess = tuple(float(v) for v in _seq_mean_se(costs - baseline))
        rows.append(PolicyCostRow(lab, float(mean), float(se), *excess))
    rows.sort(key=lambda r: r.cost_mean)
    return PolicyComparison(n_paths=stats.n_paths, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Brownianity of the normalized innovation

@dataclass(frozen=True)
class BrownianityReport:
    """Increment statistics of Vcheck pooled over paths and steps.

    If Vcheck really is a standard Brownian motion the increments are iid
    N(0, h I), the lag-1 autocorrelation vanishes, and Vcheck(T) has
    variance T per component.
    """

    n_paths: int
    steps: int
    T: float
    increment_mean: np.ndarray     # (d,)
    increment_mean_se: np.ndarray  # (d,)
    increment_var: np.ndarray      # (d,) expected h
    lag1_autocorr: np.ndarray      # (d,)
    lag1_band: float               # 3/sqrt(n_paths*steps) reference band
    terminal_var: np.ndarray       # (d,) expected T
    terminal_var_se: np.ndarray    # (d,)


def brownianity_report(stats: PathStatistics) -> BrownianityReport:
    """Pool the feedback paths' innovation increment statistics."""
    count = stats.n_paths
    steps, T = stats.sol.grid.steps, stats.sol.grid.T
    inc_sum = _seq_sum(stats.inc_sums)
    inc_sq = _seq_sum(stats.inc_sq)
    lag_sum = _seq_sum(stats.lag_sums)

    nobs = count * steps
    inc_mean = inc_sum / nobs
    inc_var = inc_sq / nobs - inc_mean ** 2
    inc_mean_se = np.sqrt(np.maximum(inc_var, 0.0) / nobs)
    denom = np.where(inc_sq > 0, inc_sq, 1.0)
    lag1 = np.where(inc_sq > 0, lag_sum / denom * steps / (steps - 1.0), 0.0)

    tmean = _seq_sum(stats.terminal) / count
    tvar = _seq_sum((stats.terminal - tmean) ** 2) / (count - 1)
    tvar_se = tvar * np.sqrt(2.0 / (count - 1))

    return BrownianityReport(
        n_paths=count, steps=steps, T=float(T),
        increment_mean=inc_mean, increment_mean_se=inc_mean_se,
        increment_var=inc_var,
        lag1_autocorr=lag1, lag1_band=3.0 / np.sqrt(count * steps),
        terminal_var=tvar, terminal_var_se=tvar_se,
    )


# ---------------------------------------------------------------------------
# cost decomposition

@dataclass(frozen=True)
class DecompositionReport:
    """Empirical check of cost = filtered cost + irreducible remainder."""

    n_paths: int
    cost_mean: float
    cost_se: float
    hatJ_mean: float
    hatJ_se: float
    tildeJ_mean: float
    tildeJ_se: float
    tildeJ_analytic: float
    cross_mean: float  # mean of hatJ + tildeJ - cost, should vanish
    cross_se: float


def decomposition_check(stats: PathStatistics) -> DecompositionReport:
    """Test that the cross terms of the feedback cost split average to
    zero and that the Xtil part matches tilde_J."""
    costs = stats.costs[_FEEDBACK.label]
    cost_mean, cost_se = _seq_mean_se(costs)
    hat_mean, hat_se = _seq_mean_se(stats.hatJ)
    til_mean, til_se = _seq_mean_se(stats.tildeJ)
    cross_mean, cross_se = _seq_mean_se(stats.hatJ + stats.tildeJ - costs)

    return DecompositionReport(
        n_paths=stats.n_paths,
        cost_mean=float(cost_mean), cost_se=float(cost_se),
        hatJ_mean=float(hat_mean), hatJ_se=float(hat_se),
        tildeJ_mean=float(til_mean), tildeJ_se=float(til_se),
        tildeJ_analytic=stats.tildeJ_analytic,
        cross_mean=float(cross_mean), cross_se=float(cross_se),
    )


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
        F = eye + hs * sol.curlyA.values[i]
        Dl = sol.Delta.values[i]
        out[i + 1] = F @ out[i] @ F.T + hs * (Dl @ Dl.T + D[i] @ D[i].T)
    return out
