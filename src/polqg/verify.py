"""Monte Carlo evidence that the deterministic solution is right.

Batches simulate many closed-loop paths (chunked, vectorized over paths)
and compare empirical statistics against what the theory predicts: the
realized cost against the analytic value, the empirical error covariance
against Sigma, orthogonality of error and filter, Brownianity of the
normalized innovation, and the cost decomposition into filtered cost plus
irreducible remainder.

All cross-path reductions run sequentially in path-index order, so a
report is bitwise reproducible for fixed (model, seed, n_paths, policy),
independent of chunk size or scheduling.  Per-path noise comes from
draw_noise(seed, path_index), so chunking never changes the draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .detsolve import DeterministicSolution
from .errors import InsufficientPaths
from .model import ModelSpec, TimeGrid
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .simulate import (
    ControlPolicy,
    NoiseDraw,
    PathBundle,
    _closed_loop_arrays,
    draw_noise,
)
from .value import optimal_value, tilde_J

__all__ = [
    "BatchReport",
    "PolicyCostRow",
    "PolicyComparison",
    "BrownianityReport",
    "DecompositionReport",
    "run_batch",
    "compare_policies",
    "brownianity_report",
    "decomposition_check",
    "expected_discrete_error_cov",
    "iter_path_bundles",
    "default_probe_nodes",
]


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
    if p < 2:
        return mean, np.full(a.shape[1:], np.nan)
    var = _seq_sum((a - mean) ** 2) / (p - 1)
    return mean, np.sqrt(var / p)


def default_probe_nodes(grid: TimeGrid) -> tuple[int, ...]:
    """Grid indices closest to T/4, T/2, 3T/4 and T."""
    return tuple(int(round(grid.steps * f)) for f in (0.25, 0.5, 0.75, 1.0))


# ---------------------------------------------------------------------------
# noise stacking

def _noise_stack(seed: int, j0: int, j1: int, grid, dims):
    dW = np.empty((j1 - j0, grid.steps, dims.d))
    dWp = np.empty((j1 - j0, grid.steps, dims.k))
    for j in range(j0, j1):
        nd = draw_noise(seed, j, grid, dims)
        dW[j - j0] = nd.dW
        dWp[j - j0] = nd.dWp
    return dW, dWp


def iter_path_bundles(model: ModelSpec, sol: DeterministicSolution,
                      policy: ControlPolicy, n_paths: int, seed: int,
                      chunk_size: int = 1024) -> Iterator[PathBundle]:
    """Yield PathBundles for path indices 0..n_paths-1 in order, simulated
    in chunks so memory stays bounded."""
    grid = sol.grid
    for j0 in range(0, n_paths, chunk_size):
        j1 = min(j0 + chunk_size, n_paths)
        dW, dWp = _noise_stack(seed, j0, j1, grid, model.dims)
        arrs = _closed_loop_arrays(model, sol, policy, dW, dWp)
        for p in range(j1 - j0):
            yield PathBundle(
                grid=grid, X=arrs["X"][p], Y=arrs["Y"][p],
                Xhat=arrs["Xhat"][p], Xtil=arrs["Xtil"][p], V=arrs["V"][p],
                Vcheck=arrs["Vcheck"][p], u=arrs["u"][p],
                cost=float(arrs["cost"][p]),
            )


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
    per_policy_costs: dict


def run_batch(model: ModelSpec, sol: DeterministicSolution,
              policy: ControlPolicy, n_paths: int, seed: int,
              probe_node: int, chunk_size: int = 2048) -> BatchReport:
    """Simulate n_paths paths and aggregate the standard statistics."""
    if n_paths < 2:
        raise InsufficientPaths(f"need at least 2 paths, got {n_paths}")
    grid = sol.grid
    if not 0 <= probe_node <= grid.steps:
        raise IndexError(f"probe_node {probe_node} outside 0..{grid.steps}")
    dims = model.dims
    n, d = dims.n, dims.d

    costs = np.empty(n_paths)
    outer = np.empty((n_paths, n, n))
    orth = np.empty(n_paths)
    inc_sums = np.empty((n_paths, d))
    qv = np.empty(n_paths)

    for j0 in range(0, n_paths, chunk_size):
        j1 = min(j0 + chunk_size, n_paths)
        dW, dWp = _noise_stack(seed, j0, j1, grid, dims)
        arrs = _closed_loop_arrays(model, sol, policy, dW, dWp)
        costs[j0:j1] = arrs["cost"]
        til = arrs["Xtil"][:, probe_node]
        outer[j0:j1] = til[:, :, None] * til[:, None, :]
        orth[j0:j1] = np.einsum("pi,pi->p", til, arrs["Xhat"][:, probe_node])
        dvc = np.diff(arrs["Vcheck"], axis=1)
        inc_sums[j0:j1] = dvc.sum(axis=1)
        qv[j0:j1] = np.einsum("ptd,ptd->p", dvc, dvc)

    cost_mean, cost_se = _seq_mean_se(costs)
    cov_mean, cov_se = _seq_mean_se(outer)
    orth_mean, orth_se = _seq_mean_se(orth)
    inc_mean = _seq_sum(inc_sums) / (n_paths * grid.steps)
    qv_ratio = float(_seq_sum(qv) / (n_paths * d * grid.T))

    return BatchReport(
        n_paths=n_paths,
        probe_node=probe_node,
        cost_mean=float(cost_mean),
        cost_se=float(cost_se),
        analytic_value=optimal_value(model, sol).total,
        emp_error_cov=cov_mean,
        emp_error_cov_se=cov_se,
        Sigma_at_node=sol.Sigma.values[probe_node].copy(),
        orth_stat=float(orth_mean),
        orth_se=float(orth_se),
        innovation_increment_mean=inc_mean,
        innovation_qv_ratio=qv_ratio,
        per_policy_costs={policy.label: (float(cost_mean), float(cost_se))},
    )


# ---------------------------------------------------------------------------
# policy comparison (common random numbers)

@dataclass(frozen=True)
class PolicyCostRow:
    label: str
    cost_mean: float
    cost_se: float
    excess_mean: float | None  # paired mean of cost - baseline cost
    excess_se: float | None


@dataclass(frozen=True)
class PolicyComparison:
    """Per-policy realized costs under common random numbers, sorted by
    ascending mean.  Excess columns are paired against the filter feedback
    baseline when one is present."""

    n_paths: int
    rows: tuple[PolicyCostRow, ...]

    def row(self, label: str) -> PolicyCostRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def compare_policies(model: ModelSpec, sol: DeterministicSolution,
                     policies: Sequence[ControlPolicy], n_paths: int,
                     seed: int, chunk_size: int = 2048) -> PolicyComparison:
    """Run every policy on the same noise draws and tabulate costs."""
    if n_paths < 2:
        raise InsufficientPaths(f"need at least 2 paths, got {n_paths}")
    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels):
        raise ValueError(f"policy labels must be unique, got {labels}")
    grid = sol.grid
    dims = model.dims

    costs = {lab: np.empty(n_paths) for lab in labels}
    for j0 in range(0, n_paths, chunk_size):
        j1 = min(j0 + chunk_size, n_paths)
        dW, dWp = _noise_stack(seed, j0, j1, grid, dims)
        for pol in policies:
            arrs = _closed_loop_arrays(model, sol, pol, dW, dWp)
            costs[pol.label][j0:j1] = arrs["cost"]

    baseline = None
    for pol in policies:
        if pol.kind == "filter_feedback":
            baseline = pol.label
            break

    rows = []
    for lab in labels:
        mean, se = _seq_mean_se(costs[lab])
        if baseline is not None and lab != baseline:
            emean, ese = _seq_mean_se(costs[lab] - costs[baseline])
            rows.append(PolicyCostRow(lab, float(mean), float(se),
                                      float(emean), float(ese)))
        else:
            rows.append(PolicyCostRow(lab, float(mean), float(se), None, None))
    rows.sort(key=lambda r: r.cost_mean)
    return PolicyComparison(n_paths=n_paths, rows=tuple(rows))


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


def brownianity_report(bundles: Iterable[PathBundle]) -> BrownianityReport:
    """Aggregate innovation increment statistics over a batch of bundles.

    Accepts any iterable (including a lazy generator) and accumulates in
    iteration order.
    """
    count = 0
    steps = None
    T = None
    inc_sum = inc_sq = lag_sum = None
    terminals = []
    for b in bundles:
        dvc = np.diff(b.Vcheck, axis=0)  # (steps, d)
        if steps is None:
            steps = dvc.shape[0]
            T = b.grid.T
            inc_sum = np.zeros(dvc.shape[1])
            inc_sq = np.zeros(dvc.shape[1])
            lag_sum = np.zeros(dvc.shape[1])
        inc_sum = inc_sum + dvc.sum(axis=0)
        inc_sq = inc_sq + (dvc ** 2).sum(axis=0)
        lag_sum = lag_sum + (dvc[:-1] * dvc[1:]).sum(axis=0)
        terminals.append(b.Vcheck[-1])
        count += 1
    if count < 2:
        raise InsufficientPaths(f"need at least 2 paths, got {count}")

    nobs = count * steps
    inc_mean = inc_sum / nobs
    inc_var = inc_sq / nobs - inc_mean ** 2
    inc_mean_se = np.sqrt(np.maximum(inc_var, 0.0) / nobs)
    denom = np.where(inc_sq > 0, inc_sq, 1.0)
    lag1 = np.where(inc_sq > 0, lag_sum / denom * steps / (steps - 1.0), 0.0)

    term = np.stack(terminals)  # (n_paths, d)
    tmean = _seq_sum(term) / count
    tvar = _seq_sum((term - tmean) ** 2) / (count - 1)
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


def decomposition_check(model: ModelSpec, sol: DeterministicSolution,
                        n_paths: int, seed: int,
                        chunk_size: int = 2048) -> DecompositionReport:
    """Split each realized cost along X = Xhat + Xtil and test that the
    cross terms average to zero and the Xtil part matches tilde_J."""
    if n_paths < 2:
        raise InsufficientPaths(f"need at least 2 paths, got {n_paths}")
    grid = sol.grid
    cw, tab = model.cost, sol.table
    # left-endpoint weights: nodes 0..N-1 are the even knots before the last
    Q, S, R = tab.Q[:-1:2], tab.S[:-1:2], tab.R[:-1:2]
    qv, rv = tab.q[:-1:2], tab.r[:-1:2]
    hsteps = np.diff(grid.nodes)

    policy = ControlPolicy.filter_feedback()
    costs = np.empty(n_paths)
    hatJ = np.empty(n_paths)
    tilJ = np.empty(n_paths)

    for j0 in range(0, n_paths, chunk_size):
        j1 = min(j0 + chunk_size, n_paths)
        dW, dWp = _noise_stack(seed, j0, j1, grid, model.dims)
        arrs = _closed_loop_arrays(model, sol, policy, dW, dWp)
        costs[j0:j1] = arrs["cost"]
        Xh = arrs["Xhat"][:, :-1]
        Xt = arrs["Xtil"][:, :-1]
        U = arrs["u"][:, :-1]
        hatJ[j0:j1] = (
            np.einsum("pti,tij,ptj,t->p", Xh, Q, Xh, hsteps)
            + 2.0 * np.einsum("pta,tab,ptb,t->p", U, S, Xh, hsteps)
            + np.einsum("pta,tab,ptb,t->p", U, R, U, hsteps)
            + 2.0 * np.einsum("pti,ti,t->p", Xh, qv, hsteps)
            + 2.0 * np.einsum("pta,ta,t->p", U, rv, hsteps)
        )
        XhT = arrs["Xhat"][:, -1]
        hatJ[j0:j1] += (np.einsum("pi,ij,pj->p", XhT, cw.G, XhT)
                        + 2.0 * XhT @ cw.g)
        tilJ[j0:j1] = (
            np.einsum("pti,tij,ptj,t->p", Xt, Q, Xt, hsteps)
            + 2.0 * np.einsum("pti,ti,t->p", Xt, qv, hsteps)
        )
        XtT = arrs["Xtil"][:, -1]
        tilJ[j0:j1] += (np.einsum("pi,ij,pj->p", XtT, cw.G, XtT)
                        + 2.0 * XtT @ cw.g)

    cost_mean, cost_se = _seq_mean_se(costs)
    hat_mean, hat_se = _seq_mean_se(hatJ)
    til_mean, til_se = _seq_mean_se(tilJ)
    cross_mean, cross_se = _seq_mean_se(hatJ + tilJ - costs)

    return DecompositionReport(
        n_paths=n_paths,
        cost_mean=float(cost_mean), cost_se=float(cost_se),
        hatJ_mean=float(hat_mean), hatJ_se=float(hat_se),
        tildeJ_mean=float(til_mean), tildeJ_se=float(til_se),
        tildeJ_analytic=tilde_J(model, sol),
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
