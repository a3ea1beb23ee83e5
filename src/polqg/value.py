"""The cost functional and the closed-form value of the optimal policy.

path_cost is the one place the paper's cost functional

    J(u) = <G X_T, X_T> + 2 <g, X_T>
           + int <Q X, X> + 2 <S X, u> + <R u, u> + 2 <q, X> + 2 <r, u> dt

is evaluated: on whole simulated paths, as a left Riemann sum over the
nodes of the solution grid.  The simulator's realized cost and both halves
of the split along X = Xhat + Xtil read it.

The optimal value splits into a quadratic and linear part in the initial
state plus five time integrals.  Two of the integrals (the Pi terms) make
up the irreducible filtering cost tilde_J; the rest, together with the
boundary terms, form the floor hat_J_floor attained by the certainty
equivalent feedback.  By construction

    hat_J_floor + tilde_J = optimal_value(...).total

holds to roundoff, since both sides are sums of the same parts.
All integrals use the composite trapezoid rule on the solution grid; the
integrands read the solution's NodeTable and feed-forward at the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .detsolve import DeterministicSolution
from .errors import NonFinite
from .model import ModelSpec, NodeTable
from .model import interp_table  # noqa: F401  bench/tracer.py counts its calls here by name
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name

__all__ = [
    "ValueBreakdown",
    "path_cost",
    "optimal_value",
    "tilde_J",
    "hat_J_floor",
]


@dataclass(frozen=True)
class ValueBreakdown:
    """Optimal value and its additive parts (Rinv_integral is stored signed,
    i.e. it enters the total as written)."""

    quadratic_term: float   # <P(0) x0, x0>
    linear_term: float      # 2 <phi(0), x0>
    PiD_integral: float     # int sum_i <Pi D_i, D_i>
    PiDelta_integral: float  # int sum_i <Pi Delta_i, Delta_i>
    PDeltaC_integral: float  # int sum_i <P (Delta_i + C_i), Delta_i + C_i>
    Rinv_integral: float    # -int <R^{-1}(B^T phi + r), B^T phi + r>
    phia_integral: float    # int 2 <phi, a>
    total: float


def _matvec(M: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """out[..., i] = sum_j M[..., i, j] x[..., j], broadcast over the leading
    axes, e.g. M (N, i, j) with x (paths, N, j).  Elementwise products and
    sums only, in the order of j, so each path's result does not depend on
    the batch it is in; over all nodes at once this is 2-4x faster than an
    einsum, whose inner loop runs over the short component axis.  Each
    component is summed through one scratch the size of a single
    component, as simulate._add_matvec does, never a (..., i) temporary."""
    if out is None:
        out = np.empty(np.broadcast(M[..., 0, 0], x[..., 0]).shape + M.shape[-2:-1])
    tmp = np.empty(out.shape[:-1]) if x.shape[-1] > 1 else None
    for i in range(M.shape[-2]):
        o = np.multiply(M[..., i, 0], x[..., 0], out=out[..., i])
        for j in range(1, x.shape[-1]):
            o += np.multiply(M[..., i, j], x[..., j], out=tmp)
    return out


def _first_nonfinite(f: np.ndarray, default: int) -> int:
    """The first index on the last axis of f with an entry not finite, else default."""
    bad = ~np.isfinite(f).reshape(-1, f.shape[-1]).all(axis=0)
    return int(bad.argmax()) if bad.any() else default


def path_cost(tab: NodeTable, X: np.ndarray, U) -> np.ndarray:
    """Cost of each path: X is (paths, N+1, n) on the nodes of tab's grid,
    U the controls, (paths, N+1, m) or anything that broadcasts to it.

    The running cost is a left Riemann sum over nodes 0..N-1 with the cost
    weights at those nodes; the controls at node N are never read.  It is
    summed over blocks of about N/16 nodes, so the temporaries stay a small
    fraction of X.  Every product is a _matvec and a path's blocks are the
    same in any batch, so a path's cost does not depend on its batch.  A
    scalar zero U prices the state alone: the S, R and r terms would only
    add zeros, so they are skipped, which can change nothing but the sign
    of a cost that is exactly zero.  A cost that is not finite raises
    NonFinite at the first node whose running cost is not finite, or at
    node N for the terminal term.
    """
    N = X.shape[1] - 1
    controls = np.ndim(U) > 0 or U != 0
    if controls:
        U = np.broadcast_to(U, X.shape[:2] + (tab.dims.m,))
    # left-endpoint weights: nodes 0..N-1 are the even knots before the last
    Q, S, R = tab.Q[:-1:2], tab.S[:-1:2], tab.R[:-1:2]
    q, r = tab.q[:-1:2], tab.r[:-1:2]
    dt = np.diff(tab.grid.nodes)

    def dot(a, b):
        return _matvec(a[..., None, :], b)[..., 0]

    def twice(c):
        c *= 2.0
        return c

    XT = X[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFinite
        cost = dot(_matvec(tab.G, XT), XT)
        cost += twice(dot(tab.g, XT))
        width = -(-N // 16)
        for t0 in range(0, N, width):
            b = slice(t0, min(t0 + width, N))
            Xs = X[:, b]
            f = dot(_matvec(Q[b], Xs), Xs)
            if controls:
                Us = U[:, b]
                f += twice(dot(_matvec(S[b], Xs), Us))
                f += dot(_matvec(R[b], Us), Us)
            f += twice(dot(q[b], Xs))
            if controls:
                f += twice(dot(r[b], Us))
            # f is C-ordered, as _matvec allocates it, whatever the layout
            # of X: the sum over t runs in one order for any storage
            cost += np.einsum("pt,t->p", f, dt[b])
            if not np.isfinite(cost).all():
                raise NonFinite("path_cost", t0 + _first_nonfinite(f, N - t0))
    return cost


def optimal_value(model: ModelSpec, sol: DeterministicSolution) -> ValueBreakdown:
    """Value of the optimal policy, split into its additive parts.

    Boundary terms are evaluated exactly; the five integrals use the
    trapezoid rule on the solution grid, so the total converges at O(h^2)
    once the deterministic paths are resolved.  A part that is not finite
    raises NonFinite naming it and the first node where its integrand is not
    finite, else node N; the boundary terms and the total name node 0.
    """
    tab = sol.table
    C, D, a, R = tab.C[::2], tab.D[::2], tab.a[::2], tab.R[::2]
    Pi, P, Delta, phi, ff = sol.Pi, sol.P, sol.Delta, sol.phi, sol.ff
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFinite
        DC = Delta + C
        integrands = (
            np.einsum("tac,tab,tbc->t", D, Pi, D),
            np.einsum("tac,tab,tbc->t", Delta, Pi, Delta),
            np.einsum("tac,tab,tbc->t", DC, P, DC),
            # -<R^{-1} v, v> with v = B^T phi + r, written through ff = R^{-1} v
            -np.einsum("ta,tab,tb->t", ff, R, ff),
            2.0 * np.einsum("tn,tn->t", phi, a),
        )
        x0 = model.x0
        parts = (float(x0 @ (P[0] @ x0)), 2.0 * float(phi[0] @ x0),
                 *(float(np.trapezoid(f, sol.grid.nodes)) for f in integrands))
    vb = ValueBreakdown(*parts, total=float(sum(parts)))
    for field, f in zip(fields(vb), (None, None, *integrands, None)):
        if not np.isfinite(getattr(vb, field.name)):
            node = 0 if f is None else _first_nonfinite(f, sol.grid.steps)
            raise NonFinite(f"optimal_value.{field.name}", node)
    return vb


def tilde_J(model: ModelSpec, sol: DeterministicSolution) -> float:
    """Irreducible part of the cost: no admissible control goes below
    hat_J_floor + tilde_J, and tilde_J is what observation noise costs."""
    vb = optimal_value(model, sol)
    return vb.PiD_integral + vb.PiDelta_integral


def hat_J_floor(model: ModelSpec, sol: DeterministicSolution) -> float:
    """Floor of the cost seen by the filtered state, attained at the
    optimal feedback."""
    vb = optimal_value(model, sol)
    return (vb.quadratic_term + vb.linear_term + vb.PDeltaC_integral
            + vb.Rinv_integral + vb.phia_integral)
