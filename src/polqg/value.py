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

from dataclasses import dataclass

import numpy as np

from .detsolve import DeterministicSolution
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

    def parts(self) -> dict[str, float]:
        return {
            "quadratic_term": self.quadratic_term,
            "linear_term": self.linear_term,
            "PiD_integral": self.PiD_integral,
            "PiDelta_integral": self.PiDelta_integral,
            "PDeltaC_integral": self.PDeltaC_integral,
            "Rinv_integral": self.Rinv_integral,
            "phia_integral": self.phia_integral,
            "total": self.total,
        }


def path_cost(tab: NodeTable, X: np.ndarray, U) -> np.ndarray:
    """Cost of each path: X is (paths, N+1, n) on the nodes of tab's grid,
    U the controls, (paths, N+1, m) or anything that broadcasts to it.

    The running cost is a left Riemann sum over nodes 0..N-1 with the cost
    weights at those nodes; the controls at node N are never read.  Each
    term is one contraction over (time, components), so the cost never
    materializes a (paths, N) array.
    """
    U = np.broadcast_to(U, X.shape[:2] + (tab.dims.m,))
    # left-endpoint weights: nodes 0..N-1 are the even knots before the last
    Q, S, R = tab.Q[:-1:2], tab.S[:-1:2], tab.R[:-1:2]
    q, r = tab.q[:-1:2], tab.r[:-1:2]
    hsteps = np.diff(tab.grid.nodes)
    Xs, Us = X[:, :-1], U[:, :-1]
    running = (
        np.einsum("pti,tij,ptj,t->p", Xs, Q, Xs, hsteps)
        + 2.0 * np.einsum("pta,tab,ptb,t->p", Us, S, Xs, hsteps)
        + np.einsum("pta,tab,ptb,t->p", Us, R, Us, hsteps)
        + 2.0 * np.einsum("pti,ti,t->p", Xs, q, hsteps)
        + 2.0 * np.einsum("pta,ta,t->p", Us, r, hsteps)
    )
    XT = X[:, -1]
    terminal = np.einsum("pi,ij,pj->p", XT, tab.G, XT) + 2.0 * XT @ tab.g
    return running + terminal


def optimal_value(model: ModelSpec, sol: DeterministicSolution) -> ValueBreakdown:
    """Value of the optimal policy, split into its additive parts.

    Boundary terms are evaluated exactly; the five integrals use the
    trapezoid rule on the solution grid, so the total converges at O(h^2)
    once the deterministic paths are resolved.
    """
    tab = sol.table
    C, D, a, R = tab.C[::2], tab.D[::2], tab.a[::2], tab.R[::2]
    Pi, P = sol.Pi.values, sol.P.values
    Delta, phi, ff = sol.Delta.values, sol.phi.values, sol.ff.values
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
    return ValueBreakdown(*parts, total=float(sum(parts)))


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
