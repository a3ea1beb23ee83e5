"""Problem data for the partially observed linear-quadratic control problem.

State dynamics   dX = (A X + B u + a) dt + C dW + D dW'
Observation      dY = (H X + h) dt + K dW
Cost             <G X_T, X_T> + 2<g, X_T>
                 + int_0^T <Q X, X> + 2<S X, u> + <R u, u> + 2<q, X> + 2<r, u> dt

A ModelSpec is the whole problem on one uniform grid over [0, T]: every
coefficient and running cost weight is an (N+1, ...) table of its node
values on that grid, piecewise linear in time in between, and x0, G and g
have no node axis.  _COEFF_SHAPES and _COST_SHAPES declare the per-node
fields; the split between them is kept only where the assumptions treat
coefficients and cost weights apart.  `validate` checks the standing
assumptions at the model's own tolerances: a finite x0, finite bounded
coefficients, invertible K, and the usual definiteness of the cost weights.

A solve works on a NodeTable: every coefficient and cost weight resampled
once onto the knots of the solve grid (its nodes and the RK4 midpoints
between them), together with what depends on the model alone: K^{-1},
K^{-1} H, N = K K^T and D D^T, and the operators of the two Riccati
equations, A - B R^{-1} S, B R^{-1} B^T and Q - S^T R^{-1} S for the
control side, the filter drift A - C K^{-1} H and H^T N^{-1} H for the
filter side.  Each is computed for all knots at once, by stacked solves,
so no RK4 stage solves a linear system.  `resample` does all interpolation in
one vectorized pass with the bracket and weight arithmetic of
`interp_table`, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyGrid, OutOfRange, ShapeMismatch, SingularMatrix

__all__ = [
    "TimeGrid",
    "Dimensions",
    "ModelSpec",
    "NodeTable",
    "CheckResult",
    "ValidationReport",
    "resample",
    "validate",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*T/steps, i = 0..steps."""

    T: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise EmptyGrid(f"steps must be >= 1, got {self.steps}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got {self.T}")

    @property
    def h(self) -> float:
        return self.T / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        # (steps+1,), endpoints exact
        return np.linspace(0.0, self.T, self.steps + 1)

    @cached_property
    def knots(self) -> np.ndarray:
        """(2*steps+1,) RK4 evaluation times: knot 2i is node t_i, knot
        2i+1 the midpoint 0.5*(t_i + t_{i+1})."""
        nodes = self.nodes
        out = np.empty(2 * self.steps + 1)
        out[0::2] = nodes
        out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        return out


@dataclass(frozen=True)
class Dimensions:
    n: int  # state
    m: int  # control
    d: int  # observation / common noise
    k: int  # state-only noise

    def __post_init__(self):
        for name in ("n", "m", "d", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be >= 1")


# name -> shape after the node axis: the only declaration of the per-node
# fields, from which every other field list is derived
_COEFF_SHAPES = {
    "A": ("n", "n"), "B": ("n", "m"), "a": ("n",), "C": ("n", "d"),
    "D": ("n", "k"), "H": ("d", "n"), "h": ("d",), "K": ("d", "d"),
}
_COST_SHAPES = {"Q": ("n", "n"), "S": ("m", "n"), "R": ("m", "m"), "q": ("n",), "r": ("m",)}


@dataclass(frozen=True)
class ModelSpec:
    """One problem instance on one grid.

    Every coefficient and running cost weight is an (N+1, ...) table of its
    values at the nodes of `grid`, with the trailing shape that
    _COEFF_SHAPES and _COST_SHAPES declare; x0 and the terminal weights G
    and g have no node axis; delta (R's uniform definiteness floor) and the
    three fields after it are validate's tolerances, written nowhere else.
    """

    dims: Dimensions
    grid: TimeGrid
    x0: np.ndarray  # (n,)
    A: np.ndarray   # (N+1, n, n)
    B: np.ndarray   # (N+1, n, m)
    a: np.ndarray   # (N+1, n)
    C: np.ndarray   # (N+1, n, d)
    D: np.ndarray   # (N+1, n, k)
    H: np.ndarray   # (N+1, d, n)
    h: np.ndarray   # (N+1, d)
    K: np.ndarray   # (N+1, d, d)
    Q: np.ndarray   # (N+1, n, n)
    S: np.ndarray   # (N+1, m, n)
    R: np.ndarray   # (N+1, m, m)
    q: np.ndarray   # (N+1, n)
    r: np.ndarray   # (N+1, m)
    G: np.ndarray   # (n, n)
    g: np.ndarray   # (n,)
    delta: float = 1e-6
    psd_tol: float = 1e-9      # eigenvalue floor is -psd_tol*(1+||M||)
    sym_tol: float = 1e-12     # absolute bound on ||M - M^T||
    k_cond_bound: float = 1e8  # condition number cap for K

    def __post_init__(self):
        for name in ("x0", *_COEFF_SHAPES, *_COST_SHAPES, "G", "g"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


# ---------------------------------------------------------------------------
# interpolation

def resample(grid: TimeGrid, values: np.ndarray, ts) -> np.ndarray:
    """Linear interpolation of a per-node table at every time in ts.

    Row j uses the bracket i = int(t_j/h) (clipped to the last step) and
    the weight w = (t_j - t_i)/(t_{i+1} - t_i), and returns the node value
    itself when w is 0 or 1, so nodes come back exactly.
    """
    ts = np.asarray(ts, dtype=float)
    outside = ~((ts >= 0.0) & (ts <= grid.T))
    if outside.any():
        raise OutOfRange(f"t={float(ts[outside][0])!r} outside [0, {grid.T}]")
    i = np.minimum((ts / grid.h).astype(np.intp), grid.steps - 1)
    nodes = grid.nodes
    w = (ts - nodes[i]) / (nodes[i + 1] - nodes[i])
    w = w.reshape(w.shape + (1,) * (values.ndim - 1))
    lo, hi = values[i], values[i + 1]
    return np.where(w == 0.0, lo, np.where(w == 1.0, hi, (1.0 - w) * lo + w * hi))


def interp_table(grid: TimeGrid, values: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation of a per-node table at one time t; returns node
    values exactly."""
    return resample(grid, values, np.array([t], dtype=float))[0]


def table_at_nodes(grid: TimeGrid, table_grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Resample a per-node table onto the nodes of another grid; on the
    table's own grid the table itself is returned."""
    if grid.steps == table_grid.steps and grid.T == table_grid.T:
        return values
    return resample(table_grid, values, np.minimum(grid.nodes, table_grid.T))


def at_knots(grid: TimeGrid, table_grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """A per-node table of table_grid at the knots of grid (see TimeGrid.knots)."""
    out = np.empty((2 * grid.steps + 1,) + values.shape[1:])
    out[0::2] = table_at_nodes(grid, table_grid, values)
    out[1::2] = resample(table_grid, values, grid.knots[1::2])
    return out


def solve_stack(mat: np.ndarray, rhs: np.ndarray, name: str,
                times: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a leading time axis; a singular matrix raises
    SingularMatrix naming the first time whose determinant vanishes."""
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        j = int(np.argmax(np.linalg.det(mat) == 0.0))
        raise SingularMatrix(name, float(times[j])) from None


@dataclass(frozen=True)
class NodeTable:
    """One model's coefficients and cost weights on the knots of one solve
    grid, each resampled once.

    Every per-time field has a leading axis of 2N+1 knots: knot 2i is node
    t_i and knot 2i+1 the RK4 midpoint 0.5*(t_i + t_{i+1}), so field[j]
    feeds RK4 stage j and field[::2] holds the node values.  The derived
    fields depend on the model alone; with them P and Sigma share the
    right-hand side -(Y F + (Y F)^T - Y M Y + C) for knot arrays F, M and
    C (see detsolve._riccati_operators).
    """

    grid: TimeGrid
    dims: Dimensions
    A: np.ndarray
    B: np.ndarray
    a: np.ndarray
    C: np.ndarray
    D: np.ndarray
    H: np.ndarray
    h: np.ndarray
    K: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    q: np.ndarray
    r: np.ndarray
    G: np.ndarray      # (n, n) terminal weights, no time axis
    g: np.ndarray      # (n,)
    Kinv: np.ndarray   # K^{-1}
    KinvH: np.ndarray  # K^{-1} H
    Acl: np.ndarray    # A - C K^{-1} H, the filter drift
    N: np.ndarray      # K K^T
    DDt: np.ndarray    # D D^T
    Abar: np.ndarray   # A - B R^{-1} S, the control drift of P
    BRBt: np.ndarray   # B R^{-1} B^T
    Qbar: np.ndarray   # Q - S^T R^{-1} S
    HNH: np.ndarray    # H^T N^{-1} H = (K^{-1} H)^T K^{-1} H
    psd_tol: float     # the model's, the one tolerance the solver reads

    @classmethod
    def build(cls, model: "ModelSpec", grid: TimeGrid) -> "NodeTable":
        f = {name: at_knots(grid, model.grid, getattr(model, name))
             for name in (*_COEFF_SHAPES, *_COST_SHAPES)}
        K, times = f["K"], grid.knots
        eye_d = np.broadcast_to(np.eye(model.dims.d), K.shape)
        KinvH = solve_stack(K, f["H"], "K", times)
        # R^{-1} [B^T | S] in one stacked solve
        n = model.dims.n
        B, S = f["B"], f["S"]
        RinvBS = solve_stack(f["R"], np.concatenate((B.mT, S), axis=-1), "R", times)
        RinvBt, RinvS = RinvBS[..., :n], RinvBS[..., n:]
        return cls(
            grid, model.dims, **f, G=model.G, g=model.g,
            Kinv=solve_stack(K, eye_d, "K", times),
            KinvH=KinvH,
            Acl=f["A"] - f["C"] @ KinvH,
            N=K @ K.mT,
            DDt=f["D"] @ f["D"].mT,
            Abar=f["A"] - B @ RinvS,
            BRBt=B @ RinvBt,
            Qbar=f["Q"] - S.mT @ RinvS,
            HNH=KinvH.mT @ KinvH,
            psd_tol=model.psd_tol,
        )


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    """One assumption check.  margin >= 0 means pass; worst_node attains it."""

    name: str
    passed: bool
    worst_node: int | None
    margin: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            node = "-" if c.worst_node is None else str(c.worst_node)
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status:4s}  {c.name:24s} worst_node={node:>4s}  margin={c.margin:.6e}")
        return "\n".join(lines)


def _check_shapes(model: ModelSpec):
    dims = {"n": model.dims.n, "m": model.dims.m, "d": model.dims.d, "k": model.dims.k}
    nn = model.grid.steps + 1
    for kind, shapes in (("coefficient", _COEFF_SHAPES), ("cost weight", _COST_SHAPES)):
        for name, dim_names in shapes.items():
            want = (nn,) + tuple(dims[s] for s in dim_names)
            got = getattr(model, name).shape
            if got != want:
                raise ShapeMismatch(f"{kind} {name}: expected shape {want}, got {got}")
    n = dims["n"]
    for name, want in (("G", (n, n)), ("g", (n,)), ("x0", (n,))):
        got = getattr(model, name).shape
        if got != want:
            raise ShapeMismatch(f"{name}: expected shape {want}, got {got}")


def _finite_check(name: str, tables: dict[str, np.ndarray]) -> CheckResult:
    """Fail at the first node of the first table with a non-finite entry;
    the terminal weights G and g have no node axis, so they name no node."""
    for tname, arr in tables.items():
        finite = np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1)
        if not finite.all():
            node = None if tname in ("G", "g") else int(np.argmin(finite))
            return CheckResult(name, False, node, float("-inf"))
    return CheckResult(name, True, None, 0.0)


# the helpers below take one matrix or a stack of them (leading node axis)

def _sym_slack(M: np.ndarray, sym_tol: float) -> np.ndarray:
    """sym_tol - ||M - M^T||; -inf at a non-finite node, not nan."""
    slack = sym_tol - np.linalg.norm(M - M.mT, axis=(-2, -1))
    return np.where(np.isfinite(M).all(axis=(-2, -1)), slack, -np.inf)


def _eig_floor(M: np.ndarray, psd_tol: float) -> np.ndarray:
    """Slack of the PSD check: eigmin + psd_tol*(1 + ||M||), on the symmetric
    part; -inf at a non-finite node, whose eigenvalues would not converge."""
    finite = np.isfinite(M).all(axis=(-2, -1))
    Mf = M[finite]
    slack = np.full(finite.shape, -np.inf)
    slack[finite] = (np.linalg.eigvalsh(0.5 * (Mf + Mf.mT))[..., 0]
                     + psd_tol * (1.0 + np.linalg.norm(Mf, axis=(-2, -1))))
    return slack


def _worst_node(name: str, slacks: np.ndarray) -> CheckResult:
    worst = int(np.argmin(slacks))
    slack = float(slacks[worst])
    return CheckResult(name, slack >= 0, worst, slack)


def validate(model: ModelSpec) -> ValidationReport:
    """Check the standing assumptions at every node, at the model's tolerances.

    Shape inconsistencies raise ShapeMismatch; everything else is reported
    as a pass/fail entry with the worst node and its margin.
    """
    _check_shapes(model)
    checks: list[CheckResult] = []

    x0_finite = bool(np.isfinite(model.x0).all())
    checks.append(CheckResult("x0_finite", x0_finite, None,
                              0.0 if x0_finite else float("-inf")))

    checks.append(_finite_check(
        "A1_coefficients_finite",
        {f: getattr(model, f) for f in _COEFF_SHAPES}))

    # condition number cap stands in for uniform invertibility of K; a
    # non-finite node counts as singular (the SVD would not converge)
    finite_K = np.isfinite(model.K).all(axis=(-2, -1))
    conds = np.full(finite_K.shape, np.inf)
    conds[finite_K] = np.linalg.cond(model.K[finite_K])
    worst = int(np.argmax(conds))
    margin = model.k_cond_bound - float(conds[worst])
    checks.append(CheckResult("A2_K_invertible", margin >= 0, worst, margin))

    checks.append(_finite_check(
        "A3_cost_finite",
        {f: getattr(model, f) for f in ("G", "g", *_COST_SHAPES)}))

    g_sym = float(_sym_slack(model.G, model.sym_tol))
    checks.append(CheckResult("A3_G_symmetric", g_sym >= 0, None, g_sym))
    checks.append(_worst_node("A3_Q_symmetric", _sym_slack(model.Q, model.sym_tol)))
    checks.append(_worst_node("A3_R_symmetric", _sym_slack(model.R, model.sym_tol)))

    g_slack = float(_eig_floor(model.G, model.psd_tol))
    checks.append(CheckResult("A3_G_psd", g_slack >= 0, None, g_slack))

    checks.append(_worst_node("A3_R_uniformly_definite",
                              _eig_floor(model.R, model.psd_tol) - model.delta))

    # Q - S^T R^{-1} S with the symmetric part of R; a singular or non-finite
    # R fails the node outright and is swapped for I so the stacked solve
    # goes through (a non-finite Q or S fails it in _eig_floor)
    Rs = 0.5 * (model.R + model.R.mT)
    singular = ~np.isfinite(Rs).all(axis=(-2, -1))
    singular[~singular] = np.linalg.det(Rs[~singular]) == 0.0
    Rs[singular] = np.eye(model.dims.m)
    M = model.Q - model.S.mT @ np.linalg.solve(Rs, model.S)
    slacks = np.where(singular, -np.inf, _eig_floor(M, model.psd_tol))
    checks.append(_worst_node("A3_QSRS_psd", slacks))

    return ValidationReport(tuple(checks))
