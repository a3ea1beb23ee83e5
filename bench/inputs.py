"""Seeded scenario generator for the benchmark.

Two models, written as polqg scenario JSON:

* the scalar tanh benchmark (A=C=0, B=D=H=K=Q=R=1, x0=1, T=1), whose
  deterministic paths and value have closed forms; it has no random part;
* a time-varying model with n=3, m=2, d=2, k=2 drawn from the seed.  Every
  coefficient and running-cost weight is piecewise linear in time between
  KNOTS+1 knots at t = j/KNOTS.  The knots fall on nodes of both the
  4001-node and the 401-node table, so the two tables describe the same
  continuous-time model and share one reference value.  Per knot the draw
  keeps the filter drift A - C K^{-1} H moderate (non-stiff) at every table
  node, R uniformly definite and [[Q, S^T], [S, R]] positive definite, so
  validation passes at every node in between as well.

polqg only ever sees the JSON files this module writes.
"""

from __future__ import annotations

import json

import numpy as np

KNOTS = 20
SCALAR_STEPS = 400
SCALAR_MC_SEED = 20220227  # fixed: the verify checks are statistical
TV3_DIMS = {"n": 3, "m": 2, "d": 2, "k": 2}
COEFF_FIELDS = ("A", "B", "a", "C", "D", "H", "h", "K")
COST_FIELDS = ("Q", "S", "R", "q", "r")


def scalar_scenario() -> dict:
    """The scalar tanh benchmark on N=SCALAR_STEPS, constant coefficients."""
    return {
        "format_version": 1,
        "dims": {"n": 1, "m": 1, "d": 1, "k": 1},
        "T": 1.0,
        "steps": SCALAR_STEPS,
        "x0": [1.0],
        "coefficients": {"constant": {
            "A": [[0.0]], "B": [[1.0]], "a": [0.0], "C": [[0.0]],
            "D": [[1.0]], "H": [[1.0]], "h": [0.0], "K": [[1.0]]}},
        "cost": {"G": [[0.0]], "g": [0.0], "constant": {
            "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], "q": [0.0],
            "r": [0.0]}},
        "mc": {"n_paths": 2000, "seed": SCALAR_MC_SEED},
    }


def _filter_drift_norm(A, C, H, K) -> np.ndarray:
    """Spectral norm of A - C K^{-1} H, batched over a leading axis."""
    F = A - C @ np.linalg.solve(K, H)
    return np.linalg.norm(F, 2, axis=(-2, -1))


def _draw_knots(rng: np.random.Generator) -> dict:
    """Knot values (KNOTS+1 leading axis) of every time-varying field."""
    n, m, d, k = (TV3_DIMS[s] for s in ("n", "m", "d", "k"))
    nk = KNOTS + 1

    def ramp(base, scale):
        return base[None] + scale * rng.standard_normal((nk,) + base.shape)

    while True:
        A0 = 0.5 * rng.standard_normal((n, n))
        A0 -= (max(np.linalg.eigvals(A0).real.max(), 0.0) + 0.3) * np.eye(n)
        K0 = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        knots = {
            "A": ramp(A0, 0.3),
            "B": ramp(0.7 * rng.standard_normal((n, m)), 0.2),
            "a": ramp(0.3 * rng.standard_normal(n), 0.1),
            "C": ramp(0.4 * rng.standard_normal((n, d)), 0.1),
            "D": ramp(0.5 * rng.standard_normal((n, k)), 0.1),
            "H": ramp(0.8 * rng.standard_normal((d, n)), 0.2),
            "h": ramp(0.2 * rng.standard_normal(d), 0.05),
            "K": ramp(K0, 0.05),
        }
        if max(np.linalg.cond(knots["K"])) > 20.0:
            continue
        fine = {f: sample_table(knots[f], 200 * KNOTS) for f in "ACHK"}
        if _filter_drift_norm(fine["A"], fine["C"], fine["H"],
                              fine["K"]).max() > 2.5:
            continue
        break

    # running cost: [[Q, S^T], [S, R]] positive definite at each knot, so
    # every convex combination between knots keeps Q - S^T R^{-1} S >= 0
    Q, S, R = np.empty((nk, n, n)), np.empty((nk, m, n)), np.empty((nk, m, m))
    for j in range(nk):
        L = 0.5 * rng.standard_normal((m, m))
        Rj = L @ L.T + (0.5 + rng.random()) * np.eye(m)
        R[j] = 0.5 * (Rj + Rj.T)
        S[j] = 0.4 * rng.standard_normal((m, n))
        M = 0.5 * rng.standard_normal((n, n))
        Qj = S[j].T @ np.linalg.solve(R[j], S[j]) + M @ M.T + 0.2 * np.eye(n)
        Q[j] = 0.5 * (Qj + Qj.T)
    knots.update(Q=Q, S=S, R=R, q=ramp(0.3 * rng.standard_normal(n), 0.1),
                 r=ramp(0.3 * rng.standard_normal(m), 0.1))
    LG = 0.5 * rng.standard_normal((n, n))
    G = LG @ LG.T
    knots["G"] = 0.5 * (G + G.T)
    knots["g"] = 0.3 * rng.standard_normal(n)
    knots["x0"] = rng.standard_normal(n)
    return knots


def tv3_knots(seed: int) -> dict:
    """Knot values of the time-varying n=3 model for this seed."""
    return _draw_knots(np.random.default_rng([seed, 3]))


def sample_table(knot_values: np.ndarray, steps: int) -> np.ndarray:
    """Node values of a field that is linear between knots j/KNOTS."""
    if steps % KNOTS:
        raise ValueError(f"steps={steps} must be a multiple of {KNOTS}")
    per = steps // KNOTS
    i = np.arange(steps + 1)
    j = np.minimum(i // per, KNOTS - 1)
    w = ((i - j * per) / per).reshape((-1,) + (1,) * (knot_values.ndim - 1))
    return (1.0 - w) * knot_values[j] + w * knot_values[j + 1]


def tv3_scenario(knots: dict, steps: int) -> dict:
    """Scenario document for the n=3 model tabulated on steps+1 nodes."""
    table = {f: sample_table(knots[f], steps).tolist() for f in COEFF_FIELDS}
    cost = {f: sample_table(knots[f], steps).tolist() for f in COST_FIELDS}
    return {
        "format_version": 1,
        "dims": dict(TV3_DIMS),
        "T": 1.0,
        "steps": steps,
        "x0": knots["x0"].tolist(),
        "coefficients": {"table": table},
        "cost": {"G": knots["G"].tolist(), "g": knots["g"].tolist(),
                 "table": cost},
    }


def write_scenario(doc: dict, path: str) -> str:
    with open(path, "w") as f:
        json.dump(doc, f)
    return path
