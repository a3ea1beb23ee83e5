"""Checks of polqg's outputs against the benchmark's own references.

Each check raises CheckFailed with a message naming what is wrong; it
returns nothing when the output is right.  Tolerances are stated here,
next to the property they bound.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

# polqg solve on 4000 steps: RK4 with interpolated midpoint paths and the
# trapezoid value rule are O(h^2).  The check is |total - ref| <= SOLVE_TOL
# (1 + |ref|); over seeds 1-300, 501-510 and 701-710 the gap stayed below
# 2.1e-6 (1 + |ref|).  The total can sit near 0 through cancelling parts,
# so the bound is not relative to it alone.  A total off by 1e-4 relative
# must fail.
SOLVE_TOL = 1e-5
PSD_TOL = 1e-9  # polqg's default psd_tol: eigmin >= -PSD_TOL (1 + ||M||_F)

# verify targets come from trapezoid sums on N=400: |target - closed form|
# <= VERIFY_H2_COEF * h^2 with h = T/N
VERIFY_H2_COEF = 1.0
VERIFY_CHECKS = frozenset(
    ["cost_vs_value", "innovation_increment_mean", "innovation_qv_ratio",
     "brownianity_terminal_var", "brownianity_lag1", "decomposition_cross",
     "decomposition_tildeJ", "not_beaten_by_zero",
     "not_beaten_by_perturbed_feedback", "perturbed_excess_vs_prediction"]
    + [f"{kind}_node{i}" for i in (100, 200, 300, 400)
       for kind in ("error_cov", "orthogonality")])
PERTURBATION_PREDICTION = 0.25  # eps^2 R T with eps = 0.5, R = 1, T = 1

# simulate: the '# cost' record against a recomputed left Riemann sum,
# relative to the sum of absolute terms (summation order differs)
COST_REL_TOL = 1e-10
# mean path cost against the exact value: 4 standard errors plus the weak
# Euler bias, allowed as EULER_COEF * h * (1 + |value|)
EULER_COEF = 4.0


class CheckFailed(Exception):
    """An output of polqg disagrees with its reference."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _printed_total(stdout: str) -> float:
    m = re.search(r"^total optimal value: (\S+)$", stdout, re.MULTILINE)
    _require(m is not None, "solve printed no total optimal value")
    return float(m.group(1))


def _psd_floor_ok(M: np.ndarray) -> np.ndarray:
    eigmin = np.linalg.eigvalsh(M)[:, 0]
    floor = -PSD_TOL * (1.0 + np.linalg.norm(M, axis=(1, 2)))
    return eigmin >= floor


def check_solve(out_dir: str, stdout: str, scenario: dict, ref_value: float):
    """Printed total against the reference; boundary data, symmetry and
    the PSD floor in solution.json."""
    total = _printed_total(stdout)
    _require(math.isfinite(total), f"total optimal value is {total}")
    err = abs(total - ref_value)
    _require(err <= SOLVE_TOL * (1.0 + abs(ref_value)),
             f"total {total!r} differs from reference {ref_value!r} by {err:.3e} "
             f"(tolerance {SOLVE_TOL:g} (1 + |reference|))")
    with open(os.path.join(out_dir, "value.json")) as f:
        value_doc = json.load(f)
    _require(value_doc["breakdown"]["total"] == total,
             "value.json total differs from the printed total")

    with open(os.path.join(out_dir, "solution.json")) as f:
        nodes = json.load(f)["nodes"]
    _require(len(nodes) == scenario["steps"] + 1,
             f"solution.json has {len(nodes)} nodes, want {scenario['steps'] + 1}")
    P = np.array([nd["P"] for nd in nodes])
    Sigma = np.array([nd["Sigma"] for nd in nodes])
    Pi = np.array([nd["Pi"] for nd in nodes])
    phi = np.array([nd["phi"] for nd in nodes])
    G = np.array(scenario["cost"]["G"])
    g = np.array(scenario["cost"]["g"])
    _require(np.array_equal(P[-1], G), "P(T) is not G bitwise")
    _require(np.array_equal(Pi[-1], G), "Pi(T) is not G bitwise")
    _require(np.array_equal(phi[-1], g), "phi(T) is not g bitwise")
    _require(not Sigma[0].any(), "Sigma(0) is not 0")
    for name, M in (("P", P), ("Sigma", Sigma), ("Pi", Pi)):
        _require(bool(np.isfinite(M).all()), f"{name} has non-finite entries")
        asym = np.flatnonzero((M != M.swapaxes(1, 2)).any(axis=(1, 2)))
        _require(asym.size == 0, f"{name} is not symmetric at node {asym[:1]}")
        bad = np.flatnonzero(~_psd_floor_ok(M))
        _require(bad.size == 0, f"{name} is below the PSD floor at node {bad[:1]}")


def check_verify(out_dir: str, stdout: str, steps: int, J_star: float,
                 tilde_J_star: float):
    """All 18 checks pass; targets within O(h^2) of the closed forms and
    Monte Carlo estimates within their bands of them."""
    _require(stdout.rstrip().endswith("verify: pass"), "verify did not print 'verify: pass'")
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    checks = {c["name"]: c for c in report["checks"]}
    _require(len(checks) == len(report["checks"]), "duplicate check names")
    _require(set(checks) == VERIFY_CHECKS,
             f"check names differ: missing {sorted(VERIFY_CHECKS - set(checks))}, "
             f"extra {sorted(set(checks) - VERIFY_CHECKS)}")
    failed = sorted(name for name, c in checks.items() if not c["passed"])
    _require(report["passed"] is True and not failed, f"failed checks: {failed}")

    tol = VERIFY_H2_COEF / steps ** 2
    for name, exact in (("cost_vs_value", J_star),
                        ("decomposition_tildeJ", tilde_J_star)):
        c = checks[name]
        _require(abs(c["target"] - exact) <= tol,
                 f"{name} target {c['target']!r} is {abs(c['target'] - exact):.3e} "
                 f"from the closed form {exact!r} (tolerance {tol:.3e})")
        _require(abs(c["estimate"] - exact) <= c["band"],
                 f"{name} estimate {c['estimate']!r} lies outside its band "
                 f"{c['band']!r} of the closed form {exact!r}")
    target = checks["perturbed_excess_vs_prediction"]["target"]
    _require(abs(target - PERTURBATION_PREDICTION) <= 1e-12,
             f"perturbation prediction {target!r}, want {PERTURBATION_PREDICTION}")


def _read_path_csv(path: str):
    with open(path) as f:
        lines = f.read().splitlines()
    _require(len(lines) >= 3 and lines[-1].startswith("# cost,"),
             f"{os.path.basename(path)}: no trailing '# cost' record")
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:-1], delimiter=",", ndmin=2)
    return header, data, float(lines[-1][len("# cost,"):])


def _cost_weights(scenario: dict) -> dict:
    cost = scenario["cost"]
    w = {f: np.array(cost["table"][f])[:-1] for f in ("Q", "S", "R", "q", "r")}
    w.update(G=np.array(cost["G"]), g=np.array(cost["g"]))
    return w


def _riemann_cost(w: dict, X: np.ndarray, u: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """Left Riemann sum of the running cost plus terminal cost, and the
    sum of absolute terms (the scale of its roundoff)."""
    x, v, h = X[:-1], u[:-1], np.diff(t)
    terms = np.stack([
        np.einsum("ti,tij,tj->t", x, w["Q"], x),
        2.0 * np.einsum("ta,tab,tb->t", v, w["S"], x),
        np.einsum("ta,tab,tb->t", v, w["R"], v),
        2.0 * np.einsum("ti,ti->t", x, w["q"]),
        2.0 * np.einsum("ta,ta->t", v, w["r"])]) * h
    xT = X[-1]
    terminal = np.array([xT @ w["G"] @ xT, 2.0 * w["g"] @ xT])
    total = float(terms.sum() + terminal.sum())
    return total, float(np.abs(terms).sum() + np.abs(terminal).sum())


def check_simulate(out_dir: str, stdout: str, scenario: dict, n_paths: int,
                   ref_value: float):
    """File count, Xtil = X - Xhat, every '# cost' record recomputed, and
    the mean cost against the exact value."""
    want = [f"path_{j:05d}.csv" for j in range(n_paths)]
    have = sorted(os.listdir(out_dir))
    _require(have == want, f"{len(have)} files in the output directory, want "
             f"exactly path_00000.csv .. path_{n_paths - 1:05d}.csv")
    _require(f"wrote {n_paths} path file(s)" in stdout, "simulate did not report its file count")
    n, d, m = (scenario["dims"][s] for s in "ndm")
    cols = (["t"] + [f"X{j+1}" for j in range(n)] + [f"Y{j+1}" for j in range(d)]
            + [f"Xhat{j+1}" for j in range(n)] + [f"Xtil{j+1}" for j in range(n)]
            + [f"V{j+1}" for j in range(d)] + [f"u{j+1}" for j in range(m)])
    at = {c: i for i, c in enumerate(cols)}

    def block(prefix, width):
        return slice(at[f"{prefix}1"], at[f"{prefix}1"] + width)

    steps = scenario["steps"]
    weights = _cost_weights(scenario)
    costs = np.empty(n_paths)
    for j, name in enumerate(want):
        header, data, cost = _read_path_csv(os.path.join(out_dir, name))
        _require(header == cols, f"{name}: header {header}")
        _require(data.shape == (steps + 1, len(cols)),
                 f"{name}: {data.shape[0]} rows, want {steps + 1}")
        X, Xhat, Xtil = data[:, block("X", n)], data[:, block("Xhat", n)], data[:, block("Xtil", n)]
        _require(np.array_equal(Xtil, X - Xhat), f"{name}: Xtil is not X - Xhat")
        recomputed, scale = _riemann_cost(weights, X, data[:, block("u", m)], data[:, 0])
        _require(abs(cost - recomputed) <= COST_REL_TOL * scale,
                 f"{name}: '# cost' {cost!r} differs from the recomputed {recomputed!r}")
        costs[j] = cost

    mean = float(costs.mean())
    se = float(costs.std(ddof=1) / math.sqrt(n_paths))
    allowance = 4.0 * se + EULER_COEF * (scenario["T"] / steps) * (1.0 + abs(ref_value))
    _require(abs(mean - ref_value) <= allowance,
             f"mean cost {mean:.6g} (SE {se:.3g}) is {abs(mean - ref_value):.3g} "
             f"from the exact value {ref_value:.6g}, allowance {allowance:.3g}")
