"""Command line front end: validate, solve, simulate, verify.

Scenario files are strict JSON; unknown fields are rejected so typos
cannot silently change a run.  Result documents are JSON with a single
timestamp line in their metadata; per-path CSV files carry no timestamps
at all and rerunning a simulation writes byte-identical files.

Exit codes: 0 success, 2 validation problem (scenario or model), 3
numerical blow-up, 4 a verification check failed, 5 I/O problem.

Seed precedence: --seed flag, then the POLQG_SEED environment variable,
then the scenario's mc.seed, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .detsolve import (
    DeterministicSolution,
    MatrixPath,
    solve_all,
    solve_filter_side,
)
# bench/tracer.py wraps these names here; the calls go through solve_filter_side
from .detsolve import compute_curlyA, compute_Delta, solve_Pi, solve_pi  # noqa: F401
from .errors import (
    EmptyGrid,
    InsufficientPaths,
    NonFinite,
    OutOfRange,
    PolqgError,
    PSDViolation,
    ScenarioSyntaxError,
    ShapeMismatch,
    SingularMatrix,
    UnknownField,
    ValidationFailure,
)
from .model import (
    CoefficientTable,
    CostWeights,
    Dimensions,
    ModelSpec,
    TimeGrid,
    ToleranceConfig,
    interp_table,  # noqa: F401  bench/tracer.py counts its calls here by name
    validate,
)
from .simulate import ControlPolicy, bundle_to_csv
from .value import ValueBreakdown, optimal_value
from .verify import (
    brownianity_report,
    compare_policies,
    decomposition_check,
    default_probe_nodes,
    iter_path_bundles,
    run_batch,
    simulate_statistics,
)

__all__ = ["Scenario", "parse_scenario", "cmd_validate", "cmd_solve",
           "cmd_simulate", "cmd_verify", "main"]

FORMAT_VERSION = 1
ENV_SEED = "POLQG_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_CHECK_FAILED = 4
EXIT_IO = 5


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: a validated model plus run parameters."""

    model: ModelSpec
    grid: TimeGrid
    policy: ControlPolicy
    n_paths: int
    seed: int
    probe_times: tuple[float, ...] | None
    out_dir: str | None
    formats: tuple[str, ...]
    tolerances: ToleranceConfig


# ---------------------------------------------------------------------------
# scenario schema

_COEFF_FIELDS = ("A", "B", "a", "C", "D", "H", "h", "K")
_COST_RUN_FIELDS = ("Q", "S", "R", "q", "r")


def _expect(obj, where, allowed, required=()):
    if not isinstance(obj, dict):
        raise ScenarioSyntaxError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UnknownField(f"{where}: unknown field(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioSyntaxError(f"{where}: missing required field(s) {missing}")


def _policy_from_spec(spec) -> ControlPolicy:
    _expect(spec, "policy", allowed=("kind", "table", "offset", "label"),
            required=("kind",))
    kind = spec["kind"]
    label = spec.get("label", "")
    if kind == "filter_feedback":
        return ControlPolicy("filter_feedback", label=label)
    if kind == "zero":
        return ControlPolicy("zero", label=label)
    if kind == "open_loop":
        if "table" not in spec:
            raise ScenarioSyntaxError("policy: open_loop needs a table")
        return ControlPolicy("open_loop", np.asarray(spec["table"], dtype=float),
                             label=label or "open_loop")
    if kind == "perturbed_feedback":
        if "offset" not in spec:
            raise ScenarioSyntaxError("policy: perturbed_feedback needs an offset")
        return ControlPolicy("perturbed_feedback",
                             np.asarray(spec["offset"], dtype=float),
                             label=label or "perturbed_feedback")
    raise ScenarioSyntaxError(f"policy: unknown kind {kind!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ScenarioSyntaxError for malformed JSON or missing fields,
    UnknownField for anything outside the schema, and ValidationFailure
    (with the full report attached) if the model violates an assumption.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioSyntaxError(e.msg, e.lineno, e.colno) from None

    _expect(doc, "scenario",
            allowed=("format_version", "dims", "T", "steps", "x0",
                     "coefficients", "cost", "delta", "tolerances",
                     "policy", "mc", "output"),
            required=("dims", "T", "steps", "x0", "coefficients", "cost"))
    if doc.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise ScenarioSyntaxError(
            f"unsupported format_version {doc['format_version']!r}")

    _expect(doc["dims"], "dims", allowed=("n", "m", "d", "k"),
            required=("n", "m", "d", "k"))
    dims = Dimensions(**{k: int(v) for k, v in doc["dims"].items()})
    grid = TimeGrid(float(doc["T"]), int(doc["steps"]))
    x0 = np.asarray(doc["x0"], dtype=float)

    cspec = doc["coefficients"]
    _expect(cspec, "coefficients", allowed=("constant", "table"))
    if ("constant" in cspec) == ("table" in cspec):
        raise ScenarioSyntaxError(
            "coefficients: give exactly one of 'constant' or 'table'")
    if "constant" in cspec:
        _expect(cspec["constant"], "coefficients.constant",
                allowed=_COEFF_FIELDS, required=_COEFF_FIELDS)
        vals = {k: np.asarray(v, dtype=float) for k, v in cspec["constant"].items()}
        coeffs = CoefficientTable.constant(grid, **vals)
    else:
        _expect(cspec["table"], "coefficients.table",
                allowed=_COEFF_FIELDS, required=_COEFF_FIELDS)
        vals = {k: np.asarray(v, dtype=float) for k, v in cspec["table"].items()}
        coeffs = CoefficientTable(grid, **vals)

    wspec = doc["cost"]
    _expect(wspec, "cost", allowed=("G", "g", "constant", "table"),
            required=("G", "g"))
    if ("constant" in wspec) == ("table" in wspec):
        raise ScenarioSyntaxError("cost: give exactly one of 'constant' or 'table'")
    delta = float(doc.get("delta", 1e-6))
    G = np.asarray(wspec["G"], dtype=float)
    gvec = np.asarray(wspec["g"], dtype=float)
    if "constant" in wspec:
        _expect(wspec["constant"], "cost.constant",
                allowed=_COST_RUN_FIELDS, required=_COST_RUN_FIELDS)
        vals = {k: np.asarray(v, dtype=float) for k, v in wspec["constant"].items()}
        cost = CostWeights.constant(grid, G=G, g=gvec, delta=delta, **vals)
    else:
        _expect(wspec["table"], "cost.table",
                allowed=_COST_RUN_FIELDS, required=_COST_RUN_FIELDS)
        vals = {k: np.asarray(v, dtype=float) for k, v in wspec["table"].items()}
        cost = CostWeights(grid, G=G, g=gvec, delta=delta, **vals)

    tol = ToleranceConfig()
    if "tolerances" in doc:
        _expect(doc["tolerances"], "tolerances",
                allowed=("psd_tol", "sym_tol", "k_cond_bound"))
        tol = ToleranceConfig(
            psd_tol=float(doc["tolerances"].get("psd_tol", tol.psd_tol)),
            sym_tol=float(doc["tolerances"].get("sym_tol", tol.sym_tol)),
            k_cond_bound=float(doc["tolerances"].get("k_cond_bound", tol.k_cond_bound)),
        )

    model = ModelSpec(dims=dims, T=grid.T, coeffs=coeffs, cost=cost, x0=x0)
    report = validate(model, tol)
    if not report.passed:
        raise ValidationFailure(report)

    policy = ControlPolicy.filter_feedback()
    if "policy" in doc:
        policy = _policy_from_spec(doc["policy"])

    n_paths, seed, probe_times = 2000, 0, None
    if "mc" in doc:
        _expect(doc["mc"], "mc", allowed=("n_paths", "seed", "probe_times"))
        n_paths = int(doc["mc"].get("n_paths", n_paths))
        seed = int(doc["mc"].get("seed", seed))
        if "probe_times" in doc["mc"]:
            probe_times = tuple(float(t) for t in doc["mc"]["probe_times"])
            for t in probe_times:
                if t < 0 or t > grid.T:
                    raise OutOfRange(f"probe time {t} outside [0, {grid.T}]")

    out_dir, formats = None, ("json", "csv")
    if "output" in doc:
        _expect(doc["output"], "output", allowed=("directory", "formats"))
        out_dir = doc["output"].get("directory")
        if "formats" in doc["output"]:
            formats = tuple(doc["output"]["formats"])
            for f in formats:
                if f not in ("json", "csv"):
                    raise ScenarioSyntaxError(f"output: unknown format {f!r}")

    return Scenario(model=model, grid=grid, policy=policy, n_paths=n_paths,
                    seed=seed, probe_times=probe_times, out_dir=out_dir,
                    formats=formats, tolerances=tol)


# ---------------------------------------------------------------------------
# documents

def _meta() -> dict:
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _solution_document(sol: DeterministicSolution) -> dict:
    nodes = []
    ts = sol.grid.nodes
    for i in range(sol.grid.steps + 1):
        nodes.append({
            "index": i,
            "t": float(ts[i]),
            "P": sol.P.values[i].tolist(),
            "Theta": sol.Theta.values[i].tolist(),
            "phi": sol.phi.values[i].tolist(),
            "Sigma": sol.Sigma.values[i].tolist(),
            "Delta": sol.Delta.values[i].tolist(),
            "curlyA": sol.curlyA.values[i].tolist(),
            "Pi": sol.Pi.values[i].tolist(),
            "pi_vec": sol.pi_vec.values[i].tolist(),
        })
    return {"format_version": FORMAT_VERSION, "kind": "solution",
            "meta": _meta(),
            "grid": {"T": sol.grid.T, "steps": sol.grid.steps},
            "nodes": nodes}


def _value_document(vb: ValueBreakdown) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "value",
            "meta": _meta(), "breakdown": vb.parts()}


def _series_rows(sol: DeterministicSolution):
    """Long-format (series, t, value) rows for the main solution paths."""
    rows = []
    ts = sol.grid.nodes
    named = [("P", sol.P.values), ("Sigma", sol.Sigma.values),
             ("Theta", sol.Theta.values)]
    for name, vals in named:
        p, q = vals.shape[1], vals.shape[2]
        for i in range(sol.grid.steps + 1):
            for r in range(p):
                for c in range(q):
                    rows.append((f"{name}[{r},{c}]", float(ts[i]),
                                 float(vals[i, r, c])))
    return rows


def _write_series_csv(path: str, rows):
    with open(path, "w") as f:
        f.write("series,t,value\n")
        for name, t, v in rows:
            f.write(f"{name},{t:.17g},{v:.17g}\n")


def _write_json(path: str, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# commands

def _resolve_seed(args, sc: Scenario) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        return int(env)
    return sc.seed


def _load_scenario(args) -> tuple[Scenario, TimeGrid, int, int]:
    with open(args.scenario) as f:
        text = f.read()
    sc = parse_scenario(text)
    grid = sc.grid
    if getattr(args, "steps", None) is not None:
        grid = TimeGrid(sc.grid.T, args.steps)
    n_paths = getattr(args, "paths", None)
    if n_paths is None:
        n_paths = sc.n_paths
    return sc, grid, _resolve_seed(args, sc), n_paths


def _probe_indices(sc: Scenario, grid: TimeGrid) -> list[int]:
    if sc.probe_times is None:
        return list(dict.fromkeys(default_probe_nodes(grid)))
    idx = [int(round(t / grid.h)) for t in sc.probe_times]
    return list(dict.fromkeys(min(max(i, 0), grid.steps) for i in idx))


def cmd_validate(args) -> int:
    with open(args.scenario) as f:
        text = f.read()
    try:
        sc = parse_scenario(text)
    except ValidationFailure as e:
        print(e.report.summary())
        print("validation: FAIL")
        return EXIT_VALIDATION
    print(validate(sc.model, sc.tolerances).summary())
    print("validation: pass")
    return EXIT_OK


def cmd_solve(args) -> int:
    sc, grid, _, _ = _load_scenario(args)
    sol = solve_all(sc.model, grid, sc.tolerances)
    vb = optimal_value(sc.model, sol)
    print(f"total optimal value: {vb.total:.17g}")
    out = args.out
    os.makedirs(out, exist_ok=True)
    if "json" in sc.formats:
        _write_json(os.path.join(out, "solution.json"), _solution_document(sol))
        _write_json(os.path.join(out, "value.json"), _value_document(vb))
    if "csv" in sc.formats:
        _write_series_csv(os.path.join(out, "series.csv"), _series_rows(sol))
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc, grid, seed, n_paths = _load_scenario(args)
    sol = solve_all(sc.model, grid, sc.tolerances)
    out = args.out
    os.makedirs(out, exist_ok=True)
    count = 0
    for j, bundle in enumerate(
            iter_path_bundles(sc.model, sol, sc.policy, n_paths, seed)):
        with open(os.path.join(out, f"path_{j:05d}.csv"), "w") as f:
            bundle_to_csv(bundle, f)
        count += 1
    print(f"wrote {count} path file(s) to {out}")
    return EXIT_OK


def _scaled_sigma_solution(model, sol, scale, tol) -> DeterministicSolution:
    """Rebuild the paths that depend on Sigma, the filter gain included,
    from a scaled Sigma (debug aid: the result is deliberately inconsistent
    and verification should fail)."""
    Sigma = MatrixPath(sol.grid, sol.Sigma.values * scale)
    return replace(sol, **solve_filter_side(Sigma, sol.table, tol))


def _band_floor(target: float) -> float:
    # keeps zero-variance degenerate scenarios from tripping on roundoff
    return 1e-9 * (1.0 + abs(target))


def _run_checks(sc: Scenario, grid: TimeGrid, seed: int, n_paths: int,
                sigma_scale: float = 1.0) -> tuple[list[dict], list]:
    """All verification checks; returns (check rows, extra series rows).

    One simulate_statistics pass per grid feeds every check.  Every estimate
    that carries an Euler bias is also read off the grid with twice the
    steps, and 3x the difference is added to its band (see below).
    """
    model, tol = sc.model, sc.tolerances
    sol = solve_all(model, grid, tol)
    grid2 = TimeGrid(grid.T, 2 * grid.steps)
    sol2 = solve_all(model, grid2, tol)
    if sigma_scale != 1.0:
        sol = _scaled_sigma_solution(model, sol, sigma_scale, tol)
        sol2 = _scaled_sigma_solution(model, sol2, sigma_scale, tol)
    probes = _probe_indices(sc, grid)
    eps = np.full(model.dims.m, 0.5)
    pols = [ControlPolicy.zero(), ControlPolicy.perturbed_feedback(eps)]
    stats = simulate_statistics(model, sol, n_paths, seed, probes, pols)
    stats2 = simulate_statistics(model, sol2, n_paths, seed,
                                 [2 * pn for pn in probes], pols)

    checks: list[dict] = []
    series: list = []

    def add(name, estimate, se, target, band, passed):
        checks.append({"name": name, "estimate": float(estimate),
                       "se": float(se), "target": float(target),
                       "band": float(band), "passed": bool(passed)})

    reports = {pn: run_batch(stats, pn) for pn in probes}
    reports2 = {pn: run_batch(stats2, 2 * pn) for pn in probes}
    b, b2 = reports[probes[0]], reports2[probes[0]]

    # realized cost against the analytic value
    value = b.analytic_value
    band = 3.0 * b.cost_se + 3.0 * abs(b.cost_mean - b2.cost_mean) \
        + _band_floor(value)
    add("cost_vs_value", b.cost_mean, b.cost_se, value, band,
        abs(b.cost_mean - value) <= band)
    series.append(("cost_mean", grid.T, b.cost_mean))
    series.append(("analytic_value", grid.T, value))

    # error covariance and orthogonality at every probe node
    for pn in probes:
        r, r2 = reports[pn], reports2[pn]
        diff = np.abs(r.emp_error_cov - r.Sigma_at_node)
        bands = (3.0 * r.emp_error_cov_se
                 + 3.0 * np.abs(r.emp_error_cov - r2.emp_error_cov)
                 + _band_floor(float(np.linalg.norm(r.Sigma_at_node))))
        worst = int(np.argmax(diff - bands))
        add(f"error_cov_node{pn}", diff.flat[worst],
            r.emp_error_cov_se.flat[worst], 0.0, bands.flat[worst],
            bool((diff <= bands).all()))
        add(f"orthogonality_node{pn}", abs(r.orth_stat), r.orth_se, 0.0,
            3.0 * r.orth_se + _band_floor(0.0),
            abs(r.orth_stat) <= 3.0 * r.orth_se + _band_floor(0.0))
        t_pn = float(grid.nodes[pn])
        for i in range(model.dims.n):
            series.append((f"emp_error_cov[{i},{i}]", t_pn,
                           float(r.emp_error_cov[i, i])))

    # innovation increments: mean, quadratic variation, Brownianity
    h = grid.h
    se_inc = np.sqrt(h / (n_paths * grid.steps))
    est = float(np.max(np.abs(b.innovation_increment_mean)))
    band = 3.0 * se_inc + _band_floor(0.0)
    add("innovation_increment_mean", est, se_inc, 0.0, band, est <= band)

    se_qv = np.sqrt(2.0 / (n_paths * grid.steps * model.dims.d))
    band = 3.0 * se_qv + _band_floor(1.0)
    add("innovation_qv_ratio", b.innovation_qv_ratio, se_qv, 1.0, band,
        abs(b.innovation_qv_ratio - 1.0) <= band)

    br = brownianity_report(stats)
    tdiff = np.abs(br.terminal_var - grid.T)
    tband = 3.0 * br.terminal_var_se + _band_floor(grid.T)
    worst = int(np.argmax(tdiff - tband))
    add("brownianity_terminal_var", br.terminal_var[worst],
        br.terminal_var_se[worst], grid.T, tband[worst],
        bool((tdiff <= tband).all()))
    est = float(np.max(np.abs(br.lag1_autocorr)))
    band = br.lag1_band + _band_floor(0.0)
    add("brownianity_lag1", est, br.lag1_band / 3.0, 0.0, band, est <= band)

    # cost decomposition
    dr = decomposition_check(stats)
    dr2 = decomposition_check(stats2)
    band = 3.0 * dr.cross_se + _band_floor(0.0)
    add("decomposition_cross", abs(dr.cross_mean), dr.cross_se, 0.0, band,
        abs(dr.cross_mean) <= band)
    band = (3.0 * dr.tildeJ_se + 3.0 * abs(dr.tildeJ_mean - dr2.tildeJ_mean)
            + _band_floor(dr.tildeJ_analytic))
    add("decomposition_tildeJ", dr.tildeJ_mean, dr.tildeJ_se,
        dr.tildeJ_analytic, band,
        abs(dr.tildeJ_mean - dr.tildeJ_analytic) <= band)

    # policy comparison under common random numbers
    comp = compare_policies(stats)
    comp2 = compare_policies(stats2)
    for row in comp.rows:
        series.append((f"cost_mean[{row.label}]", grid.T, row.cost_mean))
        if row.excess_mean is None:
            continue
        margin = row.excess_mean + 2.0 * row.excess_se + _band_floor(0.0)
        add(f"not_beaten_by_{row.label}", row.excess_mean, row.excess_se,
            0.0, 2.0 * row.excess_se + _band_floor(0.0), margin >= 0.0)

    # perturbation penalty against its closed form
    pred = float(np.trapezoid(np.einsum("a,tab,b->t", eps, sol.table.R[::2], eps),
                              grid.nodes))
    row = comp.row("perturbed_feedback")
    row2 = comp2.row("perturbed_feedback")
    # 2x the step-halving gap estimates the Euler bias exactly when the
    # bias is linear in h, so pad it by half again for the remainder
    band = (3.0 * row.excess_se
            + 3.0 * abs(row.excess_mean - row2.excess_mean)
            + _band_floor(pred))
    add("perturbed_excess_vs_prediction", row.excess_mean, row.excess_se,
        pred, band, abs(row.excess_mean - pred) <= band)

    return checks, series


def cmd_verify(args) -> int:
    sc, grid, seed, n_paths = _load_scenario(args)
    sigma_scale = getattr(args, "debug_scale_sigma", None) or 1.0
    checks, series = _run_checks(sc, grid, seed, n_paths, sigma_scale)
    out = args.out
    os.makedirs(out, exist_ok=True)
    passed = all(c["passed"] for c in checks)
    doc = {"format_version": FORMAT_VERSION, "kind": "verify_report",
           "meta": _meta(),
           "params": {"n_paths": n_paths, "seed": seed, "steps": grid.steps,
                      "sigma_scale": sigma_scale},
           "checks": checks, "passed": passed}
    if "json" in sc.formats:
        _write_json(os.path.join(out, "report.json"), doc)
    if "csv" in sc.formats:
        with open(os.path.join(out, "checks.csv"), "w") as f:
            f.write("name,estimate,se,target,band,passed\n")
            for c in checks:
                f.write(f"{c['name']},{c['estimate']:.17g},{c['se']:.17g},"
                        f"{c['target']:.17g},{c['band']:.17g},{c['passed']}\n")
        _write_series_csv(os.path.join(out, "series.csv"), series)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status:4s}  {c['name']:32s} estimate={c['estimate']:.6g} "
              f"target={c['target']:.6g} band={c['band']:.6g}")
    print("verify:", "pass" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polqg",
        description="Partially observed linear-quadratic control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths_flag=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help=f"noise seed (overrides {ENV_SEED} and the scenario)")
        p.add_argument("--steps", type=int, default=None,
                       help="override the working grid resolution")
        if paths_flag:
            p.add_argument("--paths", type=int, default=None,
                           help="override the number of Monte Carlo paths")

    p = sub.add_parser("validate", help="check scenario and model assumptions")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the deterministic system and value")
    common(p, paths_flag=False)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate closed-loop paths to CSV")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run Monte Carlo checks against theory")
    common(p)
    p.add_argument("--debug-scale-sigma", type=float, default=None,
                   help="scale Sigma before checking (must make verify fail)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioSyntaxError, UnknownField) as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationFailure as e:
        print(e.report.summary(), file=sys.stderr)
        print(f"validation failed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ShapeMismatch, EmptyGrid, OutOfRange, InsufficientPaths, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonFinite, PSDViolation, SingularMatrix) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
