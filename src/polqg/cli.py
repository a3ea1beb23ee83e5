"""Command line front end: validate, solve, simulate, verify.

Scenario files are strict JSON; unknown fields are rejected so typos
cannot silently change a run.  _read_json decodes each array of arrays in
a scenario by itself and turns it into a numpy array at once, so a
table-form scenario never holds all its numbers as Python floats: parsing
a 4001-node n=3 table peaks at about twice its model's arrays, where
json.loads peaked at eleven times.  Result documents are compact JSON
whose only timestamp is meta.generated_at; per-path CSV files carry no
timestamps at all and rerunning a simulation writes byte-identical files.

`solve` shares out its file writers, `simulate` its paths (a share
simulates its paths and writes their files) and `verify` the paths of its
one Monte Carlo pass, one share per CPU this process may run on, through
the one fork helper verify._run_in_shares, which reruns the work here if
any share fails.  Each file depends on its own writer alone and each verify
statistic is reduced from complete per-path arrays, so every output is
byte-identical for any number of workers.

Exit codes: 0 success, 2 validation problem (scenario or model), 3
numerical blow-up, 4 a verification check failed, 5 I/O problem.

Seed precedence: --seed flag, then the POLQG_SEED environment variable,
then the scenario's mc.seed, then 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .detsolve import DeterministicSolution, solve_all, solve_filter_side
# bench/tracer.py wraps these names here; cli reaches them only through
# solve_filter_side, and solve_pi not at all
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
    _COEFF_SHAPES,
    _COST_SHAPES,
    Dimensions,
    ModelSpec,
    TimeGrid,
    ValidationReport,
    interp_table,  # noqa: F401  bench/tracer.py counts its calls here by name
    validate,
)
from .simulate import (
    _POLICY_KINDS,
    ControlPolicy,
    _bundles,
    _check_policy_table,
    _format_rows_17g,
    bundle_to_csv,
)
from .value import ValueBreakdown, optimal_value
from .verify import (
    _run_in_shares,
    _simulate_chunks,
    brownianity_report,
    compare_policies,
    decomposition_check,
    default_probe_nodes,
    discrete_moments,
    run_batch,
    simulate_statistics,
)
from .verify import iter_path_bundles  # noqa: F401  bench/tracer.py wraps it here by name

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
    """Parsed scenario: a validated model, its validation report and run
    parameters."""

    model: ModelSpec
    policy: ControlPolicy
    n_paths: int
    seed: int
    probe_times: tuple[float, ...] | None
    out_dir: str | None
    formats: tuple[str, ...]
    report: ValidationReport


# ---------------------------------------------------------------------------
# scenario schema

def _expect(obj, where, allowed, required=()):
    if not isinstance(obj, dict):
        raise ScenarioSyntaxError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UnknownField(f"{where}: unknown field(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioSyntaxError(f"{where}: missing required field(s) {missing}")


def _plain(value):
    """A scenario value as json.loads gives it, for messages and
    comparisons: each array from _read_json back as its lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _number(value, where: str, integer: bool = False):
    """A scalar field as a float, or as an int when `integer`.  Null,
    strings, lists, booleans, NaN, infinities and, for an integer, a
    fractional part are scenario errors, never coerced."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integer)
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ScenarioSyntaxError(f"{where}: expected {kind}, got {_plain(value)!r}")
    return int(value) if integer else float(value)


def _list(value, where: str) -> list:
    value = _plain(value)
    if not isinstance(value, list):
        raise ScenarioSyntaxError(f"{where}: expected a list, got {value!r}")
    return value


def _numeric(value) -> np.ndarray | None:
    """np.asarray(value) if value is a regular array of integers or floats,
    else None.  numpy reads true and false beside numbers as 1 and 0, so
    the callers rule booleans out themselves."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        return None
    return arr if arr.dtype.kind in "if" else None


def _array(value, where: str) -> np.ndarray:
    """A model array as floats.  Only integers and floats are read: null,
    strings, booleans and ragged lists are scenario errors, never coerced;
    NaN and infinities pass, for validate to report with their node.  The
    reader hands over each array of arrays that keeps these rules as a
    numpy array already; flat lists and the rest are checked here."""
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False)
    arr = _numeric(value)
    if arr is not None:
        unit = (arr == 0) | (arr == 1)
        if unit.any() and any(isinstance(v, bool)
                              for v in np.asarray(value, dtype=object)[unit]):
            arr = None
    if arr is None:
        raise ScenarioSyntaxError(
            f"{where}: expected an array of numbers, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False)


def _numbers(value, where: str) -> np.ndarray:
    """_array with every entry finite: validate never sees a policy table."""
    arr = _array(value, where)
    if not np.isfinite(arr).all():
        raise ScenarioSyntaxError(
            f"{where}: expected finite numbers, got {reprlib.repr(_plain(value))}")
    return arr


def _policy_from_spec(spec, grid: TimeGrid, m: int) -> ControlPolicy:
    """The scenario's policy, its table checked against the scenario's own
    grid; the kernel checks it again, as --steps may change the grid."""
    _expect(spec, "policy", allowed=("kind", "table", "offset", "label"),
            required=("kind",))
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _POLICY_KINDS:
        raise ScenarioSyntaxError(f"policy: unknown kind {_plain(kind)!r}")
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ScenarioSyntaxError(f"policy.label: expected a string, got {_plain(label)!r}")
    field = _POLICY_KINDS[kind]
    for name in ("table", "offset"):
        if name != field and name in spec:
            raise ScenarioSyntaxError(f"policy.{name}: expected none for kind {kind!r}")
    if field is not None and field not in spec:
        raise ScenarioSyntaxError(f"policy: kind {kind!r} needs policy.{field}")
    table = None if field is None else _numbers(spec[field], f"policy.{field}")
    policy = ControlPolicy(kind, table, label)
    try:
        _check_policy_table(policy, grid, m, f"policy.{field}")
    except ShapeMismatch as e:
        raise ScenarioSyntaxError(str(e)) from None
    return policy


def _per_node_fields(spec, where, nnodes, shapes) -> dict[str, np.ndarray]:
    """The per-node fields of the coefficients or cost section, given as
    exactly one of 'constant' (one value, tiled to every node) or 'table'
    (one value per node)."""
    if ("constant" in spec) == ("table" in spec):
        raise ScenarioSyntaxError(f"{where}: give exactly one of 'constant' or 'table'")
    form = "constant" if "constant" in spec else "table"
    _expect(spec[form], f"{where}.{form}", allowed=shapes, required=shapes)
    fields = {name: _array(v, f"{where}.{form}.{name}") for name, v in spec[form].items()}
    if form == "constant":
        fields = {name: np.repeat(v[None], nnodes, axis=0) for name, v in fields.items()}
    return fields


def _read_json(text: str):
    """json.loads(text), except that each array of arrays that keeps
    _array's rules comes back as its numpy array: int64 when all its
    numbers are integers, float64 when none is (a mix stays a list), so
    _plain gives back exactly the JSON value.  Objects go through the
    pure-Python scanner, which hands each outermost array to the C scanner
    by itself, so one table's lists are gone before the next is read.
    Errors are json.loads's, with the same message and position."""
    saw_int = False

    def parse_int(digits):
        nonlocal saw_int
        saw_int = True
        return int(digits)

    scan_array = json.JSONDecoder(parse_int=parse_int).scan_once

    def parse_array(s_and_end, scan_once):
        nonlocal saw_int
        s, start = s_and_end
        saw_int = False
        value, end = scan_array(s, start - 1)
        if value and isinstance(value[0], list):
            arr = _numeric(value)
            # a number array holds no string, so true or false in its text is a boolean
            if (arr is not None and (arr.dtype.kind == "i" or not saw_int)
                    and s.find("true", start, end) < 0 and s.find("false", start, end) < 0):
                return arr, end
        return value, end

    decoder = json.JSONDecoder()
    decoder.parse_array = parse_array
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    # through json.loads, which also refuses a byte order mark
    return json.loads(text, cls=lambda: decoder)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ScenarioSyntaxError for malformed JSON or missing fields,
    UnknownField for anything outside the schema, and ValidationFailure
    (with the full report attached) if the model violates an assumption.
    """
    try:
        doc = _read_json(text)
    except json.JSONDecodeError as e:
        raise ScenarioSyntaxError(e.msg, e.lineno, e.colno) from None
    except RecursionError:
        raise ScenarioSyntaxError("JSON nested too deeply") from None

    _expect(doc, "scenario",
            allowed=("format_version", "dims", "T", "steps", "x0",
                     "coefficients", "cost", "delta", "tolerances",
                     "policy", "mc", "output"),
            required=("dims", "T", "steps", "x0", "coefficients", "cost"))
    version = _plain(doc.get("format_version", FORMAT_VERSION))
    if version != FORMAT_VERSION:
        raise ScenarioSyntaxError(f"unsupported format_version {version!r}")

    _expect(doc["dims"], "dims", allowed=("n", "m", "d", "k"),
            required=("n", "m", "d", "k"))
    dims = Dimensions(**{k: _number(v, f"dims.{k}", integer=True)
                         for k, v in doc["dims"].items()})
    grid = TimeGrid(_number(doc["T"], "T"), _number(doc["steps"], "steps", integer=True))
    x0 = _array(doc["x0"], "x0")

    cspec, wspec = doc["coefficients"], doc["cost"]
    _expect(cspec, "coefficients", allowed=("constant", "table"))
    coeffs = _per_node_fields(cspec, "coefficients", grid.steps + 1, _COEFF_SHAPES)
    _expect(wspec, "cost", allowed=("G", "g", "constant", "table"),
            required=("G", "g"))
    cost = _per_node_fields(wspec, "cost", grid.steps + 1, _COST_SHAPES)

    tols = {"delta": _number(doc["delta"], "delta")} if "delta" in doc else {}
    if "tolerances" in doc:
        _expect(doc["tolerances"], "tolerances",
                allowed=("psd_tol", "sym_tol", "k_cond_bound"))
        tols.update({name: _number(v, f"tolerances.{name}")
                     for name, v in doc["tolerances"].items()})

    try:
        model = ModelSpec(dims, grid, x0, **coeffs, **cost,
                          G=_array(wspec["G"], "cost.G"), g=_array(wspec["g"], "cost.g"),
                          **tols)
    except ValueError as e:  # ModelSpec names the tolerance it bounds before a colon
        if str(e).partition(":")[0] not in doc.get("tolerances", {}):
            raise
        raise ScenarioSyntaxError(f"tolerances.{e}") from None
    report = validate(model)
    if not report.passed:
        raise ValidationFailure(report)

    policy = ControlPolicy("filter_feedback")
    if "policy" in doc:
        policy = _policy_from_spec(doc["policy"], grid, dims.m)

    n_paths, seed, probe_times = 2000, 0, None
    if "mc" in doc:
        _expect(doc["mc"], "mc", allowed=("n_paths", "seed", "probe_times"))
        n_paths = _number(doc["mc"].get("n_paths", n_paths), "mc.n_paths", integer=True)
        if n_paths < 0:
            raise ScenarioSyntaxError(
                f"mc.n_paths: expected a non-negative integer, got {n_paths}")
        seed = _number(doc["mc"].get("seed", seed), "mc.seed", integer=True)
        if "probe_times" in doc["mc"]:
            probe_times = tuple(_number(t, "mc.probe_times")
                                for t in _list(doc["mc"]["probe_times"], "mc.probe_times"))
            for t in probe_times:
                if t < 0 or t > grid.T:
                    raise OutOfRange(f"probe time {t} outside [0, {grid.T}]")

    out_dir, formats = None, ("json", "csv")
    if "output" in doc:
        _expect(doc["output"], "output", allowed=("directory", "formats"))
        out_dir = doc["output"].get("directory")
        if "directory" in doc["output"] and not isinstance(out_dir, str):
            raise ScenarioSyntaxError(
                f"output.directory: expected a string, got {_plain(out_dir)!r}")
        if "formats" in doc["output"]:
            formats = tuple(_list(doc["output"]["formats"], "output.formats"))
            for f in formats:
                if f not in ("json", "csv"):
                    raise ScenarioSyntaxError(f"output: unknown format {f!r}")

    return Scenario(model=model, policy=policy, n_paths=n_paths,
                    seed=seed, probe_times=probe_times, out_dir=out_dir,
                    formats=formats, report=report)


# ---------------------------------------------------------------------------
# documents

def _meta() -> dict:
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _value_document(vb: ValueBreakdown) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "value",
            "meta": _meta(), "breakdown": asdict(vb)}


def _series_rows(sol: DeterministicSolution):
    """Long-format rows for the main solution paths, as one block per
    matrix (see _write_series_csv), entries in row-major order."""
    ts = sol.grid.nodes
    blocks = []
    for name, vals in (("P", sol.P), ("Sigma", sol.Sigma), ("Theta", sol.Theta)):
        p, q = vals.shape[1], vals.shape[2]
        names = [f"{name}[{r},{c}]" for r in range(p) for c in range(q)]
        blocks.append((names, ts, vals.reshape(len(ts), p * q)))
    return blocks


# nodes per formatting block of solution.json and series.csv
_NODE_BLOCK = 256


def _series_batches(blocks):
    """The (names, t, values) blocks cut and merged into batches of at
    most _NODE_BLOCK times, each a list of (names, t, values) pieces."""
    batch, room = [], _NODE_BLOCK
    for names, t, values in blocks:
        t, values = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
        a = 0
        while a < len(t):
            b = min(len(t), a + room)
            batch.append((names, t[a:b], values[a:b]))
            room -= b - a
            a = b
            if not room:
                yield batch
                batch, room = [], _NODE_BLOCK
    if batch:
        yield batch


def _write_series_csv(path: str, blocks):
    """Write (names, t, values) blocks as series,t,value rows: for each
    time t[i], one row per name k with the value values[i, k].

    The numbers are written by simulate._format_rows_17g, the same bytes
    as %.17g, which leaves to '%.17g' % x only the cells whose digits it
    cannot prove (NaN, infinities, subnormals, |x| outside (1e-290,
    1e290), near-ties).  The blocks are cut and merged into batches of at
    most _NODE_BLOCK times (_series_batches), and each batch is one call
    on its times, each formatted once, followed by its values.  So solve's
    temporaries stay a batch long, and verify's one-row blocks all go in
    one call."""
    with open(path, "w") as f:
        f.write("series,t,value\n")
        for batch in _series_batches(blocks):
            nt = sum(len(t) for _, t, _ in batch)
            cells = _format_rows_17g(np.concatenate(
                [t for _, t, _ in batch] + [v.ravel() for _, _, v in batch])[:, None]
            ).split("\n")
            times = iter(cells[:nt])
            args = [None] * (2 * (len(cells) - 1 - nt))
            args[0::2] = [tc for names, t, v in batch
                          for tc in itertools.islice(times, len(t)) for nm in names]
            args[1::2] = cells[nt:-1]
            row = "".join("".join(f"{nm},%s,%s\n" for nm in names) * len(t)
                          for names, t, _ in batch)
            f.write(row % tuple(args))


# the per-node paths of solution.json, in the order of its node keys
_SOLUTION_PATHS = ("P", "Theta", "phi", "Sigma", "Delta", "curlyA", "Pi")


def _check_solution_finite(sol: DeterministicSolution):
    """NonFinite naming the first path, and its first node, that holds a
    NaN or infinity: %r would write those as nan and inf, which are not
    JSON, and no file of a blown-up solution should be written at all."""
    for name in _SOLUTION_PATHS:
        v = getattr(sol, name)
        bad = ~np.isfinite(v.reshape(len(v), -1)).all(axis=1)
        if bad.any():
            raise NonFinite(f"solution.{name}", int(bad.argmax()))


def _json_template(shape: tuple[int, ...]) -> str:
    """json.dumps of a nested list of this shape, with %r for each float."""
    if not shape:
        return "%r"
    return "[" + ", ".join([_json_template(shape[1:])] * shape[0]) + "]"


def _write_solution_json(path: str, sol: DeterministicSolution):
    """Write the solution document, byte for byte what json.dumps writes
    for it: a head, then one object per node with its index, t and every
    path of _SOLUTION_PATHS.  Each block of _NODE_BLOCK nodes is one node
    template repeated and applied with % to a float block (index, t, each
    path flattened); for a finite float %r is what json's encoder writes,
    so every path must be finite (_check_solution_finite)."""
    ts = sol.grid.nodes
    paths = [getattr(sol, name) for name in _SOLUTION_PATHS]
    node = "{" + ", ".join(['"index": %d', '"t": %r'] + [
        f"{json.dumps(name)}: {_json_template(v.shape[1:])}"
        for name, v in zip(_SOLUTION_PATHS, paths)]) + "}"
    columns = [np.arange(len(ts)), ts] + [v.reshape(len(ts), -1) for v in paths]
    head = {"format_version": FORMAT_VERSION, "kind": "solution", "meta": _meta(),
            "grid": {"T": sol.grid.T, "steps": sol.grid.steps}}
    with open(path, "w") as f:
        f.write(json.dumps(head)[:-1] + ', "nodes": [')
        for a in range(0, len(ts), _NODE_BLOCK):
            block = np.column_stack([c[a:a + _NODE_BLOCK] for c in columns])
            f.write((", " if a else "") + ", ".join([node] * len(block))
                    % tuple(block.ravel().tolist()))
        f.write("]}\n")


def _write_json(path: str, doc: dict):
    """Write json.dumps(doc), which runs the C encoder (json.dump and
    indent do not), for the few-KB value and verify report documents."""
    with open(path, "w") as f:
        f.write(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# commands

def _resolve_seed(args, sc: Scenario) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED}: expected an integer, got {env!r}") from None
    return sc.seed


def _output_dir(args, sc: Scenario) -> str:
    """--out, else the scenario's output.directory, else the working
    directory; created if missing."""
    out = args.out or sc.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_scenario(args) -> tuple[Scenario, TimeGrid, int, int]:
    with open(args.scenario) as f:
        text = f.read()
    sc = parse_scenario(text)
    grid = sc.model.grid
    if getattr(args, "steps", None) is not None:
        grid = TimeGrid(grid.T, args.steps)
    n_paths = getattr(args, "paths", None)
    if n_paths is None:
        n_paths = sc.n_paths
    elif n_paths < 0:
        raise OutOfRange(f"--paths: expected a non-negative integer, got {n_paths}")
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
        report = parse_scenario(text).report
    except ValidationFailure as e:
        report = e.report
    print(report.summary())
    print("validation:", "pass" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_solve(args) -> int:
    sc, grid, _, _ = _load_scenario(args)
    sol = solve_all(sc.model, grid)
    _check_solution_finite(sol)
    vb = optimal_value(sc.model, sol)
    print(f"total optimal value: {vb.total:.17g}")
    out = _output_dir(args, sc)
    files = [("json", "solution.json", _write_solution_json, sol),
             ("csv", "series.csv", _write_series_csv, _series_rows(sol)),
             ("json", "value.json", _write_json, _value_document(vb))]
    writers = [functools.partial(write, os.path.join(out, name), data)
               for form, name, write, data in files if form in sc.formats]

    def write_share(a: int, b: int):
        for w in writers[a:b]:
            w()

    _run_in_shares(len(writers), write_share)
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc, grid, seed, n_paths = _load_scenario(args)
    sol = solve_all(sc.model, grid)
    out = _output_dir(args, sc)

    def write_share(a: int, b: int):
        for j0, _, _, arrs in _simulate_chunks(sc.model, sol, (sc.policy,), a, b,
                                               seed):
            for j, bundle in enumerate(_bundles(sol, arrs), j0):
                with open(os.path.join(out, f"path_{j:05d}.csv"), "w") as f:
                    bundle_to_csv(bundle, f)

    _run_in_shares(n_paths, write_share)
    print(f"wrote {n_paths} path file(s) to {out}")
    return EXIT_OK


def _scaled_sigma_solution(sol, scale) -> DeterministicSolution:
    """Rebuild the paths that depend on Sigma, the filter gain included,
    from a scaled Sigma (debug aid: the result is deliberately inconsistent
    and verification should fail)."""
    return replace(sol, **solve_filter_side(sol.Sigma * scale, sol.table))


def _band_floor(target: float) -> float:
    # keeps zero-variance degenerate scenarios from tripping on roundoff
    return 1e-9 * (1.0 + abs(target))


def _run_checks(sc: Scenario, grid: TimeGrid, seed: int, n_paths: int,
                sigma_scale: float = 1.0) -> tuple[list[dict], list]:
    """All verification checks; returns (check rows, extra series rows).

    One simulate_statistics pass feeds every estimate, and each statistic
    is read from the one report that reduces it (see polqg.verify).  Every
    estimate that carries an Euler bias has its band widened by the gap
    between the exact expectations of the simulated chain on this grid and
    on the grid with twice the steps (verify.discrete_moments; see check).
    The lag-1 autocorrelation needs two steps, so one step is refused
    before any pass."""
    if grid.steps < 2:
        raise ValueError(f"need at least 2 steps, got {grid.steps}")
    model = sc.model
    sol = solve_all(model, grid)
    sol2 = solve_all(model, TimeGrid(grid.T, 2 * grid.steps))
    if sigma_scale != 1.0:
        sol = _scaled_sigma_solution(sol, sigma_scale)
        sol2 = _scaled_sigma_solution(sol2, sigma_scale)
    probes = _probe_indices(sc, grid)
    eps = np.full(model.dims.m, 0.5)
    perturbed = ControlPolicy("perturbed_feedback", eps)
    stats = simulate_statistics(model, sol, n_paths, seed, probes,
                                [ControlPolicy("zero"), perturbed])
    # exact expectations under filter feedback (offset 0) and the perturbation
    exact, exact2 = (discrete_moments(model, s, (0.0, eps)) for s in (sol, sol2))

    checks: list[dict] = []
    series: list = []

    def check(name, estimate, se, target=0.0, halving_gap=0.0, scale=None,
              one_sided=False):
        """Add the row |estimate - target| <= band = 3 se + 3 halving_gap +
        _band_floor(scale, else target) on every element, showing the one
        furthest outside.  The halving gap is |E_N - E_2N| of the
        statistic's exact expectation over the simulated chain; 2x it is
        the Euler bias when that is linear in h, padded by half again for
        the remainder.  One-sided (an excess cost): estimate >= -band, 2 se."""
        band = ((2.0 if one_sided else 3.0) * se + 3.0 * halving_gap
                + _band_floor(target if scale is None else scale))
        est, se, target, band = np.broadcast_arrays(estimate, se, target, band)
        miss = -est if one_sided else np.abs(est - target)
        worst = np.argmax(miss - band)
        shown = zip(("estimate", "se", "target", "band"), (est, se, target, band))
        checks.append({"name": name, **{k: float(a.flat[worst]) for k, a in shown},
                       "passed": bool((miss <= band).all())})

    comp = compare_policies(stats)

    # realized cost against the analytic value
    fb = comp.row("filter_feedback")
    check("cost_vs_value", fb.cost_mean, fb.cost_se, stats.analytic_value,
          abs(exact.costs[0] - exact2.costs[0]))
    series.append(("cost_mean", grid.T, fb.cost_mean))
    series.append(("analytic_value", grid.T, stats.analytic_value))

    # error covariance and orthogonality at every probe node
    for pn in probes:
        r = run_batch(stats, pn)
        Sigma = sol.Sigma[pn]
        check(f"error_cov_node{pn}", np.abs(r.emp_error_cov - Sigma),
              r.emp_error_cov_se, 0.0,
              np.abs(exact.error_cov[pn] - exact2.error_cov[2 * pn]),
              scale=np.linalg.norm(Sigma))
        check(f"orthogonality_node{pn}", abs(r.orth_stat), r.orth_se)
        t_pn = float(grid.nodes[pn])
        for i in range(model.dims.n):
            series.append((f"emp_error_cov[{i},{i}]", t_pn,
                           float(r.emp_error_cov[i, i])))

    # innovation increments: mean, quadratic variation, Brownianity
    br = brownianity_report(stats)
    nobs = n_paths * grid.steps
    check("innovation_increment_mean", np.abs(br.increment_mean), np.sqrt(grid.h / nobs))
    check("innovation_qv_ratio", br.qv_ratio, np.sqrt(2.0 / (nobs * model.dims.d)), 1.0)
    check("brownianity_terminal_var", br.terminal_var, br.terminal_var_se, grid.T)
    check("brownianity_lag1", np.abs(br.lag1_autocorr), br.lag1_band / 3.0)

    # cost decomposition
    dr = decomposition_check(stats)
    check("decomposition_cross", abs(dr.cross_mean), dr.cross_se)
    check("decomposition_tildeJ", dr.tildeJ_mean, dr.tildeJ_se,
          stats.tildeJ_analytic, abs(exact.tildeJ - exact2.tildeJ))

    # policy comparison under common random numbers
    for row in comp.rows:
        series.append((f"cost_mean[{row.label}]", grid.T, row.cost_mean))
        if row.excess_mean is not None:
            check(f"not_beaten_by_{row.label}", row.excess_mean,
                  row.excess_se, one_sided=True)

    # perturbation penalty against its closed form
    pred = float(np.trapezoid(np.einsum("a,tab,b->t", eps, sol.table.R[::2], eps),
                              grid.nodes))
    row = comp.row("perturbed_feedback")
    excess, excess2 = (e.costs[1] - e.costs[0] for e in (exact, exact2))
    check("perturbed_excess_vs_prediction", row.excess_mean, row.excess_se,
          pred, abs(excess - excess2))

    return checks, series


def _write_checks_csv(path: str, checks: list[dict]):
    """Write one row per check, its numbers with %.17g.  The rows are few
    and mix text with numbers, so they stay on f-strings rather than
    simulate._format_rows_17g."""
    with open(path, "w") as f:
        f.write("name,estimate,se,target,band,passed\n")
        for c in checks:
            f.write(f"{c['name']},{c['estimate']:.17g},{c['se']:.17g},"
                    f"{c['target']:.17g},{c['band']:.17g},{c['passed']}\n")


def cmd_verify(args) -> int:
    sc, grid, seed, n_paths = _load_scenario(args)
    sigma_scale = getattr(args, "debug_scale_sigma", 1.0)
    checks, series = _run_checks(sc, grid, seed, n_paths, sigma_scale)
    out = _output_dir(args, sc)
    passed = all(c["passed"] for c in checks)
    doc = {"format_version": FORMAT_VERSION, "kind": "verify_report",
           "meta": _meta(),
           "params": {"n_paths": n_paths, "seed": seed, "steps": grid.steps,
                      "sigma_scale": sigma_scale},
           "checks": checks, "passed": passed}
    if "json" in sc.formats:
        _write_json(os.path.join(out, "report.json"), doc)
    if "csv" in sc.formats:
        _write_checks_csv(os.path.join(out, "checks.csv"), checks)
        _write_series_csv(os.path.join(out, "series.csv"),
                          [([name], [t], [[v]]) for name, t, v in series])
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
        p.add_argument("--out", default=None,
                       help="output directory (default: the scenario's "
                            "output.directory, else .)")
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
    p.add_argument("--debug-scale-sigma", type=float, default=1.0,
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
