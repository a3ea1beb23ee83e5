import copy
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    NodeTable,
    ScenarioSyntaxError,
    TimeGrid,
    ValidationFailure,
    compute_gain,
    default_probe_nodes,
    optimal_value,
    simulate_statistics,
    solve_all,
)
from polqg import cli, verify
from polqg.cli import (
    _run_checks,
    _scaled_sigma_solution,
    _series_rows,
    _write_series_csv,
    main,
    parse_scenario,
)

from oracles import TOTAL, discrete_moments_reference, random_validated_model, traced_peak


def bench_doc(**over):
    doc = {
        "format_version": 1,
        "dims": {"n": 1, "m": 1, "d": 1, "k": 1},
        "T": 1.0,
        "steps": 100,
        "x0": [1.0],
        "coefficients": {"constant": {
            "A": [[0.0]], "B": [[1.0]], "a": [0.0], "C": [[0.0]],
            "D": [[1.0]], "H": [[1.0]], "h": [0.0], "K": [[1.0]]}},
        "cost": {"G": [[0.0]], "g": [0.0], "constant": {
            "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], "q": [0.0],
            "r": [0.0]}},
        "mc": {"n_paths": 40, "seed": 7},
    }
    doc.update(copy.deepcopy(over))
    return doc


COEFF_NAMES = ("A", "B", "a", "C", "D", "H", "h", "K")
COST_NAMES = ("Q", "S", "R", "q", "r")


def model_doc(model, grid, form="table"):
    """Scenario document of a model tabulated on the scenario grid: every
    per-node field as a table, or as its node-0 value when form="constant"."""
    def section(names):
        return {form: {f: (getattr(model, f) if form == "table"
                           else getattr(model, f)[0]).tolist() for f in names}}
    return {
        "format_version": 1,
        "dims": asdict(model.dims),
        "T": grid.T,
        "steps": grid.steps,
        "x0": model.x0.tolist(),
        "coefficients": section(COEFF_NAMES),
        "cost": {"G": model.G.tolist(), "g": model.g.tolist(), **section(COST_NAMES)},
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ------------------------------------------------------------------ validate

def test_validate_pass(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    assert main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "validation: pass" in out
    assert "A2_K_invertible" in out


def test_validate_singular_K_exits_2(tmp_path, capsys):
    doc = bench_doc()
    doc["coefficients"]["constant"]["K"] = [[0.0]]
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out
    assert "A2_K_invertible" in out
    assert "FAIL" in out


def test_validate_nonfinite_K_exits_2(tmp_path, capsys):
    doc = bench_doc()
    doc["coefficients"]["constant"]["K"] = [[float("nan")]]
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  A1_coefficients_finite" in out
    assert "FAIL  A2_K_invertible" in out
    assert "validation: FAIL" in out


@pytest.mark.parametrize("field", ["G", "Q", "R", "S"])
def test_validate_nonfinite_cost_matrix_exits_2(tmp_path, capsys, field):
    # n=3, m=2: the eigenvalues of a NaN matrix this size do not converge,
    # so the PSD checks must fail the node instead of raising
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=True)
    doc = model_doc(model, grid)
    # G has no node axis; every check a NaN fails reports margin -inf
    if field == "G":
        doc["cost"]["G"][0][1] = float("nan")
        failed = {"A3_cost_finite": None, "A3_G_symmetric": None,
                  "A3_G_psd": None}
    else:
        doc["cost"]["table"][field][5][0][0] = float("nan")
        failed = {"A3_cost_finite": 5, "A3_QSRS_psd": 5}
        if field in ("Q", "R"):
            failed[f"A3_{field}_symmetric"] = 5
    with pytest.raises(ValidationFailure) as err:
        parse_scenario(json.dumps(doc))
    report = err.value.report
    for name, node in failed.items():
        bad = report.check(name)
        assert not bad.passed and bad.worst_node == node, name
        assert bad.margin == float("-inf"), name
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  A3_cost_finite" in out
    assert "validation: FAIL" in out
    assert "nan" not in out


def test_validate_asymmetric_G_exits_2(tmp_path, capsys):
    doc = bench_doc()
    doc["dims"] = {"n": 2, "m": 1, "d": 1, "k": 1}
    doc["x0"] = [1.0, 0.0]
    doc["coefficients"]["constant"].update(
        A=[[0.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]], a=[0.0, 0.0],
        C=[[0.0], [0.0]], D=[[1.0], [0.0]], H=[[1.0, 0.0]])
    doc["cost"]["G"] = [[1.0, 0.5], [0.0, 1.0]]
    doc["cost"]["g"] = [0.0, 0.0]
    doc["cost"]["constant"].update(Q=[[1.0, 0.0], [0.0, 1.0]],
                                   S=[[0.0, 0.0]], q=[0.0, 0.0])
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert "A3_G_symmetric" in capsys.readouterr().out


def test_unknown_field_exits_2(tmp_path, capsys):
    doc = bench_doc()
    doc["fooo"] = 1
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert "fooo" in capsys.readouterr().err


def test_unknown_nested_field_exits_2(tmp_path, capsys):
    doc = bench_doc()
    doc["mc"]["walkers"] = 5
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert "walkers" in capsys.readouterr().err


def test_syntax_error_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dims": \n nope}')
    assert main(["validate", "--scenario", str(p)]) == 2
    assert "line" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


def _case_ids(cases, argname):
    """pytest's default ids for (field, value, message) cases: the field,
    then a scalar value itself or else the argument name and the index."""
    return [f"{f}-{v}" if v is None or isinstance(v, (int, float)) else f"{f}-{argname}{i}"
            for i, (f, v, _) in enumerate(cases)]


_BAD_SCALAR_FIELDS = [
    ("T", None, "a finite number, got None"),
    ("steps", [1], "an integer, got [1]"),
    ("steps", 2.5, "an integer, got 2.5"),
    ("dims.n", None, "an integer, got None"),
    ("mc.n_paths", None, "an integer, got None"),
    ("mc.seed", 1.5, "an integer, got 1.5"),
    ("tolerances.psd_tol", None, "a finite number, got None"),
    ("mc.probe_times", [NAN], "a finite number, got nan"),
    ("mc.n_paths", -3, "a non-negative integer, got -3"),
    # an array of arrays where a scalar or a list belongs is quoted as written
    ("T", [[1.0]], "a finite number, got [[1.0]]"),
    ("T", [[1]], "a finite number, got [[1]]"),
    ("steps", [[100]], "an integer, got [[100]]"),
    ("mc.seed", [[1, 2.5]], "an integer, got [[1, 2.5]]"),
    ("dims.n", [[1, True]], "an integer, got [[1, True]]"),
    ("tolerances.psd_tol", [[NAN]], "a finite number, got [[nan]]"),
    ("delta", [[-0.0, INF]], "a finite number, got [[-0.0, inf]]"),
    ("mc.probe_times", [[0.5]], "a finite number, got [0.5]"),
]


@pytest.mark.parametrize("field, value, expected", _BAD_SCALAR_FIELDS,
                         ids=_case_ids(_BAD_SCALAR_FIELDS, "value"))
def test_bad_scalar_field_exits_2_naming_it(tmp_path, capsys, field, value, expected):
    # never a traceback, and never a silently truncated step count or seed
    doc = bench_doc()
    *parents, name = field.split(".")
    section = doc
    for key in parents:
        section = section.setdefault(key, {})
    section[name] = value
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"scenario error: {field}: expected {expected}\n"


_BAD_LIST_FIELDS = [
    ("output.formats", {"output": {"formats": None}}, "a list, got None"),
    ("output.formats", {"output": {"formats": "json"}}, "a list, got 'json'"),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback", "offset": [None]}},
     "an array of numbers, got [None]"),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback", "offset": [INF]}},
     "finite numbers, got [inf]"),
    ("policy.table", {"policy": {"kind": "open_loop", "table": [[0.0]] * 100 + [[NAN]]}},
     "finite numbers, got [[0.0], [0.0], [0.0], [0.0], [0.0], [0.0], ...]"),
    ("policy.table", {"policy": {"kind": "open_loop", "table": [["0.5"]] * 101}},
     "an array of numbers, got [['0.5'], ['0.5'], ['0.5'], ['0.5'], ['0.5'], ['0.5'], ...]"),
    ("output.directory", {"output": {"directory": 5}}, "a string, got 5"),
    # a field the kind does not read is an error, not silently dropped
    ("policy.table", {"policy": {"kind": "zero", "table": [[1.0]]}},
     "none for kind 'zero'"),
    ("policy.offset", {"policy": {"kind": "filter_feedback", "offset": [3.0]}},
     "none for kind 'filter_feedback'"),
    ("policy.table", {"policy": {"kind": "perturbed_feedback", "offset": [0.5],
                                 "table": [[9.0]]}},
     "none for kind 'perturbed_feedback'"),
    # model arrays take numbers only: no string, boolean or null coerced
    ("x0", {"x0": ["1.5"]}, "an array of numbers, got ['1.5']"),
    ("x0", {"x0": [True]}, "an array of numbers, got [True]"),
    ("x0", {"x0": [None]}, "an array of numbers, got [None]"),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [["2"]]}},
     "an array of numbers, got [['2']]"),
    ("coefficients.constant.A", {"coefficients": {"constant": {
        **bench_doc()["coefficients"]["constant"], "A": [[True]]}}},
     "an array of numbers, got [[True]]"),
    ("policy.label", {"policy": {"kind": "open_loop", "table": [[0.0]] * 101,
                                 "label": 5}}, "a string, got 5"),
    # a policy table must fit the scenario's own grid, not only the kernel's
    ("policy.table", {"policy": {"kind": "open_loop", "table": [[0.0]] * 3}},
     "shape (101, 1), got (3, 1)"),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback", "offset": [[0.5]]}},
     "shape (1,) or (101, 1), got (1, 1)"),
    # numpy reads true and false beside numbers as 1 and 0
    ("coefficients.table.B", {"coefficients": {"table": {
        **{k: [v] * 101 for k, v in bench_doc()["coefficients"]["constant"].items()},
        "B": [[[1.0]]] * 100 + [[[True]]]}}},
     "an array of numbers, got [[[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], ...]"),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [[1.0, False]]}},
     "an array of numbers, got [[1.0, False]]"),
    # an array of arrays is quoted as written, integers as integers
    ("policy.table", {"policy": {"kind": "open_loop", "table": [[0]] * 100 + [[INF]]}},
     "finite numbers, got [[0], [0], [0], [0], [0], [0], ...]"),
    ("output.directory", {"output": {"directory": [[5]]}}, "a string, got [[5]]"),
    ("policy.label", {"policy": {"kind": "open_loop", "table": [[0.0]] * 101,
                                 "label": [[1.0]]}}, "a string, got [[1.0]]"),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [[1, 0.5, None]]}},
     "an array of numbers, got [[1, 0.5, None]]"),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [[1], [2, 3]]}},
     "an array of numbers, got [[1], [2, 3]]"),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [[2 ** 64]]}},
     "an array of numbers, got [[18446744073709551616]]"),
]


@pytest.mark.parametrize("field, section, expected", _BAD_LIST_FIELDS,
                         ids=_case_ids(_BAD_LIST_FIELDS, "section"))
def test_bad_list_field_exits_2_naming_it(tmp_path, capsys, field, section, expected):
    # rejected while parsing, before validate passes or simulate blames the kernel
    path = write_doc(tmp_path, bench_doc(**section))
    message = f"scenario error: {field}: expected {expected}\n"
    assert main(["validate", "--scenario", path]) == 2
    assert capsys.readouterr().err == message
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message


def test_scenario_tolerances_reach_the_model_and_its_table():
    doc = bench_doc(tolerances={"psd_tol": 1e-7, "k_cond_bound": 1e6}, delta=1e-5)
    model = parse_scenario(json.dumps(doc)).model
    assert (model.psd_tol, model.sym_tol, model.k_cond_bound, model.delta) == (
        1e-7, 1e-12, 1e6, 1e-5)
    assert NodeTable.build(model, model.grid).psd_tol == 1e-7
    # a scenario without them keeps the model's defaults
    model = parse_scenario(json.dumps(bench_doc())).model
    assert (model.psd_tol, model.sym_tol, model.k_cond_bound, model.delta) == (
        1e-9, 1e-12, 1e8, 1e-6)


@pytest.mark.parametrize("field, value", [
    ("psd_tol", 1e6), ("psd_tol", -1e-9), ("sym_tol", 1e-3),
    ("k_cond_bound", 0.0), ("k_cond_bound", float("inf")),
])
def test_tolerance_outside_its_bounds_exits_2_naming_it(tmp_path, capsys, field, value):
    # psd_tol = 1e6 once let an indefinite R through validate, and solve
    # printed a value with exit 0
    doc = bench_doc(tolerances={field: value})
    doc["cost"]["constant"]["R"] = [[-0.5]]
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert f"scenario error: tolerances.{field}: expected" in capsys.readouterr().err
    assert main(["solve", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert f"scenario error: tolerances.{field}: expected" in capsys.readouterr().err


def test_wrong_format_version(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc(format_version=99))
    assert main(["validate", "--scenario", path]) == 2
    assert capsys.readouterr().err == "scenario error: unsupported format_version 99\n"


@pytest.mark.parametrize("version", [[[1]], [[1.0, 2.0]]])
def test_array_format_version_is_refused(tmp_path, capsys, version):
    # an array never equals version 1, though numpy's [[1]] == 1 would be true
    path = write_doc(tmp_path, bench_doc(format_version=version))
    assert main(["validate", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"scenario error: unsupported format_version {version!r}\n"


def test_missing_file_exits_5(tmp_path, capsys):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 5


def test_nonfinite_x0_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc(x0=[float("nan")]))
    assert main(["validate", "--scenario", path]) == 2
    out = capsys.readouterr().out
    assert "x0_finite" in out and "FAIL" in out
    assert main(["solve", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert "x0_finite" in capsys.readouterr().err


def test_overflowed_cost_exits_3_naming_the_node(tmp_path, capsys):
    # x0 is finite, so validate passes, but x0^2 overflows in every cost
    path = write_doc(tmp_path, bench_doc(x0=[1e307]))
    assert main(["solve", "--scenario", path, "--steps", "4",
                 "--out", str(tmp_path / "s")]) == 3
    out, err = capsys.readouterr()
    assert "total optimal value" not in out
    assert "numerical failure: optimal_value.quadratic_term: non-finite value at node 0" in err
    assert main(["simulate", "--scenario", path, "--paths", "2", "--steps", "4",
                 "--out", str(tmp_path / "p")]) == 3
    assert "numerical failure: path_cost: non-finite value at node 0" in capsys.readouterr().err
    assert not list((tmp_path / "p").iterdir())


@pytest.mark.parametrize("command, field, value, code, shown", [
    ("solve", "K", 1e308, 0, ""),
    ("solve", "D", 1e308, 3, "numerical failure: Sigma: non-finite value at node 1\n"),
    ("solve", "B", 1e308, 3, "numerical failure: P: non-finite value at node 39\n"),
    ("validate", "S", 1e154, 2, "FAIL  A3_QSRS_psd              worst_node=   0  margin=nan"),
    ("validate", "R", 1e308, 2, "FAIL  A3_QSRS_psd              worst_node=   0  margin=-inf"),
    ("validate", "R", -1e308, 2,
     "FAIL  A3_R_uniformly_definite  worst_node=   0  margin=nan"),
    ("validate", "Q", -INF, 2,
     "FAIL  A3_Q_symmetric           worst_node=   0  margin=-inf"),
    ("validate", "R", -INF, 2,
     "FAIL  A3_R_symmetric           worst_node=   0  margin=-inf"),
    ("solve", "a", 1e308, 3, "numerical failure: phi: non-finite value at node 27\n"),
    ("solve", "q", 1e308, 3, "numerical failure: phi: non-finite value at node 39\n"),
    ("solve", "D", 1e154, 3, "numerical failure: Sigma: non-finite value at node 1\n"),
], ids=["K", "D", "B", "S", "R", "minus_R", "minus_inf_Q", "minus_inf_R", "a", "q",
        "D_1e154"])
def test_overflowing_products_raise_no_warning(tmp_path, capsys, command, field,
                                               value, code, shown):
    # K K^T, D D^T and B R^{-1} B^T in NodeTable.build, the PSD margins and
    # symmetry slacks of validate, and the doubling products and Mobius
    # steps of the Riccati scans overflow or meet infinities on these
    # inputs: the solve that reads them or the failed check reports it, and
    # no RuntimeWarning reaches stderr, which this suite would raise as an
    # error
    doc = bench_doc()
    section = "coefficients" if field in COEFF_NAMES else "cost"
    vector = not isinstance(doc[section]["constant"][field][0], list)
    doc[section]["constant"][field] = [value] if vector else [[value]]
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "solve":
        argv += ["--steps", "40", "--out", str(tmp_path / "o")]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if command == "solve":
        assert err == shown
    else:
        assert err == "" and shown in out.splitlines()


# --------------------------------------------------------------------- solve

def _cpus(monkeypatch, n):
    """Let this process run on n CPUs, and count the workers it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


_FAILING_SHARES = pytest.mark.parametrize("cpus, first_bad, fork_ok", [
    (2, 30, True),   # only the child's share fails
    (2, 10, True),   # both fail; this process's share alone names node 81
    (3, 30, True),
    (3, 5, True),
    (2, 10, False),  # os.fork fails: both shares run here
])


def _check_failed_share_reruns(tmp_path, capsys, monkeypatch, command,
                               cpus, first_bad, fork_ok):
    """Run `command` on 1 and on cpus CPUs of the 40-path, 100-step scalar
    benchmark, where path j >= first_bad draws an infinite increment at
    step 99 - j, so the first bad node over a set of paths is 100 minus its
    largest j.  Both runs must fail as a single-process run does, at node
    61, and leave no process behind."""
    real_stack = verify._noise_stack

    def bad_noise(seed, j0, j1, grid, dims):
        dW, dWp = real_stack(seed, j0, j1, grid, dims)
        for j in range(max(j0, first_bad), j1):
            dW[j - j0, grid.steps - 1 - j] = np.inf
        return dW, dWp

    def failing_fork():
        counted.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(verify, "_noise_stack", bad_noise)
    path = write_doc(tmp_path, bench_doc())
    runs = []
    for n in (1, cpus):
        counted = _cpus(monkeypatch, n)
        if not fork_ok:
            monkeypatch.setattr(os, "fork", failing_fork)
        code = main([command, "--scenario", path, "--out", str(tmp_path / f"cpus{n}")])
        printed = capsys.readouterr()
        runs.append((code, printed.out, printed.err))
        assert len(counted) == n - 1  # the first pass fails
    assert runs[0] == (3, "", "numerical failure: simulate_closed_loop: "
                              "non-finite value at node 61\n")
    assert runs[1] == runs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_solve_outputs(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "out"
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total optimal value:" in printed
    total = float(printed.split("total optimal value:")[1].split()[0])
    assert total == pytest.approx(TOTAL, abs=1e-4)

    sol = json.loads((out / "solution.json").read_text())
    assert sol["kind"] == "solution"
    assert sol["grid"] == {"T": 1.0, "steps": 100}
    assert len(sol["nodes"]) == 101
    assert sol["nodes"][0]["t"] == 0.0
    assert sol["nodes"][0]["P"][0][0] == pytest.approx(np.tanh(1.0), abs=1e-9)
    assert sol["nodes"][-1]["Sigma"][0][0] == pytest.approx(np.tanh(1.0),
                                                            abs=1e-9)

    val = json.loads((out / "value.json").read_text())
    assert val["breakdown"]["total"] == total

    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "series,t,value"
    assert len(series) == 1 + 3 * 101


def _reference_series_csv(sol):
    """series.csv's text, a row per (node, entry), each value formatted on its own."""
    rows = ["series,t,value\n"]
    for name, vals in (("P", sol.P), ("Sigma", sol.Sigma),
                       ("Theta", sol.Theta)):
        for i, t in enumerate(sol.grid.nodes):
            for r in range(vals.shape[1]):
                for c in range(vals.shape[2]):
                    v = float(vals[i, r, c])
                    rows.append(f"{name}[{r},{c}],{float(t):.17g},{v:.17g}\n")
    return "".join(rows)


def test_series_csv_matches_per_value_reference(tmp_path):
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=True)
    assert model.dims.n >= 2 and model.dims.m >= 2
    sol = solve_all(model, grid)
    want = [_reference_series_csv(sol)]
    # verify's extra rows are one-row blocks
    extra = [("cost_mean[zero]", 1.0, -1.0 / 3.0), ("emp_error_cov[0,0]", 0.25, 1e-300)]
    want += [f"{name},{t:.17g},{v:.17g}\n" for name, t, v in extra]
    path = tmp_path / "series.csv"
    _write_series_csv(str(path), _series_rows(sol)
                      + [([name], [t], [[v]]) for name, t, v in extra])
    assert path.read_bytes() == "".join(want).encode()


def test_solution_json_is_the_solver_output(tmp_path, capsys):
    # JSON round-trips floats exactly, so every entry equals solve_all's bits
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=True)
    assert model.dims.n >= 2
    path = write_doc(tmp_path, model_doc(model, grid))
    out = tmp_path / "out"
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
    sol = solve_all(model, grid)
    doc = json.loads((out / "solution.json").read_text())
    assert doc["grid"] == {"T": grid.T, "steps": grid.steps}
    names = ("P", "Theta", "phi", "Sigma", "Delta", "curlyA", "Pi")
    assert len(doc["nodes"]) == grid.steps + 1
    for i, node in enumerate(doc["nodes"]):
        assert list(node) == ["index", "t", *names]
        assert node["index"] == i
        assert node["t"] == grid.nodes[i]
        for name in names:
            np.testing.assert_array_equal(node[name], getattr(sol, name)[i],
                                          err_msg=f"{name} node {i}")


def test_solve_steps_override(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "out"
    assert main(["solve", "--scenario", path, "--out", str(out),
                 "--steps", "40"]) == 0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["grid"]["steps"] == 40
    assert len(sol["nodes"]) == 41


def test_solve_json_only(tmp_path, capsys):
    doc = bench_doc(output={"formats": ["json"]})
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
    assert (out / "solution.json").exists()
    assert not (out / "series.csv").exists()


def test_unwritable_out_exits_5(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["solve", "--scenario", path, "--out",
                 str(blocker / "sub")]) == 5


def test_output_directory_from_scenario(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_scenario"
    path = write_doc(tmp_path, bench_doc(output={"directory": str(target)}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["solve", "--scenario", path]) == 0
    assert (target / "solution.json").exists()
    assert list(work.iterdir()) == []


def test_out_flag_overrides_output_directory(tmp_path, capsys):
    target = tmp_path / "from_scenario"
    path = write_doc(tmp_path, bench_doc(output={"directory": str(target)}))
    out = tmp_path / "out"
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
    assert (out / "solution.json").exists()
    assert not target.exists()


_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def _masked(files):
    return {name: _GENERATED_AT.sub(b'"generated_at": null', data)
            for name, data in files.items()}


def _reference_solve_files(doc, steps=None):
    """solve's files as the per-node dict writer wrote them, each document
    one json.dumps with meta.generated_at masked."""
    sc = parse_scenario(json.dumps(doc))
    grid = sc.model.grid if steps is None else TimeGrid(sc.model.grid.T, steps)
    sol = solve_all(sc.model, grid)
    vb = optimal_value(sc.model, sol)
    names = ("P", "Theta", "phi", "Sigma", "Delta", "curlyA", "Pi")
    nodes = [{"index": i, "t": t, **{nm: getattr(sol, nm)[i].tolist() for nm in names}}
             for i, t in enumerate(grid.nodes.tolist())]
    meta = {"generated_at": None}
    solution = {"format_version": 1, "kind": "solution", "meta": meta,
                "grid": {"T": grid.T, "steps": grid.steps}, "nodes": nodes}
    value = {"format_version": 1, "kind": "value", "meta": meta, "breakdown": asdict(vb)}
    return {"solution.json": (json.dumps(solution) + "\n").encode(),
            "series.csv": _reference_series_csv(sol).encode(),
            "value.json": (json.dumps(value) + "\n").encode()}


def _solve_cases():
    model, grid = random_validated_model(np.random.default_rng(100), time_varying=True)
    dims = model.dims
    assert len({dims.n, dims.m, dims.d}) == 3  # Theta is m x n, Delta n x d
    return {"scalar": (bench_doc(), None),
            "time_varying_3d": (model_doc(model, grid), None),
            "one_step": (bench_doc(), 1)}


@pytest.mark.parametrize("case", ["scalar", "time_varying_3d", "one_step"])
@pytest.mark.parametrize("formats, forks", [
    pytest.param(["json", "csv"], (0, 1, 2), id="json+csv"),  # solution.json here
    pytest.param(["json"], (0, 1, 1), id="json"),
    pytest.param(["csv"], (0, 0, 0), id="csv"),
    pytest.param([], (0, 0, 0), id="none"),
])
def test_solve_files_match_reference_for_any_writer_count(tmp_path, capsys, monkeypatch,
                                                          case, formats, forks):
    doc, steps = _solve_cases()[case]
    doc["output"] = {"formats": formats}
    path = write_doc(tmp_path, doc)
    want = _reference_solve_files(doc, steps)
    want = {name: data for name, data in want.items()
            if ("json" if name.endswith(".json") else "csv") in formats}
    extra = () if steps is None else ("--steps", str(steps))
    for cpus, nforks in zip((1, 2, 3), forks):
        counted = _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["solve", "--scenario", path, "--out", str(out), *extra]) == 0
        assert capsys.readouterr().out.count("total optimal value:") == 1
        assert len(counted) == nforks
        assert _masked(_tree(out)) == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("blocked", ["series.csv", "solution.json"])
def test_failed_solve_writer_surfaces_and_leaves_no_process(tmp_path, capsys, monkeypatch,
                                                            cpus, blocked):
    # on 2 CPUs series.csv falls to the child, solution.json to this process
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    _cpus(monkeypatch, cpus)
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(out / blocked) in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_prints_its_value_once_through_a_pipe(tmp_path):
    # a block-buffered stdout is copied into each forked writer, which must
    # leave without flushing it
    path = write_doc(tmp_path, bench_doc())
    code = ("import os, runpy, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
            "sys.argv[0] = 'polqg'; runpy.run_module('polqg.cli', run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    res = subprocess.run([sys.executable, "-c", code, "solve", "--scenario", path,
                          "--out", str(tmp_path / "o")],
                         env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
                         stdout=subprocess.PIPE, text=True, check=True)
    assert res.stdout.count("total optimal value:") == 1
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "series.csv", "solution.json", "value.json"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_nonfinite_solution_exits_3_and_writes_no_token(tmp_path, capsys, monkeypatch, cpus):
    # %r writes nan and inf, which are not JSON: nothing of it may reach a file
    real_solve = cli.solve_all

    def solve_inf(model, grid):
        sol = real_solve(model, grid)
        theta = sol.Theta.copy()
        theta[7, 0, 0] = np.inf
        return replace(sol, Theta=theta)

    monkeypatch.setattr(cli, "solve_all", solve_inf)
    _cpus(monkeypatch, cpus)
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "o"
    assert main(["solve", "--scenario", path, "--out", str(out)]) == 3
    printed = capsys.readouterr()
    assert "total optimal value" not in printed.out
    assert printed.err == "numerical failure: solution.Theta: non-finite value at node 7\n"
    for data in (_tree(out) if out.exists() else {}).values():
        assert not re.search(rb"(?i)nan|inf", data)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------------ simulate

def run_simulate(tmp_path, doc, outname, extra=()):
    path = write_doc(tmp_path, doc, name=f"{outname}.json")
    out = tmp_path / outname
    code = main(["simulate", "--scenario", path, "--out", str(out),
                 "--paths", "3", *extra])
    return code, out


def test_simulate_writes_deterministic_files(tmp_path, capsys):
    code, out1 = run_simulate(tmp_path, bench_doc(), "a")
    assert code == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == ["path_00000.csv", "path_00001.csv", "path_00002.csv"]
    _, out2 = run_simulate(tmp_path, bench_doc(), "b")
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("n_paths, steps, forks", [
    (2, 100, (0, 1, 1)),      # fewer paths than writers
    (1030, 2, (0, 1, 2)),     # a share runs more than one kernel chunk
])
def test_simulate_files_do_not_depend_on_writer_count(tmp_path, capsys, monkeypatch,
                                                      n_paths, steps, forks):
    path = write_doc(tmp_path, bench_doc())
    trees = []
    for cpus, nforks in zip((1, 2, 3), forks):
        counted = _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", "--scenario", path, "--out", str(out),
                     "--paths", str(n_paths), "--steps", str(steps)]) == 0
        assert capsys.readouterr().out == f"wrote {n_paths} path file(s) to {out}\n"
        assert len(counted) == nforks
        trees.append(_tree(out))
    assert sorted(trees[0]) == [f"path_{j:05d}.csv" for j in range(n_paths)]
    assert trees[1] == trees[0] and trees[2] == trees[0]


@pytest.mark.parametrize("n_paths, cpus", [(4, 2), (6, 2), (6, 3)])
def test_failed_writer_surfaces_and_leaves_no_process(tmp_path, capsys, monkeypatch,
                                                      n_paths, cpus):
    # path 2 falls to a child in (4, 2) and (6, 3), to this process in (6, 2)
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "o"
    (out / "path_00002.csv").mkdir(parents=True)
    _cpus(monkeypatch, cpus)
    assert main(["simulate", "--scenario", path, "--out", str(out),
                 "--paths", str(n_paths)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(out / "path_00002.csv") in err
    cuts = [w * n_paths // cpus for w in range(cpus + 1)]
    written = {p.name for p in out.iterdir() if p.is_file()}
    for a, b in zip(cuts, cuts[1:]):
        if not a <= 2 < b:
            assert {f"path_{j:05d}.csv" for j in range(a, b)} <= written
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FAILING_SHARES
def test_failed_simulate_share_reruns_and_leaves_no_process(tmp_path, capsys, monkeypatch,
                                                            cpus, first_bad, fork_ok):
    _check_failed_share_reruns(tmp_path, capsys, monkeypatch, "simulate",
                               cpus, first_bad, fork_ok)


def test_simulate_zero_paths(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "empty"
    assert main(["simulate", "--scenario", path, "--out", str(out),
                 "--paths", "0"]) == 0
    assert list(out.iterdir()) == []


def test_simulate_negative_path_flag_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--paths", "-2"]) == 2
    assert "invalid input: --paths: expected" in capsys.readouterr().err


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    _, by_scenario = run_simulate(tmp_path, bench_doc(), "scen")  # seed 7
    monkeypatch.setenv("POLQG_SEED", "9")
    _, by_env = run_simulate(tmp_path, bench_doc(), "env")
    _, by_flag = run_simulate(tmp_path, bench_doc(), "flag",
                              extra=("--seed", "7"))
    a = (by_scenario / "path_00000.csv").read_bytes()
    assert (by_env / "path_00000.csv").read_bytes() != a
    assert (by_flag / "path_00000.csv").read_bytes() == a


def test_bad_seed_env_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, bench_doc())
    monkeypatch.setenv("POLQG_SEED", "abc")
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert ("invalid input: POLQG_SEED: expected an integer, got 'abc'"
            in capsys.readouterr().err)


def test_simulate_noiseless_state_is_tracked(tmp_path, capsys):
    doc = bench_doc()
    doc["coefficients"]["constant"]["D"] = [[0.0]]
    code, out = run_simulate(tmp_path, doc, "quiet")
    assert code == 0
    lines = (out / "path_00000.csv").read_text().splitlines()
    cols = lines[0].split(",")
    ix, ixh, ixt = cols.index("X1"), cols.index("Xhat1"), cols.index("Xtil1")
    for row in lines[1:-1]:
        parts = row.split(",")
        assert parts[ix] == parts[ixh]
        assert float(parts[ixt]) == 0.0


def _reference_path_files(doc, n_paths):
    """simulate's path files as the %.17g row template wrote them, from
    the same bundles."""
    sc = parse_scenario(json.dumps(doc))
    sol = solve_all(sc.model, sc.model.grid)
    files = {}
    for j, b in enumerate(verify.iter_path_bundles(sc.model, sol, sc.policy,
                                                   n_paths, sc.seed)):
        levels = {"X": b.X, "Y": b.Y, "Xhat": b.Xhat, "Xtil": b.Xtil, "V": b.V, "u": b.u}
        cols = ["t"] + [f"{k}{i + 1}" for k, a in levels.items() for i in range(a.shape[1])]
        block = np.column_stack([b.grid.nodes, *levels.values()])
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        text = ",".join(cols) + "\n" + (row * len(block)) % tuple(block.ravel().tolist())
        files[f"path_{j:05d}.csv"] = (text + f"# cost,{b.cost:.17g}\n").encode()
    return files


def _noiseless_doc():
    # Xtil is exactly zero at every node
    return bench_doc(coefficients={"constant": {
        **bench_doc()["coefficients"]["constant"], "D": [[0.0]]}})


def _exponents_doc():
    # t from 1e-5 and a state near 1e18: %.17g writes both in e notation
    return bench_doc(T=1e-3, x0=[1e18])


@pytest.mark.parametrize("doc, shows", [(_noiseless_doc, ",0,0,"),
                                        (_exponents_doc, "1.0000000000000001e-05,")])
def test_simulate_files_match_the_17g_template(tmp_path, capsys, monkeypatch, doc, shows):
    doc = doc()
    path = write_doc(tmp_path, doc)
    want = _reference_path_files(doc, 3)
    assert shows in want["path_00000.csv"].decode()
    for cpus, nforks in zip((1, 2, 3), (0, 1, 2)):
        counted = _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", "--scenario", path, "--out", str(out), "--paths", "3"]) == 0
        assert len(counted) == nforks
        assert _tree(out) == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_open_loop_policy(tmp_path, capsys):
    doc = bench_doc(policy={"kind": "open_loop",
                            "table": [[0.125]] * 101})
    code, out = run_simulate(tmp_path, doc, "ol")
    assert code == 0
    lines = (out / "path_00001.csv").read_text().splitlines()
    iu = lines[0].split(",").index("u1")
    for row in lines[1:-1]:
        assert float(row.split(",")[iu]) == 0.125


# -------------------------------------------------------------------- verify

def test_verify_passes_benchmark(tmp_path, capsys):
    doc = bench_doc(steps=60, mc={"n_paths": 400, "seed": 3})
    path = write_doc(tmp_path, doc)
    out = tmp_path / "v"
    assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "verify: pass" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "cost_vs_value" in names
    assert any(n.startswith("error_cov_node") for n in names)
    assert "decomposition_cross" in names
    checks = (out / "checks.csv").read_text().splitlines()
    assert checks[0] == "name,estimate,se,target,band,passed"
    assert len(checks) == 1 + len(report["checks"])


def test_verify_probe_times(tmp_path, capsys):
    doc = bench_doc(steps=60, mc={"n_paths": 80, "seed": 3,
                                  "probe_times": [0.5]})
    path = write_doc(tmp_path, doc)
    out = tmp_path / "v"
    main(["verify", "--scenario", path, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "error_cov_node30" in names
    assert "error_cov_node60" not in names


def test_verify_detects_broken_sigma(tmp_path, capsys):
    doc = bench_doc(steps=60, mc={"n_paths": 400, "seed": 3})
    path = write_doc(tmp_path, doc)
    for scale in ("1.5", "0"):  # a zero scale is applied, not read as no flag
        out = tmp_path / f"v{scale}"
        assert main(["verify", "--scenario", path, "--out", str(out),
                     "--debug-scale-sigma", scale]) == 4
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["params"]["sigma_scale"] == float(scale)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any(n.startswith("error_cov_node") for n in failed)


def _verify_run(path, out, capsys, *extra):
    """Exit code, stdout, stderr and every output of one verify run, with
    the report's meta masked."""
    code = main(["verify", "--scenario", path, "--out", str(out), *extra])
    printed = capsys.readouterr()
    files = _tree(out) if out.exists() else {}
    if "report.json" in files:
        report = json.loads(files["report.json"])
        report["meta"] = None
        files["report.json"] = report
    return code, printed.out, printed.err, files


def _tv3_doc():
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=True)
    assert model.dims.n == 3
    return {**model_doc(model, grid), "mc": {"n_paths": 200, "seed": 6}}


@pytest.mark.parametrize("case, code", [
    ("scalar", 0), ("scalar_sigma2", 4), ("time_varying_3d", 0)])
def test_verify_outputs_do_not_depend_on_worker_count(tmp_path, capsys, monkeypatch,
                                                      case, code):
    doc = (_tv3_doc() if case == "time_varying_3d"
           else bench_doc(steps=60, mc={"n_paths": 400, "seed": 3}))
    extra = ("--debug-scale-sigma", "2") if case == "scalar_sigma2" else ()
    path = write_doc(tmp_path, doc)
    runs = []
    for cpus in (1, 2, 3):
        counted = _cpus(monkeypatch, cpus)
        runs.append(_verify_run(path, tmp_path / f"cpus{cpus}", capsys, *extra))
        assert len(counted) == cpus - 1  # one pass
    assert sorted(runs[0][3]) == ["checks.csv", "report.json", "series.csv"]
    assert runs[0][0] == code
    assert runs[1] == runs[0] and runs[2] == runs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FAILING_SHARES
def test_failed_share_reruns_the_pass_and_leaves_no_process(tmp_path, capsys, monkeypatch,
                                                            cpus, first_bad, fork_ok):
    _check_failed_share_reruns(tmp_path, capsys, monkeypatch, "verify",
                               cpus, first_bad, fork_ok)


def _mean_se(a):
    return a.mean(axis=0), a.std(axis=0, ddof=1) / np.sqrt(a.shape[0])


def _floor(target):
    return 1e-9 * (1.0 + abs(target))


def _expected_checks(sc):
    """Every verify row (estimate, se, target, band, passed) recomputed with
    plain numpy from the per-path numbers of the pass, with each halving
    gap from the exact moments of the Euler chain on both grids, stepped
    node by node by oracles.discrete_moments_reference."""
    model, grid, n_paths = sc.model, sc.model.grid, sc.n_paths
    grid2 = TimeGrid(grid.T, 2 * grid.steps)
    sol = solve_all(model, grid)
    sol2 = solve_all(model, grid2)
    probes = list(dict.fromkeys(default_probe_nodes(grid)))
    eps = np.full(model.dims.m, 0.5)
    pert = ControlPolicy("perturbed_feedback", eps)
    st = simulate_statistics(model, sol, n_paths, sc.seed, probes,
                             [ControlPolicy("zero"), pert])
    # exact (feedback, perturbed) costs, Xtil cost and Xtil covariance
    (c1, til1, cov1), (c2, til2, cov2) = (discrete_moments_reference(model, s, (0.0, eps))
                                          for s in (sol, sol2))
    rows = {}

    def add(name, est, se, target, band, passed):
        rows[name] = (est, se, target, band, bool(passed))

    fb = st.costs["filter_feedback"]
    cost, cost_se = _mean_se(fb)
    value = st.analytic_value
    band = 3 * cost_se + 3 * abs(c1[0] - c2[0]) + _floor(value)
    add("cost_vs_value", cost, cost_se, value, band, abs(cost - value) <= band)

    for pn in probes:
        cov, cov_se = _mean_se(st.error_outer[pn])
        diff = np.abs(cov - sol.Sigma[pn])
        bands = (3 * cov_se + 3 * np.abs(cov1[pn] - cov2[2 * pn])
                 + _floor(np.linalg.norm(sol.Sigma[pn])))
        w = np.unravel_index(np.argmax(diff - bands), diff.shape)
        add(f"error_cov_node{pn}", diff[w], cov_se[w], 0.0, bands[w],
            (diff <= bands).all())
        orth, orth_se = _mean_se(st.orth[pn])
        band = 3 * orth_se + _floor(0.0)
        add(f"orthogonality_node{pn}", abs(orth), orth_se, 0.0, band,
            abs(orth) <= band)

    nobs, d = n_paths * grid.steps, model.dims.d
    inc = np.abs(st.inc_sums.sum(axis=0) / nobs).max()
    se = np.sqrt(grid.h / nobs)
    band = 3 * se + _floor(0.0)
    add("innovation_increment_mean", inc, se, 0.0, band, inc <= band)
    qv = st.inc_sq.sum() / (n_paths * d * grid.T)
    se = np.sqrt(2.0 / (nobs * d))
    band = 3 * se + _floor(1.0)
    add("innovation_qv_ratio", qv, se, 1.0, band, abs(qv - 1.0) <= band)
    tvar = st.inc_sums.var(axis=0, ddof=1)  # Vcheck(T)
    tvar_se = tvar * np.sqrt(2.0 / (n_paths - 1))
    tband = 3 * tvar_se + _floor(grid.T)
    w = np.argmax(np.abs(tvar - grid.T) - tband)
    add("brownianity_terminal_var", tvar[w], tvar_se[w], grid.T, tband[w],
        (np.abs(tvar - grid.T) <= tband).all())
    lag = np.abs(st.lag_sums.sum(axis=0) / st.inc_sq.sum(axis=0)
                 * grid.steps / (grid.steps - 1.0)).max()
    lag_band = 3.0 / np.sqrt(nobs)
    add("brownianity_lag1", lag, lag_band / 3, 0.0, lag_band + _floor(0.0),
        lag <= lag_band + _floor(0.0))

    cross, cross_se = _mean_se(st.hatJ + st.tildeJ - fb)
    band = 3 * cross_se + _floor(0.0)
    add("decomposition_cross", abs(cross), cross_se, 0.0, band,
        abs(cross) <= band)
    til, til_se = _mean_se(st.tildeJ)
    til_value = st.tildeJ_analytic
    band = 3 * til_se + 3 * abs(til1 - til2) + _floor(til_value)
    add("decomposition_tildeJ", til, til_se, til_value, band,
        abs(til - til_value) <= band)

    for label in ("zero", "perturbed_feedback"):
        ex, ex_se = _mean_se(st.costs[label] - fb)
        add(f"not_beaten_by_{label}", ex, ex_se, 0.0, 2 * ex_se + _floor(0.0),
            ex + 2 * ex_se + _floor(0.0) >= 0.0)
    pred = np.trapezoid(np.einsum("a,tab,b->t", eps, model.R, eps),
                        grid.nodes)
    band = 3 * ex_se + 3 * abs((c1[1] - c1[0]) - (c2[1] - c2[0])) + _floor(pred)
    add("perturbed_excess_vs_prediction", ex, ex_se, pred, band,
        abs(ex - pred) <= band)
    return rows


@pytest.mark.parametrize("case", ["scalar", "time_varying_2d"])
def test_verify_rows_recomputed_from_the_passes(case):
    if case == "scalar":
        doc = bench_doc(mc={"n_paths": 500, "seed": 3})
    else:
        # n=2, d=2; on this seed the worst-element picks of the terminal
        # variance and of some error covariances land off entry 0
        model, grid = random_validated_model(np.random.default_rng(102),
                                             time_varying=True)
        doc = {**model_doc(model, grid), "mc": {"n_paths": 500, "seed": 6}}
    sc = parse_scenario(json.dumps(doc))
    want = _expected_checks(sc)
    checks, _ = _run_checks(sc, sc.model.grid, sc.seed, sc.n_paths)
    assert len(checks) == len(want) == 18
    for c in checks:
        est, se, target, band, passed = want[c["name"]]
        np.testing.assert_allclose(
            [c["estimate"], c["se"], c["target"], c["band"]],
            [est, se, target, band], rtol=1e-12, atol=0.0, err_msg=c["name"])
        assert c["passed"] == passed, c["name"]


def test_verify_power_on_the_scalar_model(monkeypatch):
    # with the halving gaps exact, the bands carry no Monte Carlo noise of a
    # second pass: Sigma x1.2 fails on nearly every seed (6 of these 10 when
    # the gaps came from a pass on the 2N grid), a correct model on few
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sc = parse_scenario(json.dumps(bench_doc(steps=100)))

    def failed_runs(sigma_scale):
        return sum(not all(c["passed"] for c in
                           _run_checks(sc, sc.model.grid, seed, 1000, sigma_scale)[0])
                   for seed in range(1, 11))

    assert failed_runs(1.2) >= 9
    assert failed_runs(1.0) <= 2


def test_scaled_sigma_by_one_is_the_solution():
    # the debug path rebuilds the filter side with the function solve_all uses
    model, grid = random_validated_model(np.random.default_rng(4),
                                         time_varying=True)
    sol = solve_all(model, grid)
    again = _scaled_sigma_solution(sol, 1.0)
    for name in ("Sigma", "Delta", "curlyA", "gain", "Pi"):
        np.testing.assert_array_equal(getattr(again, name),
                                      getattr(sol, name), err_msg=name)
    # a scaled Sigma reaches the gain the simulated filter uses
    scaled = _scaled_sigma_solution(sol, 2.0)
    np.testing.assert_array_equal(scaled.gain,
                                  compute_gain(scaled.Sigma, sol.table))
    assert not np.array_equal(scaled.gain, sol.gain)


def test_verify_degenerate_noiseless_scenario(tmp_path, capsys):
    doc = bench_doc(steps=40, mc={"n_paths": 50, "seed": 1})
    doc["coefficients"]["constant"]["D"] = [[0.0]]
    doc["coefficients"]["constant"]["C"] = [[0.0]]
    path = write_doc(tmp_path, doc)
    out = tmp_path / "v"
    assert main(["verify", "--scenario", path, "--out", str(out)]) == 0


def test_verify_refuses_a_one_step_grid(tmp_path, capsys, monkeypatch):
    # the lag-1 autocorrelation needs two steps: one step is refused before
    # any pass, with no 0/0 warning, no nan row and no output file
    passes = []
    monkeypatch.setattr(cli, "simulate_statistics",
                        lambda *a, **k: passes.append(1) or verify.simulate_statistics(*a, **k))
    path = write_doc(tmp_path, bench_doc(mc={"n_paths": 20, "seed": 1}))
    out = tmp_path / "v"
    assert main(["verify", "--scenario", path, "--out", str(out), "--steps", "1"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "invalid input: need at least 2 steps, got 1\n"
    assert passes == [] and not out.exists()
    assert main(["verify", "--scenario", path, "--out", str(out), "--steps", "2"]) in (0, 4)
    assert len(passes) == 1


# -------------------------------------------------------------------- parse

def test_scenario_parses_policy_and_mc():
    doc = bench_doc(policy={"kind": "perturbed_feedback", "offset": [0.5],
                            "label": "nudge"},
                    mc={"n_paths": 12, "seed": 4, "probe_times": [0.25, 1.0]})
    sc = parse_scenario(json.dumps(doc))
    assert sc.n_paths == 12 and sc.seed == 4
    assert sc.probe_times == (0.25, 1.0)
    assert sc.policy.kind == "perturbed_feedback"
    assert sc.policy.label == "nudge"
    np.testing.assert_array_equal(sc.policy.table, [0.5])


def test_scenario_defaults():
    sc = parse_scenario(json.dumps(bench_doc()))
    assert sc.policy.kind == "filter_feedback"
    assert sc.formats == ("json", "csv")
    assert sc.out_dir is None
    assert sc.probe_times is None


@pytest.mark.parametrize("form", ["constant", "table"])
def test_scenario_forms_give_the_constructed_model(form):
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=form == "table")
    sc = parse_scenario(json.dumps(model_doc(model, grid, form)))
    assert sc.model.dims == model.dims
    assert sc.model.delta == model.delta
    np.testing.assert_array_equal(sc.model.x0, model.x0)
    for f in COEFF_NAMES + ("G", "g") + COST_NAMES:
        np.testing.assert_array_equal(getattr(sc.model, f), getattr(model, f),
                                      err_msg=f)


@pytest.mark.parametrize("section", ["coefficients", "cost"])
@pytest.mark.parametrize("forms", ["both", "neither"])
def test_scenario_needs_exactly_one_form(tmp_path, capsys, section, forms):
    doc = bench_doc()
    given = doc[section]["constant"]
    if forms == "both":
        doc[section]["table"] = {f: [v] * 101 for f, v in given.items()}
    else:
        del doc[section]["constant"]
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert (f"{section}: give exactly one of 'constant' or 'table'"
            in capsys.readouterr().err)


# ------------------------------------------------------------------ reader

def _model_and_report(text):
    try:
        sc = parse_scenario(text)
    except ValidationFailure as e:
        return None, e.report
    return sc.model, sc.report


def _int_table_doc(mixed=False):
    """The scalar benchmark with every per-node field an integer table; K
    and R vary by node, and with `mixed` K holds a float at every other node."""
    doc = bench_doc()
    for section in ("coefficients", "cost"):
        given = doc[section].pop("constant")
        doc[section]["table"] = {f: [np.asarray(v, dtype=int).tolist()] * 101
                                 for f, v in given.items()}
    doc["coefficients"]["table"]["K"] = [[[1 + i % 3 + (0.5 if mixed and i % 2 else 0)]]
                                         for i in range(101)]
    doc["cost"]["table"]["R"] = [[[2 + i % 2]] for i in range(101)]
    return doc


# a non-finite entry of one coefficient table: (value, field, node)
_NONFINITE = {"nan": (NAN, "A", 7), "inf": (INF, "B", 9), "-inf": (-INF, "C", 3)}


def _reader_doc(case):
    if case.startswith("draw"):
        draw, form = case[4:].split("-")
        model, grid = random_validated_model(np.random.default_rng(int(draw)),
                                             time_varying=True)
        return model_doc(model, grid, form)
    if case in ("ints", "mixed"):
        return _int_table_doc(mixed=case == "mixed")
    value, field, node = _NONFINITE[case]
    model, grid = random_validated_model(np.random.default_rng(101), time_varying=True)
    doc = model_doc(model, grid)
    doc["coefficients"]["table"][field][node][0][0] = value
    return doc


@pytest.mark.parametrize("case", [
    *(f"draw{d}-{form}" for d in (100, 101, 102, 103) for form in ("table", "constant")),
    "ints", "mixed", *_NONFINITE])
def test_reader_gives_the_json_loads_model(monkeypatch, case):
    # the reader's arrays are _array's arrays of json.loads's lists, bit
    # for bit, and a NaN or infinite node still reaches validate
    text = json.dumps(_reader_doc(case))
    model, report = _model_and_report(text)
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_json", json.loads)
        want_model, want_report = _model_and_report(text)
    assert report.summary() == want_report.summary()
    if case in _NONFINITE:
        bad = report.check("A1_coefficients_finite")
        assert not bad.passed and bad.worst_node == _NONFINITE[case][2]
        return
    for f in fields(want_model):
        got, want = getattr(model, f.name), getattr(want_model, f.name)
        if isinstance(want, np.ndarray):
            assert type(got) is np.ndarray, f.name
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), f.name
        else:
            assert got == want, f.name


@pytest.mark.parametrize("text", [
    "", "   ", "\ufeff{}", "{", "[", "nope", '{"dims": \n nope}', '{"a"', '{"a":',
    '{"a" 1}', '{"a": 1,}', '{"a": 1 "b": 2}', "{1: 2}", '{"a": [1, 2}',
    '{"a": [[1, 2], [3]', '{"a": [[1,], [2]]}', '{"a": [[1 2]]}',
    '{"a": [[1.0],\n  [2.0,\n ]]}', '{"a": tru}', '{"a": [[nul]]}', '{"a": "x\ny"}',
    '{"a": "\\q"}', '{"a": 1} x', '{"a": [[1.0]]} [', '{"a": 01}', '{"a": [[-]]}',
    '{"a": 1.}', '{"a": [[1.e5]]}', '{"a": NaNx}', '{"a": {"b": [[1]], }}',
    '{"a": "unterminated', "[[1.0], [2.0]]]", '{"a": [[1.0]] ,}',
    '{"a": [[1.0]], "b": [[2.0]]]}', '{"a": [[true, 1.0]], "b": [[nope]]}',
])
def test_reader_errors_are_json_loads_errors(text):
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    w = want.value
    with pytest.raises(json.JSONDecodeError) as got:
        cli._read_json(text)
    assert (got.value.msg, got.value.pos) == (w.msg, w.pos)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert err.value.args == (f"{w.msg} (line {w.lineno}, column {w.colno})",)
    assert (err.value.line, err.value.col) == (w.lineno, w.colno)


def test_reader_parse_peak_stays_near_the_model_arrays():
    # json.loads held every table at once as lists of Python floats, 10.8
    # times the model's arrays at the peak; the reader holds one table's
    model, grid = random_validated_model(np.random.default_rng(100), steps=4000,
                                         time_varying=True)
    text = json.dumps(model_doc(model, grid))
    arrays = sum(getattr(model, f).nbytes
                 for f in ("x0", "G", "g") + COEFF_NAMES + COST_NAMES)
    _, peak = traced_peak(parse_scenario, text)
    assert peak <= 3 * arrays


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 200_000,
                                  '{"x0": ' + "[" * 200_000],
                         ids=["array", "object", "field"])
def test_deeply_nested_scenario_exits_2(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "scenario error: JSON nested too deeply\n"
