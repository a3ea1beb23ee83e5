import copy
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    NodeTable,
    TimeGrid,
    ValidationFailure,
    compute_gain,
    default_probe_nodes,
    simulate_statistics,
    solve_all,
)
from polqg import verify
from polqg.cli import (
    _run_checks,
    _scaled_sigma_solution,
    _series_rows,
    _write_series_csv,
    main,
    parse_scenario,
)

from oracles import TOTAL, random_validated_model


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


@pytest.mark.parametrize("field, value", [
    ("T", None),
    ("steps", [1]),
    ("steps", 2.5),
    ("dims.n", None),
    ("mc.n_paths", None),
    ("mc.seed", 1.5),
    ("tolerances.psd_tol", None),
    ("mc.probe_times", [float("nan")]),
    ("mc.n_paths", -3),
])
def test_bad_scalar_field_exits_2_naming_it(tmp_path, capsys, field, value):
    # never a traceback, and never a silently truncated step count or seed
    doc = bench_doc()
    *parents, name = field.split(".")
    section = doc
    for key in parents:
        section = section.setdefault(key, {})
    section[name] = value
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 2
    assert f"scenario error: {field}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("field, section", [
    ("output.formats", {"output": {"formats": None}}),
    ("output.formats", {"output": {"formats": "json"}}),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback", "offset": [None]}}),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback",
                                  "offset": [float("inf")]}}),
    ("policy.table", {"policy": {"kind": "open_loop",
                                 "table": [[0.0]] * 100 + [[float("nan")]]}}),
    ("policy.table", {"policy": {"kind": "open_loop", "table": [["0.5"]] * 101}}),
    ("output.directory", {"output": {"directory": 5}}),
    # a field the kind does not read is an error, not silently dropped
    ("policy.table", {"policy": {"kind": "zero", "table": [[1.0]]}}),
    ("policy.offset", {"policy": {"kind": "filter_feedback", "offset": [3.0]}}),
    ("policy.table", {"policy": {"kind": "perturbed_feedback", "offset": [0.5],
                                 "table": [[9.0]]}}),
    # model arrays take numbers only: no string, boolean or null coerced
    ("x0", {"x0": ["1.5"]}),
    ("x0", {"x0": [True]}),
    ("x0", {"x0": [None]}),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [["2"]]}}),
    ("coefficients.constant.A", {"coefficients": {"constant": {
        **bench_doc()["coefficients"]["constant"], "A": [[True]]}}}),
    ("policy.label", {"policy": {"kind": "open_loop", "table": [[0.0]] * 101,
                                 "label": 5}}),
    # a policy table must fit the scenario's own grid, not only the kernel's
    ("policy.table", {"policy": {"kind": "open_loop", "table": [[0.0]] * 3}}),
    ("policy.offset", {"policy": {"kind": "perturbed_feedback", "offset": [[0.5]]}}),
    # numpy reads true and false beside numbers as 1 and 0
    ("coefficients.table.B", {"coefficients": {"table": {
        **{k: [v] * 101 for k, v in bench_doc()["coefficients"]["constant"].items()},
        "B": [[[1.0]]] * 100 + [[[True]]]}}}),
    ("cost.G", {"cost": {**bench_doc()["cost"], "G": [[1.0, False]]}}),
])
def test_bad_list_field_exits_2_naming_it(tmp_path, capsys, field, section):
    # rejected while parsing, before validate passes or simulate blames the kernel
    path = write_doc(tmp_path, bench_doc(**section))
    assert main(["validate", "--scenario", path]) == 2
    assert f"scenario error: {field}: expected" in capsys.readouterr().err
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert f"scenario error: {field}: expected" in capsys.readouterr().err


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


# --------------------------------------------------------------------- solve

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


def test_series_csv_matches_per_value_reference(tmp_path):
    model, grid = random_validated_model(np.random.default_rng(100),
                                         time_varying=True)
    assert model.dims.n >= 2 and model.dims.m >= 2
    sol = solve_all(model, grid)
    # a row per (node, entry), each value formatted on its own
    want = ["series,t,value\n"]
    for name, vals in (("P", sol.P), ("Sigma", sol.Sigma),
                       ("Theta", sol.Theta)):
        for i, t in enumerate(grid.nodes):
            for r in range(vals.shape[1]):
                for c in range(vals.shape[2]):
                    v = float(vals[i, r, c])
                    want.append(f"{name}[{r},{c}],{float(t):.17g},{v:.17g}\n")
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


def _tree(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("n_paths, steps, forks", [
    (2, 100, (0, 1, 1)),      # fewer paths than writers
    (1030, 2, (0, 2, 4)),     # a second kernel chunk forks its own writers
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
        assert len(counted) == 2 * (cpus - 1)  # one pass per grid
    assert sorted(runs[0][3]) == ["checks.csv", "report.json", "series.csv"]
    assert runs[0][0] == code
    assert runs[1] == runs[0] and runs[2] == runs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, first_bad, fork_ok", [
    (2, 30, True),   # only the child's share fails
    (2, 10, True),   # both fail; this process's share alone names node 81
    (3, 30, True),
    (3, 5, True),
    (2, 10, False),  # os.fork fails: both shares run here
])
def test_failed_share_reruns_the_pass_and_leaves_no_process(tmp_path, capsys, monkeypatch,
                                                            cpus, first_bad, fork_ok):
    # path j >= first_bad draws an infinite increment at step 99 - j, so
    # the first bad node over a set of paths is 100 minus its largest j
    real_stack = verify._noise_stack

    def bad_noise(seed, j0, j1, grid, dims):
        dW, dWp = real_stack(seed, j0, j1, grid, dims)
        for j in range(max(j0, first_bad), j1):
            dW[j - j0, grid.steps - 1 - j] = np.inf
        return dW, dWp

    monkeypatch.setattr(verify, "_noise_stack", bad_noise)
    path = write_doc(tmp_path, bench_doc())  # 40 paths, 100 steps
    runs = []
    for n in (1, cpus):
        counted = _cpus(monkeypatch, n)
        if not fork_ok:
            def failing_fork():
                counted.append(1)
                raise OSError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", failing_fork)
        code, out, err, _ = _verify_run(path, tmp_path / f"cpus{n}", capsys)
        runs.append((code, out, err))
        assert len(counted) == n - 1  # the first pass fails
    assert runs[0] == (3, "", "numerical failure: simulate_closed_loop: "
                              "non-finite value at node 61\n")
    assert runs[1] == runs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _mean_se(a):
    return a.mean(axis=0), a.std(axis=0, ddof=1) / np.sqrt(a.shape[0])


def _floor(target):
    return 1e-9 * (1.0 + abs(target))


def _expected_checks(sc):
    """Every verify row (estimate, se, target, band, passed) recomputed with
    plain numpy from the per-path numbers of the passes on both grids."""
    model, grid, n_paths = sc.model, sc.model.grid, sc.n_paths
    grid2 = TimeGrid(grid.T, 2 * grid.steps)
    sol = solve_all(model, grid)
    sol2 = solve_all(model, grid2)
    probes = list(dict.fromkeys(default_probe_nodes(grid)))
    eps = np.full(model.dims.m, 0.5)
    pert = ControlPolicy("perturbed_feedback", eps)
    st = simulate_statistics(model, sol, n_paths, sc.seed, probes,
                             [ControlPolicy("zero"), pert])
    st2 = simulate_statistics(model, sol2, n_paths, sc.seed,
                              [2 * pn for pn in probes], [pert])
    rows = {}

    def add(name, est, se, target, band, passed):
        rows[name] = (est, se, target, band, bool(passed))

    fb, fb2 = st.costs["filter_feedback"], st2.costs["filter_feedback"]
    cost, cost_se = _mean_se(fb)
    value = st.analytic_value
    band = 3 * cost_se + 3 * abs(cost - fb2.mean()) + _floor(value)
    add("cost_vs_value", cost, cost_se, value, band, abs(cost - value) <= band)

    for pn in probes:
        cov, cov_se = _mean_se(st.error_outer[pn])
        cov2 = st2.error_outer[2 * pn].mean(axis=0)
        diff = np.abs(cov - sol.Sigma[pn])
        bands = (3 * cov_se + 3 * np.abs(cov - cov2)
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
    band = (3 * til_se + 3 * abs(til - st2.tildeJ.mean())
            + _floor(til_value))
    add("decomposition_tildeJ", til, til_se, til_value, band,
        abs(til - til_value) <= band)

    for label in ("zero", "perturbed_feedback"):
        ex, ex_se = _mean_se(st.costs[label] - fb)
        add(f"not_beaten_by_{label}", ex, ex_se, 0.0, 2 * ex_se + _floor(0.0),
            ex + 2 * ex_se + _floor(0.0) >= 0.0)
    pred = np.trapezoid(np.einsum("a,tab,b->t", eps, model.R, eps),
                        grid.nodes)
    ex2 = (st2.costs["perturbed_feedback"] - fb2).mean()
    band = 3 * ex_se + 3 * abs(ex - ex2) + _floor(pred)
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
