import copy
import json

import numpy as np
import pytest

from polqg import ToleranceConfig, compute_gain, solve_all
from polqg.cli import _scaled_sigma_solution, main, parse_scenario

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


def test_simulate_zero_paths(tmp_path, capsys):
    path = write_doc(tmp_path, bench_doc())
    out = tmp_path / "empty"
    assert main(["simulate", "--scenario", path, "--out", str(out),
                 "--paths", "0"]) == 0
    assert list(out.iterdir()) == []


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    _, by_scenario = run_simulate(tmp_path, bench_doc(), "scen")  # seed 7
    monkeypatch.setenv("POLQG_SEED", "9")
    _, by_env = run_simulate(tmp_path, bench_doc(), "env")
    _, by_flag = run_simulate(tmp_path, bench_doc(), "flag",
                              extra=("--seed", "7"))
    a = (by_scenario / "path_00000.csv").read_bytes()
    assert (by_env / "path_00000.csv").read_bytes() != a
    assert (by_flag / "path_00000.csv").read_bytes() == a


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
    out = tmp_path / "v"
    assert main(["verify", "--scenario", path, "--out", str(out),
                 "--debug-scale-sigma", "1.5"]) == 4
    printed = capsys.readouterr().out
    assert "FAIL" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert any(n.startswith("error_cov_node") for n in failed)


def test_scaled_sigma_by_one_is_the_solution():
    # the debug path rebuilds the filter side with the function solve_all uses
    model, grid = random_validated_model(np.random.default_rng(4),
                                         time_varying=True)
    tol = ToleranceConfig()
    sol = solve_all(model, grid, tol)
    again = _scaled_sigma_solution(model, sol, 1.0, tol)
    for name in ("Sigma", "Delta", "curlyA", "gain", "Pi", "pi_vec"):
        np.testing.assert_array_equal(getattr(again, name).values,
                                      getattr(sol, name).values, err_msg=name)
    # a scaled Sigma reaches the gain the simulated filter uses
    scaled = _scaled_sigma_solution(model, sol, 2.0, tol)
    np.testing.assert_array_equal(scaled.gain.values,
                                  compute_gain(scaled.Sigma, sol.table).values)
    assert not np.array_equal(scaled.gain.values, sol.gain.values)


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
