"""Tests of the benchmark's checks: each must pass on polqg's real output
and fail on a planted wrong one.

    python3 bench/selftest.py

Runs polqg solve, verify (plain and with --debug-scale-sigma 2) and
simulate once each, about half a minute, under bench/work/selftest/.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest

import numpy as np

import checks
import run
import tracer
from checks import CheckFailed

WORK = os.path.join(run.WORK, "selftest")
SEED = 1


def _produce(name: str, extra: list[str] = (), tag: str = ""):
    """Run a workload's main command once; returns (workload, stdout, code)."""
    work = os.path.join(WORK, name + tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = run.prepare(name, SEED, work)
    _, _, code, stdout = run.spawn(run.polqg_cmd(wl.argv + list(extra)),
                                   os.path.join(work, "main"))
    return wl, stdout, code


def _copy(out: str, tag: str) -> str:
    dst = os.path.join(WORK, "planted", tag)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(out, dst)
    return dst


class SolveChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.stdout, code = _produce("solve_tv3")
        assert code == 0, code

    def assertFails(self, out, stdout=None):
        with self.assertRaises(CheckFailed):
            self.wl.check(out, self.stdout if stdout is None else stdout)

    def edit_solution(self, tag, edit):
        out = _copy(self.wl.out, tag)
        path = os.path.join(out, "solution.json")
        with open(path) as f:
            doc = json.load(f)
        edit(doc["nodes"])
        with open(path, "w") as f:
            json.dump(doc, f)
        return out

    def test_real_output_passes(self):
        self.wl.check(self.wl.out, self.stdout)

    def test_total_off_by_1e4_fails(self):
        total = checks._printed_total(self.stdout)
        self.assertFails(self.wl.out, f"total optimal value: {total * (1 + 1e-4)!r}\n")

    def test_nan_total_fails(self):
        self.assertFails(self.wl.out, "total optimal value: nan\n")

    def test_value_json_mismatch_fails(self):
        out = _copy(self.wl.out, "value")
        path = os.path.join(out, "value.json")
        with open(path) as f:
            doc = json.load(f)
        doc["breakdown"]["total"] = np.nextafter(doc["breakdown"]["total"], np.inf)
        with open(path, "w") as f:
            json.dump(doc, f)
        self.assertFails(out)

    def test_terminal_P_one_ulp_off_fails(self):
        def edit(nodes):
            nodes[-1]["P"][0][0] = float(np.nextafter(nodes[-1]["P"][0][0], np.inf))
        self.assertFails(self.edit_solution("P_T", edit))

    def test_phi_T_off_fails(self):
        def edit(nodes):
            nodes[-1]["phi"][1] = float(np.nextafter(nodes[-1]["phi"][1], np.inf))
        self.assertFails(self.edit_solution("phi_T", edit))

    def test_sigma_0_nonzero_fails(self):
        def edit(nodes):
            nodes[0]["Sigma"][1][1] = 1e-300
        self.assertFails(self.edit_solution("Sigma_0", edit))

    def test_asymmetric_Pi_fails(self):
        def edit(nodes):
            nodes[1234]["Pi"][0][2] = float(np.nextafter(nodes[1234]["Pi"][0][2], np.inf))
        self.assertFails(self.edit_solution("Pi_asym", edit))

    def test_indefinite_Sigma_fails(self):
        def edit(nodes):
            nodes[2000]["Sigma"] = (-np.eye(3)).tolist()
        self.assertFails(self.edit_solution("Sigma_psd", edit))


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.stdout, code = _produce("verify_scalar")
        assert code == 0, code

    def edit_report(self, tag, edit):
        out = _copy(self.wl.out, tag)
        path = os.path.join(out, "report.json")
        with open(path) as f:
            doc = json.load(f)
        edit({c["name"]: c for c in doc["checks"]}, doc)
        with open(path, "w") as f:
            json.dump(doc, f)
        return out

    def test_real_output_passes(self):
        self.wl.check(self.wl.out, self.stdout)

    def test_debug_scaled_sigma_fails(self):
        wl, stdout, code = _produce("verify_scalar", ["--debug-scale-sigma", "2"], "_sigma2")
        self.assertEqual(code, 4)
        with self.assertRaises(CheckFailed):
            wl.check(wl.out, stdout)

    def test_value_target_off_by_1e4_fails(self):
        def edit(c, doc):
            c["cost_vs_value"]["target"] += 1e-4
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_report("target", edit), self.stdout)

    def test_tildeJ_estimate_outside_band_fails(self):
        def edit(c, doc):
            c["decomposition_tildeJ"]["estimate"] += 2 * c["decomposition_tildeJ"]["band"]
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_report("tildeJ", edit), self.stdout)

    def test_perturbation_target_fails(self):
        def edit(c, doc):
            c["perturbed_excess_vs_prediction"]["target"] = 0.2500001
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_report("pert", edit), self.stdout)

    def test_missing_check_fails(self):
        def edit(c, doc):
            doc["checks"] = [x for x in doc["checks"] if x["name"] != "brownianity_lag1"]
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_report("missing", edit), self.stdout)


class SimulateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.stdout, code = _produce("simulate_tv3_csv")
        assert code == 0, code

    def edit_file(self, tag, j, edit):
        out = _copy(self.wl.out, tag)
        path = os.path.join(out, f"path_{j:05d}.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        edit(lines)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return out

    def test_real_output_passes(self):
        self.wl.check(self.wl.out, self.stdout)

    def test_edited_cost_record_fails(self):
        def edit(lines):
            cost = float(lines[-1].split(",")[1])
            lines[-1] = f"# cost,{cost * (1 + 1e-6)!r}"
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_file("cost", 123, edit), self.stdout)

    def test_edited_xtil_fails(self):
        def edit(lines):
            row = lines[200].split(",")
            col = lines[0].split(",").index("Xtil2")
            row[col] = repr(float(np.nextafter(float(row[col]), np.inf)))
            lines[200] = ",".join(row)
        with self.assertRaises(CheckFailed):
            self.wl.check(self.edit_file("xtil", 7, edit), self.stdout)

    def test_missing_file_fails(self):
        out = _copy(self.wl.out, "missing")
        os.remove(os.path.join(out, "path_00399.csv"))
        with self.assertRaises(CheckFailed):
            self.wl.check(out, self.stdout)

    def test_shifted_mean_fails(self):
        with open(self.wl.scenario) as f:
            doc = json.load(f)
        costs = []
        for j in range(run.SIM_PATHS):
            with open(os.path.join(self.wl.out, f"path_{j:05d}.csv")) as f:
                costs.append(float(f.read().splitlines()[-1].split(",")[1]))
        wrong_ref = float(np.mean(costs)) + 10 * float(np.std(costs))
        with self.assertRaises(CheckFailed):
            checks.check_simulate(self.wl.out, self.stdout, doc, run.SIM_PATHS, wrong_ref)


class Tally(unittest.TestCase):
    def test_failed_command_makes_run_incorrect(self):
        runs = [run.Run(5.0, 60.0, True, True),
                run.Run(0.5, 20.0, False, False),  # crashed early
                run.Run(4.0, 60.0, True, False)]   # wrong output
        self.assertEqual(run.tally(runs), (3, 2, False))
        self.assertEqual(run.median_of(runs, "wall_s"), 5.0)

    def test_no_passing_command_gives_no_median(self):
        self.assertIsNone(run.median_of([run.Run(0.5, 20.0, False, False)], "wall_s"))


class LayerMetrics(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        doc = {"counts": {"interp_calls": 5, "distinct_paths": 3, "paths": 6},
               "spans": [["verify.reduce", 0.0, 10.0, -1],
                         ["simulate.noise", 1.0, 3.0, 0],
                         ["simulate.kernel", 3.0, 7.0, 0],
                         ["model.resample", 4.0, 5.0, 2],
                         ["cli.parse", 20.0, 22.0, -1],
                         ["model.validate", 20.5, 21.5, 4]]}
        m = tracer.layer_metrics(doc)
        self.assertEqual(m["verify.reduce_s"], 4.0)
        self.assertEqual(m["simulate.noise_s"], 2.0)
        self.assertEqual(m["simulate.kernel_s"], 3.0)
        self.assertEqual(m["model.resample_s"], 1.0)
        self.assertEqual(m["cli.parse_s"], 2.0)  # includes validate
        self.assertEqual(m["model.validate_s"], 1.0)
        self.assertEqual(m["simulate.kernel_calls"], 1)
        self.assertEqual(m["model.interp_calls"], 5)
        self.assertEqual(m["simulate.distinct_ratio"], 0.5)
        self.assertEqual(m["simulate.csv_s"], 0.0)


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(run.SRC, "polqg")):
        sys.exit(f"polqg sources not found under {run.SRC}")
    unittest.main()
