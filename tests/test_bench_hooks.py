"""The benchmark's tracer patches polqg functions by (module, name) from
outside the package; these tests keep those hooks in place."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets(tracer):
    rk4 = ("polqg.detsolve", "integrate_matrix_ode")
    return [*tracer.SPANNED, *tracer.GENERATORS, *tracer.COUNTED,
            tracer.NOISE, tracer.KERNEL, rk4]


def test_every_traced_name_resolves():
    tracer = _tracer()
    for module, name in _targets(tracer):
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def test_every_unused_import_is_a_traced_name():
    # a name imported only for the tracer is marked `# noqa: F401`; once the
    # tracer stops wrapping it, the import is dead and should go
    targets = set(_targets(_tracer()))
    sources = sorted((ROOT / "src" / "polqg").glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        name = (f"polqg.{path.stem}", alias.asname or alias.name)
                        assert name in targets, f"{path.name}:{alias.lineno} {name[1]}"


def test_wrapped_signatures_take_the_tracer_arguments():
    # the wrappers forward these arguments positionally
    from polqg.detsolve import integrate_matrix_ode
    from polqg.verify import _closed_loop_arrays, _noise_stack
    inspect.signature(_closed_loop_arrays).bind("model", "sol", "policy", "dW", "dWp")
    inspect.signature(_noise_stack).bind("seed", "j0", "j1", "grid", "dims")
    inspect.signature(integrate_matrix_ode).bind("rhs", "boundary", "grid", "forward")


def test_traced_verify_runs(tmp_path, monkeypatch):
    # the tracer sees only this process's spans, and verify forks one
    # worker per CPU: run on one CPU, so every path runs here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracer = _tracer()
    originals = {t: getattr(importlib.import_module(t[0]), t[1]) for t in _targets(tracer)}
    doc = {
        "dims": {"n": 1, "m": 1, "d": 1, "k": 1}, "T": 1.0, "steps": 20,
        "x0": [1.0],
        "coefficients": {"constant": {
            "A": [[0.0]], "B": [[1.0]], "a": [0.0], "C": [[0.0]],
            "D": [[1.0]], "H": [[1.0]], "h": [0.0], "K": [[1.0]]}},
        "cost": {"G": [[0.0]], "g": [0.0], "constant": {
            "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], "q": [0.0], "r": [0.0]}},
    }
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    try:  # tracer.main patches the polqg modules in place; undo that after
        code = tracer.main([str(tmp_path / "spans.json"), "--", "verify",
                            "--scenario", str(scenario), "--out", str(tmp_path / "v"),
                            "--paths", "8", "--seed", "1", "--debug-scale-sigma", "2"])
    finally:
        for (module, name), fn in originals.items():
            setattr(importlib.import_module(module), name, fn)
    assert code in (0, 4)
    metrics = tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    # one pass per grid, each policy once on one noise draw: feedback, zero
    # and perturbed feedback on the N grid, feedback and perturbed feedback
    # on the 2N grid; no path is simulated twice
    assert metrics["simulate.kernel_calls"] == 5
    assert metrics["simulate.path_steps"] == 3 * 8 * 20 + 2 * 8 * 40
    assert metrics["simulate.distinct_ratio"] == 1.0
    # the tracer counts the steps of integrate_matrix_ode, and solve_all
    # composes step maps instead of stepping it
    assert metrics["detsolve.rk4_steps"] == 0
    # solve_filter_side steps Pi through the wrapped solve_Pi
    assert metrics["detsolve.Pi_s"] > 0
    assert np.isfinite(metrics["verify.reduce_s"])
