"""Layer tracing of one polqg CLI command, from outside the package.

Run as a program, it wraps the module-level functions through which one
layer of polqg calls the next, on the names the calling module looks up,
then runs polqg.cli.main in-process:

    python3 bench/tracer.py SPANS.json -- solve --scenario s.json --out o

Each wrapped call records a span (name, start, end, parent index); the
hottest entry points (interp_table, draw_noise, integrate_matrix_ode,
solve_all) are only counted.  Spans and counts stay in memory and are
written to SPANS.json once, after the command returns.  `layer_metrics`
turns such a file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name
SPANNED = {
    ("polqg.cli", "parse_scenario"): "cli.parse",
    ("polqg.cli", "_write_json"): "cli.write",
    ("polqg.cli", "_write_series_csv"): "cli.write",
    ("polqg.cli", "validate"): "model.validate",
    ("polqg.detsolve", "table_at_nodes"): "model.resample",
    ("polqg.value", "table_at_nodes"): "model.resample",
    ("polqg.simulate", "table_at_nodes"): "model.resample",
    ("polqg.verify", "table_at_nodes"): "model.resample",
    ("polqg.detsolve", "solve_P"): "detsolve.P",
    ("polqg.detsolve", "solve_phi"): "detsolve.phi",
    ("polqg.detsolve", "solve_Sigma"): "detsolve.Sigma",
    ("polqg.detsolve", "solve_Pi"): "detsolve.Pi",
    ("polqg.cli", "solve_Pi"): "detsolve.Pi",
    ("polqg.detsolve", "solve_pi"): "detsolve.pi",
    ("polqg.cli", "solve_pi"): "detsolve.pi",
    ("polqg.detsolve", "compute_Theta"): "detsolve.gains",
    ("polqg.detsolve", "compute_Delta"): "detsolve.gains",
    ("polqg.cli", "compute_Delta"): "detsolve.gains",
    ("polqg.detsolve", "compute_curlyA"): "detsolve.gains",
    ("polqg.cli", "compute_curlyA"): "detsolve.gains",
    ("polqg.cli", "optimal_value"): "value",
    ("polqg.verify", "optimal_value"): "value",
    ("polqg.verify", "tilde_J"): "value",
    ("polqg.cli", "bundle_to_csv"): "simulate.csv",
    ("polqg.cli", "run_batch"): "verify.reduce",
    ("polqg.cli", "compare_policies"): "verify.reduce",
    ("polqg.cli", "decomposition_check"): "verify.reduce",
    ("polqg.cli", "brownianity_report"): "verify.reduce",
}
GENERATORS = {("polqg.cli", "iter_path_bundles"): "verify.reduce"}
NOISE = ("polqg.verify", "_noise_stack")
KERNEL = ("polqg.verify", "_closed_loop_arrays")
COUNTED = {
    ("polqg.model", "interp_table"): "interp_calls",
    ("polqg.detsolve", "interp_table"): "interp_calls",
    ("polqg.value", "interp_table"): "interp_calls",
    ("polqg.simulate", "interp_table"): "interp_calls",
    ("polqg.cli", "interp_table"): "interp_calls",
    ("polqg.verify", "draw_noise"): "noise_draws",
    ("polqg.cli", "solve_all"): "solve_all_calls",
}

# per-layer metric -> how it is made from the span file; units are in BENCHMARK.json
LAYER_METRICS = {
    "cli.parse_s": ("total", "cli.parse"),
    "cli.write_s": ("self", "cli.write"),
    "model.validate_s": ("self", "model.validate"),
    "model.interp_calls": ("count", "interp_calls"),
    "model.resample_s": ("self", "model.resample"),
    "model.resample_calls": ("spans", "model.resample"),
    "detsolve.P_s": ("self", "detsolve.P"),
    "detsolve.phi_s": ("self", "detsolve.phi"),
    "detsolve.Sigma_s": ("self", "detsolve.Sigma"),
    "detsolve.Pi_s": ("self", "detsolve.Pi"),
    "detsolve.pi_s": ("self", "detsolve.pi"),
    "detsolve.gains_s": ("self", "detsolve.gains"),
    "detsolve.rk4_steps": ("count", "rk4_steps"),
    "detsolve.solve_all_calls": ("count", "solve_all_calls"),
    "value.s": ("self", "value"),
    "simulate.noise_s": ("self", "simulate.noise"),
    "simulate.noise_draws": ("count", "noise_draws"),
    "simulate.kernel_s": ("self", "simulate.kernel"),
    "simulate.kernel_calls": ("spans", "simulate.kernel"),
    "simulate.path_steps": ("count", "path_steps"),
    "simulate.distinct_ratio": ("ratio", "distinct_paths", "paths"),
    "simulate.csv_s": ("self", "simulate.csv"),
    "verify.reduce_s": ("self", "verify.reduce"),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self._last_noise = None  # (dW array, (seed, j0, steps, T))

    def _enter(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        return rec

    def _leave(self, rec: list):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(rec)
        return wrapper

    def spanned_generator(self, name: str, fn):
        """One span per resume, so time spent by the consumer between
        items is not charged to the generator."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(rec)
                yield item
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def rk4(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(rhs, boundary, grid, *args, **kwargs):
            counts["rk4_steps"] += grid.steps
            return fn(rhs, boundary, grid, *args, **kwargs)
        return wrapper

    def noise(self, fn):
        """_noise_stack(seed, j0, j1, grid, dims): remember which paths the
        returned increments belong to."""
        inner = self.spanned("simulate.noise", fn)

        @functools.wraps(fn)
        def wrapper(seed, j0, j1, grid, dims):
            dW, dWp = inner(seed, j0, j1, grid, dims)
            self._last_noise = (dW, (seed, j0, grid.steps, grid.T))
            return dW, dWp
        return wrapper

    def kernel(self, fn):
        """_closed_loop_arrays(model, sol, policy, dW, dWp): count paths,
        path-steps and distinct (policy, grid, path) triples."""
        inner = self.spanned("simulate.kernel", fn)

        @functools.wraps(fn)
        def wrapper(model, sol, policy, dW, dWp):
            npaths, steps = dW.shape[0], dW.shape[1]
            self.counts["paths"] += npaths
            self.counts["path_steps"] += npaths * steps
            table = None if policy.table is None else policy.table.tobytes()
            pkey = (policy.kind, policy.label, table)
            # verify hands the kernel the increments _noise_stack just drew
            noise, (seed, j0, nsteps, T) = self._last_noise
            assert noise is dW, "kernel called on increments not from _noise_stack"
            self.distinct.update((pkey, nsteps, T, seed, j0 + p) for p in range(npaths))
            return inner(model, sol, policy, dW, dWp)
        return wrapper

    def install(self):
        import importlib

        def patch(target, make):
            mod = importlib.import_module(target[0])
            setattr(mod, target[1], make(getattr(mod, target[1])))

        for target, name in SPANNED.items():
            patch(target, functools.partial(self.spanned, name))
        for target, name in GENERATORS.items():
            patch(target, functools.partial(self.spanned_generator, name))
        for target, key in COUNTED.items():
            patch(target, functools.partial(self.counted, key))
        patch(("polqg.detsolve", "integrate_matrix_ode"), self.rk4)
        patch(NOISE, self.noise)
        patch(KERNEL, self.kernel)

    def dump(self, path: str, argv: list[str]):
        counts = dict(self.counts)
        counts["distinct_paths"] = len(self.distinct)
        with open(path, "w") as f:
            json.dump({"argv": argv, "spans": self.spans, "counts": counts}, f)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from a span file.  A layer's self time is its
    spans' durations minus the time their child spans cover."""
    spans, counts = doc["spans"], doc["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own, nspans = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        nspans[name] += 1
        own[name] += (end - start) - child_time[i]
        if parent < 0 or spans[parent][0] != name:
            total[name] += end - start

    out = {}
    for metric, how in LAYER_METRICS.items():
        kind = how[0]
        if kind == "total":
            out[metric] = float(total[how[1]])
        elif kind == "self":
            out[metric] = float(own[how[1]])
        elif kind == "spans":
            out[metric] = nspans[how[1]]
        elif kind == "count":
            out[metric] = int(counts.get(how[1], 0))
        else:
            den = counts.get(how[2], 0)
            out[metric] = counts.get(how[1], 0) / den if den else 0.0
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <polqg arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from polqg.cli import main as cli_main
    code = cli_main(cli_args)
    tracer.dump(spans_path, cli_args)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
