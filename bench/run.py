"""Benchmark of the polqg command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  polqg is imported from ./src in child
processes; the benchmark writes only under bench/work/.

--trace 0 repeats rounds of one cold `polqg validate` of the workload's
scenario and one of its main CLI command, each in a fresh child process,
for S seconds.  It reports the medians of the main command's wall time and
peak resident set and of validate's wall time (setup_s).  --trace 1
repeats pairs of the main command, once untraced and once under
bench/tracer.py, for S seconds, and reports the medians of the per-layer
metrics of the traced runs.  Every command's outputs are checked against
the benchmark's own references (checks.py); medians are taken over the
commands that passed, and correct is false if any failed.  The last line
of standard output is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, here and in every child, before numpy is imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SIM_PATHS = 400
VERIFY_PATHS = 2000
TV3_STEPS = {"solve_tv3": 4000, "simulate_tv3_csv": 400}


@dataclass
class Workload:
    scenario: str                   # scenario file, also fed to validate
    argv: list[str]                 # main command, after `python -m polqg.cli`
    out: str                        # its output directory
    check: Callable[[str, str], None]  # check(out_dir, stdout)


@dataclass
class Run:
    wall_s: float
    peak_rss_mb: float
    exited_ok: bool  # exit code as expected
    checked_ok: bool  # outputs passed their checks (False if it did not exit 0)

    @property
    def failed(self) -> bool:
        return not (self.exited_ok and self.checked_ok)


def tally(runs: list[Run]) -> tuple[int, int, bool]:
    """attempted, failed, and whether every command passed."""
    failed = sum(r.failed for r in runs)
    return len(runs), failed, failed == 0


def median_of(runs: list[Run], field: str) -> float | None:
    """Median of one field over the runs that passed; None if none did."""
    values = [getattr(r, field) for r in runs if not r.failed]
    return statistics.median(values) if values else None


def prepare(name: str, seed: int, work: str) -> Workload:
    """Write the workload's inputs and compute its references."""
    out = os.path.join(work, "out")
    if name == "verify_scalar":
        scenario = inputs.write_scenario(inputs.scalar_scenario(),
                                         os.path.join(work, "scalar.json"))
        J, tJ = reference.tanh_value(), reference.tanh_tilde_J()
        return Workload(
            scenario,
            ["verify", "--scenario", scenario, "--out", out,
             "--paths", str(VERIFY_PATHS), "--seed", str(inputs.SCALAR_MC_SEED)],
            out,
            lambda o, s: checks.check_verify(o, s, inputs.SCALAR_STEPS, J, tJ))

    knots = inputs.tv3_knots(seed)
    doc = inputs.tv3_scenario(knots, TV3_STEPS[name])
    scenario = inputs.write_scenario(doc, os.path.join(work, f"tv3_{doc['steps'] + 1}.json"))
    ref = reference.tv3_value(knots)
    if name == "solve_tv3":
        return Workload(scenario, ["solve", "--scenario", scenario, "--out", out], out,
                        lambda o, s: checks.check_solve(o, s, doc, ref))
    return Workload(
        scenario,
        ["simulate", "--scenario", scenario, "--out", out,
         "--paths", str(SIM_PATHS), "--seed", str(seed)],
        out,
        lambda o, s: checks.check_simulate(o, s, doc, SIM_PATHS, ref))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLQG_SEED"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def spawn(cmd: list[str], log: str) -> tuple[float, float, int, str]:
    """Run cmd to completion through launch.py; wall time from spawn to
    exit, peak RSS of the command in MB, exit code and standard output."""
    launched = subprocess.run(
        [sys.executable, os.path.join(HERE, "launch.py"), log + ".out", log + ".err",
         "--", *cmd],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(launched.stdout)
    with open(log + ".out") as f:
        stdout = f.read()
    return res["wall_s"], res["maxrss_kb"] / 1024.0, res["code"], stdout


def run_checked(wl: Workload, cmd: list[str], log: str) -> Run:
    """One main command in a fresh output directory, then its checks."""
    shutil.rmtree(wl.out, ignore_errors=True)
    wall, rss, code, stdout = spawn(cmd, log)
    if code != 0:
        print(f"{' '.join(cmd)} exited {code}; see {log}.err", file=sys.stderr)
        return Run(wall, rss, False, False)
    try:
        wl.check(wl.out, stdout)
    # a missing or malformed output file is a wrong output too
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as e:
        print(f"check failed: {type(e).__name__}: {e}", file=sys.stderr)
        return Run(wall, rss, True, False)
    return Run(wall, rss, True, True)


def polqg_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "polqg.cli", *argv]


def repeat(seconds: float, once: Callable[[], object]) -> list:
    """Call `once` until `seconds` have passed, starting another call only
    if it ends by then at the mean pace so far; at least one call."""
    done: list = []
    start = time.perf_counter()
    while not done or time.perf_counter() + (time.perf_counter() - start) / len(done) \
            <= start + seconds:
        done.append(once())
    return done


def validate(wl: Workload, work: str) -> Run:
    """One cold `polqg validate` of the workload's scenario."""
    wall, rss, code, stdout = spawn(polqg_cmd(["validate", "--scenario", wl.scenario]),
                                    os.path.join(work, "validate"))
    setup = Run(wall, rss, code == 0, stdout.rstrip().endswith("validation: pass"))
    if setup.failed:
        print(f"validate exited {code} on {wl.scenario}", file=sys.stderr)
    return setup


def measure(wl: Workload, seconds: float, work: str) -> tuple[dict, int, int, bool]:
    """End-to-end metrics: rounds of one cold validate and one main command
    until `seconds` have passed."""
    rounds = repeat(seconds, lambda: (
        validate(wl, work),
        run_checked(wl, polqg_cmd(wl.argv), os.path.join(work, "main"))))
    setups, mains = [r[0] for r in rounds], [r[1] for r in rounds]
    metrics = {
        "wall_s": median_of(mains, "wall_s"),
        "setup_s": median_of(setups, "wall_s"),
        "peak_rss_mb": median_of(mains, "peak_rss_mb"),
    }
    return ({k: v for k, v in metrics.items() if v is not None},
            *tally(setups + mains))


def measure_traced(wl: Workload, seconds: float, work: str) -> tuple[dict, int, int, bool]:
    """Per-layer metrics: pairs of one untraced and one traced main command
    until `seconds` have passed; medians over the traced ones."""
    spans_path = os.path.join(work, "spans.json")
    traced_cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *wl.argv]

    def pair():
        plain = run_checked(wl, polqg_cmd(wl.argv), os.path.join(work, "plain"))
        traced = run_checked(wl, traced_cmd, os.path.join(work, "traced"))
        layers = None
        if not traced.failed:
            with open(spans_path) as f:
                layers = tracer.layer_metrics(json.load(f))
            layers["cli.bytes_written"] = sum(
                e.stat().st_size for e in os.scandir(wl.out) if e.is_file())
        return plain, traced, layers

    pairs = repeat(seconds, pair)
    layers = [p[2] for p in pairs if p[2] is not None]
    # median_low keeps a count an integer; counts repeat exactly anyway
    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]} if layers else {}
    # per-pair differences cancel the host's drift between pairs
    overheads = [traced.wall_s - plain.wall_s for plain, traced, _ in pairs
                 if not (plain.failed or traced.failed)]
    if overheads:
        metrics["trace.overhead_s"] = statistics.median(overheads)
    return (metrics, *tally([r for p in pairs for r in p[:2]]))


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    workloads = ("solve_tv3", "verify_scalar", "simulate_tv3_csv")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polqg", "cli.py")):
        print(f"polqg sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    wl = prepare(args.workload, args.seed, work)

    # untimed: first interpreter start with the package, compiles bytecode
    subprocess.run([sys.executable, "-c", "import polqg.cli"], env=child_env(),
                   cwd=ROOT, check=True)
    if args.trace:
        metrics, attempted, failed, correct = measure_traced(wl, args.seconds, work)
    else:
        metrics, attempted, failed, correct = measure(wl, args.seconds, work)

    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        print(f"no result: {failed} of {attempted} commands failed; "
              f"metrics missing: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
