import importlib
import os
import pkgutil
import subprocess
import sys

import polqg


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its export list too
    modules = [polqg] + [importlib.import_module(f"polqg.{m.name}")
                         for m in pkgutil.iter_modules(polqg.__path__)]
    checked = set()
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names {name!r}"
            checked.add(name)
    assert {"solve_all", "validate", "simulate_statistics", "main"} <= checked


def test_import_does_not_load_numpy_random():
    # numpy.random loads lazily and costs about 6 MB and 10 ms; only noise
    # generation needs it, so `polqg solve` and `validate` must not pay
    code = "import sys, polqg.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).returncode == 0


def test_import_does_not_load_process_pools():
    # `polqg validate` imports cli, and multiprocessing alone costs 5-8 ms of
    # import; simulate forks its writers, and verify its Monte Carlo
    # workers, with os.fork instead
    code = ("import sys, polqg.cli; "
            "sys.exit(bool({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).returncode == 0
