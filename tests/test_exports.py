import importlib
import pkgutil

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
