import ast
import importlib
import os
import pathlib
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
    # import; solve, simulate and verify fork their workers with os.fork in
    # verify._run_in_shares instead
    code = ("import sys, polqg.cli; "
            "sys.exit(bool({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).returncode == 0


def test_import_does_not_build_the_format_tables():
    # the power-of-ten and layout tables of simulate._format_rows_17g are
    # made on the first path or series file, so `validate` never pays
    code = ("import sys, polqg.cli, polqg.simulate as s; "
            "sys.exit(s._format_tables.cache_info().currsize)")
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).returncode == 0


def test_only_the_share_driver_forks():
    # one fork driver decides how work is shared out and what is rerun
    # after a failure; a second call site would carry its own rules
    def fork_callers(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "fork":
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from fork_callers(child, scope)

    package = pathlib.Path(polqg.__file__).parent
    callers = [(path.name, scope) for path in sorted(package.glob("*.py"))
               for scope in fork_callers(ast.parse(path.read_text()), None)]
    assert callers == [("verify.py", "_run_in_shares")]


def test_only_the_scenario_reader_decodes_json():
    # parse_scenario reads each table straight into an array through
    # cli._read_json; a second decoder would hold a whole document's
    # numbers as Python lists again
    def decoders(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
            yield scope, "import"
        if isinstance(node, ast.Attribute) and (
                node.attr in ("raw_decode", "scan_once")
                or (isinstance(node.value, ast.Name) and node.value.id == "json"
                    and node.attr in ("load", "loads", "JSONDecoder", "decoder", "scanner"))):
            yield scope, "decode"
        if isinstance(node, ast.Name) and node.id == "_read_json":
            yield scope, "read"
        for child in ast.iter_child_nodes(node):
            yield from decoders(child, scope)

    package = pathlib.Path(polqg.__file__).parent
    found = {(path.name, scope, what) for path in sorted(package.glob("*.py"))
             for scope, what in decoders(ast.parse(path.read_text()), None)}
    assert found == {("cli.py", "_read_json", "decode"), ("cli.py", "parse_scenario", "read")}


def test_only_the_chunk_loop_sizes_a_chunk():
    # verify._simulate_chunks cuts paths into chunks by one byte budget; an
    # integer chunk-length default elsewhere would size chunks by its own
    # rule, outside that budget
    def fixed_lengths(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                named = list(zip(reversed(args.posonlyargs + args.args),
                                 reversed(args.defaults)))
                named += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for arg, default in named:
                    if ("chunk" in arg.arg.lower() and isinstance(default, ast.Constant)
                            and type(default.value) is int):
                        yield node.name, arg.arg

    package = pathlib.Path(polqg.__file__).parent
    found = [(path.name, *hit) for path in sorted(package.glob("*.py"))
             for hit in fixed_lengths(ast.parse(path.read_text()))
             if hit[0] != "_simulate_chunks"]
    assert found == []
