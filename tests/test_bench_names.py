"""The package names that the benchmark under bench/ uses.

The tracer in bench/spans.py rebinds functions and LaurentPoly methods
by name, and the other bench modules import names from the package, so a
rename or deletion in the package breaks `bench/run.py` without failing
any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from stockbraid import bracket, cli, outcome
from stockbraid.laurent import LaurentPoly

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_exist():
    for layer, names in _spans().SPANNED.items():
        module = importlib.import_module(f"stockbraid.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"stockbraid.{layer}.{name}"


def test_counted_methods_are_laurent_methods():
    for methods in _spans().COUNTED.values():
        for method in methods:
            assert method in vars(LaurentPoly), method


def test_patched_bindings_are_module_bindings():
    # bench/test_bench.py monkeypatches these names on the modules.
    assert vars(outcome)["bracket_eval"] is bracket.bracket_eval
    assert vars(cli)["bracket_poly"] is bracket.bracket_poly


def test_every_imported_package_name_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    imported = [entry for entry in imported if entry[1].split(".")[0] == "stockbraid"]
    assert imported
    missing = []
    for file, module, name in imported:
        target = importlib.import_module(module)
        if name is None or hasattr(target, name):
            continue
        try:  # a submodule not yet imported
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{file}: from {module} import {name}")
    assert not missing
