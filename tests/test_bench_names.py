"""The package names that the benchmark under bench/ uses.

The tracer in bench/spans.py rebinds functions and LaurentPoly methods
by name, and the other bench modules import names from the package and
read attributes of them, so a rename or deletion in the package breaks
`bench/run.py` without failing any other test.  Two of those reads are
why BraidWord.from_ints and Generator are still public: bench/workloads.py
calls from_ints, and bench/test_bench.py reads each item of a word's
generators.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from stockbraid import bracket, braid, cli, outcome, parse_csv
from stockbraid.crossings import build_braid
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
    # bench/spans.py's tracer rebinds these where prob calls them.
    assert vars(cli)["free_reduce"] is braid.free_reduce
    assert vars(cli)["interference_braid"] is outcome.interference_braid


def _bench_trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(BENCH.glob("*.py"))]


def _resolve(module: str, name: str):
    """What `from module import name` binds, or None if it fails."""
    target = importlib.import_module(module)
    if hasattr(target, name):
        return getattr(target, name)
    try:  # a submodule not yet imported
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_every_imported_package_name_resolves():
    imported = []
    for file, tree in _bench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(file, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [(file, node.module, alias.name) for alias in node.names]
    imported = [entry for entry in imported if entry[1].split(".")[0] == "stockbraid"]
    assert imported
    missing = []
    for file, module, name in imported:
        if name is None:
            importlib.import_module(module)
        elif _resolve(module, name) is None:
            missing.append(f"{file}: from {module} import {name}")
    assert not missing


def test_every_attribute_read_of_an_imported_package_name_resolves():
    # Name.attr, where Name is bound by `from stockbraid... import Name`.
    reads = set()
    for file, tree in _bench_trees():
        bound = {
            alias.asname or alias.name: (f"{node.module}.{alias.name}", _resolve(node.module, alias.name))
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "stockbraid"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                reads.add((file, *bound[node.value.id], node.attr))
    assert {(file, name, attr) for file, name, _, attr in reads} >= {
        ("workloads.py", "stockbraid.braid.BraidWord", "from_ints"),
        ("test_bench.py", "stockbraid.laurent.LaurentPoly", "__mul__"),
        ("test_bench.py", "stockbraid.bracket", "bracket_poly"),
    }
    missing = [f"{file}: {name}.{attr}" for file, name, value, attr in reads if not hasattr(value, attr)]
    assert not missing


def test_a_words_generators_read_as_its_values():
    # bench/test_bench.py reads a built word's generators item by item;
    # CI does not run that file, so its read is restated here.
    w = build_braid(parse_csv((Path(__file__).parent / "data" / "dow4_2013.csv").read_text(encoding="utf-8")))
    assert {v > 0 for v in w.values} == {True, False}
    assert [g.index * g.exponent for g in w.generators] == list(w.values)
