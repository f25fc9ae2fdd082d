"""The package names that bench/spans.py wraps when it traces a run.

The tracer rebinds functions and LaurentPoly methods by name, so a
rename or deletion in the package breaks `bench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from stockbraid import bracket, cli, outcome
from stockbraid.laurent import LaurentPoly

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
