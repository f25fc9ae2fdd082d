"""The benchmark's golden digests, checked in the test suite: every
reference item of each workload, built from the benchmark's golden seed,
must pass its check and hash to its digest in ``bench/golden.json``, so a
change to any output byte fails here and not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stockbraid import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def load_bench(name: str):
    """bench/<name>.py as the module bench_<name>, with bench/ on sys.path
    only while it loads, for the bench modules it imports by plain name
    (gen, spans); those are taken out of sys.modules again, so no later
    import can find any bench module by a plain name."""
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for added in set(sys.modules) - before - {spec.name}:
            if Path(getattr(sys.modules[added], "__file__", None) or "").parent == BENCH:
                del sys.modules[added]
    return module


@pytest.fixture(scope="module")
def bench():
    return load_bench("run"), load_bench("workloads")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_golden_items_are_byte_identical(name, bench, tmp_path):
    run, workloads = bench
    attempted, failed = run.golden_failures(cli.main, name, workloads.WORKLOADS[name], tmp_path)
    assert (attempted, failed) == (len(GOLDEN[name]["sha256"]), 0)
