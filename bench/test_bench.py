"""Tests of the benchmark itself: generator determinism, market words as
the program builds them, outputs unchanged under tracing, host-speed
scaling that keeps a slowdown's ratio, and failing checks counted as
failed items.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from gen import market_word, random_walk_table, table_csv  # noqa: E402
from spans import Tracer  # noqa: E402
from stockbraid import bracket, cli, outcome  # noqa: E402
from stockbraid.braid import free_reduce  # noqa: E402
from stockbraid.crossings import build_braid  # noqa: E402
from stockbraid.laurent import LaurentPoly  # noqa: E402
from stockbraid.market import parse_csv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def _pool(name: str, seed: int, workdir: Path):
    """The workload's pool without its slowest items, to keep the tests short."""
    pool = run.build_pool(WORKLOADS[name], seed, workdir)
    return [item for item in pool
            if item.sizes.get("cells", 0) <= 20000 and item.sizes.get("strands", 0) <= 6]


def _inputs(pool, workdir: Path) -> list:
    """Everything the program receives: argv with the directory masked,
    and the bytes of every generated file."""
    argv = [[a.replace(str(workdir), "<dir>") for a in item.argv] for item in pool]
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.csv"))}
    return [argv, files]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name, tmp_path):
    a = _inputs(_pool(name, 7, tmp_path / "a"), tmp_path / "a")
    b = _inputs(_pool(name, 7, tmp_path / "b"), tmp_path / "b")
    c = _inputs(_pool(name, 8, tmp_path / "c"), tmp_path / "c")
    assert a == b
    assert a != c


def test_price_walks_have_ties_and_flat_days():
    import random

    table = random_walk_table(random.Random(3), 12, 600)
    flat_days = sum(a == b for a, b in zip(table.cents, table.cents[1:]))
    tie_days = sum(len(set(row)) < len(row) for row in table.cents)
    assert flat_days > 0 and tie_days > 0
    text = table_csv(table, descending=True, us_dates=True)
    assert text == table_csv(table, descending=True, us_dates=True)
    assert text.splitlines()[0] == "Date," + ",".join(table.tickers)


def test_market_words_are_the_braids_the_program_builds():
    import random

    rng = random.Random(11)
    for n_tickers, reduced in ((3, 60), (5, 40), (8, 120)):
        table, gens = market_word(rng, n_tickers, reduced)
        built = build_braid(parse_csv(table_csv(table, descending=False, us_dates=False)))
        assert [g.index * g.exponent for g in built.generators] == gens
        # Price paths that cross back give adjacent inverse pairs.
        assert reduced <= len(free_reduce(built).generators) < len(gens)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    pool = _pool(name, 5, tmp_path)
    reference: dict = {}
    untraced, _ = run.run_passes(cli.main, pool, reference, passes=1)
    assert not any(r.problems for r in untraced)
    original = bracket.bracket_poly, LaurentPoly.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        main = tracer.span("cli.main", cli.main)
        traced, _ = run.run_passes(main, pool, reference, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not any(r.problems for r in traced)
    assert (bracket.bracket_poly, LaurentPoly.__mul__) == original
    items = {span[4] for span in tracer.spans if span[0] == "cli.main"}
    assert items == set(range(len(pool)))
    assert all(span[2] - span[1] >= span[5] >= 0 for span in tracer.spans)


def test_scaled_times_move_with_a_slowdown_like_wall_times(tmp_path, monkeypatch):
    """Every bracket_poly call made twice: the scaled p50 must grow by the
    ratio the wall-time p50 grows by.  Each item runs plain and then
    slowed, so both runs of an item see the same host speed."""
    import statistics

    pool = _pool("exact_invariants", 5, tmp_path)
    reference: dict = {}
    run.run_passes(cli.main, pool, reference, passes=1)
    original = bracket.bracket_poly

    def twice(k, **kwargs):
        original(k, **kwargs)
        return original(k, **kwargs)

    records = []
    for _ in range(3):
        for item in pool:
            records.append(run.run_item(cli.main, item, reference))
            with monkeypatch.context() as patch:
                patch.setattr(bracket, "bracket_poly", twice)
                patch.setattr(cli, "bracket_poly", twice)
                records.append(run.run_item(cli.main, item, reference))
    assert not any(r.problems for r in records)

    def p50_ratio(ms: list[float]) -> float:
        return statistics.median(ms[1::2]) / statistics.median(ms[::2])

    wall, scaled = p50_ratio(run.item_ms(records)), p50_ratio(run.scaled_ms(records))
    assert wall > 1.5
    assert abs(scaled / wall - 1) < 0.15


def test_failing_check_counts_as_failed(tmp_path, monkeypatch):
    pool = _pool("exact_invariants", 5, tmp_path)[:12]
    monkeypatch.setattr(cli, "bracket_poly", lambda k: bracket.bracket_poly(k) + LaurentPoly.one())
    records, _ = run.run_passes(cli.main, pool, {}, passes=2)
    failed = sum(1 for r in records if r.problems)
    assert failed / len(records) > 0
    assert any("bracket" in p for r in records for p in r.problems)


def test_wrong_numeric_bracket_counts_as_failed(tmp_path, monkeypatch):
    pool = _pool("readout_prob", 5, tmp_path)[:4]
    monkeypatch.setattr(outcome, "bracket_eval", lambda k, a: bracket.bracket_eval(k, a) * (1 + 1e-6))
    records, _ = run.run_passes(cli.main, pool, {}, passes=1)
    assert all(any("reference sweep" in p for p in r.problems) for r in records)


def test_exit_code_and_stderr_count_as_failed(tmp_path):
    pool = _pool("readout_prob", 5, tmp_path)[:2]

    def noisy_main(argv):
        print("warning", file=sys.stderr)
        cli.main(argv)
        return 1

    records, _ = run.run_passes(noisy_main, pool, {}, passes=1)
    assert all("exit code 1" in r.problems and any(p.startswith("stderr") for p in r.problems)
               for r in records)
