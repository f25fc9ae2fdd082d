"""Benchmark of the stockbraid CLI on seeded workloads, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src.
One client in one process drives a closed loop: an item is one call of
`stockbraid.cli.main(argv)` with stdout and stderr captured, and the next
item starts when the previous one returns.  Items come from a pool built
from the seed (workloads.py).  Whole passes over the pool repeat until
--seconds have elapsed, so every run does the same mix of work.  Each
item's output gets the full check on its first pass and must repeat
byte for byte on later passes; every GOLDEN_STRIDE-th item of the pool
built from GOLDEN_SEED must also match its digest in golden.json.

Host speed.  On the shared 2-CPU host the benchmark was built on, the
time of a fixed piece of pure-Python work varied by up to 2x between
stretches of a few seconds in one run, and its run medians by up to 17%
between runs a few minutes apart, while the benchmark ran alone: the
swings come from the host.  Every item and every set-up start is
therefore preceded by a fixed piece of reference work that never calls
stockbraid, and each reported time is scaled to the host speed at which
that work takes REF_NOMINAL_S:

    scaled = wall * REF_NOMINAL_S / (median reference time around it)

The reference work does not change with stockbraid, so a change that
makes stockbraid slower by some ratio moves the scaled times by that
ratio, as the wall times do (test_bench.py checks this).  The wall-time
metrics are printed on the line before the result, and every item's wall
time and reference time are logged under .bench_out/.

--trace 0 reports the end-to-end metrics.  setup_s is the median of
SETUP_RUNS fresh interpreters, started at even steps of the run's time
between items.  --trace 1 checks one pass, then for --seconds alternates
untraced passes with passes that record spans around every layer
(spans.py); it reports the per-layer metrics, with the wrappers' own
cost taken off the self times, and the tracing overhead, and writes the
spans as JSON lines under .bench_out/.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, self_seconds, wrapper_costs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_FILE = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0
# Coprime to the 2 and 3 items built per word or file, so all kinds are hit.
GOLDEN_STRIDE = 5
# Fresh interpreters timed for setup_s, spread evenly over the run.
SETUP_RUNS = 24
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import stockbraid.cli\n"
    "stockbraid.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
REF_ITERATIONS = 600
# About the median time of reference_work on that host.
REF_NOMINAL_S = 0.002
# An item's speed estimate is the median of this many reference timings
# on each side of it: those taken just before it and before the previous
# item, and those taken just after it and after the next item.
REF_SIDE = 2


@dataclass
class Record:
    """One executed item: pool index, kind, wall seconds, problems found,
    and the wall seconds of the reference work run just before it."""

    item: int
    kind: str
    seconds: float
    problems: list[str]
    ref: float


def reference_work() -> int:
    """Fixed pure-Python work that never calls stockbraid: tuple keys in a
    growing dict, as in the bracket sweeps; sorting and decimal text, as in
    ingest and crossing detection.  Its time gauges the host's speed."""
    seen: dict[tuple, int] = {}
    key = tuple(range(16))
    for i in range(REF_ITERATIONS):
        m = list(key)
        a, b = (i * 7) % 16, (i * 11 + 3) % 16
        m[a], m[b] = m[b], m[a]
        key = tuple(m)
        seen[key] = seen.get(key, 0) + i
    rows = sorted((hash(k) % 10007, k[0]) for k in seen)
    text = ",".join(f"{v // 100}.{v % 100:02d}" for v, _ in rows)
    return len(text) + sum(int(cell.replace(".", "")) for cell in text.split(","))


def timed_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def execute(main, item) -> tuple[object, str, str, float]:
    """Run one CLI invocation; stdout and stderr are captured, not printed."""
    if item.audit is not None:
        item.audit.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(item.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed item, not a failed run
            code = "exception"
            traceback.print_exc()
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def produced_bytes(item, stdout: str) -> bytes:
    data = stdout.encode("utf-8")
    if item.audit is not None and item.audit.exists():
        data += b"\0" + item.audit.read_bytes()
    return data


def run_item(main, item, reference: dict) -> Record:
    """Execute and check one item.  reference maps a pool index to the
    bytes and problems of its first run; later runs must repeat the bytes."""
    ref = timed_reference()
    code, out, err, elapsed = execute(main, item)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if err:
        problems.append("stderr: " + err.strip().splitlines()[-1][:200])
    data = produced_bytes(item, out)
    if item.id in reference:
        first, first_problems = reference[item.id]
        problems += first_problems if data == first else ["output differs from the item's first run"]
    else:
        try:
            found, sizes = item.check(out)
        except Exception as exc:  # malformed output can break a check
            found, sizes = [f"check raised {type(exc).__name__}: {exc}"], {}
        item.sizes.update(sizes)
        reference[item.id] = (data, found)
        problems += found
    return Record(item.id, item.kind, elapsed, problems, ref)


def run_passes(main, pool, reference, *, seconds=0.0, passes=None, tracer=None, after_item=None):
    """Whole passes over the pool: a fixed number, or until seconds have
    elapsed; after_item() runs after every item.  Returns the records and
    the pass count."""
    records: list[Record] = []
    done = 0
    start = perf_counter()
    while True:
        for item in pool:
            if tracer is not None:
                tracer.next_item()
            records.append(run_item(main, item, reference))
            if after_item is not None:
                after_item()
        done += 1
        if done >= passes if passes is not None else perf_counter() - start >= seconds:
            break
    return records, done


def build_pool(build, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    pool = build(seed, workdir, ROOT)
    for i, item in enumerate(pool):
        item.id = i
    return pool


def golden_outputs(main, build, workdir: Path) -> tuple[list[str], list[Record]]:
    """Digests and checked records of the reference items built from GOLDEN_SEED."""
    pool = build_pool(build, GOLDEN_SEED, workdir / "golden")[::GOLDEN_STRIDE]
    reference: dict = {}
    records = [run_item(main, item, reference) for item in pool]
    digests = [hashlib.sha256(reference[item.id][0]).hexdigest() for item in pool]
    return digests, records


def golden_failures(main, name: str, build, workdir: Path) -> tuple[int, int]:
    """Items of the reference pool that fail a check or whose output
    digest differs from golden.json: (attempted, failed)."""
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[name]["sha256"]
    digests, records = golden_outputs(main, build, workdir)
    failed = 0
    for i, (got, rec) in enumerate(zip(digests, records)):
        if i >= len(expected) or got != expected[i]:
            rec.problems.append("output digest differs from golden.json")
        if rec.problems:
            failed += 1
            print(f"golden item {i} failed: {'; '.join(rec.problems)}")
    if len(digests) != len(expected):
        failed += 1
        print(f"golden pool has {len(digests)} items, golden.json {len(expected)}")
    return len(records), failed


def time_setup() -> tuple[float, float]:
    """Wall time for a fresh interpreter to import stockbraid.cli and build
    the parser, as the interpreter itself measures it, and the reference
    time measured just before it."""
    ref = statistics.median(timed_reference() for _ in range(3))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout), ref


def item_ms(records: list[Record]) -> list[float]:
    return [r.seconds * 1000 for r in records]


def scale_factors(records: list[Record]) -> list[float]:
    """REF_NOMINAL_S over the median reference time around each record.
    A record's ref was taken before its item, so the next record's ref
    is the first one after it."""
    refs = [r.ref for r in records]
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i + 1 - REF_SIDE): i + 1 + REF_SIDE])
            for i in range(len(refs))]


def scaled_ms(records: list[Record]) -> list[float]:
    """Each record's wall time in milliseconds, scaled to nominal host speed."""
    return [ms * f for ms, f in zip(item_ms(records), scale_factors(records))]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timing_summary(ms: list[float]) -> tuple[float, float, float]:
    """Items per second, p50 and p90 of per-item milliseconds."""
    return len(ms) / sum(ms) * 1000, statistics.median(ms), p90(ms)


def end_to_end_metrics(ms: list[float], setups: list[float]) -> tuple[dict, int]:
    """The end-to-end metrics from per-item milliseconds and set-up
    seconds, and the number of samples beyond p90."""
    rate, p50, tail = timing_summary(ms)
    return {
        "items_per_s": (rate, "1/s"),
        "item_ms_p50": (p50, "ms"),
        "item_ms_p90": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }, sum(m > tail for m in ms)


def layer_metrics(spans: list[list], records: list[Record], overhead: float,
                  costs: tuple[float, float]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced phase, and the hot-spot figures.
    costs are the span and counted-call wrapper costs of spans.wrapper_costs.
    Span times are scaled by the factor of the item they belong to."""
    factors = scale_factors(records)
    n = len(records)
    children = Counter(record[3] for record in spans if record[3] is not None)
    kinds = Counter(r.kind for r in records)
    self_ms: dict[str, float] = defaultdict(float)
    self_ms_kind: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    calls_kind: Counter = Counter()
    counts: dict[str, float] = defaultdict(float)
    per_interval = {"short": [0.0, 0], "long": [0.0, 0]}
    for index, record in enumerate(spans):
        name, item, extra = record[0], record[4], record[6] or {}
        kind = records[item].kind
        ms = self_seconds(record, children[index], costs) * 1000 * factors[item]
        self_ms[name] += ms
        self_ms_kind[name, kind] += ms
        calls[name] += 1
        calls_kind[name, kind] += 1
        for key, value in extra.items():
            counts[key] += value * factors[item] if key.endswith(".s") else value
        if name == "crossings.detect_crossings":
            intervals = extra["intervals"]
            bucket = "short" if intervals <= 1000 else "long" if intervals >= 3000 else None
            if bucket:
                per_interval[bucket][0] += ms
                per_interval[bucket][1] += intervals

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_item(name: str) -> float:
        return ratio(self_ms[name], n)

    short_cost = ratio(*per_interval["short"])
    long_cost = ratio(*per_interval["long"])
    metrics = {
        "market.parse_csv.self_ms": (per_item("market.parse_csv"), "ms/item"),
        "market.select_window.self_ms": (per_item("market.select_window"), "ms/item"),
        "market.cells": (ratio(counts["cells"], calls["market.parse_csv"]), "cells/call"),
        "crossings.detect_crossings.self_ms": (per_item("crossings.detect_crossings"), "ms/item"),
        "crossings.detect_crossings.calls_per_item": (
            ratio(calls_kind["crossings.detect_crossings", "audit"], kinds["audit"]), "calls/item"),
        "crossings.events": (ratio(counts["events"], calls["crossings.detect_crossings"]), "events/call"),
        "crossings.changed_interval_ratio": (
            ratio(counts["changed_intervals"], counts["intervals"]), "ratio"),
        "crossings.interval_cost_growth": (ratio(long_cost, short_cost), "ratio"),
        "bracket.bracket_poly.self_ms.plat": (
            ratio(self_ms_kind["bracket.bracket_poly", "plat"], kinds["plat"]), "ms/item"),
        "bracket.bracket_poly.self_ms.trace": (
            ratio(self_ms_kind["bracket.bracket_poly", "trace"], kinds["trace"]), "ms/item"),
        "bracket.bracket_poly.calls_per_item": (ratio(calls["bracket.bracket_poly"], n), "calls/item"),
        "bracket.terms": (ratio(counts["terms"], calls["bracket.bracket_poly"]), "terms/call"),
        "laurent.mul.calls": (ratio(counts["laurent.mul.calls"], n), "calls/item"),
        "laurent.mul.self_ms": (ratio(counts["laurent.mul.s"] * 1000, n), "ms/item"),
        "laurent.add.calls": (ratio(counts["laurent.add.calls"], n), "calls/item"),
        "laurent.add.self_ms": (ratio(counts["laurent.add.s"] * 1000, n), "ms/item"),
        "bracket.bracket_eval.self_ms": (per_item("bracket.bracket_eval"), "ms/item"),
        "braid.free_reduce.self_ms": (per_item("braid.free_reduce"), "ms/item"),
        "braid.reduce_ratio": (ratio(counts["length_out"], counts["length_in"]), "ratio"),
        "closure.component_count.self_ms": (per_item("closure.component_count"), "ms/item"),
        "outcome.outcome_probability.self_ms": (per_item("outcome.outcome_probability"), "ms/item"),
        "braid.parse_word.self_ms": (per_item("braid.parse_word"), "ms/item"),
        "braid.format_word.self_ms": (per_item("braid.format_word"), "ms/item"),
        "cli.main.self_ms": (per_item("cli.main"), "ms/item"),
        "trace.overhead_share": (overhead, "share"),
    }
    traced_ms = sum(self_ms.values()) + counts["laurent.mul.s"] * 1000 + counts["laurent.add.s"] * 1000
    bracket_ms = (self_ms["bracket.bracket_poly"] + counts["laurent.mul.s"] * 1000
                  + counts["laurent.add.s"] * 1000)
    hot = {
        "detect_crossings us/interval, <=1000 vs >=3000 intervals": (
            round(short_cost * 1000, 3), round(long_cost * 1000, 3)),
        "bracket_poly calls per item": round(ratio(calls["bracket.bracket_poly"], n), 3),
        "share of traced item time in bracket_poly and Laurent arithmetic": round(
            ratio(bracket_ms, traced_ms), 3),
    }
    return metrics, hot


def size_ranges(pool) -> str:
    keys = sorted({k for item in pool for k in item.sizes})
    parts = []
    for key in keys:
        values = [item.sizes[key] for item in pool if key in item.sizes]
        parts.append(f"{key} {min(values)}-{max(values)}")
    return ", ".join(parts)


def write_items(path: Path, pool, records: list[Record], phase: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for seq, r in enumerate(records):
            fh.write(json.dumps({
                "phase": phase, "seq": seq, "item": r.item, "kind": r.kind,
                "subcommand": pool[r.item].argv[0], "ms": r.seconds * 1000,
                "ref_ms": r.ref * 1000,
                "ok": not r.problems, "sizes": pool[r.item].sizes,
            }) + "\n")


def why(name: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def report_problems(records: list[Record]) -> int:
    failed = [r for r in records if r.problems]
    for r in failed[:10]:
        print(f"item {r.item} ({r.kind}) failed: {'; '.join(r.problems)}")
    return len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stockbraid" / "cli.py").is_file():
        print(f"error: no stockbraid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stockbraid import cli
    from workloads import WORKLOADS, DOW_CSV

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / DOW_CSV).is_file():
        print(f"error: Dow sample {DOW_CSV} missing", file=sys.stderr)
        return 2
    name, build = args.workload, WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    items_log = OUT_DIR / f"items-{tag}.jsonl"
    items_log.unlink(missing_ok=True)
    try:
        pool = build_pool(build, args.seed, workdir / "pool")
        attempted, failed = golden_failures(cli.main, name, build, workdir)
        reference: dict = {}
        if args.trace == 0:
            time_setup()  # fills the bytecode cache; not counted
            setups: list[tuple[float, float]] = []
            start = perf_counter()

            def setup_due() -> None:
                if (len(setups) < SETUP_RUNS
                        and perf_counter() - start >= len(setups) * args.seconds / SETUP_RUNS):
                    setups.append(time_setup())

            records, passes = run_passes(cli.main, pool, reference, seconds=args.seconds,
                                         after_item=setup_due)
            while len(setups) < SETUP_RUNS:
                setups.append(time_setup())
            write_items(items_log, pool, records, "untraced")
            metrics, beyond = end_to_end_metrics(
                scaled_ms(records), [t * REF_NOMINAL_S / ref for t, ref in setups])
            wall_metrics, _ = end_to_end_metrics(item_ms(records), [t for t, _ in setups])
            all_records = records
        else:
            # A first pass does the full checks.  Untraced and traced passes
            # then alternate, so both see the same swings of host speed.
            checked, _ = run_passes(cli.main, pool, reference, passes=1)
            untraced: list[Record] = []
            traced: list[Record] = []
            tracer = Tracer()
            traced_main = tracer.span("cli.main", cli.main)
            calibrations: list[tuple[float, float]] = []
            passes = 0
            start = perf_counter()
            while not passes or perf_counter() - start < args.seconds:
                untraced += run_passes(cli.main, pool, reference, passes=1)[0]
                tracer.install()
                try:
                    traced += run_passes(traced_main, pool, reference, passes=1, tracer=tracer)[0]
                finally:
                    tracer.uninstall()
                calibrations += [wrapper_costs() for _ in range(3)]
                passes += 1
            write_items(items_log, pool, untraced, "untraced")
            write_items(items_log, pool, traced, "traced")
            spans_path = OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
            overhead = sum(scaled_ms(traced)) / sum(scaled_ms(untraced)) - 1
            costs = (statistics.median(c[0] for c in calibrations),
                     statistics.median(c[1] for c in calibrations))
            metrics, hot = layer_metrics(tracer.spans, traced, overhead, costs)
            all_records = checked + untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed += report_problems(all_records)
    attempted += len(all_records)
    print(f"workload {name}: {why(name)}")
    print(f"seed {args.seed}, {passes} passes over {len(pool)} items; sizes: {size_ranges(pool)}")
    print(f"closed loop, 1 client, in-process; items logged to {items_log.relative_to(ROOT)}")
    if args.trace == 0:
        print(f"samples {len(records)}, {beyond} beyond p90; set-up timed {len(setups)} times; "
              f"reference work median {statistics.median(r.ref for r in records) * 1000:.4f} ms")
    else:
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(f"wrapper cost taken off self times: {costs[0] * 1e6:.3f} us per child span, "
              f"{costs[1] * 1e6:.3f} us per counted call")
        for label, value in hot.items():
            print(f"hot spot: {label}: {value}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:44s} {value:14.6f} {unit}")
    print(f"{'error_share':44s} {failed / attempted:14.6f} share ({failed}/{attempted})")
    if args.trace == 0:
        print("wall-time metrics: " + json.dumps({m: v for m, (v, _) in wall_metrics.items()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
