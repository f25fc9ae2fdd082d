"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--write]

Run it from the repository root.  For every workload it runs the command
of BENCHMARK.json with --trace 0 once per seed, then prints each
metric's median, quartiles and spread, (q3 - q1) / median, which is the
figure the bounds in BENCHMARK.json are meant for, and the spread the
same metric has as plain wall time, before host-speed scaling (run.py).
--write adds one
traced run per workload on the first seed and stores all of it, with
this command line, in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline.json"
WALL_LINE = "wall-time metrics: "


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    print(f"  {workload} seed {seed} trace {trace}: {time.monotonic() - start:.1f} s wall", flush=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result, lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    parser.add_argument("--write", action="store_true", help="store the results in baseline.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    doc = {
        "command": "python3 bench/repeat.py " + " ".join(sys.argv[1:]),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        values: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = 0
        for seed in seeds:
            result, lines = run_once(spec, name, seed, 0)
            attempted += result["attempted"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            wall_line = next(line for line in lines if line.startswith(WALL_LINE))
            for metric, value in json.loads(wall_line[len(WALL_LINE):]).items():
                wall.setdefault(metric, []).append(value)
        entry = {"attempted": attempted, "failed": 0, "end_to_end": {}, "end_to_end_wall": {}}
        print(f"{name}: {len(seeds)} runs, {attempted} items attempted, 0 failed")
        for metric, vals in values.items():
            s = summarise(vals)
            s["unit"] = units[metric]
            entry["end_to_end"][metric] = s
            w = entry["end_to_end_wall"][metric] = summarise(wall[metric])
            print(f"  {metric:14s} median {s['median']:12.6f} {units[metric]:4s} "
                  f"q1 {s['q1']:12.6f} q3 {s['q3']:12.6f} spread {s['spread']:.4f} "
                  f"(bound {bounds.get(metric)}; wall time: median {w['median']:.6f}, "
                  f"spread {w['spread']:.4f})")
        if args.write:
            traced, lines = run_once(spec, name, seeds[0], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["hot_spots"] = [line[len("hot spot: "):] for line in lines
                                  if line.startswith("hot spot: ")]
        doc["workloads"][name] = entry
    if args.write:
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
