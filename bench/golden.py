"""Rewrite golden.json: the sha256 of every output byte (stdout, then the
audit log if any) of each workload's reference items: every
GOLDEN_STRIDE-th item of the pool built from GOLDEN_SEED.

    python3 bench/golden.py

Run it from the repository root, only when an output change is intended;
run.py compares every run's reference pool against these digests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from stockbraid import cli
    from workloads import WORKLOADS

    doc = {}
    workdir = run.OUT_DIR / "golden-write"
    try:
        for name, build in WORKLOADS.items():
            digests, records = run.golden_outputs(cli.main, build, workdir / name)
            failed = [r for r in records if r.problems]
            if failed:
                for r in failed:
                    print(f"{name} item {r.item} failed: {'; '.join(r.problems)}", file=sys.stderr)
                return 1
            doc[name] = {
                "seed": run.GOLDEN_SEED,
                "items": len(digests),
                "all": hashlib.sha256("".join(digests).encode()).hexdigest(),
                "sha256": digests,
            }
            print(f"{name}: {len(digests)} items, all {doc[name]['all']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
