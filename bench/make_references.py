"""Regenerate the stored reference artifacts of every workload at seed 0.

    python3 bench/make_references.py

Run it only when a change is meant to alter the outputs, and record the
reason; the benchmark compares every default-seed run against these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run as bench
import verify
import workloads


def main() -> int:
    sys.path.insert(0, str(bench.SRC_DIR))
    for name in workloads.WORKLOADS:
        run = bench.Run(name, workloads.DEFAULT_SEED,
                        time.monotonic() + bench.RUN_LIMIT_S)
        shutil.rmtree(run.pass_dir, ignore_errors=True)
        result = run.child("run")
        if result is None:
            return 1
        bad = [r for r in result["runs"] if "error" in r or r["failed_checks"]]
        if bad:
            print(f"{name}: not storing failing runs {bad}", file=sys.stderr)
            return 1
        target = verify.REFERENCE_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        snapshots = {}
        for label in run.labels:
            (target / label).mkdir(parents=True)
            for artifact in ("observables.csv", "summary.json"):
                shutil.copyfile(run.pass_dir / label / artifact,
                                target / label / artifact)
            snapshots[label] = verify.digest(run.pass_dir / label / "snapshots.json")
        (target / verify.SNAPSHOT_DIGESTS).write_text(
            json.dumps(snapshots, indent=1) + "\n")
        print(f"{name}: stored {len(run.labels)} references in {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
