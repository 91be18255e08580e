"""Alternating parent/change benchmark pairs, with a verdict per metric.

    python3 tools/pairs.py PARENT CHANGE OUT

Makes a `git archive` copy of each commit in a temporary directory and
runs, in each copy, `python3 bench/run.py --workload W --seed S --seconds
20 --trace 0` on both workloads: 10 pairs per workload, seeds 0-9, so
that a gain means at least nine wins in ten; per seed `time_stepping`
then `geometry_checks`, the parent first at even seeds and the change
first at odd ones (ABBA).  It reads `bench/` and changes nothing in it.

OUT receives each side's `src/` line count (the lines of `src/**/*.py` in
its archived tree), every run's metrics, then per workload and end-to-end metric
the medians and quartiles of both sides, the wins of the change over the
pairs and a verdict against the parent's `BENCHMARK.json` bound:

- "regression": the change's median is worse than the parent's by more
  than the bound;
- "gain": the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's IQR;
- "unresolved": the parent's IQR over its median exceeds the bound, and
  not every change run reads better than every parent run;
- "no regression" otherwise.

The line counts and a table of the verdicts go to standard output.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("time_stepping", "geometry_checks")
PAIRS = 10
SECONDS = 20
REPO = Path(__file__).resolve().parents[1]


def checkout(commit: str, into: Path) -> str:
    """Extract `commit`'s tree into `into`; return its full sha."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = into.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                       check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return sha


def src_lines(root: Path) -> int:
    """The line count of every `src/**/*.py` file under `root`."""
    return sum(len(path.read_bytes().splitlines()) for path in root.glob("src/**/*.py"))


def bench_run(root: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py` run in `root`: its last stdout line, the JSON result."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary of one metric over paired runs (parent[i] beside change[i])."""
    if any(math.isnan(v) for v in parent + change):  # a run that gave no result
        return {"pairs": len(parent), "verdict": "incomplete"}
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    scale = abs(p[1]) or 1.0
    worse_by = sign * (p[1] - c[1]) / scale
    spread = (p[2] - p[0]) / scale
    wins = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if worse_by > bound:
        word = "regression"
    elif wins >= math.ceil(0.9 * len(parent)) and sign * (c[1] - p[1]) > p[2] - p[0]:
        word = "gain"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "no regression"
    return {"parent_quartiles": p, "change_quartiles": c,
            "median_change_over_parent": (c[1] - p[1]) / scale,
            "parent_iqr_over_median": spread, "bound": bound, "better": better,
            "wins": wins, "pairs": len(parent), "verdict": word}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_ref, change_ref, out = argv
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: checkout(ref, roots[side])
                for side, ref in (("parent", parent_ref), ("change", change_ref))}
        lines = {side: src_lines(root) for side, root in roots.items()}
        contract = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        for seed in range(PAIRS):
            for workload in WORKLOADS:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    result = bench_run(roots[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": side == order[0], **result})
                    print(f"{workload} seed {seed} {side}: "
                          f"{result['metrics'].get('wall_s', {}).get('value')}", flush=True)
    summary = {}
    for workload in WORKLOADS:
        done = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                for side in ("parent", "change")}
        rows = summary[workload] = {
            f"{side}_failed_over_attempted": [sum(r["failed"] for r in done[side]),
                                             sum(r["attempted"] for r in done[side])]
            for side in done}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"].get(name, {}).get("value", math.nan)
                             for r in done[side]] for side in done}
            rows[name] = {**values, **verdict(values["parent"], values["change"],
                                              metric["better"], metric["bound"])}
    record = {"parent_sha": shas["parent"], "change_sha": shas["change"],
              "host": {"machine": platform.machine(), "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
              "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {SECONDS} "
                         "--trace 0, each side from its own git-archive copy; seeds "
                         f"0-{PAIRS - 1}, per seed time_stepping then geometry_checks; "
                         "parent first at even seeds, change first at odd seeds",
              "src_lines": lines, "runs": runs, "summary": summary}
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"src/ lines {lines['parent']} -> {lines['change']}")
    for workload, rows in summary.items():
        for name, row in rows.items():
            if isinstance(row, dict) and "wins" in row:
                print(f"{workload:16s} {name:15s} {row['parent_quartiles'][1]:10.4g} -> "
                      f"{row['change_quartiles'][1]:10.4g}  wins {row['wins']}/{row['pairs']}"
                      f"  {row['verdict']}")
            elif isinstance(row, dict):
                print(f"{workload:16s} {name:15s} {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
