"""Spread of one set of benchmark results, or the change between two sets.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds result lines (the last line `run.py` prints), one per run
of one workload.  For every metric this prints the median, the quartiles
and the spread (Q3 - Q1 over the median).  Given NEW as well, it prints
how much worse NEW's median is than BASE's, in the direction
BENCHMARK.json gives, against that metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if not result["correct"]:
                print(f"{path}: a run was not correct ({result['failed']} of "
                      f"{result['attempted']} failed)")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    declared = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    base = _load(argv[1])
    new = _load(argv[2]) if len(argv) == 3 else None
    print(f"{'metric':44s} {'n':>3s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}" + ("  worse-by  verdict" if new else ""))
    for name, values in base.items():
        median, q1, q3, spread = _summary(values)
        bound = declared.get(name, {}).get("bound")
        line = (f"{name:44s} {len(values):3d} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{spread:8.4f} {bound if bound is not None else '-':>6}")
        if new and name in new:
            new_median = _summary(new[name])[0]
            sign = -1.0 if declared.get(name, {}).get("better") == "higher" else 1.0
            worse = sign * (new_median - median) / median if median else 0.0
            verdict = ("-" if bound is None else "ok" if worse <= bound
                       else "unresolved" if spread > bound else "REGRESSION")
            line += f"  {worse:8.4f}  {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
