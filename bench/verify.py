"""Correctness gate: artifacts against stored references and across passes.

Every pass must reproduce the first pass of its run byte for byte.  At the
default seed the artifacts are also compared with the reference files in
`bench/reference/<workload>/<label>/`, generated once by
`make_references.py`.  The large `snapshots.json` files are not stored;
their sizes and SHA-256 digests are.

Stated bounds for the reference comparison (ROADMAP: "CSVs byte-identical,
or differing by a stated bound"):
- physics columns of observables.csv: |actual - reference| over the
  largest |reference| of the column, at most PHYSICS_BOUND;
- check residuals (res_* columns and summary.json residuals):
  |actual - reference| over the check's tolerance, at most RESIDUAL_BOUND.
Everything else in summary.json must be equal.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = ("observables.csv", "summary.json", "snapshots.json")
PHYSICS_BOUND = 1e-8
RESIDUAL_BOUND = 0.1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SNAPSHOT_DIGESTS = "snapshot_digests.json"


def digest(path: Path) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return {"bytes": path.stat().st_size, "sha256": h.hexdigest()}


def digests(run_dir: Path) -> dict:
    return {name: digest(run_dir / name) for name in ARTIFACTS}


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")]
                                 for line in lines[1:]]


def _cell_gap(actual: float, reference: float) -> float:
    if math.isnan(actual) and math.isnan(reference):
        return 0.0
    if math.isnan(actual) or math.isnan(reference):
        return math.inf
    return abs(actual - reference)


def _without_residuals(summary: dict) -> dict:
    out = json.loads(json.dumps(summary))
    for check in out["checks"]:
        check.pop("residual")
    return out


def reference_deviation(run_dir: Path, reference_dir: Path) -> tuple[float, float]:
    """(physics deviation, residual deviation) of one run's artifacts.

    Both are inf when the files do not line up (other columns, rows,
    checks or summary fields).
    """
    header, rows = _read_csv(run_dir / "observables.csv")
    ref_header, ref_rows = _read_csv(reference_dir / "observables.csv")
    summary = json.loads((run_dir / "summary.json").read_text())
    ref_summary = json.loads((reference_dir / "summary.json").read_text())
    if (header != ref_header or len(rows) != len(ref_rows)
            or _without_residuals(summary) != _without_residuals(ref_summary)):
        return math.inf, math.inf
    tolerance = {c["name"]: c["tolerance"] for c in ref_summary["checks"]}
    physics = residual = 0.0
    for j, column in enumerate(header):
        gaps = [_cell_gap(row[j], ref[j]) for row, ref in zip(rows, ref_rows)]
        if column.startswith("res_"):
            residual = max(residual, max(gaps) / tolerance[column[4:]])
        else:
            finite = [abs(ref[j]) for ref in ref_rows if not math.isnan(ref[j])]
            scale = max(finite, default=0.0) or 1e-300
            physics = max(physics, max(gaps) / scale)
    for check, ref in zip(summary["checks"], ref_summary["checks"]):
        gap = _cell_gap(check["residual"], ref["residual"])
        residual = max(residual, gap / ref["tolerance"])
    return physics, residual


def within_bounds(physics: float, residual: float) -> bool:
    return physics <= PHYSICS_BOUND and residual <= RESIDUAL_BOUND
