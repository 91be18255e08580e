"""madflow benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload time_stepping --seed 0 --seconds 60 --trace 0

Each pass runs the workload's whole config list (validate, solve, check,
write artifacts) in a fresh `worker.py` process, as `madflow run` would.
With --trace 0 the run starts SETUP_REPEATS set-up-only processes, then
repeats untraced passes for --seconds and reports the end-to-end metrics.
With --trace 1 it makes one traced pass with OpenBLAS held to one thread
and the per-solver size sweep, then alternates untraced and traced passes
for the rest of --seconds, and reports the per-layer metrics.  Every pass is
verified (see verify.py).  A table for people comes first; the last line
of standard output is the JSON result.  Artifacts, spans and a result
record go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import verify
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPEATS = 3
#: no run may outlast this, whatever --seconds says.
RUN_LIMIT_S = 170.0
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "verified_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if ".us_per_step" in name:
        return "us"
    if "fft_calls_per_step" in name or name.endswith((".calls", ".errors")):
        return "count"
    for suffix, unit in ((".bytes", "bytes"), (".mb_per_s", "MB/s"),
                         (".dt", "model_time"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


class Run:
    """Spawns worker processes for one workload and verifies what they write."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.out = OUT_ROOT / workload
        self.pass_dir = self.out / "pass"
        self.out.mkdir(parents=True, exist_ok=True)
        from madflow import scenarios
        self.configs = workloads.generate(workload, seed, scenarios)
        self.labels = [label for label, _ in self.configs]
        self.configs_path = self.out / "configs.json"
        self.configs_path.write_text(json.dumps(self.configs, indent=1))
        self.first_digests: dict = {}
        self.openblas_threads = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.physics_dev = self.residual_dev = 0.0
        self.snapshots_matching = self.snapshots_compared = 0
        self.spans_written = 0
        self.results: list[dict] = []

    def child(self, mode: str, env: dict | None = None) -> dict | None:
        """Run one worker; its JSON result, or None when it crashed."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), mode, str(self.configs_path),
                 str(self.pass_dir), repr(spawned)],
                capture_output=True, text=True, cwd=ROOT,
                env=None if env is None else {**os.environ, **env},
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            print(f"worker {mode} ran past the run limit", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if env is None:
            self.openblas_threads = result["openblas_threads"]
        return result

    def run_pass(self, mode: str, env: dict | None = None) -> dict | None:
        """One verified pass of the whole config list."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        result = self.child(mode, env)
        runs = result["runs"] if result else [
            {"label": label, "error": "worker crashed"} for label in self.labels]
        for run in runs:
            self.attempted += 1
            problem = self._verify(run)
            if problem:
                self.failed += 1
                self.failures.append(f"{run['label']}: {problem}")
        self.results.append({"mode": mode, **(result or {"crashed": True})})
        spans = self.pass_dir / "spans.jsonl"
        if spans.exists():
            self.spans_written += 1
            spans.replace(self.out / f"spans_{self.spans_written}.jsonl")
        return result

    def _verify(self, run: dict) -> str | None:
        if "error" in run:
            return run["error"]
        if run["failed_checks"]:
            return f"checks failed: {', '.join(run['failed_checks'])}"
        label = run["label"]
        run_dir = self.pass_dir / label
        found = verify.digests(run_dir)
        expected = self.first_digests.setdefault(label, found)
        if found != expected:
            return "artifacts differ from the first pass of this run"
        if self.seed != workloads.DEFAULT_SEED:
            return None
        reference = verify.REFERENCE_DIR / self.workload / label
        physics, residual = verify.reference_deviation(run_dir, reference)
        self.physics_dev = max(self.physics_dev, physics)
        self.residual_dev = max(self.residual_dev, residual)
        stored = json.loads((verify.REFERENCE_DIR / self.workload
                             / verify.SNAPSHOT_DIGESTS).read_text())[label]
        self.snapshots_compared += 1
        self.snapshots_matching += stored == found["snapshots.json"]
        if not verify.within_bounds(physics, residual):
            return (f"outside the reference bounds (physics {physics:.3g}, "
                    f"residual {residual:.3g} of tolerance)")
        return None

    def passes(self, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
        """Repeat cycles of passes while the next one should end in time."""
        start = time.monotonic()
        cycles, durations = [], []
        while True:
            began = time.monotonic()
            cycle = [self.run_pass(mode) for mode in modes]
            durations.append(time.monotonic() - began)
            if None in cycle:
                break
            cycles.append(cycle)
            spent = time.monotonic() - start
            if spent + statistics.median(durations) > seconds:
                break
        return cycles


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _sum_per_config(passes: list[dict], key: str, pick) -> float:
    """`pick` of each config's values over the passes, summed over the list."""
    per_config = zip(*([run[key] for run in p["runs"]] for p in passes))
    return sum(pick(times) for times in per_config)


def _sum_of_minimums(passes: list[dict], key: str) -> float:
    """Each config's fastest pass, summed over the config list.

    On a shared host the slowdown from other tenants comes in bursts and
    phases that only ever add time; a config's fastest pass is the one
    least hit by them, so this moves less between runs than a median.
    On a 2-core host, over ten 36-second windows of the same passes, the
    spread (Q3 - Q1 over the median) was 0.26 for the sum of medians and
    0.15 for this.
    """
    return _sum_per_config(passes, key, min)


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    return f"n={n}; p{100 * (n - 10) / n:.0f} = {sorted(values)[n - 11]:.4f}"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    """SHA-256 over src/, which names the code where there is no git SHA."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC_DIR.rglob("*.py")):
        h.update(str(path.relative_to(SRC_DIR)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(openblas_threads: int) -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "openblas_threads": openblas_threads}


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup_only = [run.child("setup") for _ in range(SETUP_REPEATS)]
    passes = [cycle[0] for cycle in run.passes(("run",), seconds)]
    if None in setup_only or not passes:
        return {}, []
    setups = [r["setup_s"] for r in setup_only + passes]
    walls = [p["wall_s"] for p in passes]
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": _sum_of_minimums(passes, "wall_s"),
               "cpu_s": _sum_of_minimums(passes, "cpu_s"),
               "peak_rss_mb": _median(passes, "peak_rss_mb"),
               "verified_ratio": (run.attempted - run.failed) / run.attempted}
    notes = [f"setup_s: median of {len(setups)} fresh processes "
             f"({SETUP_REPEATS} set-up only, one per pass)",
             f"wall_s, cpu_s: each config's fastest of {len(walls)} passes, "
             f"summed; each config's median, summed: "
             f"{_sum_per_config(passes, 'wall_s', statistics.median):.4f} s; "
             f"whole passes: median {statistics.median(walls):.4f} s "
             f"({_tail(walls)})"]
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    began = time.monotonic()
    single = run.run_pass("trace", SINGLE_THREAD_ENV)
    swept = run.child("sweep")
    cycles = run.passes(("run", "trace"), seconds - (time.monotonic() - began))
    if not cycles or single is None or swept is None:
        return {}, []
    untraced = [c[0] for c in cycles]
    traced = [c[1] for c in cycles]
    metrics = {key: statistics.median(t["layers"][key] for t in traced)
               for key in traced[0]["layers"]}
    metrics.update(swept["sweep"])
    for solver in ("madelung", "dlss", "schrodinger"):
        metrics[f"grid.fft_calls_per_step.{solver}"] = \
            swept["sweep"][f"sweep.{solver}.n256.fft_calls_per_step"]
    metrics["cli.import_s"] = _median(untraced, "import_s")
    metrics["cli.validate_s"] = _median(untraced, "validate_s")
    metrics["trace.untraced_wall_s"] = _median(untraced, "wall_s")
    metrics["trace.traced_wall_s"] = _median(traced, "wall_s")
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    metrics["blas1.wall_s"] = single["wall_s"]
    metrics["blas1.cpu_s"] = single["cpu_s"]
    notes = [f"{len(cycles)} untraced/traced pass pairs; blas1 = one traced "
             f"pass with OpenBLAS at {single['openblas_threads']} thread(s)"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "madflow" / "__init__.py").is_file():
        print(f"madflow sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    began = time.monotonic()
    run = Run(args.workload, args.seed, began + RUN_LIMIT_S)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(run, args.seconds)
    if not metrics:
        print("a worker process failed; no result", file=sys.stderr)
        return 1
    unit = END_TO_END_UNITS.get if not args.trace else layer_unit
    env = environment(run.openblas_threads)

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{workloads.WHY[args.workload]}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit(name)}")
    failed_ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':48s} {failed_ratio:14.6g} ratio "
          f"({run.failed} of {run.attempted} scenario runs)")
    if args.seed == workloads.DEFAULT_SEED:
        print(f"  {'observables_max_rel_dev':48s} {run.physics_dev:14.6g} ratio "
              f"(bound {verify.PHYSICS_BOUND:g})")
        print(f"  {'residual_max_dev':48s} {run.residual_dev:14.6g} of tolerance "
              f"(bound {verify.RESIDUAL_BOUND:g})")
        print(f"  snapshots.json identical to reference: "
              f"{run.snapshots_matching} of {run.snapshots_compared}")
    else:
        print("  reference: the first pass of this run (no stored reference "
              "at this seed)")
    for note in notes:
        print(f"  {note}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env))

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "failures": run.failures,
              "passes": run.results,
              "observables_max_rel_dev": run.physics_dev,
              "residual_max_dev": run.residual_dev}
    (run.out / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
