"""One benchmark process: import madflow, validate a workload, run it.

    python3 bench/worker.py MODE CONFIGS OUT_DIR SPAWNED_AT

MODE is `setup` (import and validate only), `run` (untraced), `trace`
(spans and counts around every layer) or `sweep` (the per-solver size
sweep, traced).  CONFIGS is a JSON list of [label, mapping] pairs;
SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process, so setup time includes interpreter start-up.  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _openblas_threads() -> int:
    """Threads OpenBLAS will use in this process (0 when it is not found)."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_configs(scenarios, validated, out_dir: Path, tracer) -> list[dict]:
    runs = []
    for label, config in validated:
        if tracer is not None:
            tracer.run_id = label
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = scenarios.run_scenario(config, out_dir / label)
            run = {"failed_checks": outcome.failed_checks}
        except Exception as exc:  # a raised run is a benchmark result, not a crash
            run = {"error": f"{type(exc).__name__}: {exc}"}
        runs.append({"label": label, **run,
                     "wall_s": time.perf_counter() - wall0,
                     "cpu_s": time.process_time() - cpu0})
    return runs


def main(argv: list[str]) -> int:
    mode, configs_path, out_dir, spawned_at = argv[1], argv[2], Path(argv[3]), float(argv[4])
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    tracer = None
    if mode in ("trace", "sweep"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft_counters()

    start = time.perf_counter()
    import madflow.cli  # noqa: F401  (the import a `madflow run` pays)
    from madflow import scenarios
    imported = time.perf_counter()
    if tracer is not None:
        tracer.install()
    pairs = json.loads(Path(configs_path).read_text())
    validated = [(label, scenarios.ScenarioConfig.from_mapping(mapping))
                 for label, mapping in pairs]
    validated_at = time.perf_counter()
    result = {"setup_s": time.monotonic() - spawned_at,
              "import_s": imported - start,
              "validate_s": validated_at - imported,
              "openblas_threads": _openblas_threads()}

    if mode in ("run", "trace"):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result["runs"] = _run_configs(scenarios, validated, out_dir, tracer)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
    if mode == "sweep":
        import sweep
        result["sweep"] = sweep.run(scenarios, tracer)
    if mode == "trace":
        layers = tracer.layer_metrics()
        written = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
        layers["scenarios.write.bytes"] = written
        write_s = layers["scenarios.write.self_s"]
        layers["scenarios.write.mb_per_s"] = written / 1e6 / write_s if write_s else 0.0
        result["layers"] = layers
        tracer.dump(out_dir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
