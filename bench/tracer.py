"""In-memory spans and counts around madflow's public entry points.

The tracer patches the package from outside: every wrapped function is
rebound in each `madflow` module namespace that holds it, methods are
replaced on their class, and the check functions are swapped inside
`scenarios.CHECKS`.  Nothing under `src/` knows it is being traced.

A span is (name, start, end, parent index, run id, attributes); the
attributes hold the FFT calls made inside the span.  Spans and counts stay
in memory until `dump` writes them out at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: FFT entry points counted (numpy's and scipy's), so a move from one
#: library to the other keeps the count meaningful.
_FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn",
                  "rfftn", "irfftn", "hfft", "ihfft")

SOLVERS = ("schrodinger_evolve", "madelung_evolve", "heat_evolve",
           "dlss_evolve")

#: the checks the workloads request (all sixteen builtin ones), named here
#: so the reported metrics stay fixed when the registry changes.
CHECK_NAMES = ("mass_conservation", "stationarity", "energy_conservation",
               "eigenstate_phase", "free_packet_density",
               "schrodinger_density_match", "velocity_potential_match",
               "newton_residual", "entropy_dissipation", "descent_monotone",
               "phase_correction_ledger", "hamiltonian_pullback",
               "symplectic_pullback", "bb_action_match", "bb_path_optimality",
               "constant_speed")

# (module, attribute, span name) of every wrapped free function.
_FUNCTIONS = [
    ("madflow.fields", "functionals", "fields.functionals"),
    *[("madflow.dynamics", s, f"dynamics.{s}") for s in SOLVERS],
    ("madflow.wgeom", "pushforward_density", "wgeom.pushforward_density"),
    ("madflow.madelung", "madelung_transform", "madelung.madelung_transform"),
    ("madflow.madelung", "submersion_pullback_defect",
     "madelung.submersion_pullback_defect"),
    ("madflow.transport", "w2_distance", "transport.w2_distance"),
    ("madflow.transport", "displacement_interpolation",
     "transport.displacement_interpolation"),
    ("madflow.transport", "path_action", "transport.path_action"),
    ("madflow.scenarios", "execute_config", "scenarios.execute_config"),
    ("madflow.scenarios", "evaluate_checks", "scenarios.evaluate_checks"),
    ("madflow.scenarios", "run_scenario", "scenarios.run_scenario"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._upsample_inputs: set = set()

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """`fn` with a span around each call; `attrs(bound_args)` annotates it."""
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(signature.bind(*args, **kwargs).arguments) if attrs else {}
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.run_id, extra])
            self._stack.append(index)
            ffts = self.counts["fft"]
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
                extra["fft"] = self.counts["fft"] - ffts
        return traced

    def count_calls(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -------------------------------------------------------

    def install_fft_counters(self) -> None:
        """Count FFT calls; call before madflow is imported."""
        import numpy.fft
        import scipy.fft
        for module in (numpy.fft, scipy.fft):
            for name in _FFT_FUNCTIONS:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self.count_calls("fft", fn))

    def install(self) -> None:
        """Wrap the public entry points of every madflow layer."""
        from madflow import grid, scenarios

        for module_name, attr, span in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            attrs = _solver_attrs if attr in SOLVERS else None
            _rebind(original, self.wrap(span, original, attrs))

        grid.Grid.sample_all = self.wrap("grid.sample_all", grid.Grid.sample_all)
        upsample = self.wrap("grid.upsample", grid.Grid.upsample)

        def upsample_counted(grid_self, values, factor):
            digest = hashlib.blake2b(np.asarray(values).tobytes(), digest_size=16)
            self._upsample_inputs.add((grid_self.n, int(factor), digest.digest()))
            return upsample(grid_self, values, factor)
        grid.Grid.upsample = upsample_counted

        for name, definition in list(scenarios.CHECKS.items()):
            scenarios.CHECKS[name] = dataclasses.replace(
                definition, fn=self.wrap(f"scenarios.check.{name}", definition.fn))

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     **extra}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer numbers over every span recorded so far."""
        calls = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, *_ in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start

        def under(span_index: int, ancestor: str) -> bool:
            parent = self.spans[span_index][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        m = {}
        pushforwards = calls["wgeom.pushforward_density"]
        resamples_in_pushforward = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "grid.sample_all" and under(i, "wgeom.pushforward_density"))
        m["grid.sample_all.calls"] = calls["grid.sample_all"]
        m["grid.sample_all.s"] = total["grid.sample_all"]
        m["grid.sample_all.calls_per_pushforward"] = (
            resamples_in_pushforward / pushforwards if pushforwards else 0.0)
        m["grid.upsample.calls"] = calls["grid.upsample"]
        m["grid.upsample.distinct_ratio"] = (
            len(self._upsample_inputs) / calls["grid.upsample"]
            if calls["grid.upsample"] else 0.0)
        m["fields.functionals.calls"] = calls["fields.functionals"]
        m["fields.functionals.s"] = total["fields.functionals"]

        step_time = defaultdict(float)
        steps = Counter()
        solver_runs = errors = 0
        for i, (name, start, end, _, _, extra) in enumerate(self.spans):
            if name.removeprefix("dynamics.") not in SOLVERS:
                continue
            key = (name, extra["n"])
            step_time[key] += end - start
            steps[key] += extra["steps"]
            errors += extra.get("error") in ("NodeError", "StabilityError")
            solver_runs += under(i, "scenarios.execute_config")
        for solver, sizes in (("madelung_evolve", (64, 256, 1024, 4096)),
                              ("dlss_evolve", (64,)),
                              ("schrodinger_evolve", (256, 4096))):
            for n in sizes:
                key = (f"dynamics.{solver}", n)
                m[f"dynamics.{solver}.us_per_step.n{n}"] = (
                    1e6 * step_time[key] / steps[key] if steps[key] else 0.0)
        scenario_runs = calls["scenarios.execute_config"]
        m["dynamics.solver_calls_per_scenario"] = (
            solver_runs / scenario_runs if scenario_runs else 0.0)
        m["dynamics.errors"] = errors

        m["wgeom.pushforward_density.calls"] = pushforwards
        m["wgeom.pushforward_density.self_s"] = self_time["wgeom.pushforward_density"]
        m["madelung.submersion_pullback_defect.s"] = total[
            "madelung.submersion_pullback_defect"]
        m["madelung.madelung_transform.calls"] = calls["madelung.madelung_transform"]
        m["madelung.madelung_transform.s"] = total["madelung.madelung_transform"]
        for fn in ("w2_distance", "displacement_interpolation", "path_action"):
            m[f"transport.{fn}.calls"] = calls[f"transport.{fn}"]
            m[f"transport.{fn}.s"] = total[f"transport.{fn}"]
        m["scenarios.execute_config.self_s"] = self_time["scenarios.execute_config"]
        for check in CHECK_NAMES:
            m[f"scenarios.check.{check}.s"] = total[f"scenarios.check.{check}"]
        # run_scenario's own time is the artifact writers plus the summary.
        m["scenarios.write.self_s"] = self_time["scenarios.run_scenario"]
        return m


def _solver_attrs(arguments: dict) -> dict:
    first = next(iter(arguments.values()))
    return {"n": int(first.grid.n),
            "steps": int(round(arguments["total_time"] / arguments["dt"]))}


def _rebind(original, replacement) -> None:
    """Point every madflow module attribute holding `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "madflow" and not name.startswith("madflow."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
