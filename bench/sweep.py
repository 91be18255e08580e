"""Per-solver size sweep: time and FFT calls per step at n = 64 .. 4096.

For each solver and size the sweep first finds the largest dt on a
halving ladder for which a STEPS-step run passes its checks, then runs
STEPS and 2 * STEPS steps at that dt, each with only its end points
recorded.  The difference of the two solver spans is the marginal cost of
STEPS steps: snapshot recording and set-up cancel out.  FFT calls per
step are exact counts taken the same way.
"""

from __future__ import annotations

SIZES = (64, 256, 1024, 4096)
STEPS = 100
MAX_HALVINGS = 40

# solver -> (builtin scenario, checks, start of the dt ladder at n = 64).
# Each start lies above the largest passing dt, except for the Strang
# scheme, which is exact for a free packet and passes at any dt.  Explicit
# DLSS steps shrink as n^-4, so its ladder start follows that scaling.
_CASES = {
    "madelung": ("thm21_equivalence", ["energy_conservation", "mass_conservation"],
                 1e-2),
    "dlss": ("dlss_descent", ["descent_monotone", "mass_conservation"], 1e-3),
    "schrodinger": ("free_gaussian", ["free_packet_density", "mass_conservation"],
                    1e-2),
}


def _start_dt(solver: str, n: int) -> float:
    start = _CASES[solver][2]
    return start * (64 / n) ** 4 if solver == "dlss" else start


def _config(scenarios, solver: str, n: int, dt: float, steps: int):
    builtin, checks, _ = _CASES[solver]
    mapping = scenarios.apply_overrides(scenarios.builtin_mapping(builtin), [
        f"grid.n={n}", f"integrator.dt={dt!r}",
        f"integrator.total_time={steps * dt!r}",
        f"integrator.snapshot_stride={steps}"])
    mapping["checks"] = checks
    return scenarios.ScenarioConfig.from_mapping(mapping)


def _solver_span(tracer, solver: str, scenarios, config) -> tuple[float, int]:
    """(seconds, FFT calls) of the solver span of one passing run."""
    before = len(tracer.spans)
    outcome = scenarios.run_scenario(config, write=False)
    if not outcome.passed:
        raise RuntimeError(f"sweep run {config.name} failed {outcome.failed_checks}")
    span = next(s for s in tracer.spans[before:]
                if s[0] == f"dynamics.{solver}_evolve")
    return span[2] - span[1], span[5]["fft"]


def _largest_passing_dt(scenarios, solver: str, n: int) -> float:
    from madflow.errors import MadflowError
    dt = _start_dt(solver, n)
    for _ in range(MAX_HALVINGS):
        try:
            if scenarios.run_scenario(_config(scenarios, solver, n, dt, STEPS),
                                      write=False).passed:
                return dt
        except MadflowError:
            pass
        dt *= 0.5
    raise RuntimeError(f"no passing dt for {solver} at n={n}")


def run(scenarios, tracer) -> dict:
    """Sweep metrics by name: us_per_step, fft_calls_per_step and dt."""
    out = {}
    for solver in _CASES:
        for n in SIZES:
            dt = _largest_passing_dt(scenarios, solver, n)
            short_s, short_fft = _solver_span(
                tracer, solver, scenarios, _config(scenarios, solver, n, dt, STEPS))
            long_s, long_fft = _solver_span(
                tracer, solver, scenarios, _config(scenarios, solver, n, dt, 2 * STEPS))
            key = f"sweep.{solver}.n{n}"
            out[f"{key}.us_per_step"] = 1e6 * (long_s - short_s) / STEPS
            out[f"{key}.fft_calls_per_step"] = (long_fft - short_fft) / STEPS
            out[f"{key}.dt"] = dt
    return out
