"""Seeded workload generator: each workload is a list of scenario configs.

A config is a builtin scenario mapping plus `apply_overrides` patches, so
the program under test receives nothing but ordinary scenario configs.
Seed 0 (the default) reproduces the builtin parameters exactly; any other
seed shifts every packet, well and perturbation by one seeded translation
of the circle and redraws the seeds of the `random_*` initial states.  A
translation moves no physics, so the work done and the expected verdicts
are the same at every seed while the bytes of every artifact change.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 0

#: Why each workload exists, and the layers it is meant to stress.
WHY = {
    # Every time solver.  RK4 right-hand sides and FFTs do most of the
    # work: n=64 is bound by per-call overhead and n=4096 by the FFTs
    # themselves, so the two ends tell an overhead saving from an
    # arithmetic saving.  The Strang and heat configs keep one snapshot
    # per step at n=4096, so the artifact writers (about 35 MB of
    # snapshots.json per pass), the per-row `madelung_transform` in column
    # composition and the free-packet oracle take the rest; a writer or
    # memory change shows here, and peak_rss_mb catches one that trades
    # memory for time.  Grid resampling (`sample_all`) and `transport` do
    # no work here.
    "time_stepping": "every time solver: madelung RK4 at n=64..4096, dlss, "
                     "Strang and heat with long records at n=4096, and the "
                     "dt-refinement ladder",
    # No time steps: `pushforward_density` (a dense n x n exponential
    # matrix per Newton iteration in `Grid.sample_all`), the repeated CDF
    # and spline builds in `transport`, and `madelung_transform`.  A
    # resampling or CDF-reuse change shows here and must show nothing on
    # time_stepping.
    "geometry_checks": "check evaluation with no time steps: pushforward "
                       "resampling, quantile transport, Madelung transform",
}

WORKLOADS = tuple(WHY)

# (label, builtin scenario, overrides) per workload.  dt and total_time
# are cut so each run takes 0.2-1.5 s and passes, and a whole pass of
# either workload about 6 s: a run of the benchmark then holds enough
# passes for each config's fastest one to be steady.
_PLAN = {
    "time_stepping": [
        ("thm21_n64", "thm21_equivalence",
         ["grid.n=64", "integrator.dt=1e-4", "integrator.total_time=0.125"]),
        ("thm21_n256", "thm21_equivalence",
         ["grid.n=256", "integrator.dt=1e-4", "integrator.total_time=0.125"]),
        ("thm21_n1024", "thm21_equivalence",
         ["grid.n=1024", "integrator.dt=2e-5", "integrator.total_time=0.01",
          "integrator.snapshot_stride=50"]),
        ("thm21_n4096", "thm21_equivalence",
         ["grid.n=4096", "integrator.dt=1e-6", "integrator.total_time=0.0005",
          "integrator.snapshot_stride=50"]),
        ("newton_residual", "newton_residual", []),
        ("dlss_descent", "dlss_descent", []),
        ("uniform_stationary_dtnull", "uniform_stationary",
         ["integrator.dt=null"]),
        ("free_gaussian_n4096", "free_gaussian",
         ["grid.n=4096", "integrator.total_time=0.1",
          "integrator.snapshot_stride=1"]),
        ("plane_wave_n4096", "plane_wave_eigenstate",
         ["grid.n=4096", "integrator.total_time=0.3",
          "integrator.snapshot_stride=5"]),
        ("heat_n4096", "heat_entropy_dissipation",
         ["grid.n=4096", "integrator.total_time=0.07",
          "integrator.snapshot_stride=1"]),
        ("heat_dtnull", "heat_entropy_dissipation", ["integrator.dt=null"]),
    ],
    "geometry_checks": [
        ("submersion_n256", "submersion_pullback", ["grid.n=256"]),
        ("submersion_n512", "submersion_pullback", ["grid.n=512"]),
        ("bb_action_n256", "benamou_brenier_action", ["grid.n=256"]),
        ("bb_action_n1024", "benamou_brenier_action", ["grid.n=1024"]),
        ("thm44_hamiltonian", "thm44_hamiltonian", []),
    ],
}

# Dotted paths that hold a coordinate on the circle, per builtin scenario.
_POSITIONS = {
    "thm21_equivalence": ["potential.parameters.center",
                          "initial_state.parameters.density.center"],
    "newton_residual": ["potential.parameters.center",
                        "initial_state.parameters.density.center"],
    "dlss_descent": ["initial_state.parameters.offset"],
    "free_gaussian": ["initial_state.parameters.center"],
    "heat_entropy_dissipation": ["initial_state.parameters.offset"],
}
_CENTER_LISTS = {"benamou_brenier_action": "initial_state.parameters.centers"}
_RANDOM_SEEDS = {"submersion_pullback": "initial_state.parameters.seed",
                 "thm44_hamiltonian": "initial_state.parameters.seed"}


def _get(mapping: dict, dotted: str, default=0.0):
    node = mapping
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def generate(workload: str, seed: int, scenarios) -> list[tuple[str, dict]]:
    """(label, config mapping) pairs of one workload at one seed.

    `scenarios` is the `madflow.scenarios` module; its builtin mappings
    and `apply_overrides` build every config.
    """
    if workload not in _PLAN:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = np.random.default_rng(seed)
    shift = 0.0 if seed == DEFAULT_SEED else float(rng.uniform(0.0, 2.0 * math.pi))
    redrawn_seed = int(rng.integers(0, 10**6))
    out = []
    for label, builtin, overrides in _PLAN[workload]:
        base = scenarios.builtin_mapping(builtin)
        patches = list(overrides)
        if seed != DEFAULT_SEED:
            length = float(_get(base, "grid.length"))
            for path in _POSITIONS.get(builtin, []):
                moved = math.fmod(float(_get(base, path)) + shift, length)
                patches.append(f"{path}={moved!r}")
            if builtin in _CENTER_LISTS:
                path = _CENTER_LISTS[builtin]
                moved = [math.fmod(c + shift, length) for c in _get(base, path)]
                patches.append(f"{path}={moved!r}")
            if builtin in _RANDOM_SEEDS:
                patches.append(f"{_RANDOM_SEEDS[builtin]}={redrawn_seed}")
        mapping = scenarios.apply_overrides(base, patches)
        mapping["name"] = label
        out.append((label, mapping))
    return out
