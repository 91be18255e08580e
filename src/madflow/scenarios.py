"""Declarative scenario runner.

A scenario is a JSON document naming a grid, physics constants, a
potential, an initial state, an integrator, and a list of property checks
with tolerances.  Running one produces `observables.csv` (one row per
snapshot, fixed physics columns plus one residual column per check),
`snapshots.json` (the sampled fields), and `summary.json` (pass/fail per
check).  Everything is deterministic given the config: re-running
reproduces the CSV bit for bit.

Builtin scenarios cover the whole acceptance surface; see
`builtin_names` / `scenario_descriptions`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import dynamics, transport
from . import states as statelib
from .dynamics import TrajectoryRecord
from .errors import (AliasError, ConfigError, NodeError, StabilityError,
                     WindingError)
from .fields import (DensityField, PhaseField, PhysicsConstants,
                     PotentialField, WaveField, density_floor, functionals,
                     lagrangian, normalize_density, unwrapped_phase)
from .grid import TAU, Grid
from .madelung import (PolarDecomposition, madelung_section, madelung_transform,
                       submersion_pullback_defect, wave_hamiltonian)
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint,
                    covariant_acceleration, hamiltonian, wasserstein_gradient)

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "MADFLOW_OUTPUT_ROOT"
DEFAULT_OUTPUT_ROOT = "runs"

#: physics columns of observables.csv, in order; residual columns follow.
OBSERVABLE_COLUMNS = ("time", "mass", "H_S", "H_F", "entropy", "fisher",
                      "L_F", "gauge_constant")

SOLVER_KINDS = ("schrodinger", "madelung", "heat", "dlss", "static",
                "displacement")

#: starting step sizes for the refinement loop when dt is omitted.
DT_TARGETS = {"schrodinger": 1e-3, "madelung": 1e-4, "heat": 1e-3}
REFINEMENT_TOL = 1e-6
MAX_REFINEMENTS = 8

_TINY = 1e-300


# -- config model ------------------------------------------------------------


def _where(path: str) -> str:
    return path if path else "config"


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{_where(path)} must be a mapping, got {type(obj).__name__}")
    return dict(obj)


def _check_keys(mapping: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {_where(path)}; "
                          f"allowed: {sorted(allowed)}")


def _as_float(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    out = float(value)
    if positive and not out > 0.0:
        raise ConfigError(f"{path} must be positive, got {value!r}")
    return out


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class CheckRequest:
    name: str
    tolerance: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see from_mapping for the JSON shape)."""

    name: str
    grid: Grid
    constants: PhysicsConstants
    potential_kind: str
    potential_parameters: Mapping
    initial_kind: str
    initial_parameters: Mapping
    solver: str
    dt: float | None
    total_time: float
    snapshot_stride: int
    checks: tuple[CheckRequest, ...]
    output_directory: str | None
    output_formats: tuple[str, ...]

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ScenarioConfig":
        data = _require_mapping(data, "")
        _check_keys(data, ("schema", "name", "grid", "constants", "potential",
                           "initial_state", "integrator", "checks", "output"), "")
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema {schema!r}; this build reads "
                              f"schema {SCHEMA_VERSION}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("config needs a non-empty string name")

        grid_map = _require_mapping(data.get("grid", {}), "grid")
        _check_keys(grid_map, ("n", "length"), "grid")
        try:
            grid = Grid(_as_int(grid_map.get("n", 256), "grid.n", minimum=1),
                        _as_float(grid_map.get("length", TAU), "grid.length",
                                  positive=True))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

        const_map = _require_mapping(data.get("constants", {}), "constants")
        _check_keys(const_map, ("hbar",), "constants")
        try:
            constants = PhysicsConstants(_as_float(const_map.get("hbar", 1.0),
                                                   "constants.hbar"))
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from exc

        pot_map = _require_mapping(data.get("potential", {"kind": "none"}),
                                   "potential")
        _check_keys(pot_map, ("kind", "parameters"), "potential")
        pot_kind = pot_map.get("kind", "none")
        if pot_kind not in POTENTIAL_KINDS:
            raise ConfigError(f"unknown potential kind {pot_kind!r}; "
                              f"known: {sorted(POTENTIAL_KINDS)}")
        pot_params = _require_mapping(pot_map.get("parameters", {}),
                                      "potential.parameters")

        if "initial_state" not in data:
            raise ConfigError("config needs an initial_state section")
        init_map = _require_mapping(data["initial_state"], "initial_state")
        _check_keys(init_map, ("kind", "parameters"), "initial_state")
        init_kind = init_map.get("kind")
        if init_kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial state kind {init_kind!r}; "
                              f"known: {sorted(INITIAL_KINDS)}")
        init_params = _require_mapping(init_map.get("parameters", {}),
                                       "initial_state.parameters")

        if "integrator" not in data:
            raise ConfigError("config needs an integrator section")
        integ = _require_mapping(data["integrator"], "integrator")
        _check_keys(integ, ("solver", "dt", "total_time", "snapshot_stride"),
                    "integrator")
        solver = integ.get("solver")
        if solver not in SOLVER_KINDS:
            raise ConfigError(f"unknown solver {solver!r}; known: {SOLVER_KINDS}")
        dt = integ.get("dt")
        if dt is not None:
            dt = _as_float(dt, "integrator.dt", positive=True)
        elif solver == "static":
            dt = 1.0
        elif solver == "displacement":
            raise ConfigError("the displacement runner needs an explicit dt")
        total_time = _as_float(integ.get("total_time"), "integrator.total_time",
                               positive=True) if "total_time" in integ else None
        if total_time is None:
            raise ConfigError("integrator.total_time is required")
        stride = _as_int(integ.get("snapshot_stride", 1),
                         "integrator.snapshot_stride", minimum=1)
        if solver == "heat" and pot_kind != "none":
            raise ConfigError("the heat flow takes no potential; use kind 'none'")

        checks: list[CheckRequest] = []
        for i, entry in enumerate(data.get("checks", [])):
            if isinstance(entry, str):
                entry = {"name": entry}
            entry = _require_mapping(entry, f"checks[{i}]")
            _check_keys(entry, ("name", "tolerance"), f"checks[{i}]")
            cname = entry.get("name")
            if cname not in CHECKS:
                raise ConfigError(f"unknown check {cname!r}; "
                                  f"known: {sorted(CHECKS)}")
            definition = CHECKS[cname]
            if solver not in definition.solvers:
                raise ConfigError(f"check {cname!r} does not apply to the "
                                  f"{solver!r} solver")
            tol = _as_float(entry.get("tolerance", definition.tolerance),
                            f"checks[{i}].tolerance", positive=True)
            checks.append(CheckRequest(cname, tol))

        out_map = _require_mapping(data.get("output", {}), "output")
        _check_keys(out_map, ("directory", "formats"), "output")
        directory = out_map.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError("output.directory must be a string path")
        formats = tuple(out_map.get("formats", ("csv", "json")))
        bad = sorted(set(formats) - {"csv", "json"})
        if bad:
            raise ConfigError(f"unknown output formats {bad}; allowed: csv, json")

        return cls(name=name, grid=grid, constants=constants,
                   potential_kind=pot_kind, potential_parameters=pot_params,
                   initial_kind=init_kind, initial_parameters=init_params,
                   solver=solver, dt=dt, total_time=total_time,
                   snapshot_stride=stride, checks=tuple(checks),
                   output_directory=directory, output_formats=formats)

    def resolved_mapping(self) -> dict:
        """Canonical JSON-ready echo of the validated config."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "grid": {"n": self.grid.n, "length": self.grid.length},
            "constants": {"hbar": self.constants.hbar},
            "potential": {"kind": self.potential_kind,
                          "parameters": dict(self.potential_parameters)},
            "initial_state": {"kind": self.initial_kind,
                              "parameters": dict(self.initial_parameters)},
            "integrator": {"solver": self.solver, "dt": self.dt,
                           "total_time": self.total_time,
                           "snapshot_stride": self.snapshot_stride},
            "checks": [{"name": c.name, "tolerance": c.tolerance}
                       for c in self.checks],
            "output": {"directory": self.output_directory,
                       "formats": list(self.output_formats)},
        }


def load_mapping(path: str | Path) -> dict:
    """Read a JSON config file into a raw mapping (ConfigError on failure)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def load_config(path: str | Path) -> ScenarioConfig:
    return ScenarioConfig.from_mapping(load_mapping(path))


def apply_overrides(mapping: Mapping, overrides: Sequence[str]) -> dict:
    """Apply `dotted.key=value` overrides to a raw config mapping.

    Values parse as JSON when possible (numbers, booleans, null, quoted
    strings) and fall back to plain strings.
    """
    out = json.loads(json.dumps(mapping))  # deep copy, JSON types only
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


# -- potential registry ------------------------------------------------------


def _potential_none(grid: Grid, params: Mapping) -> PotentialField:
    _check_keys(params, (), "potential.parameters")
    return PotentialField.zero(grid)


def _potential_cosine_well(grid: Grid, params: Mapping) -> PotentialField:
    _check_keys(params, ("depth", "center"), "potential.parameters")
    depth = _as_float(params.get("depth", 1.0), "potential.parameters.depth")
    center = _as_float(params.get("center", 0.5 * grid.length),
                       "potential.parameters.center")
    values = depth * (1.0 - np.cos(TAU * (grid.points - center) / grid.length))
    return PotentialField(grid, values)


def _potential_custom_table(grid: Grid, params: Mapping) -> PotentialField:
    _check_keys(params, ("values",), "potential.parameters")
    raw = params.get("values")
    if not isinstance(raw, (list, tuple)) or len(raw) != grid.n:
        raise ConfigError(f"potential.parameters.values must list {grid.n} samples")
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"potential table is not numeric: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError("potential table contains non-finite entries")
    return PotentialField(grid, values)


POTENTIAL_KINDS: dict[str, Callable[[Grid, Mapping], PotentialField]] = {
    "none": _potential_none,
    "cosine_well": _potential_cosine_well,
    "custom_table": _potential_custom_table,
}


# -- initial state registry --------------------------------------------------


DENSITY_SPEC_KINDS = ("uniform", "gaussian", "perturbed_uniform", "cosine_bump")
PHASE_SPEC_KINDS = ("zero", "sine")


def _density_from_spec(grid: Grid, spec: Mapping, path: str) -> DensityField:
    spec = _require_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "uniform":
        _check_keys(spec, ("kind",), path)
        return statelib.uniform_density(grid)
    if kind == "gaussian":
        _check_keys(spec, ("kind", "center", "sigma", "floor_weight", "images"), path)
        return statelib.wrapped_gaussian_density(
            grid,
            _as_float(spec.get("center", 0.5 * grid.length), f"{path}.center"),
            _as_float(spec.get("sigma", 0.35), f"{path}.sigma", positive=True),
            _as_float(spec.get("floor_weight", statelib.DEFAULT_GAUSSIAN_FLOOR),
                      f"{path}.floor_weight"),
            _as_int(spec.get("images", 6), f"{path}.images", minimum=1))
    if kind == "perturbed_uniform":
        _check_keys(spec, ("kind", "amplitude", "mode", "offset"), path)
        return statelib.perturbed_uniform_density(
            grid,
            _as_float(spec.get("amplitude", 0.2), f"{path}.amplitude"),
            _as_int(spec.get("mode", 1), f"{path}.mode", minimum=1),
            _as_float(spec.get("offset", 0.0), f"{path}.offset"))
    if kind == "cosine_bump":
        _check_keys(spec, ("kind", "center", "concentration"), path)
        return statelib.cosine_bump_density(
            grid,
            _as_float(spec.get("center", 0.5 * grid.length), f"{path}.center"),
            _as_float(spec.get("concentration", 1.0), f"{path}.concentration"))
    raise ConfigError(f"unknown density kind {kind!r} in {path}; "
                      f"known: {DENSITY_SPEC_KINDS}")


def _phase_values_from_spec(grid: Grid, spec: Mapping, path: str) -> np.ndarray:
    spec = _require_mapping(spec, path)
    kind = spec.get("kind", "zero")
    if kind == "zero":
        _check_keys(spec, ("kind",), path)
        return np.zeros(grid.n)
    if kind == "sine":
        _check_keys(spec, ("kind", "amplitude", "mode", "offset"), path)
        return statelib.sine_phase(
            grid,
            _as_float(spec.get("amplitude", 0.1), f"{path}.amplitude"),
            _as_int(spec.get("mode", 1), f"{path}.mode", minimum=1),
            _as_float(spec.get("offset", 0.0), f"{path}.offset"))
    raise ConfigError(f"unknown phase kind {kind!r} in {path}; "
                      f"known: {PHASE_SPEC_KINDS}")


def _solver_mismatch(kind: str, solver: str) -> ConfigError:
    return ConfigError(f"initial state kind {kind!r} does not fit the "
                       f"{solver!r} solver")


def _initial_gaussian(grid: Grid, constants: PhysicsConstants, solver: str,
                      params: Mapping) -> dict:
    _check_keys(params, ("center", "sigma", "floor_weight", "images"),
                "initial_state.parameters")
    center = _as_float(params.get("center", 0.5 * grid.length),
                       "initial_state.parameters.center")
    sigma = _as_float(params.get("sigma", 0.35),
                      "initial_state.parameters.sigma", positive=True)
    default_floor = 0.0 if solver == "schrodinger" else statelib.DEFAULT_GAUSSIAN_FLOOR
    floor_weight = _as_float(params.get("floor_weight", default_floor),
                             "initial_state.parameters.floor_weight")
    images = _as_int(params.get("images", 6),
                     "initial_state.parameters.images", minimum=1)
    if solver == "schrodinger":
        if floor_weight == 0.0:
            wave = statelib.free_gaussian_wave(grid, center, sigma, constants,
                                               0.0, images)
        else:
            wave = statelib.gaussian_wave(grid, center, sigma, floor_weight)
        return {"wave": wave, "center": center, "sigma": sigma}
    mu = statelib.wrapped_gaussian_density(grid, center, sigma, floor_weight, images)
    if solver == "madelung":
        return {"density": mu,
                "phase": PhaseField.mean_zero(grid, np.zeros(grid.n), mu),
                "reference": 0.0}
    if solver in ("heat", "dlss"):
        return {"density": mu}
    raise _solver_mismatch("gaussian", solver)


def _initial_plane_wave(grid: Grid, constants: PhysicsConstants, solver: str,
                        params: Mapping) -> dict:
    _check_keys(params, ("mode",), "initial_state.parameters")
    mode = _as_int(params.get("mode", 1), "initial_state.parameters.mode")
    if solver != "schrodinger":
        raise ConfigError("plane-wave initial data winds around zero; only the "
                          "schrodinger solver accepts it")
    return {"wave": statelib.plane_wave(grid, mode), "mode": mode}


def _initial_polar_pair(grid: Grid, constants: PhysicsConstants, solver: str,
                        params: Mapping) -> dict:
    _check_keys(params, ("density", "phase", "reference"),
                "initial_state.parameters")
    mu = _density_from_spec(grid, params.get("density", {"kind": "uniform"}),
                            "initial_state.parameters.density")
    phase_spec = params.get("phase", {"kind": "zero"})
    phase_values = _phase_values_from_spec(grid, phase_spec,
                                           "initial_state.parameters.phase")
    reference = _as_float(params.get("reference", 0.0),
                          "initial_state.parameters.reference")
    if solver in ("heat", "dlss"):
        if np.any(phase_values != 0.0):
            raise ConfigError(f"the {solver!r} solver evolves densities only; "
                              "use a zero phase")
        return {"density": mu}
    phase = PhaseField.mean_zero(grid, phase_values, mu)
    if solver == "madelung":
        return {"density": mu, "phase": phase, "reference": reference}
    if solver == "schrodinger":
        wave = madelung_section(mu, phase, reference, constants)
        return {"wave": wave, "density": mu, "phase": phase,
                "reference": reference}
    raise _solver_mismatch("polar_pair", solver)


def _initial_perturbed_uniform(grid: Grid, constants: PhysicsConstants,
                               solver: str, params: Mapping) -> dict:
    _check_keys(params, ("amplitude", "mode", "offset"),
                "initial_state.parameters")
    mu = statelib.perturbed_uniform_density(
        grid,
        _as_float(params.get("amplitude", 0.2), "initial_state.parameters.amplitude"),
        _as_int(params.get("mode", 1), "initial_state.parameters.mode", minimum=1),
        _as_float(params.get("offset", 0.0), "initial_state.parameters.offset"))
    if solver in ("heat", "dlss"):
        return {"density": mu}
    if solver == "madelung":
        return {"density": mu,
                "phase": PhaseField.mean_zero(grid, np.zeros(grid.n), mu),
                "reference": 0.0}
    if solver == "schrodinger":
        return {"wave": WaveField.normalized(grid, np.sqrt(mu.values))}
    raise _solver_mismatch("perturbed_uniform", solver)


def _initial_random_polar(grid: Grid, constants: PhysicsConstants, solver: str,
                          params: Mapping) -> dict:
    _check_keys(params, ("seed", "modes", "density_amplitude", "phase_amplitude"),
                "initial_state.parameters")
    seed = _as_int(params.get("seed", 0), "initial_state.parameters.seed", minimum=0)
    modes = _as_int(params.get("modes", 4), "initial_state.parameters.modes", minimum=1)
    d_amp = _as_float(params.get("density_amplitude", 0.5),
                      "initial_state.parameters.density_amplitude")
    p_amp = _as_float(params.get("phase_amplitude", 0.3),
                      "initial_state.parameters.phase_amplitude")
    if solver == "static":
        def factory(trial: int) -> WaveField:
            rng = np.random.default_rng(seed + trial)
            return statelib.random_wave(grid, rng, constants, modes, d_amp, p_amp)
        return {"factory": factory, "state_kind": "wave", "seed": seed}
    if solver == "schrodinger":
        rng = np.random.default_rng(seed)
        return {"wave": statelib.random_wave(grid, rng, constants, modes, d_amp, p_amp)}
    if solver == "madelung":
        rng = np.random.default_rng(seed)
        mu = statelib.random_density(grid, rng, modes, d_amp)
        s = statelib.random_zero_mean(grid, rng, modes, p_amp)
        return {"density": mu, "phase": PhaseField.mean_zero(grid, s, mu),
                "reference": 0.0}
    raise _solver_mismatch("random_polar", solver)


def _initial_random_density(grid: Grid, constants: PhysicsConstants, solver: str,
                            params: Mapping) -> dict:
    _check_keys(params, ("seed", "modes", "amplitude"),
                "initial_state.parameters")
    seed = _as_int(params.get("seed", 0), "initial_state.parameters.seed", minimum=0)
    modes = _as_int(params.get("modes", 3), "initial_state.parameters.modes", minimum=1)
    amplitude = _as_float(params.get("amplitude", 0.4),
                          "initial_state.parameters.amplitude")
    if solver == "static":
        def factory(trial: int) -> DensityField:
            rng = np.random.default_rng(seed + trial)
            return statelib.random_density(grid, rng, modes, amplitude)
        return {"factory": factory, "state_kind": "density", "seed": seed}
    if solver in ("heat", "dlss"):
        rng = np.random.default_rng(seed)
        return {"density": statelib.random_density(grid, rng, modes, amplitude)}
    raise _solver_mismatch("random_density", solver)


def _initial_gaussian_pair(grid: Grid, constants: PhysicsConstants, solver: str,
                           params: Mapping) -> dict:
    _check_keys(params, ("centers", "sigma", "floor_weight", "images"),
                "initial_state.parameters")
    centers = params.get("centers")
    if not isinstance(centers, (list, tuple)) or len(centers) != 2:
        raise ConfigError("initial_state.parameters.centers must list two centers")
    sigma = _as_float(params.get("sigma", 0.1),
                      "initial_state.parameters.sigma", positive=True)
    floor_weight = _as_float(params.get("floor_weight", statelib.DEFAULT_GAUSSIAN_FLOOR),
                             "initial_state.parameters.floor_weight")
    images = _as_int(params.get("images", 6),
                     "initial_state.parameters.images", minimum=1)
    if solver != "displacement":
        raise _solver_mismatch("gaussian_pair", solver)
    pair = tuple(
        statelib.wrapped_gaussian_density(
            grid, _as_float(c, f"initial_state.parameters.centers[{i}]"),
            sigma, floor_weight, images)
        for i, c in enumerate(centers))
    return {"pair": pair}


INITIAL_KINDS: dict[str, Callable[[Grid, PhysicsConstants, str, Mapping], dict]] = {
    "gaussian": _initial_gaussian,
    "plane_wave": _initial_plane_wave,
    "polar_pair": _initial_polar_pair,
    "perturbed_uniform": _initial_perturbed_uniform,
    "random_polar": _initial_random_polar,
    "random_density": _initial_random_density,
    "gaussian_pair": _initial_gaussian_pair,
}


# -- execution ---------------------------------------------------------------


@dataclass
class RunContext:
    """Everything a check needs: the config, built objects, and the record."""

    config: ScenarioConfig
    grid: Grid
    constants: PhysicsConstants
    potential: PotentialField
    initial: dict
    dt: float = 0.0
    record: TrajectoryRecord | None = None
    columns: dict | None = None
    cache: dict = field(default_factory=dict)


def _run_solver(ctx: RunContext, dt: float) -> TrajectoryRecord:
    cfg = ctx.config
    total, stride = cfg.total_time, cfg.snapshot_stride
    if cfg.solver == "schrodinger":
        return dynamics.schrodinger_evolve(ctx.initial["wave"], ctx.potential,
                                           ctx.constants, dt, total, stride)
    if cfg.solver == "madelung":
        return dynamics.madelung_evolve(ctx.initial["density"], ctx.initial["phase"],
                                        ctx.potential, ctx.constants, dt, total, stride)
    if cfg.solver == "heat":
        return dynamics.heat_evolve(ctx.initial["density"], dt, total, stride)
    if cfg.solver == "dlss":
        return dynamics.dlss_evolve(ctx.initial["density"], ctx.potential,
                                    ctx.constants, dt, total, stride)
    if cfg.solver == "static":
        return _run_static(ctx, dt)
    if cfg.solver == "displacement":
        return _run_displacement(ctx, dt)
    raise ConfigError(f"unknown solver {cfg.solver!r}")


def _run_static(ctx: RunContext, dt: float) -> TrajectoryRecord:
    """Pseudo-time trial runner: one independent state per snapshot index."""
    cfg = ctx.config
    steps = dynamics._step_count(dt, cfg.total_time)
    marks = dynamics._snapshot_steps(steps, cfg.snapshot_stride)
    factory = ctx.initial["factory"]
    g = ctx.grid
    sts, mass = [], []
    for k in marks:
        state = factory(k)
        sts.append(state)
        if isinstance(state, WaveField):
            mass.append(g.integrate(np.abs(state.values) ** 2))
        else:
            mass.append(g.integrate(state.values))
    times = np.asarray(marks, dtype=float) * dt
    return TrajectoryRecord(times, tuple(sts), {"mass": mass})


def _run_displacement(ctx: RunContext, dt: float) -> TrajectoryRecord:
    """Geodesic sampler: snapshots along the displacement interpolation."""
    cfg = ctx.config
    steps = dynamics._step_count(dt, cfg.total_time)
    marks = dynamics._snapshot_steps(steps, cfg.snapshot_stride)
    mu, nu = ctx.initial["pair"]
    g = ctx.grid
    sts, mass = [], []
    for k in marks:
        t = min(max(k * dt / cfg.total_time, 0.0), 1.0)
        state = transport.displacement_interpolation(mu, nu, t)
        sts.append(state)
        mass.append(g.integrate(state.values))
    times = np.asarray(marks, dtype=float) * dt
    return TrajectoryRecord(times, tuple(sts), {"mass": mass})


def _divisor_dt(total: float, target: float) -> float:
    return total / math.ceil(total / target)


def _default_dt(cfg: ScenarioConfig) -> float:
    if cfg.solver in DT_TARGETS:
        return _divisor_dt(cfg.total_time, DT_TARGETS[cfg.solver])
    if cfg.solver == "dlss":
        # explicit stepping of a fourth-order operator: dt below the
        # stability ceiling ~ 11 / (hbar^2 k_max^4), with margin
        k_max = (TAU / cfg.grid.length) * cfg.grid.n / 3.0
        target = 2.0 / (cfg.constants.hbar ** 2 * k_max ** 4)
        return _divisor_dt(cfg.total_time, target)
    raise ConfigError(f"solver {cfg.solver!r} needs an explicit dt")


def _final_row_gap(a: TrajectoryRecord, b: TrajectoryRecord) -> float:
    gap = 0.0
    for key in set(a.observables) & set(b.observables):
        va = float(a.observables[key][-1])
        vb = float(b.observables[key][-1])
        if np.isfinite(va) and np.isfinite(vb):
            gap = max(gap, abs(va - vb))
    return gap


def _resolve_record(ctx: RunContext) -> None:
    """Run the solver; when dt is omitted, halve it until observables settle."""
    cfg = ctx.config
    if cfg.dt is not None or cfg.solver in ("static", "displacement"):
        ctx.dt = cfg.dt if cfg.dt is not None else 1.0
        ctx.record = _run_solver(ctx, ctx.dt)
        return
    dt = _default_dt(cfg)
    previous = _run_solver(ctx, dt)
    for _ in range(MAX_REFINEMENTS):
        finer = _run_solver(ctx, 0.5 * dt)
        if _final_row_gap(previous, finer) < REFINEMENT_TOL:
            ctx.dt = 0.5 * dt
            ctx.record = finer
            return
        dt *= 0.5
        previous = finer
    raise StabilityError(f"observables still moving after {MAX_REFINEMENTS} "
                         f"dt halvings (scenario {cfg.name!r})")


def execute_config(config: ScenarioConfig) -> RunContext:
    """Build the scenario objects, run the solver, compose the columns."""
    grid, constants = config.grid, config.constants
    potential = POTENTIAL_KINDS[config.potential_kind](grid,
                                                       config.potential_parameters)
    initial = INITIAL_KINDS[config.initial_kind](grid, constants, config.solver,
                                                 config.initial_parameters)
    ctx = RunContext(config=config, grid=grid, constants=constants,
                     potential=potential, initial=initial)
    _resolve_record(ctx)
    ctx.columns = _compose_columns(ctx)
    return ctx


# -- observable composition --------------------------------------------------


def _compose_columns(ctx: RunContext) -> dict:
    """The eight physics columns, with nan where a quantity is undefined.

    Wave rows earn hydrodynamic columns only while the polar decomposition
    exists (nowhere-vanishing, winding-free); polar rows earn the wave
    energy through the section.  Density-only rows keep entropy and
    fisher; their gauge ledger never accrues and stays zero.
    """
    rec = ctx.record
    native = rec.observables
    rows = len(rec.times)
    cols = {name: np.full(rows, np.nan) for name in OBSERVABLE_COLUMNS}
    cols["time"] = rec.times.copy()
    cols["mass"] = native["mass"].copy()
    cols["gauge_constant"] = native.get("gauge_constant",
                                        np.zeros(rows)).copy()
    for key, column in (("h_s", "H_S"), ("h_f", "H_F"), ("l_f", "L_F"),
                        ("entropy", "entropy"), ("fisher", "fisher")):
        if key in native:
            cols[column] = native[key].copy()

    solver = ctx.config.solver
    if solver in ("schrodinger", "static"):
        for i, state in enumerate(rec.states):
            if not isinstance(state, WaveField):
                break
            if solver == "static":
                cols["H_S"][i] = wave_hamiltonian(state, ctx.potential, ctx.constants)
            try:
                polar, tangent = madelung_transform(state, ctx.constants)
            except (NodeError, AliasError, WindingError):
                continue
            vals = functionals(polar.density, ctx.potential, ctx.constants)
            point = TangentBundlePoint(polar.density, tangent.potential)
            cols["H_F"][i] = hamiltonian(point, ctx.potential, ctx.constants)
            cols["L_F"][i] = lagrangian(tangent, ctx.potential, ctx.constants)
            cols["entropy"][i] = vals.entropy
            cols["fisher"][i] = vals.fisher
    if solver == "madelung":
        for i, state in enumerate(rec.states):
            wave = WaveField(ctx.grid, state.wave_values())
            cols["H_S"][i] = wave_hamiltonian(wave, ctx.potential, ctx.constants)
    if solver in ("heat", "dlss", "displacement") or (
            solver == "static" and ctx.initial.get("state_kind") == "density"):
        for i, state in enumerate(rec.states):
            if not isinstance(state, DensityField):
                break
            vals = functionals(state, ctx.potential, ctx.constants)
            cols["entropy"][i] = vals.entropy
            cols["fisher"][i] = vals.fisher
    return cols


# -- checks ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDefinition:
    tolerance: float
    solvers: tuple[str, ...]
    fn: Callable[[RunContext], np.ndarray]
    summary: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    residuals: np.ndarray
    residual: float
    passed: bool


def _uniform_snapshot_step(ctx: RunContext) -> float:
    gaps = np.diff(ctx.record.times)
    if len(gaps) == 0 or not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ConfigError("this check needs uniformly spaced snapshots; "
                          "pick a stride that divides the step count")
    return float(gaps[0])


def _state_arrays(state) -> tuple[np.ndarray, ...]:
    if isinstance(state, PolarDecomposition):
        return (state.density.values, state.phase.values)
    if isinstance(state, WaveField):
        return (np.abs(state.values) ** 2,)
    return (state.values,)


def _check_mass_conservation(ctx: RunContext) -> np.ndarray:
    return np.abs(ctx.columns["mass"] - 1.0)


def _check_stationarity(ctx: RunContext) -> np.ndarray:
    base = _state_arrays(ctx.record.states[0])
    out = np.zeros(len(ctx.record.times))
    for i, state in enumerate(ctx.record.states):
        parts = _state_arrays(state)
        out[i] = max(float(np.abs(p - q).max()) for p, q in zip(parts, base))
    return out


def _check_energy_conservation(ctx: RunContext) -> np.ndarray:
    column = "H_S" if ctx.config.solver == "schrodinger" else "H_F"
    energy = ctx.columns[column]
    return np.abs(energy - energy[0]) / max(abs(energy[0]), _TINY)


def _check_eigenstate_phase(ctx: RunContext) -> np.ndarray:
    mode = ctx.initial["mode"]
    g, hbar = ctx.grid, ctx.constants.hbar
    k = TAU * mode / g.length
    psi0 = ctx.record.states[0].values
    out = np.zeros(len(ctx.record.times))
    for i, (t, state) in enumerate(zip(ctx.record.times, ctx.record.states)):
        expected = np.exp(-0.5j * hbar * k * k * t) * psi0
        diff = state.values - expected
        out[i] = np.sqrt(g.integrate(np.abs(diff) ** 2))
    return out


def _check_free_packet_density(ctx: RunContext) -> np.ndarray:
    g = ctx.grid
    center, sigma = ctx.initial["center"], ctx.initial["sigma"]
    out = np.zeros(len(ctx.record.times))
    for i, (t, state) in enumerate(zip(ctx.record.times, ctx.record.states)):
        oracle = statelib.free_gaussian_wave(g, center, sigma, ctx.constants,
                                             float(t))
        diff = np.abs(state.values) ** 2 - np.abs(oracle.values) ** 2
        out[i] = np.sqrt(g.integrate(diff * diff))
    return out


def _wave_oracle(ctx: RunContext) -> TrajectoryRecord:
    oracle = ctx.cache.get("wave_oracle")
    if oracle is None:
        psi0 = madelung_section(ctx.initial["density"], ctx.initial["phase"],
                                ctx.initial.get("reference", 0.0), ctx.constants)
        oracle = dynamics.schrodinger_evolve(psi0, ctx.potential, ctx.constants,
                                             ctx.dt, ctx.config.total_time,
                                             ctx.config.snapshot_stride)
        if not np.allclose(oracle.times, ctx.record.times, rtol=0.0, atol=1e-12):
            raise ConfigError("wave oracle snapshots fell out of step")
        ctx.cache["wave_oracle"] = oracle
    return oracle


def _check_schrodinger_density_match(ctx: RunContext) -> np.ndarray:
    g = ctx.grid
    oracle = _wave_oracle(ctx)
    out = np.zeros(len(ctx.record.times))
    for i, (polar, wave) in enumerate(zip(ctx.record.states, oracle.states)):
        diff = polar.density.values - np.abs(wave.values) ** 2
        out[i] = np.sqrt(g.integrate(diff * diff))
    return out


def _check_velocity_potential_match(ctx: RunContext) -> np.ndarray:
    g, hbar = ctx.grid, ctx.constants.hbar
    oracle = _wave_oracle(ctx)
    floor = density_floor(g)
    out = np.full(len(ctx.record.times), np.nan)
    for i, (polar, wave) in enumerate(zip(ctx.record.states, oracle.states)):
        wave_density = np.abs(wave.values) ** 2
        if wave_density.min() < floor:
            continue
        s_wave = hbar * unwrapped_phase(wave)
        s_wave = s_wave - g.integrate(s_wave * wave_density)
        diff = s_wave - polar.phase.values
        out[i] = np.sqrt(g.integrate(diff * diff))
    return out


def _check_newton_residual(ctx: RunContext) -> np.ndarray:
    h = _uniform_snapshot_step(ctx)
    sts = ctx.record.states
    out = np.full(len(sts), np.nan)
    for i in range(1, len(sts) - 1):
        mu = sts[i].density
        curve = [sts[i - 1].phase.values, sts[i].phase.values,
                 sts[i + 1].phase.values]
        acceleration = covariant_acceleration(curve, mu, h)
        gradient = wasserstein_gradient("total", mu, ctx.potential, ctx.constants)
        mismatch = (acceleration + gradient).norm()
        scale = max(acceleration.norm(), gradient.norm(), _TINY)
        out[i] = mismatch / scale
    return out


def _check_entropy_dissipation(ctx: RunContext) -> np.ndarray:
    h = _uniform_snapshot_step(ctx)
    entropy = ctx.columns["entropy"]
    fisher = ctx.columns["fisher"]
    out = np.full(len(entropy), np.nan)
    for i in range(1, len(entropy) - 1):
        if fisher[i] <= 1e-30:
            out[i] = 0.0
            continue
        rate = (entropy[i + 1] - entropy[i - 1]) / (2.0 * h)
        out[i] = abs(rate + fisher[i]) / fisher[i]
    return out


def _check_descent_monotone(ctx: RunContext) -> np.ndarray:
    energy = ctx.columns["H_F"]
    out = np.zeros(len(energy))
    out[1:] = np.maximum(0.0, np.diff(energy))
    return out


def _check_phase_correction_ledger(ctx: RunContext) -> np.ndarray:
    times = ctx.record.times
    lagrangian_col = ctx.columns["L_F"]
    steps = 0.5 * (lagrangian_col[1:] + lagrangian_col[:-1]) * np.diff(times)
    running = np.concatenate(([0.0], np.cumsum(steps)))
    return np.abs(ctx.columns["gauge_constant"] - running)


def _check_hamiltonian_pullback(ctx: RunContext) -> np.ndarray:
    h_s, h_f = ctx.columns["H_S"], ctx.columns["H_F"]
    return np.abs(h_s - h_f) / np.maximum(np.abs(h_f), _TINY)


_PULLBACK_HBAR_CYCLE = (0.5, 1.0, 2.0)
_PULLBACK_SEED_BASE = 900


def _check_symplectic_pullback(ctx: RunContext) -> np.ndarray:
    g = ctx.grid
    out = np.zeros(len(ctx.record.states))
    for i, state in enumerate(ctx.record.states):
        if not isinstance(state, DensityField):
            raise ConfigError("symplectic_pullback needs density trial states")
        constants = PhysicsConstants(_PULLBACK_HBAR_CYCLE[i % 3])
        rng = np.random.default_rng(_PULLBACK_SEED_BASE + i)
        point = TangentBundlePoint(state, statelib.random_zero_mean(g, rng, 3, 0.4))
        spec_a = StandardVectorFieldSpec(g, statelib.random_zero_mean(g, rng, 3, 0.4),
                                         statelib.random_zero_mean(g, rng, 3, 0.4))
        spec_b = StandardVectorFieldSpec(g, statelib.random_zero_mean(g, rng, 3, 0.4),
                                         statelib.random_zero_mean(g, rng, 3, 0.4))
        out[i] = submersion_pullback_defect(point, spec_a, spec_b, constants,
                                            step=1e-4)
    return out


def _geodesic_w2_squared(ctx: RunContext) -> float:
    w2sq = ctx.cache.get("w2_squared")
    if w2sq is None:
        mu, nu = ctx.initial["pair"]
        w2sq = transport.w2_distance(mu, nu) ** 2
        ctx.cache["w2_squared"] = w2sq
    return w2sq


def _check_bb_action_match(ctx: RunContext) -> np.ndarray:
    h = _uniform_snapshot_step(ctx)
    action = transport.path_action(ctx.record.states, h)
    w2sq = _geodesic_w2_squared(ctx)
    value = abs(action - w2sq) / max(w2sq, _TINY)
    return np.full(len(ctx.record.times), value)


_PERTURBED_PATH_COUNT = 5
_PERTURBED_PATH_AMPLITUDE = 0.05
_OPTIMALITY_SLACK = 1e-6


def _check_bb_path_optimality(ctx: RunContext) -> np.ndarray:
    """Worst violation of action >= W2^2 - slack over perturbed paths."""
    h = _uniform_snapshot_step(ctx)
    g = ctx.grid
    w2sq = _geodesic_w2_squared(ctx)
    base = ctx.record.states
    last = len(base) - 1
    x = TAU * g.points / g.length
    violation = 0.0
    for j in range(1, _PERTURBED_PATH_COUNT + 1):
        envelope = np.sin(np.pi * np.arange(len(base)) / last)
        wiggle = np.sin(j * x + 0.7 * j)
        path = [normalize_density(g, mu.values * (1.0 + _PERTURBED_PATH_AMPLITUDE
                                                  * envelope[k] * wiggle))
                for k, mu in enumerate(base)]
        action = transport.path_action(path, h)
        violation = max(violation, (w2sq - _OPTIMALITY_SLACK) - action)
    return np.full(len(base), max(violation, 0.0))


def _check_constant_speed(ctx: RunContext) -> np.ndarray:
    sts = ctx.record.states
    times = ctx.record.times
    total_time = times[-1]
    total = np.sqrt(_geodesic_w2_squared(ctx))
    out = np.zeros(len(sts))
    for i in range(1, len(sts)):
        reached = transport.w2_distance(sts[i], sts[0])
        out[i] = abs(reached - (times[i] / total_time) * total)
    return out


_DYNAMIC = ("schrodinger", "madelung", "heat", "dlss")

CHECKS: dict[str, CheckDefinition] = {
    "mass_conservation": CheckDefinition(
        1e-8, SOLVER_KINDS, _check_mass_conservation,
        "total mass stays at one"),
    "stationarity": CheckDefinition(
        1e-10, _DYNAMIC, _check_stationarity,
        "state stays at its initial value"),
    "energy_conservation": CheckDefinition(
        1e-6, ("schrodinger", "madelung"), _check_energy_conservation,
        "relative energy drift stays small"),
    "eigenstate_phase": CheckDefinition(
        1e-10, ("schrodinger",), _check_eigenstate_phase,
        "single mode accumulates the exact phase"),
    "free_packet_density": CheckDefinition(
        1e-6, ("schrodinger",), _check_free_packet_density,
        "density tracks the closed-form spreading packet"),
    "schrodinger_density_match": CheckDefinition(
        1e-3, ("madelung",), _check_schrodinger_density_match,
        "hydrodynamic density tracks the wave solver"),
    "velocity_potential_match": CheckDefinition(
        1e-3, ("madelung",), _check_velocity_potential_match,
        "gauge-fixed phases of the two solvers agree"),
    "newton_residual": CheckDefinition(
        1e-3, ("madelung",), _check_newton_residual,
        "covariant acceleration balances the energy gradient"),
    "entropy_dissipation": CheckDefinition(
        1e-4, ("heat",), _check_entropy_dissipation,
        "entropy decays at the information production rate"),
    "descent_monotone": CheckDefinition(
        1e-10, ("dlss",), _check_descent_monotone,
        "energy never increases between snapshots"),
    "phase_correction_ledger": CheckDefinition(
        1e-4, ("madelung",), _check_phase_correction_ledger,
        "gauge ledger equals the running action integral"),
    "hamiltonian_pullback": CheckDefinition(
        1e-8, ("static",), _check_hamiltonian_pullback,
        "wave energy equals the lifted hydrodynamic energy"),
    "symplectic_pullback": CheckDefinition(
        1e-4, ("static",), _check_symplectic_pullback,
        "wave symplectic form pulls back to the scaled bundle form"),
    "bb_action_match": CheckDefinition(
        1e-3, ("displacement",), _check_bb_action_match,
        "kinetic action of the geodesic equals the squared distance"),
    "bb_path_optimality": CheckDefinition(
        1e-12, ("displacement",), _check_bb_path_optimality,
        "perturbed paths cost at least as much as the geodesic"),
    "constant_speed": CheckDefinition(
        1e-4, ("displacement",), _check_constant_speed,
        "distance from the start grows linearly along the geodesic"),
}


def evaluate_checks(ctx: RunContext) -> list[CheckResult]:
    results = []
    for request in ctx.config.checks:
        residuals = np.asarray(CHECKS[request.name].fn(ctx), dtype=float)
        if residuals.shape != ctx.record.times.shape:
            raise ValueError(f"check {request.name!r} produced a column of "
                             f"shape {residuals.shape}")
        finite = residuals[np.isfinite(residuals)]
        worst = float(finite.max()) if len(finite) else float("nan")
        passed = bool(worst <= request.tolerance)
        results.append(CheckResult(request.name, request.tolerance, residuals,
                                   worst, passed))
    return results


# -- artifact writers --------------------------------------------------------


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_observables(path: Path, ctx: RunContext,
                       results: Sequence[CheckResult]) -> None:
    header = list(OBSERVABLE_COLUMNS) + [f"res_{r.name}" for r in results]
    table = [ctx.columns[name] for name in OBSERVABLE_COLUMNS]
    table += [r.residuals for r in results]
    lines = [",".join(header)]
    for row in zip(*table):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _state_payload(state) -> dict:
    if isinstance(state, WaveField):
        return {"kind": "wave",
                "real": [float(v) for v in state.values.real],
                "imag": [float(v) for v in state.values.imag]}
    if isinstance(state, PolarDecomposition):
        return {"kind": "polar",
                "density": [float(v) for v in state.density.values],
                "phase": [float(v) for v in state.phase.values]}
    return {"kind": "density", "density": [float(v) for v in state.values]}


def _write_snapshots(path: Path, ctx: RunContext) -> None:
    payload = {
        "scenario": ctx.config.name,
        "grid": {"n": ctx.grid.n, "length": ctx.grid.length},
        "times": [float(t) for t in ctx.record.times],
        "states": [_state_payload(s) for s in ctx.record.states],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _summary_payload(ctx: RunContext, results: Sequence[CheckResult],
                     passed: bool) -> dict:
    return {
        "scenario": ctx.config.name,
        "passed": passed,
        "dt_used": ctx.dt,
        "rows": len(ctx.record.times),
        "checks": [{"name": r.name, "tolerance": r.tolerance,
                    "residual": r.residual, "passed": r.passed}
                   for r in results],
        "config": ctx.config.resolved_mapping(),
    }


# -- running -----------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    config: ScenarioConfig
    context: RunContext
    checks: list[CheckResult]
    passed: bool
    summary: dict
    output_dir: Path | None

    @property
    def failed_checks(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def resolve_output_dir(config: ScenarioConfig, out_dir: str | Path | None,
                       environ: Mapping | None = None) -> Path:
    """Precedence: explicit argument, config, env root, ./runs."""
    if out_dir is not None:
        return Path(out_dir)
    if config.output_directory is not None:
        return Path(config.output_directory)
    environ = os.environ if environ is None else environ
    root = environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT)
    return Path(root) / config.name


def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None,
                 write: bool = True) -> ScenarioOutcome:
    """Execute a validated config, evaluate its checks, write artifacts."""
    ctx = execute_config(config)
    results = evaluate_checks(ctx)
    passed = all(r.passed for r in results)
    summary = _summary_payload(ctx, results, passed)
    target: Path | None = None
    if write:
        target = resolve_output_dir(config, out_dir)
        target.mkdir(parents=True, exist_ok=True)
        if "csv" in config.output_formats:
            _write_observables(target / "observables.csv", ctx, results)
        if "json" in config.output_formats:
            _write_snapshots(target / "snapshots.json", ctx)
        (target / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return ScenarioOutcome(config, ctx, results, passed, summary, target)


# -- builtin scenarios -------------------------------------------------------


_PI = math.pi


def _builtin_mappings() -> dict[str, dict]:
    return {
        "uniform_stationary": {
            "schema": 1, "name": "uniform_stationary",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "polar_pair", "parameters": {
                "density": {"kind": "uniform"}, "phase": {"kind": "zero"}}},
            "integrator": {"solver": "madelung", "dt": 5e-4,
                           "total_time": 0.05, "snapshot_stride": 10},
            "checks": [{"name": "stationarity", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        },
        "plane_wave_eigenstate": {
            "schema": 1, "name": "plane_wave_eigenstate",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "plane_wave", "parameters": {"mode": 3}},
            "integrator": {"solver": "schrodinger", "dt": 1e-3,
                           "total_time": 1.0, "snapshot_stride": 100},
            "checks": [{"name": "eigenstate_phase", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-10},
                       {"name": "energy_conservation", "tolerance": 1e-10}],
        },
        "free_gaussian": {
            "schema": 1, "name": "free_gaussian",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "gaussian", "parameters": {
                "center": _PI, "sigma": 0.35, "floor_weight": 0.0}},
            "integrator": {"solver": "schrodinger", "dt": 1e-3,
                           "total_time": 0.3, "snapshot_stride": 50},
            "checks": [{"name": "free_packet_density", "tolerance": 1e-6},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        },
        "thm21_equivalence": {
            "schema": 1, "name": "thm21_equivalence",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "cosine_well",
                          "parameters": {"depth": 1.0, "center": _PI}},
            "initial_state": {"kind": "polar_pair", "parameters": {
                "density": {"kind": "cosine_bump", "center": _PI,
                            "concentration": 2.0},
                "phase": {"kind": "zero"}}},
            "integrator": {"solver": "madelung", "dt": 1e-4,
                           "total_time": 0.25, "snapshot_stride": 25},
            "checks": [{"name": "schrodinger_density_match", "tolerance": 1e-3},
                       {"name": "velocity_potential_match", "tolerance": 1e-3},
                       {"name": "energy_conservation", "tolerance": 1e-4},
                       {"name": "phase_correction_ledger", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        },
        "newton_residual": {
            "schema": 1, "name": "newton_residual",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "cosine_well",
                          "parameters": {"depth": 1.0, "center": _PI}},
            "initial_state": {"kind": "polar_pair", "parameters": {
                "density": {"kind": "cosine_bump", "center": _PI,
                            "concentration": 2.0},
                "phase": {"kind": "zero"}}},
            "integrator": {"solver": "madelung", "dt": 1e-4,
                           "total_time": 0.15, "snapshot_stride": 30},
            "checks": [{"name": "newton_residual", "tolerance": 1e-3},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        },
        "thm44_hamiltonian": {
            "schema": 1, "name": "thm44_hamiltonian",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "random_polar", "parameters": {"seed": 11}},
            "integrator": {"solver": "static", "dt": 1.0,
                           "total_time": 99.0, "snapshot_stride": 1},
            "checks": [{"name": "hamiltonian_pullback", "tolerance": 1e-8}],
        },
        "submersion_pullback": {
            "schema": 1, "name": "submersion_pullback",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "random_density", "parameters": {
                "seed": 7, "modes": 3, "amplitude": 0.4}},
            "integrator": {"solver": "static", "dt": 1.0,
                           "total_time": 19.0, "snapshot_stride": 1},
            "checks": [{"name": "symplectic_pullback", "tolerance": 1e-4}],
        },
        "heat_entropy_dissipation": {
            "schema": 1, "name": "heat_entropy_dissipation",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "perturbed_uniform", "parameters": {
                "amplitude": 0.3, "mode": 1}},
            "integrator": {"solver": "heat", "dt": 1e-3,
                           "total_time": 0.2, "snapshot_stride": 5},
            "checks": [{"name": "entropy_dissipation", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        },
        "dlss_descent": {
            "schema": 1, "name": "dlss_descent",
            "grid": {"n": 64, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "perturbed_uniform", "parameters": {
                "amplitude": 0.2, "mode": 2}},
            "integrator": {"solver": "dlss", "dt": 2e-5,
                           "total_time": 0.01, "snapshot_stride": 25},
            "checks": [{"name": "descent_monotone", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        },
        "benamou_brenier_action": {
            "schema": 1, "name": "benamou_brenier_action",
            "grid": {"n": 256, "length": TAU},
            "constants": {"hbar": 1.0},
            "potential": {"kind": "none"},
            "initial_state": {"kind": "gaussian_pair", "parameters": {
                "centers": [_PI - 0.25, _PI + 0.25], "sigma": 0.1,
                "floor_weight": 1e-8}},
            "integrator": {"solver": "displacement", "dt": 1.0 / 63.0,
                           "total_time": 1.0, "snapshot_stride": 1},
            "checks": [{"name": "bb_action_match", "tolerance": 1e-3},
                       {"name": "bb_path_optimality", "tolerance": 1e-12},
                       {"name": "constant_speed", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        },
    }


SCENARIO_DESCRIPTIONS = {
    "uniform_stationary": "uniform density with zero phase stays fixed under the hydrodynamic flow",
    "plane_wave_eigenstate": "single-mode wave accumulates the exact eigenvalue phase",
    "free_gaussian": "free wave packet spreads with the closed-form width law",
    "thm21_equivalence": "hydrodynamic and wave evolutions of a trapped packet stay in lockstep",
    "newton_residual": "covariant acceleration balances the metric energy gradient along the flow",
    "thm44_hamiltonian": "wave energy equals the lifted energy on random nowhere-vanishing states",
    "submersion_pullback": "wave symplectic form pulls back to the scaled bundle form",
    "heat_entropy_dissipation": "entropy decays at the information production rate along heat flow",
    "dlss_descent": "fourth-order diffusion descends the scaled information functional",
    "benamou_brenier_action": "geodesic kinetic action matches the squared transport distance",
}


def builtin_names() -> list[str]:
    return list(_builtin_mappings())


def builtin_mapping(name: str) -> dict:
    mappings = _builtin_mappings()
    if name not in mappings:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"known: {', '.join(mappings)}")
    return mappings[name]


def builtin_config(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_mapping(builtin_mapping(name))


def run_builtin(name: str, out_dir: str | Path | None = None,
                write: bool = True) -> ScenarioOutcome:
    return run_scenario(builtin_config(name), out_dir, write)


def _suite_worker(name: str, root: str) -> tuple[str, bool, list[str]]:
    outcome = run_builtin(name, Path(root) / name)
    return name, outcome.passed, outcome.failed_checks


def run_suite(out_root: str | Path | None = None, jobs: int = 1,
              names: Sequence[str] | None = None) -> dict[str, tuple[bool, list[str]]]:
    """Run every builtin scenario into out_root/<name>; returns per-name verdicts."""
    if out_root is None:
        out_root = Path(os.environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT))
    root = Path(out_root)
    chosen = list(names) if names is not None else builtin_names()
    for name in chosen:
        if name not in _builtin_mappings():
            raise ConfigError(f"unknown scenario {name!r}")
    results: dict[str, tuple[bool, list[str]]] = {}
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_suite_worker, name, str(root))
                       for name in chosen]
            for future in futures:
                name, passed, failed = future.result()
                results[name] = (passed, failed)
    else:
        for name in chosen:
            _, passed, failed = _suite_worker(name, str(root))
            results[name] = (passed, failed)
    return results
