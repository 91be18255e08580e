"""Declarative scenario runner.

A scenario is a JSON document naming a grid, physics constants, a
potential, an initial state, an integrator, and a list of property checks
with tolerances.  Running one produces `observables.csv` (one row per
snapshot, fixed physics columns plus one residual column per check),
`snapshots.json` (the sampled fields), and `summary.json` (pass/fail per
check).  Everything is deterministic given the config: re-running
reproduces the CSV bit for bit.

Builtin scenarios cover the whole acceptance surface; see
`builtin_names` / `SCENARIO_DESCRIPTIONS`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence

import numpy as np

from . import dynamics, floattext, transport
from . import states as statelib
from .dynamics import TrajectoryRecord
from .errors import (AliasError, ConfigError, CutError, NodeError,
                     StabilityError, WindingError)
from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     functionals, normalize_density)
from .grid import TAU, Grid
from .madelung import (madelung_section, madelung_transform, polar_wave,
                       submersion_pullback_defect, wave_hamiltonian)
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint, TangentVector,
                    covariant_acceleration, hamiltonian, lagrangian,
                    wasserstein_gradient)

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "MADFLOW_OUTPUT_ROOT"
DEFAULT_OUTPUT_ROOT = "runs"

#: physics columns of observables.csv, in order; residual columns follow.
OBSERVABLE_COLUMNS = ("time", "mass", "H_S", "H_F", "entropy", "fisher",
                      "L_F", "gauge_constant")

SOLVER_KINDS = ("schrodinger", "madelung", "heat", "dlss", "static",
                "displacement")
_DYNAMIC = ("schrodinger", "madelung", "heat", "dlss")  # the time-stepping solvers

#: starting step sizes for the refinement loop when dt is omitted.
DT_TARGETS = {"schrodinger": 1e-3, "madelung": 1e-4, "heat": 1e-3}
REFINEMENT_TOL = 1e-6
MAX_REFINEMENTS = 8

#: the largest record a run may keep, in bytes of its float samples; a
#: longer one is refused before its solve (ConfigError)
MAX_RECORD_BYTES = 2 ** 30

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


def _as_name(value: Any, path: str, grid: Grid | None = None, *,
             known: Collection[str]) -> str:
    """`value` as a string naming one of `known` (ConfigError otherwise)."""
    if not isinstance(value, str) or value not in known:
        raise ConfigError(f"unknown {path} {value!r}; known: {sorted(known)}")
    return value


def _as_float(value: Any, path: str, grid: Grid | None = None,
              positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # JSON reads 1e400 and Infinity as inf
        raise ConfigError(f"{path} must be finite, got {value!r}")
    out = float(value)
    if positive and not out > 0.0:
        raise ConfigError(f"{path} must be positive, got {value!r}")
    return out


def _as_int(value: Any, path: str, grid: Grid | None = None,
            minimum: int | None = None, mode: bool = False) -> int:
    """An integer; with `mode`, a Fourier mode (or mode count) the grid
    resolves: |value| < n/2."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value!r}")
    if mode and not 2 * abs(value) < grid.n:
        raise ConfigError(f"{path} must lie below n/2 = {grid.n // 2} in size, "
                          f"got {value!r}")
    return value


def _as_step(value: Any, path: str, grid: Grid | None = None) -> float | None:
    """A positive dt, or None: the runner refines its own."""
    return None if value is None else _as_float(value, path, positive=True)


#: the default of a parameter that the config must give
REQUIRED = object()


def _parameters(mapping: Any, table: Mapping, path: str, grid: Grid | None) -> dict:
    """The keyword arguments that the parameter `mapping` at `path` gives.

    `table` maps each parameter name to (parse, default): `parse(value,
    dotted path, grid)` checks and converts a given value, and a default
    is a constant, a function of the grid, or REQUIRED.
    """
    mapping = _require_mapping(mapping, path)
    _check_keys(mapping, table, path)
    args = {}
    for name, (parse, default) in table.items():
        where = f"{path}.{name}"
        if name in mapping:
            args[name] = parse(mapping[name], where, grid)
        elif default is REQUIRED:
            raise ConfigError(f"{where} is required")
        else:
            args[name] = default(grid) if callable(default) else default
    return args


def _kind_section(data: Mapping, section: str, kinds: Collection[str],
                  default: str | None = None) -> tuple[str, dict]:
    """The kind and the raw parameters of the `section` of a config."""
    mapping = _require_mapping(data.get(section, {}), section)
    _check_keys(mapping, ("kind", "parameters"), section)
    kind = _as_name(mapping.get("kind", default), f"{section}.kind", known=kinds)
    return kind, _require_mapping(mapping.get("parameters", {}), f"{section}.parameters")


_POSITIVE = partial(_as_float, positive=True)
_GRID = {"n": (partial(_as_int, minimum=1), 256), "length": (_POSITIVE, TAU)}
_CONSTANTS = {"hbar": (_as_float, 1.0)}
_INTEGRATOR = {"solver": (partial(_as_name, known=SOLVER_KINDS), REQUIRED),
               "dt": (_as_step, None),
               "total_time": (_POSITIVE, REQUIRED),
               "snapshot_stride": (partial(_as_int, minimum=1), 1)}


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
        if type(schema) is not int or schema != SCHEMA_VERSION:  # true == 1.0 == 1
            raise ConfigError(f"unsupported schema {schema!r}; this build reads "
                              f"schema {SCHEMA_VERSION}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("config needs a non-empty string name")

        try:
            grid = Grid(**_parameters(data.get("grid", {}), _GRID, "grid", None))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        try:
            constants = PhysicsConstants(**_parameters(
                data.get("constants", {}), _CONSTANTS, "constants", grid))
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from exc

        pot_kind, pot_params = _kind_section(data, "potential", POTENTIAL_KINDS, "none")
        if "initial_state" not in data:
            raise ConfigError("config needs an initial_state section")
        init_kind, init_params = _kind_section(data, "initial_state", INITIAL_KINDS)

        if "integrator" not in data:
            raise ConfigError("config needs an integrator section")
        integ = _parameters(data["integrator"], _INTEGRATOR, "integrator", grid)
        solver, dt = integ["solver"], integ["dt"]
        total_time, stride = integ["total_time"], integ["snapshot_stride"]
        if dt is None and solver == "static":
            dt = 1.0
        solvers = INITIAL_KINDS[init_kind][0]
        if solver not in solvers:
            raise ConfigError(f"initial state kind {init_kind!r} does not fit the "
                              f"{solver!r} solver; it fits {solvers}")
        try:  # with dt omitted, the step count of the first rung of the ladder
            steps = dynamics._step_count(
                dt or _default_dt(solver, grid, constants.hbar, total_time), total_time)
        except ValueError as exc:
            raise ConfigError(f"integrator: {exc}") from exc
        _require_record_budget(solver, init_kind, grid.n, steps, stride)
        if solver == "heat" and pot_kind != "none":
            raise ConfigError("the heat flow takes no potential; use kind 'none'")

        entries = data.get("checks", [])
        if not isinstance(entries, (list, tuple)):
            raise ConfigError(f"checks must be a list, got {entries!r}")
        checks: list[CheckRequest] = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                entry = {"name": entry}
            request = _parameters(entry, _CHECK, f"checks[{i}]", grid)
            cname, tol = request["name"], request["tolerance"]
            if any(c.name == cname for c in checks):
                raise ConfigError(f"check {cname!r} is listed twice")
            definition = CHECKS[cname]
            if solver not in definition.solvers:
                raise ConfigError(f"check {cname!r} does not apply to the "
                                  f"{solver!r} solver")
            for what, kind, served in (("an initial state", init_kind, definition.kinds),
                                       ("a potential", pot_kind, definition.potentials)):
                if kind not in served:
                    raise ConfigError(f"check {cname!r} does not apply to {what} of "
                                      f"kind {kind!r}; it reads {served}")
            if cname == "free_packet_density" and _as_float(
                    init_params.get("floor_weight", 0),
                    "initial_state.parameters.floor_weight") != 0:
                raise ConfigError("check 'free_packet_density' describes the bare "
                                  "packet only; set floor_weight to 0")
            tol = definition.tolerance if tol is None else tol
            checks.append(CheckRequest(cname, tol))
            # a stride that divides the first rung's count divides the 2^k
            # times as many steps of every later rung of the dt ladder
            if definition.uniform_snapshots and (steps % stride or steps < 2 * stride):
                raise ConfigError(
                    f"check {cname!r} needs three or more uniformly spaced snapshots; "
                    f"snapshot_stride {stride} does not divide the {steps} steps "
                    "into two or more equal parts")

        out_map = _require_mapping(data.get("output", {}), "output")
        _check_keys(out_map, ("directory", "formats"), "output")
        directory = out_map.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError("output.directory must be a string path")
        formats = out_map.get("formats", ("csv", "json"))
        if not isinstance(formats, (list, tuple)):
            raise ConfigError(f"output.formats must be a list, got {formats!r}")
        formats = tuple(_as_name(f, f"output.formats[{i}]", known=("csv", "json"))
                        for i, f in enumerate(formats))

        return cls(name=name, grid=grid, constants=constants,
                   potential_kind=pot_kind, potential_parameters=pot_params,
                   initial_kind=init_kind, initial_parameters=init_params,
                   solver=solver, dt=dt, total_time=total_time,
                   snapshot_stride=stride, checks=tuple(checks),
                   output_directory=directory, output_formats=formats)

    def resolved_mapping(self) -> dict:
        """Canonical JSON-ready echo of the validated config; the keys of a
        parameter table name the attributes that hold their values."""
        def echo(table: Mapping, holder) -> dict:
            return {key: getattr(holder, key) for key in table}
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "grid": echo(_GRID, self.grid),
            "constants": echo(_CONSTANTS, self.constants),
            "potential": {"kind": self.potential_kind,
                          "parameters": dict(self.potential_parameters)},
            "initial_state": {"kind": self.initial_kind,
                              "parameters": dict(self.initial_parameters)},
            "integrator": echo(_INTEGRATOR, self),
            "checks": [echo(_CHECK, c) for c in self.checks],
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


def _override_slot(node, part: str, key: str):
    """`part` as a key of `node`; a list takes an in-range integer index."""
    if not isinstance(node, list):
        return part
    if not part.isdecimal() or int(part) >= len(node):
        raise ConfigError(f"override {key!r}: {part!r} is not an index of a "
                          f"list of {len(node)} entries")
    return int(part)


def apply_overrides(mapping: Mapping, overrides: Sequence[str]) -> dict:
    """Apply `dotted.key=value` overrides to a raw config mapping.

    Values parse as JSON when possible (numbers, booleans, null, quoted
    strings) and fall back to plain strings.  A path segment that meets a
    list indexes it (`checks.0.tolerance`); a mapping entry on the way that
    is missing or neither a mapping nor a list becomes a new mapping.
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
            slot = _override_slot(node, part, key)
            nxt = node[slot] if isinstance(node, list) else node.get(slot)
            if not isinstance(nxt, (dict, list)):
                if isinstance(node, list):
                    raise ConfigError(f"override {key!r}: entry {slot} is {nxt!r}, "
                                      "not a mapping or list")
                nxt = {}
                node[slot] = nxt
            node = nxt
        node[_override_slot(node, parts[-1], key)] = value
    return out


# -- kind registries ---------------------------------------------------------


def _as_table(value: Any, path: str, grid: Grid) -> np.ndarray:
    """One finite number per grid point."""
    if not isinstance(value, (list, tuple)) or len(value) != grid.n:
        raise ConfigError(f"{path} must list {grid.n} samples")
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path} contains non-finite entries")
    return values


def _as_pair(value: Any, path: str, grid: Grid | None = None) -> tuple[float, ...]:
    """The two centers of a Gaussian pair."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must list two centers")
    return tuple(_as_float(c, f"{path}[{i}]") for i, c in enumerate(value))


def _as_spec(value: Any, path: str, grid: Grid, *, kinds: Mapping,
             default: str | None = None):
    """What a `{"kind": ..., **parameters}` spec of one of `kinds` builds."""
    params = _require_mapping(value, path)
    kind = _as_name(params.pop("kind", default), f"{path}.kind", known=kinds)
    builder, table = kinds[kind]
    return builder(grid, **_parameters(params, table, path, grid))


def _middle(grid: Grid) -> float:
    return 0.5 * grid.length


def _zero_phase(grid: Grid) -> np.ndarray:
    return np.zeros(grid.n)


_MODES = partial(_as_int, minimum=1, mode=True)
_SEED = partial(_as_int, minimum=0)

#: potential kind -> (builder, parameter table)
POTENTIAL_KINDS: dict[str, tuple[Callable[..., PotentialField], dict]] = {
    "none": (PotentialField.zero, {}),
    "cosine_well": (statelib.cosine_well, {"depth": (_as_float, 1.0),
                                           "center": (_as_float, _middle)}),
    "custom_table": (PotentialField, {"values": (_as_table, REQUIRED)}),
}

#: the shape of a wrapped Gaussian, which `gaussian` centers once and
#: `gaussian_pair` twice
_PACKET = {"sigma": (_POSITIVE, 0.35),
           "floor_weight": (_as_float, statelib.DEFAULT_GAUSSIAN_FLOOR)}

#: density spec kind -> (builder, parameter table)
DENSITY_KINDS: dict[str, tuple[Callable[..., DensityField], dict]] = {
    "uniform": (statelib.uniform_density, {}),
    "gaussian": (statelib.wrapped_gaussian_density,
                 {"center": (_as_float, _middle), **_PACKET}),
    "perturbed_uniform": (statelib.perturbed_uniform_density,
                          {"amplitude": (_as_float, 0.2), "mode": (_MODES, 1),
                           "offset": (_as_float, 0.0)}),
    "cosine_bump": (statelib.cosine_bump_density,
                    {"center": (_as_float, _middle),
                     "concentration": (_as_float, 1.0)}),
}

#: phase spec kind -> (builder of the raw phase samples, parameter table)
PHASE_KINDS: dict[str, tuple[Callable[..., np.ndarray], dict]] = {
    "zero": (_zero_phase, {}),
    "sine": (statelib.sine_phase, {"amplitude": (_as_float, 0.1),
                                   "mode": (_MODES, 1),
                                   "offset": (_as_float, 0.0)}),
}

#: initial-state kind -> (the solvers that accept it, parameter table)
INITIAL_KINDS: dict[str, tuple[tuple[str, ...], dict]] = {
    "gaussian": (_DYNAMIC, DENSITY_KINDS["gaussian"][1]),
    "perturbed_uniform": (_DYNAMIC, DENSITY_KINDS["perturbed_uniform"][1]),
    "polar_pair": (_DYNAMIC, {
        "density": (partial(_as_spec, kinds=DENSITY_KINDS), statelib.uniform_density),
        "phase": (partial(_as_spec, kinds=PHASE_KINDS, default="zero"), _zero_phase),
        "reference": (_as_float, 0.0)}),
    "plane_wave": (("schrodinger",), {"mode": (partial(_as_int, mode=True), 1)}),
    "random_polar": (("schrodinger", "madelung", "static"), {
        "seed": (_SEED, 0), "modes": (_MODES, 4),
        "density_amplitude": (_as_float, 0.5), "phase_amplitude": (_as_float, 0.3)}),
    "random_density": (("heat", "dlss", "static"), {
        "seed": (_SEED, 0), "modes": (_MODES, 3), "amplitude": (_as_float, 0.4)}),
    "gaussian_pair": (("displacement",), {
        "centers": (_as_pair, REQUIRED), **_PACKET, "sigma": (_POSITIVE, 0.1)}),
}


def _solver_start(solver: str, mu: DensityField, phase_values: np.ndarray,
                  reference: float, constants: PhysicsConstants) -> dict:
    """What `solver` starts from, given a density, a raw phase and a reference.

    Density solvers take mu alone and need the phase to be zero; the wave
    and hydrodynamic solvers take the point (mu, mean-zero phase) and its
    section wave.
    """
    if solver in ("heat", "dlss"):
        if np.any(phase_values != 0.0):
            raise ConfigError(f"the {solver!r} solver evolves densities only; "
                              "use a zero phase")
        return {"density": mu}
    point = TangentBundlePoint(mu, TangentVector(mu, phase_values).potential)
    return {"wave": madelung_section(point, reference, constants), "point": point}


def _trials(config: ScenarioConfig, trial) -> TrajectoryRecord:
    """The record of the pseudo-time (static and displacement) runners.

    `trial(k)` at every snapshot step k, built before the solve.
    """
    marks = dynamics._snapshot_steps(config.dt, config.total_time, config.snapshot_stride)
    return TrajectoryRecord(np.array(marks) * config.dt, tuple(trial(k) for k in marks))


def build_potential(config: ScenarioConfig) -> PotentialField:
    """The potential of a validated config, projected onto the 2/3 band:
    the Strang, Madelung and DLSS solvers and every column see this one V."""
    grid = config.grid
    builder, table = POTENTIAL_KINDS[config.potential_kind]
    built = builder(grid, **_parameters(config.potential_parameters, table,
                                        "potential.parameters", grid))
    return PotentialField(grid, grid.dealias(built.values))


def build_initial(config: ScenarioConfig) -> dict:
    """The initial data of a validated config, as its solver takes it."""
    grid, constants, solver = config.grid, config.constants, config.solver
    kind, params = config.initial_kind, dict(config.initial_parameters)
    if kind == "gaussian" and solver == "schrodinger":
        # the bare packet, whose free evolution has a closed form
        params.setdefault("floor_weight", 0.0)
    args = _parameters(params, INITIAL_KINDS[kind][1], "initial_state.parameters", grid)
    if kind in ("gaussian", "perturbed_uniform"):
        if kind == "gaussian" and solver == "schrodinger" and args["floor_weight"] == 0.0:
            # the packet at time t, the free_packet_density oracle; if that check
            # reads it, its spread at the final time, when widest, must stay
            # within the bound on its periodic images
            packet = partial(statelib.free_gaussian_wave, grid, args["center"],
                             args["sigma"], constants)
            wave = packet(0.0)
            if any(c.name == "free_packet_density" for c in config.checks):
                packet(config.total_time)
            return {"wave": wave, "packet": packet}
        return _solver_start(solver, DENSITY_KINDS[kind][0](grid, **args),
                             _zero_phase(grid), 0.0, constants)
    if kind == "polar_pair":
        return _solver_start(solver, args["density"], args["phase"],
                             args["reference"], constants)
    if kind == "plane_wave":
        return {"wave": statelib.plane_wave(grid, args["mode"]), "mode": args["mode"]}
    if kind == "random_polar":
        seed, modes = args["seed"], args["modes"]
        d_amp, p_amp = args["density_amplitude"], args["phase_amplitude"]
        if solver == "static":
            def wave_trial(trial: int) -> WaveField:
                rng = np.random.default_rng(seed + trial)
                return statelib.random_wave(grid, rng, constants, modes, d_amp, p_amp)
            return {"trials": _trials(config, wave_trial)}
        rng = np.random.default_rng(seed)
        mu = statelib.random_density(grid, rng, modes, d_amp)
        s = statelib.random_zero_mean(grid, rng, modes, p_amp)
        return _solver_start(solver, mu, s, 0.0, constants)
    if kind == "random_density":
        def density_trial(trial: int) -> DensityField:
            rng = np.random.default_rng(args["seed"] + trial)
            return statelib.random_density(grid, rng, args["modes"], args["amplitude"])
        if solver == "static":
            return {"trials": _trials(config, density_trial)}
        return {"density": density_trial(0)}
    # gaussian_pair
    centers = args.pop("centers")
    if math.remainder(centers[1] - centers[0], grid.length) == 0.0:
        raise ValueError("the two centers coincide on the circle: there is no "
                         "transport to measure")
    pair = tuple(statelib.wrapped_gaussian_density(grid, c, **args) for c in centers)
    # the path, sampled at t = k dt / total_time; CutError or NodeError
    # here means the grid does not resolve it
    geodesic = transport.displacement_geodesic(*pair)
    return {"pair": pair, "trials": _trials(
        config, lambda k: geodesic(min(k * config.dt / config.total_time, 1.0)))}


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

    @cached_property
    def wave_oracle(self) -> TrajectoryRecord:
        """The wave solver's run from the start, at the run's dt and stride."""
        cfg = self.config
        return dynamics.schrodinger_evolve(self.initial["wave"], self.potential,
                                           self.constants, self.dt, cfg.total_time,
                                           cfg.snapshot_stride)

    @cached_property
    def w2_squared(self) -> float:
        """The squared transport distance between the displacement endpoints."""
        return transport.w2_distance(*self.initial["pair"]) ** 2


def _run_solver(ctx: RunContext, dt: float) -> TrajectoryRecord:
    cfg = ctx.config
    total, stride = cfg.total_time, cfg.snapshot_stride
    if cfg.solver == "schrodinger":
        return dynamics.schrodinger_evolve(ctx.initial["wave"], ctx.potential,
                                           ctx.constants, dt, total, stride)
    if cfg.solver == "madelung":
        return dynamics.madelung_evolve(ctx.initial["point"], ctx.potential,
                                        ctx.constants, dt, total, stride)
    if cfg.solver == "heat":
        return dynamics.heat_evolve(ctx.initial["density"], dt, total, stride)
    if cfg.solver == "dlss":
        return dynamics.dlss_evolve(ctx.initial["density"], ctx.potential,
                                    ctx.constants, dt, total, stride)
    return ctx.initial["trials"]  # static and displacement: built before the solve


def _default_dt(solver: str, grid: Grid, hbar: float, total_time: float) -> float:
    """The first dt of the refinement ladder, the largest divisor of total_time
    below the solver's target: a normal positive double, else ConfigError."""
    if solver not in DT_TARGETS and solver != "dlss":
        raise ConfigError(f"solver {solver!r} needs an explicit dt")
    try:
        # dlss steps a fourth-order operator explicitly: dt below the
        # stability ceiling ~ 11 / (hbar^2 k_max^4), with margin
        target = DT_TARGETS.get(solver) or 2.0 / (
            hbar ** 2 * (TAU / grid.length * grid.n / 3.0) ** 4)
        dt = total_time / math.ceil(total_time / target)
    except ArithmeticError:  # k_max ** 4 under- or overflows
        dt = 0.0
    if not dt >= sys.float_info.min:
        raise ConfigError(f"the default {solver} dt is not a normal positive number "
                          f"on this grid; set integrator.dt")
    return dt


def _require_record_budget(solver: str, initial_kind: str, n: int, steps: int,
                           stride: int) -> None:
    """ConfigError unless the snapshots of `steps` steps at `stride` fit in
    MAX_RECORD_BYTES: a density state holds n floats, a wave or a polar
    state 2n."""
    rows = -(-steps // stride) + 1  # every stride-th step, and the last
    density = solver in ("heat", "dlss", "displacement") or initial_kind == "random_density"
    floats = n if density else 2 * n
    size = 8 * rows * floats
    if size > MAX_RECORD_BYTES:
        raise ConfigError(
            f"the record would hold {rows} snapshots of {floats} floats, "
            f"{size / 2 ** 20:.0f} MiB, above the {MAX_RECORD_BYTES / 2 ** 20:.0f} MiB "
            "limit; raise integrator.snapshot_stride")


def _resolve_record(ctx: RunContext) -> None:
    """Run the solver; when dt is omitted, halve it until the final row settles."""
    cfg = ctx.config
    if cfg.dt is not None:  # always set for the static and displacement runners
        ctx.dt = cfg.dt
        ctx.record = _run_solver(ctx, ctx.dt)
        return
    dt = _default_dt(cfg.solver, cfg.grid, cfg.constants.hbar, cfg.total_time)
    previous = _row(ctx, _run_solver(ctx, dt), -1)
    for _ in range(MAX_REFINEMENTS):
        _require_record_budget(cfg.solver, cfg.initial_kind, cfg.grid.n,
                               dynamics._step_count(0.5 * dt, cfg.total_time),
                               cfg.snapshot_stride)
        finer = _run_solver(ctx, 0.5 * dt)
        row = _row(ctx, finer, -1)
        gaps = [abs(previous[key] - row[key]) for key in previous.keys() & row.keys()]
        if max((g for g in gaps if np.isfinite(g)), default=0.0) < REFINEMENT_TOL:
            ctx.dt = 0.5 * dt
            ctx.record = finer
            return
        dt *= 0.5
        previous = row
    raise StabilityError(f"observables still moving after {MAX_REFINEMENTS} "
                         f"dt halvings (scenario {cfg.name!r})")


def execute_config(config: ScenarioConfig) -> RunContext:
    """Build the scenario objects, run the solver, compose the columns."""
    grid, constants = config.grid, config.constants
    try:  # range checks: ValueError; unresolved: NodeError, CutError; too big: MemoryError
        potential = build_potential(config)
        initial = build_initial(config)
    except (ValueError, NodeError, CutError, MemoryError) as exc:
        raise ConfigError(f"cannot build the scenario: {exc}") from exc
    ctx = RunContext(config=config, grid=grid, constants=constants,
                     potential=potential, initial=initial)
    _resolve_record(ctx)
    ctx.columns = _compose_columns(ctx)
    return ctx


# -- observable composition --------------------------------------------------


def _physics_row(ctx: RunContext, state) -> dict:
    """The physics columns `state` defines, each from its one definition.

    Every state has a mass.  A wave earns the hydrodynamic columns only
    while its Madelung transform exists (nowhere-vanishing, winding-free);
    a bundle point earns the wave energy through `polar_wave`.  A density
    earns entropy and fisher, and on the dlss solver also its total energy
    and the Lagrangian of its descent velocity.
    """
    potential, constants = ctx.potential, ctx.constants
    row = {"mass": ctx.grid.integrate(_state_arrays(state)[0])}
    density = point = state
    if isinstance(state, WaveField):
        row["H_S"] = wave_hamiltonian(state, potential, constants)
        try:
            point = madelung_transform(state, constants)
        except (NodeError, AliasError, WindingError):
            return row
    elif isinstance(state, TangentBundlePoint):
        wave = WaveField(ctx.grid, polar_wave(state, constants))
        row["H_S"] = wave_hamiltonian(wave, potential, constants)
    if isinstance(point, TangentBundlePoint):
        density = point.base
        row["H_F"] = hamiltonian(point, potential, constants)
        row["L_F"] = lagrangian(point.tangent, potential, constants)
    vals = functionals(density, potential, constants)
    row.update(entropy=vals.entropy, fisher=vals.fisher)
    if ctx.config.solver == "dlss":
        gradient = wasserstein_gradient("total", density, potential, constants)
        row.update(H_F=vals.total_energy,
                   L_F=lagrangian(gradient, potential, constants))
    return row


def _row(ctx: RunContext, rec: TrajectoryRecord, i: int) -> dict:
    """Row i of `rec`: its time, its gauge ledger entry (0.0 on a record
    without a ledger) and the physics row of its state."""
    ledger = 0.0 if rec.gauge_constant is None else float(rec.gauge_constant[i])
    return {"time": float(rec.times[i]), "gauge_constant": ledger,
            **_physics_row(ctx, rec.states[i])}


def _compose_columns(ctx: RunContext) -> dict:
    """The eight columns of `_row` over the record; nan where undefined."""
    rows = len(ctx.record.times)
    cols = {name: np.full(rows, np.nan) for name in OBSERVABLE_COLUMNS}
    for i in range(rows):
        for name, value in _row(ctx, ctx.record, i).items():
            cols[name][i] = value
    return cols


# -- checks ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDefinition:
    tolerance: float
    solvers: tuple[str, ...]
    fn: Callable[[RunContext], np.ndarray]
    #: the check differences in time, so validation rejects a stride that
    #: leaves fewer than three snapshots or spaces them unevenly
    uniform_snapshots: bool = False
    #: the initial-state and potential kinds whose run the check reads
    kinds: tuple[str, ...] = tuple(INITIAL_KINDS)
    potentials: tuple[str, ...] = tuple(POTENTIAL_KINDS)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    residuals: np.ndarray
    residual: float
    passed: bool


def _uniform_snapshot_step(ctx: RunContext) -> float:
    """The snapshot spacing, uniform by validation."""
    return float(ctx.record.times[1] - ctx.record.times[0])


def _state_arrays(state) -> tuple[np.ndarray, ...]:
    if isinstance(state, TangentBundlePoint):
        return (state.base.values, state.fiber_potential)
    if isinstance(state, WaveField):
        return (np.abs(state.values) ** 2,)
    return (state.values,)


def _check_mass_conservation(ctx: RunContext) -> np.ndarray:
    """Total mass stays at one."""
    return np.abs(ctx.columns["mass"] - 1.0)


def _check_stationarity(ctx: RunContext) -> np.ndarray:
    """State stays at its initial value."""
    base = _state_arrays(ctx.record.states[0])
    out = np.zeros(len(ctx.record.times))
    for i, state in enumerate(ctx.record.states):
        parts = _state_arrays(state)
        out[i] = max(float(np.abs(p - q).max()) for p, q in zip(parts, base))
    return out


def _check_energy_conservation(ctx: RunContext) -> np.ndarray:
    """Relative energy drift stays small."""
    column = "H_S" if ctx.config.solver == "schrodinger" else "H_F"
    energy = ctx.columns[column]
    return np.abs(energy - energy[0]) / max(abs(energy[0]), _TINY)


def _l2_gaps(grid: Grid, gaps) -> np.ndarray:
    """sqrt(int |d|^2) for the gap d of each snapshot; nan where d is None."""
    return np.array([np.nan if d is None else np.sqrt(grid.integrate(np.abs(d) ** 2))
                     for d in gaps])


def _check_eigenstate_phase(ctx: RunContext) -> np.ndarray:
    """Single mode accumulates the exact phase."""
    k = TAU * ctx.initial["mode"] / ctx.grid.length
    rotation = -0.5j * ctx.constants.hbar * k * k
    psi0 = ctx.record.states[0].values
    return _l2_gaps(ctx.grid, (state.values - np.exp(rotation * t) * psi0
                               for t, state in zip(ctx.record.times, ctx.record.states)))


def _check_free_packet_density(ctx: RunContext) -> np.ndarray:
    """Density tracks the closed-form spreading packet."""
    packet = ctx.initial["packet"]
    return _l2_gaps(ctx.grid, (np.abs(state.values) ** 2 - np.abs(packet(float(t)).values) ** 2
                               for t, state in zip(ctx.record.times, ctx.record.states)))


def _check_schrodinger_density_match(ctx: RunContext) -> np.ndarray:
    """Hydrodynamic density tracks the wave solver."""
    return _l2_gaps(ctx.grid, (polar.base.values - np.abs(wave.values) ** 2 for polar, wave
                               in zip(ctx.record.states, ctx.wave_oracle.states)))


def _check_velocity_potential_match(ctx: RunContext) -> np.ndarray:
    """The gap between the fiber and the gauge-fixed Madelung phase of the
    wave; nan where the wave has a node."""
    def gap(polar: TangentBundlePoint, wave: WaveField) -> np.ndarray | None:
        try:
            potential = madelung_transform(wave, ctx.constants).tangent.potential
        except NodeError:
            return None
        return potential - polar.fiber_potential
    return _l2_gaps(ctx.grid, map(gap, ctx.record.states, ctx.wave_oracle.states))


def _check_newton_residual(ctx: RunContext) -> np.ndarray:
    """Covariant acceleration balances the energy gradient."""
    h = _uniform_snapshot_step(ctx)
    sts = ctx.record.states
    out = np.full(len(sts), np.nan)
    for i in range(1, len(sts) - 1):
        mu = sts[i].base
        curve = [sts[i - 1].fiber_potential, sts[i].fiber_potential,
                 sts[i + 1].fiber_potential]
        acceleration = covariant_acceleration(curve, mu, h)
        gradient = wasserstein_gradient("total", mu, ctx.potential, ctx.constants)
        mismatch = (acceleration + gradient).norm()
        scale = max(acceleration.norm(), gradient.norm(), _TINY)
        out[i] = mismatch / scale
    return out


def _check_entropy_dissipation(ctx: RunContext) -> np.ndarray:
    """Entropy decays at the information production rate."""
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
    """Energy never increases between snapshots."""
    energy = ctx.columns["H_F"]
    out = np.zeros(len(energy))
    out[1:] = np.maximum(0.0, np.diff(energy))
    return out


def _check_phase_correction_ledger(ctx: RunContext) -> np.ndarray:
    """Gauge ledger equals the running action integral."""
    times = ctx.record.times
    lagrangian_col = ctx.columns["L_F"]
    steps = 0.5 * (lagrangian_col[1:] + lagrangian_col[:-1]) * np.diff(times)
    running = np.concatenate(([0.0], np.cumsum(steps)))
    return np.abs(ctx.columns["gauge_constant"] - running)


def _check_hamiltonian_pullback(ctx: RunContext) -> np.ndarray:
    """Wave energy equals the lifted hydrodynamic energy."""
    h_s, h_f = ctx.columns["H_S"], ctx.columns["H_F"]
    return np.abs(h_s - h_f) / np.maximum(np.abs(h_f), _TINY)


_PULLBACK_HBAR_CYCLE = (0.5, 1.0, 2.0)
_PULLBACK_SEED_BASE = 900


def _check_symplectic_pullback(ctx: RunContext) -> np.ndarray:
    """Wave symplectic form pulls back to the scaled bundle form."""
    g = ctx.grid
    out = np.zeros(len(ctx.record.states))
    for i, state in enumerate(ctx.record.states):
        constants = PhysicsConstants(_PULLBACK_HBAR_CYCLE[i % 3])
        rng = np.random.default_rng(_PULLBACK_SEED_BASE + i)
        point = TangentBundlePoint(state, statelib.random_zero_mean(g, rng, 3, 0.4))
        spec_a = StandardVectorFieldSpec(g, statelib.random_zero_mean(g, rng, 3, 0.4),
                                         statelib.random_zero_mean(g, rng, 3, 0.4))
        spec_b = StandardVectorFieldSpec(g, statelib.random_zero_mean(g, rng, 3, 0.4),
                                         statelib.random_zero_mean(g, rng, 3, 0.4))
        out[i] = submersion_pullback_defect(point, spec_a, spec_b, constants)
    return out


def _check_bb_action_match(ctx: RunContext) -> np.ndarray:
    """Kinetic action of the geodesic equals the squared distance."""
    h = _uniform_snapshot_step(ctx)
    action = transport.path_action(ctx.record.states, h)
    w2sq = ctx.w2_squared
    value = abs(action - w2sq) / max(w2sq, _TINY)
    return np.full(len(ctx.record.times), value)


_PERTURBED_PATH_COUNT = 5
_PERTURBED_PATH_AMPLITUDE = 0.05
_OPTIMALITY_SLACK = 1e-6


def _check_bb_path_optimality(ctx: RunContext) -> np.ndarray:
    """Worst violation of action >= W2^2 - slack over perturbed paths."""
    h = _uniform_snapshot_step(ctx)
    g = ctx.grid
    w2sq = ctx.w2_squared
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
    """Distance from the start grows linearly along the geodesic."""
    sts = ctx.record.states
    times = ctx.record.times
    total_time = times[-1]
    total = np.sqrt(ctx.w2_squared)
    out = np.zeros(len(sts))
    for i, reached in enumerate(transport.w2_distances(sts[1:], sts[0]), start=1):
        out[i] = abs(reached - (times[i] / total_time) * total)
    return out


CHECKS: dict[str, CheckDefinition] = {
    "mass_conservation": CheckDefinition(1e-8, SOLVER_KINDS, _check_mass_conservation),
    "stationarity": CheckDefinition(1e-10, _DYNAMIC, _check_stationarity),
    "energy_conservation": CheckDefinition(
        1e-6, ("schrodinger", "madelung"), _check_energy_conservation),
    "eigenstate_phase": CheckDefinition(
        1e-10, ("schrodinger",), _check_eigenstate_phase, kinds=("plane_wave",),
        potentials=("none",)),
    "free_packet_density": CheckDefinition(
        1e-6, ("schrodinger",), _check_free_packet_density, kinds=("gaussian",),
        potentials=("none",)),
    "schrodinger_density_match": CheckDefinition(
        1e-3, ("madelung",), _check_schrodinger_density_match),
    "velocity_potential_match": CheckDefinition(
        1e-3, ("madelung",), _check_velocity_potential_match),
    "newton_residual": CheckDefinition(
        1e-3, ("madelung",), _check_newton_residual, uniform_snapshots=True),
    "entropy_dissipation": CheckDefinition(
        1e-4, ("heat",), _check_entropy_dissipation, uniform_snapshots=True),
    "descent_monotone": CheckDefinition(1e-10, ("dlss",), _check_descent_monotone),
    "phase_correction_ledger": CheckDefinition(
        1e-4, ("madelung",), _check_phase_correction_ledger),
    "hamiltonian_pullback": CheckDefinition(
        1e-8, ("static",), _check_hamiltonian_pullback, kinds=("random_polar",)),
    "symplectic_pullback": CheckDefinition(
        1e-4, ("static",), _check_symplectic_pullback, kinds=("random_density",)),
    "bb_action_match": CheckDefinition(
        1e-3, ("displacement",), _check_bb_action_match, uniform_snapshots=True),
    "bb_path_optimality": CheckDefinition(
        1e-12, ("displacement",), _check_bb_path_optimality, uniform_snapshots=True),
    "constant_speed": CheckDefinition(1e-4, ("displacement",), _check_constant_speed),
}


#: a check entry; without a tolerance it takes its definition's
_CHECK = {"name": (partial(_as_name, known=CHECKS), REQUIRED),
          "tolerance": (_POSITIVE, None)}


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
    """`observables.csv`, written row by row."""
    header = list(OBSERVABLE_COLUMNS) + [f"res_{r.name}" for r in results]
    table = [ctx.columns[name] for name in OBSERVABLE_COLUMNS]
    table += [r.residuals for r in results]
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for row in zip(*table):
            out.write(",".join(_fmt(v) for v in row) + "\n")


def _snapshot_arrays(states: Sequence) -> Iterator[tuple[bytes, np.ndarray]]:
    """Each array of each state with the JSON text that goes before it;
    the "]}" that closes the last state is left to the caller."""
    glue = b""
    for state in states:
        if isinstance(state, WaveField):
            kind, fields = b"wave", ((b"real", state.values.real),
                                     (b"imag", state.values.imag))
        elif isinstance(state, TangentBundlePoint):
            kind, fields = b"polar", ((b"density", state.base.values),
                                      (b"phase", state.fiber_potential))
        else:
            kind, fields = b"density", ((b"density", state.values),)
        glue += b'{"kind":"%s"' % kind
        for name, values in fields:
            yield glue + b',"%s":[' % name, values
            glue = b"]"
        glue = b"]},"


#: floats encoded per `floattext.encode_rows` call: enough whole arrays to
#: spread its fixed cost (~0.1 ms a call) over a short record, few enough
#: that its temporaries (~240 bytes a float) and its tables (~0.5 MB,
#: built once) stay under 1 MB
BLOCK_FLOATS = 1024


def _write_snapshots(path: Path, ctx: RunContext) -> None:
    """`snapshots.json`: the bytes of one compact `json.dumps` of
    {scenario, grid, times, states} and a newline.  Each state is written
    as the fixed JSON text around the `floattext` encodings of its arrays,
    which are encoded a block of whole arrays (at most `BLOCK_FLOATS`
    floats, or one longer array) at a time."""
    head = json.dumps({"scenario": ctx.config.name,
                       "grid": {"n": ctx.grid.n, "length": ctx.grid.length},
                       "times": ctx.record.times.tolist()}, separators=(",", ":"))
    arrays = _snapshot_arrays(ctx.record.states)
    per_block = max(1, BLOCK_FLOATS // ctx.grid.n)
    with path.open("wb") as out:
        out.write(head[:-1].encode() + b',"states":[')
        while block := list(itertools.islice(arrays, per_block)):
            texts = floattext.encode_rows(np.stack([values for _, values in block]))
            for (glue, _), text in zip(block, texts):
                out.write(glue)
                out.write(text)
        out.write(b"]}]}\n" if ctx.record.states else b"]}\n")


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
    context: RunContext
    checks: list[CheckResult]
    passed: bool
    summary: dict
    output_dir: Path | None

    @property
    def failed_checks(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def resolve_output_dir(config: ScenarioConfig, out_dir: str | Path | None) -> Path:
    """Precedence: explicit argument, config, env root, ./runs."""
    if out_dir is not None:
        return Path(out_dir)
    if config.output_directory is not None:
        return Path(config.output_directory)
    root = os.environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT)
    return Path(root) / config.name


def _require_directory_path(target: Path) -> Path:
    """`target`, unless it or its nearest existing ancestor is not a
    directory (ConfigError); creates nothing."""
    probe = next(p for p in (target, *target.parents) if os.path.lexists(p))
    if not probe.is_dir():
        raise ConfigError(f"output directory {target}: {probe} exists and is "
                          "not a directory")
    return target


def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None,
                 write: bool = True) -> ScenarioOutcome:
    """Execute a validated config, evaluate its checks, write artifacts."""
    target = _require_directory_path(resolve_output_dir(config, out_dir)) if write else None
    ctx = execute_config(config)
    results = evaluate_checks(ctx)
    passed = all(r.passed for r in results)
    summary = _summary_payload(ctx, results, passed)
    if target is not None:
        target.mkdir(parents=True, exist_ok=True)
        if "csv" in config.output_formats:
            _write_observables(target / "observables.csv", ctx, results)
        if "json" in config.output_formats:
            _write_snapshots(target / "snapshots.json", ctx)
        (target / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return ScenarioOutcome(ctx, results, passed, summary, target)


# -- builtin scenarios -------------------------------------------------------


def _builtins() -> dict[str, tuple[str, dict]]:
    """name -> (description, config without its schema and name), built afresh.

    A builtin states only what differs from the defaults of its sections,
    but always its grid."""
    trapped_packet = {
        "grid": {"n": 256, "length": TAU},
        "potential": {"kind": "cosine_well",
                      "parameters": {"depth": 1.0, "center": math.pi}},
        "initial_state": {"kind": "polar_pair", "parameters": {
            "density": {"kind": "cosine_bump", "center": math.pi,
                        "concentration": 2.0},
            "phase": {"kind": "zero"}}},
    }
    return {
        "uniform_stationary": (
            "uniform density with zero phase stays fixed under the hydrodynamic flow", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "polar_pair", "parameters": {
                "density": {"kind": "uniform"}, "phase": {"kind": "zero"}}},
            "integrator": {"solver": "madelung", "dt": 5e-4,
                           "total_time": 0.05, "snapshot_stride": 10},
            "checks": [{"name": "stationarity", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        }),
        "plane_wave_eigenstate": (
            "single-mode wave accumulates the exact eigenvalue phase", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "plane_wave", "parameters": {"mode": 3}},
            "integrator": {"solver": "schrodinger", "dt": 1e-3,
                           "total_time": 1.0, "snapshot_stride": 100},
            "checks": [{"name": "eigenstate_phase", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-10},
                       {"name": "energy_conservation", "tolerance": 1e-10}],
        }),
        "free_gaussian": (
            "free wave packet spreads with the closed-form width law", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "gaussian", "parameters": {
                "center": math.pi, "sigma": 0.35, "floor_weight": 0.0}},
            "integrator": {"solver": "schrodinger", "dt": 1e-3,
                           "total_time": 0.3, "snapshot_stride": 50},
            "checks": [{"name": "free_packet_density", "tolerance": 1e-6},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        }),
        "thm21_equivalence": (
            "hydrodynamic and wave evolutions of a trapped packet stay in lockstep", {
            **trapped_packet,
            "integrator": {"solver": "madelung", "dt": 1e-4,
                           "total_time": 0.25, "snapshot_stride": 25},
            "checks": [{"name": "schrodinger_density_match", "tolerance": 1e-3},
                       {"name": "velocity_potential_match", "tolerance": 1e-3},
                       {"name": "energy_conservation", "tolerance": 1e-4},
                       {"name": "phase_correction_ledger", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        }),
        "newton_residual": (
            "covariant acceleration balances the metric energy gradient along the flow", {
            **trapped_packet,
            "integrator": {"solver": "madelung", "dt": 1e-4,
                           "total_time": 0.15, "snapshot_stride": 30},
            "checks": [{"name": "newton_residual", "tolerance": 1e-3},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        }),
        "thm44_hamiltonian": (
            "wave energy equals the lifted energy on random nowhere-vanishing states", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "random_polar", "parameters": {"seed": 11}},
            "integrator": {"solver": "static", "dt": 1.0,
                           "total_time": 99.0, "snapshot_stride": 1},
            "checks": [{"name": "hamiltonian_pullback", "tolerance": 1e-8}],
        }),
        "submersion_pullback": (
            "wave symplectic form pulls back to the scaled bundle form", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "random_density", "parameters": {
                "seed": 7, "modes": 3, "amplitude": 0.4}},
            "integrator": {"solver": "static", "dt": 1.0,
                           "total_time": 19.0, "snapshot_stride": 1},
            "checks": [{"name": "symplectic_pullback", "tolerance": 1e-4}],
        }),
        "heat_entropy_dissipation": (
            "entropy decays at the information production rate along heat flow", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "perturbed_uniform", "parameters": {
                "amplitude": 0.3, "mode": 1}},
            "integrator": {"solver": "heat", "dt": 1e-3,
                           "total_time": 0.2, "snapshot_stride": 5},
            "checks": [{"name": "entropy_dissipation", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-10}],
        }),
        "dlss_descent": (
            "fourth-order diffusion descends the scaled information functional", {
            "grid": {"n": 64, "length": TAU},
            "initial_state": {"kind": "perturbed_uniform", "parameters": {
                "amplitude": 0.2, "mode": 2}},
            "integrator": {"solver": "dlss", "dt": 2e-5,
                           "total_time": 0.01, "snapshot_stride": 25},
            "checks": [{"name": "descent_monotone", "tolerance": 1e-10},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        }),
        "benamou_brenier_action": (
            "geodesic kinetic action matches the squared transport distance", {
            "grid": {"n": 256, "length": TAU},
            "initial_state": {"kind": "gaussian_pair", "parameters": {
                "centers": [math.pi - 0.25, math.pi + 0.25], "sigma": 0.1,
                "floor_weight": 1e-8}},
            "integrator": {"solver": "displacement", "dt": 1.0 / 63.0,
                           "total_time": 1.0, "snapshot_stride": 1},
            "checks": [{"name": "bb_action_match", "tolerance": 1e-3},
                       {"name": "bb_path_optimality", "tolerance": 1e-12},
                       {"name": "constant_speed", "tolerance": 1e-4},
                       {"name": "mass_conservation", "tolerance": 1e-8}],
        }),
    }


SCENARIO_DESCRIPTIONS = {name: text for name, (text, _) in _builtins().items()}


def builtin_names() -> list[str]:
    return list(SCENARIO_DESCRIPTIONS)


def builtin_mapping(name: str) -> dict:
    """A fresh copy of the config of builtin `name`."""
    if name not in SCENARIO_DESCRIPTIONS:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"known: {', '.join(SCENARIO_DESCRIPTIONS)}")
    return {"schema": SCHEMA_VERSION, "name": name, **_builtins()[name][1]}


def builtin_config(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_mapping(builtin_mapping(name))


def run_builtin(name: str, out_dir: str | Path | None = None,
                write: bool = True) -> ScenarioOutcome:
    return run_scenario(builtin_config(name), out_dir, write)


def _suite_worker(name: str, root: str) -> tuple[str, bool, list[str]]:
    outcome = run_builtin(name, Path(root) / name)
    return name, outcome.passed, outcome.failed_checks


def run_suite(out_root: str | Path | None = None,
              jobs: int = 1) -> dict[str, tuple[bool, list[str]]]:
    """Run every builtin scenario into out_root/<name>; returns per-name verdicts.

    `jobs` > 1 runs them in min(jobs, scenario count) worker processes.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    if out_root is None:
        out_root = Path(os.environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT))
    root = _require_directory_path(Path(out_root))
    names = builtin_names()
    results: dict[str, tuple[bool, list[str]]] = {}
    workers = min(jobs, len(names))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_suite_worker, name, str(root))
                       for name in names]
            for future in futures:
                name, passed, failed = future.result()
                results[name] = (passed, failed)
    else:
        for name in names:
            _, passed, failed = _suite_worker(name, str(root))
            results[name] = (passed, failed)
    return results
