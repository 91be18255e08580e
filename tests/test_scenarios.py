"""Scenario configs, artifact writing, the check registry and the CLI."""

import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import madflow
from madflow import scenarios
from madflow.cli import main
from madflow.dynamics import STATE_FIELDS, TrajectoryRecord, heat_evolve, madelung_evolve
from madflow.errors import ConfigError, MadflowError, NodeError, StabilityError
from madflow.fields import DensityField, PhysicsConstants, WaveField, functionals
from madflow.grid import Grid
from madflow.madelung import madelung_transform, polar_wave, wave_hamiltonian
from madflow.states import uniform_density, wrapped_gaussian_density
from madflow.scenarios import (
    ARTIFACTS,
    INITIAL_KINDS,
    OBSERVABLE_COLUMNS,
    OUTPUT_ROOT_ENV,
    SCENARIO_DESCRIPTIONS,
    ScenarioConfig,
    apply_overrides,
    build_initial,
    builtin_mapping,
    builtin_names,
    execute_config,
    load_mapping,
    resolve_output_dir,
    run_builtin,
    run_scenario,
    run_suite,
)
from madflow.wgeom import (TangentBundlePoint, hamiltonian, lagrangian,
                           wasserstein_gradient)

TAU = 2 * np.pi
SRC = str(Path(madflow.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _heat_mapping(**integrator):
    integ = {"solver": "heat", "dt": 1e-3, "total_time": 0.02,
             "snapshot_stride": 5}
    integ.update(integrator)
    return {
        "schema": 1, "name": "heat_demo",
        "grid": {"n": 64, "length": TAU},
        "constants": {"hbar": 1.0},
        "potential": {"kind": "none"},
        "initial_state": {"kind": "perturbed_uniform",
                          "parameters": {"amplitude": 0.3}},
        "integrator": integ,
        "checks": [{"name": "mass_conservation", "tolerance": 1e-10}],
    }


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize("name", ["heat_demo", *builtin_names()])
def test_config_round_trip(name):
    cfg = ScenarioConfig.from_mapping(
        _heat_mapping() if name == "heat_demo" else builtin_mapping(name))
    assert cfg.name == name
    if name == "heat_demo":
        assert (cfg.grid.n, cfg.dt) == (64, 1e-3)
    assert ScenarioConfig.from_mapping(cfg.resolved_mapping()) == cfg


@pytest.mark.parametrize("seed", [0, 3])
def test_bench_workload_configs_validate_and_echo_their_references(seed):
    # bench/verify.py gates every seed-0 pass on the config echo stored in
    # bench/reference/<workload>/<label>/summary.json; run_path writes no bytecode
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    for workload in workloads["WORKLOADS"]:
        for label, mapping in workloads["generate"](workload, seed, scenarios):
            echo = ScenarioConfig.from_mapping(mapping).resolved_mapping()
            if seed == 0:
                stored = BENCH / "reference" / workload / label / "summary.json"
                assert json.loads(json.dumps(echo)) == \
                    json.loads(stored.read_text())["config"], label


def test_bench_geodesic_pass_stays_within_its_reference_bounds(tmp_path):
    # the displacement geodesic's endpoint CDFs set its path densities' bits:
    # bench/verify.py refuses a seed-0 bb_action_n256 pass whose physics
    # columns leave bench/reference by more than 1e-8 of scale
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    verify = runpy.run_path(str(BENCH / "verify.py"))
    configs = dict(workloads["generate"]("geometry_checks", 0, scenarios))
    run_scenario(ScenarioConfig.from_mapping(configs["bb_action_n256"]), tmp_path)
    reference = BENCH / "reference" / "geometry_checks" / "bb_action_n256"
    deviation = verify["reference_deviation"](tmp_path, reference)
    assert verify["within_bounds"](*deviation), deviation


def test_config_rejects_unknown_keys_everywhere():
    bad = _heat_mapping()
    bad["surprise"] = 1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(bad)
    bad = _heat_mapping()
    bad["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(bad)
    bad = _heat_mapping()
    bad["checks"][0]["weight"] = 2
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(bad)


def test_config_rejects_bad_entries():
    cases = []

    for schema in (2, True, 1.0):  # true and 1.0 compare equal to 1
        m = _heat_mapping()
        m["schema"] = schema
        cases.append(m)

    m = _heat_mapping()
    del m["name"]
    cases.append(m)

    m = _heat_mapping(dt=-1e-3)
    cases.append(m)

    m = _heat_mapping(dt=0.0)
    cases.append(m)

    m = _heat_mapping()
    del m["integrator"]["total_time"]
    cases.append(m)

    m = _heat_mapping()
    m["integrator"]["solver"] = "puddle"
    cases.append(m)

    m = _heat_mapping()
    m["potential"] = {"kind": "cosine_well", "parameters": {"depth": 1.0}}
    cases.append(m)  # the heat flow takes no potential

    m = _heat_mapping()
    m["checks"] = [{"name": "no_such_check"}]
    cases.append(m)

    m = _heat_mapping()
    m["checks"] = [{"name": "descent_monotone"}]
    cases.append(m)  # check does not apply to the heat solver

    m = _heat_mapping()
    m["initial_state"]["kind"] = "mystery"
    cases.append(m)

    m = _heat_mapping()
    m["output"] = {"formats": ["yaml"]}
    cases.append(m)

    m = _heat_mapping()
    m["checks"] = ["mass_conservation", {"name": "mass_conservation"}]
    cases.append(m)  # one residual column per check name

    for mapping in cases:
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)


@pytest.mark.parametrize("key, value, message", [
    ("initial_state", None, "config needs an initial_state section"),
    ("integrator", None, "config needs an integrator section"),
    ("output", {"directory": 5}, "output.directory must be a string path"),
    # the name is the run's directory under its output root
    *(("name", name, f"config name {name!r} must be one path component")
      for name in (".", "..", "a/b", "/abs")),
])
def test_config_refuses_a_missing_section_a_bad_directory_and_a_path_name(key, value,
                                                                         message):
    m = _heat_mapping()
    if value is None:
        del m[key]
    else:
        m[key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        ScenarioConfig.from_mapping(m)


def test_plane_wave_rejected_outside_wave_solver():
    # a plane wave winds around zero, so only the wave solver takes it;
    # the kind/solver table refuses it at validation
    m = _heat_mapping()
    m["initial_state"] = {"kind": "plane_wave", "parameters": {"mode": 1}}
    m["integrator"]["solver"] = "madelung"
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(m)


_FIELD_SOLVERS = ("schrodinger", "madelung", "heat", "dlss")
_ACCEPTED = (
    {("gaussian", s) for s in _FIELD_SOLVERS}
    | {("perturbed_uniform", s) for s in _FIELD_SOLVERS}
    | {("polar_pair", s) for s in _FIELD_SOLVERS}
    | {("plane_wave", "schrodinger"), ("gaussian_pair", "displacement")}
    | {("random_polar", s) for s in ("schrodinger", "madelung", "static")}
    | {("random_density", s) for s in ("heat", "dlss", "static")})
_KINDS = ("gaussian", "perturbed_uniform", "polar_pair", "plane_wave",
          "random_polar", "random_density", "gaussian_pair")
_SOLVERS = _FIELD_SOLVERS + ("static", "displacement")
#: the entry each solver starts from
_START_KEY = {"schrodinger": "wave", "madelung": "point", "heat": "density",
              "dlss": "density", "static": "trials", "displacement": "trials"}


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("solver", _SOLVERS)
def test_initial_kind_solver_table(kind, solver):
    assert set(INITIAL_KINDS) == set(_KINDS)
    # sigma 0.4: the default 0.1 is too narrow for the 64-point grid
    params = {"centers": [2.5, 3.5], "sigma": 0.4} if kind == "gaussian_pair" else {}
    dt, total = {"static": (1.0, 2.0), "displacement": (0.5, 1.0)}.get(
        solver, (1e-3, 2e-3))
    m = _heat_mapping(solver=solver, dt=dt, total_time=total, snapshot_stride=1)
    m["initial_state"] = {"kind": kind, "parameters": params}
    m["checks"] = []
    if (kind, solver) not in _ACCEPTED:
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(m)
        return
    initial = build_initial(ScenarioConfig.from_mapping(m))
    assert _START_KEY[solver] in initial


#: the registries of kinds, each kind mapped to (builder or solvers, table)
_KIND_REGISTRIES = {"potential": scenarios.POTENTIAL_KINDS,
                    "density": scenarios.DENSITY_KINDS,
                    "phase": scenarios.PHASE_KINDS,
                    "initial_state": INITIAL_KINDS}
#: a valid value of each required parameter
_REQUIRED_VALUES = {"values": [0.0] * 64, "centers": [2.5, 3.5]}


def _kind_mapping(registry, kind, params):
    """A 64-point config that builds `kind` of `registry` from `params`,
    and the dotted path of those parameters."""
    m = _heat_mapping(solver="madelung", dt=1e-3, total_time=2e-3, snapshot_stride=1)
    m["checks"] = []
    if registry == "potential":
        m["potential"] = {"kind": kind, "parameters": params}
        return m, "potential.parameters"
    if registry in ("density", "phase"):
        m["initial_state"] = {"kind": "polar_pair",
                              "parameters": {registry: {"kind": kind, **params}}}
        return m, f"initial_state.parameters.{registry}"
    m["integrator"]["solver"] = INITIAL_KINDS[kind][0][0]
    if kind == "gaussian_pair":  # the displacement runner
        m["integrator"].update(dt=0.5, total_time=1.0)
    m["initial_state"] = {"kind": kind, "parameters": params}
    return m, "initial_state.parameters"


@pytest.mark.parametrize("registry, kind, name", [
    (registry, kind, name) for registry, kinds in _KIND_REGISTRIES.items()
    for kind, (_, table) in kinds.items() for name in table])
def test_every_table_parameter_names_its_path_when_bad_or_missing(registry, kind, name):
    table = _KIND_REGISTRIES[registry][kind][1]
    required = {key: _REQUIRED_VALUES[key] for key, (_, default) in table.items()
                if default is scenarios.REQUIRED}

    def build(params):
        mapping, path = _kind_mapping(registry, kind, params)
        config = ScenarioConfig.from_mapping(mapping)
        with pytest.raises(ConfigError, match=re.escape(f"{path}.{name}")):
            scenarios.build_potential(config)
            build_initial(config)
    build({**required, name: "x"})
    if name in required:
        build({key: value for key, value in required.items() if key != name})


def _readme_kind_tables() -> dict:
    """{header: {kind: parameter names}} of the kind tables in README.md;
    a parameter is a backticked name outside the brackets of a default."""
    tables, rows = {}, None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|"):
            rows = None
        elif cells[0].endswith(" kind"):
            rows = tables.setdefault(cells[0], {})
        elif rows is not None and cells[0].startswith("`"):
            names = re.findall(r"`(\w+)`", re.sub(r"\[[^\]]*\]", "", cells[1]))
            rows[cells[0].strip("`")] = set(names)
    return tables


def test_readme_kind_tables_list_each_tables_parameters():
    declared = {f"{registry.replace('_', '-')} kind":
                {kind: set(table) for kind, (_, table) in kinds.items()}
                for registry, kinds in _KIND_REGISTRIES.items()}
    assert _readme_kind_tables() == declared


def test_gaussian_wave_honours_images():
    # sigma = 2 on a 2 pi circle: the start sums the images on each side
    # that its spread needs
    m = _heat_mapping(solver="schrodinger", total_time=1e-3)
    m["initial_state"] = {"kind": "gaussian", "parameters": {
        "sigma": 2.0, "floor_weight": 1e-8}}
    ctx = run_scenario(ScenarioConfig.from_mapping(m), write=False).context
    mu = wrapped_gaussian_density(ctx.grid, np.pi, 2.0, 1e-8)
    wave = ctx.initial["wave"].values
    assert np.max(np.abs(np.abs(wave) ** 2 - mu.values)) < 1e-12


@pytest.mark.parametrize("overrides", [
    [],
    # no check reads the oracle at the final time
    ['checks=["mass_conservation"]'],
])
def test_free_packet_images_need_only_hold_the_packet_at_the_final_time(overrides):
    # at t = 20 the packet's spread width is 40.4: the oracle sums the 55
    # images on each side that hold it
    m = apply_overrides(builtin_mapping("free_gaussian"), [
        "integrator.total_time=20", "integrator.dt=0.01", *overrides])
    assert run_scenario(ScenarioConfig.from_mapping(m), write=False).passed


def test_random_polar_starts_the_wave_and_hydrodynamic_solvers_alike():
    def start(solver):
        m = apply_overrides(builtin_mapping("thm44_hamiltonian"), [
            f"integrator.solver={solver}", "integrator.dt=1e-3",
            "integrator.total_time=1e-3", "checks=[]"])
        return build_initial(ScenarioConfig.from_mapping(m))["wave"].values
    assert start("schrodinger").tobytes() == start("madelung").tobytes()


def test_wave_oracle_samples_the_madelung_schedule_bit_for_bit():
    # stride 7 does not divide the 2500 steps: both runs append the last one
    ctx = execute_config(ScenarioConfig.from_mapping(apply_overrides(
        builtin_mapping("thm21_equivalence"), ["integrator.snapshot_stride=7"])))
    assert ctx.record.times[-1] == 0.25 and len(ctx.record.times) == 2500 // 7 + 2
    assert ctx.wave_oracle.times.tobytes() == ctx.record.times.tobytes()


def test_displacement_needs_explicit_dt():
    m = builtin_mapping("benamou_brenier_action")
    del m["integrator"]["dt"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(m)


@pytest.mark.parametrize("scenario, stride", [
    ("newton_residual", 7),           # 1500 steps
    ("heat_entropy_dissipation", 7),  # 200 steps
    ("benamou_brenier_action", 5),    # 63 steps
])
def test_stride_breaking_uniform_snapshots_fails_validation(monkeypatch, capsys,
                                                            tmp_path, scenario, stride):
    # these checks difference in time; the stride is refused before any solve
    def no_solve(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr("madflow.scenarios._run_solver", no_solve)
    m = apply_overrides(builtin_mapping(scenario),
                        [f"integrator.snapshot_stride={stride}"])
    with pytest.raises(ConfigError, match="uniformly spaced snapshots"):
        ScenarioConfig.from_mapping(m)
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", scenario, "--override",
                 f"integrator.snapshot_stride={stride}", "--out", str(out_dir)]) == 2
    assert "uniformly spaced snapshots" in capsys.readouterr().err
    assert not out_dir.exists()


def test_stride_is_free_without_a_time_differencing_check_or_a_step_count():
    ScenarioConfig.from_mapping(apply_overrides(
        builtin_mapping("thm21_equivalence"), ["integrator.snapshot_stride=7"]))
    # with dt omitted the step count is the first rung's (1500 for
    # newton_residual), which a time-differencing check's stride must divide
    with pytest.raises(ConfigError, match="does not divide the 1500 steps"):
        ScenarioConfig.from_mapping(apply_overrides(
            builtin_mapping("newton_residual"),
            ["integrator.snapshot_stride=7", "integrator.dt=null"]))


def test_cli_ledger_on_two_snapshots_exits_two_before_the_solve(monkeypatch, capsys,
                                                                 tmp_path):
    # two rows give the ledger's trapezoid no slopes to correct it with: at
    # stride 2500 (2500 steps) it read 1.1e-4 against its 1e-4 tolerance
    def no_solve(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr("madflow.scenarios._run_solver", no_solve)
    for stride in (2500, 10 ** 6):
        out_dir = tmp_path / f"stride{stride}"
        assert main(["run", "--scenario", "thm21_equivalence", "--override",
                     f"integrator.snapshot_stride={stride}", "--out", str(out_dir)]) == 2
        assert ("'phase_correction_ledger' needs 3 or more snapshots; snapshot_stride "
                f"{stride} stores 2 over 2500 steps") in capsys.readouterr().err
        assert not out_dir.exists()
    # three rows (0, 2499 and 2500 steps) are served
    ScenarioConfig.from_mapping(apply_overrides(
        builtin_mapping("thm21_equivalence"), ["integrator.snapshot_stride=2499"]))


def _residual(outcome, name: str) -> float:
    return next(c.residual for c in outcome.checks if c.name == name)


def _thinned(ctx, step: int):
    """`ctx` keeping every `step`-th snapshot: the run at `step` times its
    stride.  The record, every column and a wave oracle the run already
    computed are sliced; the oracle is never rebuilt, since one built from
    the config would sample the config's stride."""
    def thin(rec):
        return TrajectoryRecord(rec.grid, rec.times[::step], rec.kind, rec.data[::step])
    thinned = dataclasses.replace(
        ctx, record=thin(ctx.record),
        columns={name: column[::step] for name, column in ctx.columns.items()})
    if "wave_oracle" in vars(ctx):
        thinned.wave_oracle = thin(ctx.wave_oracle)
    return thinned


@pytest.fixture(scope="module")
def newton_outcome():
    return run_builtin("newton_residual", write=False)


@pytest.fixture(scope="module")
def builtin_contexts(newton_outcome):
    """One solved run of each builtin with a time-differencing or quadrature check."""
    return {"newton_residual": newton_outcome.context,
            **{name: run_builtin(name, write=False).context
               for name in ("thm21_equivalence", "heat_entropy_dissipation")}}


#: (builtin, check, thinning steps): thm21_equivalence and
#: heat_entropy_dissipation take 100 and 40 intervals, newton_residual 50
ORDER_CASES = [("thm21_equivalence", "newton_residual", (1, 2, 4)),
               ("thm21_equivalence", "phase_correction_ledger", (1, 2, 4)),
               ("newton_residual", "newton_residual", (1, 2)),
               ("heat_entropy_dissipation", "entropy_dissipation", (1, 2, 4))]


def _observed_orders(ctx, check: str, steps) -> np.ndarray:
    """log2 of the ratio of the worst residuals at successive thinning steps."""
    worst = [np.nanmax(scenarios.CHECKS[check].fn(_thinned(ctx, k))) for k in steps]
    return np.log2(np.array(worst[1:]) / worst[:-1])


def test_newton_residual_sees_an_error_in_the_flow_kernel(flow_mutant, newton_outcome):
    # the check takes the energy gradient in Bohm's form and the free rate
    # from the fiber's slope, so scaling the solver kernel's quantum pressure
    # by 1.0001, or its kinetic term by 1.001, shows orders above a clean run
    clean = _residual(newton_outcome, "newton_residual")
    for kind, scale in (("pressure", 1.0001), ("kinetic", 1.001)):
        with flow_mutant(kind, scale):
            mutant = run_builtin("newton_residual", write=False)
        assert _residual(mutant, "newton_residual") >= 1e3 * clean


def test_time_differencing_checks_are_fourth_order(builtin_contexts):
    # doubling the snapshot spacing multiplies each residual by about 2^4:
    # the five-point derivative, and the ledger's end-corrected trapezoid
    for name, check, steps in ORDER_CASES:
        orders = _observed_orders(builtin_contexts[name], check, steps)
        assert np.all(np.abs(orders - 4.0) <= 0.1), (name, check, orders)


def test_thinning_slices_the_computed_wave_oracle(builtin_contexts):
    ctx = builtin_contexts["thm21_equivalence"]
    thinned = _thinned(ctx, 4)
    assert thinned.wave_oracle.times.tobytes() == thinned.record.times.tobytes()
    assert thinned.wave_oracle.data.tobytes() == ctx.wave_oracle.data[::4].tobytes()


def test_a_three_point_time_derivative_reads_order_two(monkeypatch, builtin_contexts):
    # a second-order derivative still passes each builtin's tolerance, and
    # only its observed order gives it away
    def three_point(values, h):
        f = np.asarray(values, dtype=float)
        out = np.full(f.shape, np.nan)
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        return out
    monkeypatch.setattr(scenarios, "_time_derivative", three_point)
    for name, check, steps in ORDER_CASES:
        if check == "phase_correction_ledger":
            continue
        ctx = builtin_contexts[name]
        residuals = scenarios.CHECKS[check].fn(ctx)
        assert np.nanmax(residuals) <= scenarios.CHECKS[check].tolerance
        orders = _observed_orders(ctx, check, steps)
        assert np.all(np.abs(orders - 2.0) <= 0.1), (name, check, orders)


def test_velocity_potential_match_reads_nan_where_the_wave_has_a_node():
    # a wave with a node has no Madelung phase: that snapshot's residual is
    # nan, and the others keep their numbers
    g, c = Grid(64), PhysicsConstants(1.0)
    point = TangentBundlePoint(uniform_density(g), 0.3 * np.sin(g.points))
    nodal = WaveField(g, np.sin(g.points) / np.sqrt(np.pi))
    polar = np.stack([(point.base.values, point.fiber_potential)] * 2)
    waves = np.stack([(w.real, w.imag) for w in (polar_wave(point, c), nodal.values)])
    times = np.array([0.0, 1.0])
    ctx = SimpleNamespace(grid=g, constants=c,
                          record=TrajectoryRecord(g, times, "polar", polar),
                          wave_oracle=TrajectoryRecord(g, times, "wave", waves))
    gaps = scenarios.CHECKS["velocity_potential_match"].fn(ctx)
    assert gaps[0] < 1e-14 and np.isnan(gaps[1])


def test_stationarity_of_a_wave_record_reads_its_density():
    # a plane wave turns its phase and keeps its density: stationarity
    # compares |Psi|^2 between rows, not the stored real and imaginary parts
    outcome = run_scenario(ScenarioConfig.from_mapping(apply_overrides(
        builtin_mapping("plane_wave_eigenstate"),
        ['checks=["stationarity","eigenstate_phase"]'])), write=False)
    assert outcome.passed
    assert _residual(outcome, "stationarity") <= 1e-13
    rec = outcome.context.record
    assert np.abs(rec.state(-1).values - rec.state(0).values).max() > 0.1


def test_stationarity_of_a_polar_record_reads_its_gauged_phase():
    # under a constant V = 0.8 the uniform rest state's stored phase turns
    # as -0.8 t, as a stationary wave's phase does: stationarity compares
    # the density and the mu-mean-free phase between rows
    mapping = apply_overrides(builtin_mapping("uniform_stationary"), [
        'potential={"kind": "custom_table", "parameters": {"values": [0.8]}}'])
    mapping["potential"]["parameters"]["values"] *= mapping["grid"]["n"]
    outcome = run_scenario(ScenarioConfig.from_mapping(mapping), write=False)
    assert outcome.passed
    assert _residual(outcome, "stationarity") <= 1e-13
    rec = outcome.context.record
    assert np.abs(rec.data[-1, 1] + 0.8 * rec.times[-1]).max() <= 1e-13


def test_check_tolerance_defaults_from_registry():
    m = _heat_mapping()
    m["checks"] = ["mass_conservation", {"name": "entropy_dissipation"}]
    cfg = ScenarioConfig.from_mapping(m)
    assert cfg.checks[0].tolerance == 1e-8
    assert cfg.checks[1].tolerance == 1e-4


def test_apply_overrides():
    m = _heat_mapping()
    out = apply_overrides(m, ["integrator.dt=0.002",
                              "initial_state.parameters.amplitude=0.1",
                              "name=\"renamed\""])
    assert m["integrator"]["dt"] == 1e-3  # the input mapping is untouched
    cfg = ScenarioConfig.from_mapping(out)
    assert cfg.dt == 0.002
    assert cfg.initial_parameters["amplitude"] == 0.1
    assert cfg.name == "renamed"
    with pytest.raises(ConfigError):
        apply_overrides(m, ["no_equals_sign"])
    # overrides landing on unknown keys are caught by validation
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(apply_overrides(m, ["integrator.cleverness=3"]))


def test_apply_overrides_indexes_lists():
    m = _heat_mapping()
    out = apply_overrides(m, ["checks.0.tolerance=1e-12"])
    assert out["checks"] == [{"name": "mass_conservation", "tolerance": 1e-12}]
    assert ScenarioConfig.from_mapping(out).checks[0].tolerance == 1e-12
    for bad in ("checks.9.tolerance=1", "checks.-1.tolerance=1",
                "checks.first.tolerance=1", "checks.1=\"stationarity\""):
        with pytest.raises(ConfigError, match="checks"):
            apply_overrides(m, [bad])
    # a check given by name is not a mapping to descend into
    named = dict(m, checks=["mass_conservation"])
    with pytest.raises(ConfigError, match="'mass_conservation', not a mapping"):
        apply_overrides(named, ["checks.0.tolerance=1"])
    # missing mappings on the way are still created
    out = apply_overrides(m, ["output.formats=[\"csv\"]"])
    assert out["output"] == {"formats": ["csv"]}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_mapping(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_mapping(bad)
    for raw in (b"\xff\xfe", b'{"name": "\xff"}'):  # not UTF-8 text
        bad.write_bytes(raw)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_mapping(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_mapping(listy)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_heat_mapping()))
    assert ScenarioConfig.from_mapping(load_mapping(good)).name == "heat_demo"


# -- builtin registry --------------------------------------------------------


def test_builtin_registry_is_complete_and_valid():
    names = builtin_names()
    assert list(names) == sorted(set(names), key=names.index)  # no duplicates
    for required in ("thm21_equivalence", "thm44_hamiltonian",
                     "benamou_brenier_action", "heat_entropy_dissipation",
                     "dlss_descent"):
        assert required in names
    for name in names:
        cfg = ScenarioConfig.from_mapping(builtin_mapping(name))
        assert cfg.name == name
        assert name in SCENARIO_DESCRIPTIONS
    with pytest.raises(ConfigError):
        builtin_mapping("no_such_scenario")


# -- artifact writing --------------------------------------------------------


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_run_scenario_writes_artifacts(tmp_path):
    outcome = run_builtin("uniform_stationary", out_dir=tmp_path / "out")
    assert outcome.passed
    assert outcome.output_dir == tmp_path / "out"
    for fname in ("observables.csv", "snapshots.json", "summary.json"):
        assert (tmp_path / "out" / fname).exists()

    header, rows = _read_csv(tmp_path / "out" / "observables.csv")
    expected_header = list(OBSERVABLE_COLUMNS) + [
        "res_stationarity", "res_mass_conservation"]
    assert header == expected_header
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["rows"] == len(rows)

    snapshots = json.loads((tmp_path / "out" / "snapshots.json").read_text())
    assert snapshots["scenario"] == "uniform_stationary"
    assert len(snapshots["times"]) == len(rows)
    assert snapshots["states"][0]["kind"] == "polar"
    assert len(snapshots["states"][0]["density"]) == summary["config"]["grid"]["n"]


def test_summary_residuals_recomputable_from_csv(tmp_path):
    outcome = run_builtin("heat_entropy_dissipation", out_dir=tmp_path)
    header, rows = _read_csv(tmp_path / "observables.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    for entry in summary["checks"]:
        col = rows[:, header.index("res_" + entry["name"])]
        finite = col[np.isfinite(col)]
        assert abs(float(finite.max()) - entry["residual"]) < 1e-15
        assert (entry["residual"] <= entry["tolerance"]) == entry["passed"]


def _tolist_payload(state) -> dict:
    """A state's record entry, built from `.tolist()` as one dump would."""
    if isinstance(state, WaveField):
        return {"kind": "wave", "real": state.values.real.tolist(),
                "imag": state.values.imag.tolist()}
    if isinstance(state, TangentBundlePoint):
        return {"kind": "polar", "density": state.base.values.tolist(),
                "phase": state.fiber_potential.tolist()}
    return {"kind": "density", "density": state.values.tolist()}


def _states(rec):
    """The validated state of each row of a record."""
    return [rec.state(i) for i in range(len(rec.times))]


def _one_dump(ctx) -> str:
    return json.dumps({"scenario": ctx.config.name,
                       "grid": {"n": ctx.grid.n, "length": ctx.grid.length},
                       "times": ctx.record.times.tolist(),
                       "states": [_tolist_payload(s) for s in _states(ctx.record)]},
                      separators=(",", ":")) + "\n"


def _assert_no_leftovers(directory: Path) -> None:
    assert not list(directory.glob("*.part*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("scenario, kind", [
    ("free_gaussian", "wave"),
    ("thm21_equivalence", "polar"),
    ("heat_entropy_dissipation", "density"),
])
def test_streamed_artifacts_equal_one_dump_of_the_whole_record(tmp_path, scenario, kind):
    outcome = run_builtin(scenario, out_dir=tmp_path)
    ctx, results = outcome.context, outcome.checks
    assert ctx.record.kind == _tolist_payload(ctx.record.state(0))["kind"] == kind
    assert (tmp_path / "snapshots.json").read_text() == _one_dump(ctx)
    table = [ctx.columns[name] for name in OBSERVABLE_COLUMNS]
    table += [r.residuals for r in results]
    lines = [",".join(list(OBSERVABLE_COLUMNS) + [f"res_{r.name}" for r in results])]
    lines += [",".join("%.17g" % v for v in row) for row in zip(*table)]
    assert (tmp_path / "observables.csv").read_text() == "\n".join(lines) + "\n"
    _assert_no_leftovers(tmp_path)


def _snapshot_context(kind, count, n=64):
    """A context whose record holds `count` distinct states of `kind`."""
    config = ScenarioConfig.from_mapping({**_heat_mapping(), "grid": {"n": n, "length": TAU}})
    grid = config.grid
    states = []
    for i in range(count):
        density = DensityField(grid, (1.0 + 0.3 * np.cos(grid.points + 0.1 * i)) / TAU)
        phase = np.sin(grid.points) / (i + 1)
        states.append({"density": density,
                       "polar": TangentBundlePoint(density, phase),
                       "wave": WaveField(grid, np.sqrt(density.values) * np.exp(1j * phase)),
                       }[kind])
    fields = {"density": lambda s: (s.values,),
              "polar": lambda s: (s.base.values, s.fiber_potential),
              "wave": lambda s: (s.values.real, s.values.imag)}[kind]
    data = np.empty((count, len(STATE_FIELDS[kind]), n))
    for row, state in zip(data, states):
        row[:] = fields(state)
    record = TrajectoryRecord(grid, 0.01 * np.arange(count), kind, data)
    return scenarios.RunContext(config=config, grid=grid, constants=config.constants,
                                potential=None, initial={}, record=record)


@pytest.mark.parametrize("kind,count,n", [
    (kind, count, 64) for kind in ("wave", "polar", "density") for count in (1, 2, 3)
] + [("density", 0, 64), ("wave", 3, 4096), ("polar", 5, 1024), ("wave", 2, 2048)])
def test_streamed_snapshots_of_each_kind_equal_one_dump(tmp_path, kind, count, n):
    # blocks of whole arrays: at n = 1024 three, so a block ends inside a
    # polar state; at n = 2048 and 4096 one
    ctx = _snapshot_context(kind, count, n)
    path = tmp_path / "snapshots.json"
    scenarios._write_snapshots(path, ctx)
    assert path.read_text() == _one_dump(ctx)
    _assert_no_leftovers(tmp_path)


def test_snapshot_writer_holds_one_state_at_a_time(tmp_path):
    # 200 density states at n = 1024: about 4 MB of JSON, which the writer
    # must not hold at once (one whole-record dump peaked near 15 MB)
    config = ScenarioConfig.from_mapping({**_heat_mapping(),
                                          "grid": {"n": 1024, "length": TAU}})
    grid = config.grid
    record = heat_evolve(DensityField(grid, (1.0 + 0.3 * np.cos(grid.points)) / TAU),
                         1e-3, 0.199)
    ctx = scenarios.RunContext(config=config, grid=grid, constants=config.constants,
                               potential=None, initial={}, record=record)
    path = tmp_path / "snapshots.json"
    tracemalloc.start()
    try:
        scenarios._write_snapshots(path, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record.times) == 200 and path.stat().st_size > 3 * 2 ** 20
    assert peak < 2 ** 20, peak
    assert len(json.loads(path.read_text())["states"]) == 200


def test_failing_check_is_recorded_not_raised(tmp_path):
    m = _heat_mapping()
    m["checks"] = [{"name": "stationarity", "tolerance": 1e-10}]
    outcome = run_scenario(ScenarioConfig.from_mapping(m), tmp_path / "fail")
    assert not outcome.passed
    assert outcome.failed_checks == ["stationarity"]
    summary = json.loads((tmp_path / "fail" / "summary.json").read_text())
    assert summary["passed"] is False


def test_output_dir_precedence(tmp_path, monkeypatch):
    cfg = ScenarioConfig.from_mapping(_heat_mapping())
    assert resolve_output_dir(cfg, tmp_path / "explicit") == tmp_path / "explicit"
    m = _heat_mapping()
    m["output"] = {"directory": str(tmp_path / "from_config")}
    cfg_dir = ScenarioConfig.from_mapping(m)
    assert resolve_output_dir(cfg_dir, None) == tmp_path / "from_config"
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir(cfg, None) == tmp_path / "root" / "heat_demo"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert resolve_output_dir(cfg, None) == Path("runs") / "heat_demo"


def test_runs_are_deterministic(tmp_path):
    run_builtin("heat_entropy_dissipation", out_dir=tmp_path / "a")
    run_builtin("heat_entropy_dissipation", out_dir=tmp_path / "b")
    for fname in ("observables.csv", "snapshots.json", "summary.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_dt_refinement_when_dt_omitted(tmp_path):
    m = _heat_mapping(dt=None, total_time=0.01)
    outcome = run_scenario(ScenarioConfig.from_mapping(m), write=False)
    # the runner halves from the 1e-3 target until the final row settles;
    # the exact semigroup settles on the first comparison
    assert outcome.summary["dt_used"] == pytest.approx(5e-4)
    assert outcome.passed


def test_dt_refinement_halves_until_the_final_row_settles():
    # a packet in a deep well keeps its final row moving at the 1e-3
    # target; three halvings bring the change below REFINEMENT_TOL (the
    # closed-form free packet does not describe this start, so its check goes)
    m = apply_overrides(builtin_mapping("free_gaussian"), [
        "potential.kind=cosine_well", "potential.parameters.depth=50.0",
        "initial_state.parameters.floor_weight=1e-8", "integrator.dt=null",
        "integrator.total_time=0.1", "integrator.snapshot_stride=1",
        'checks=["mass_conservation"]'])
    outcome = run_scenario(ScenarioConfig.from_mapping(m), write=False)
    assert outcome.summary["dt_used"] == 1.25e-4


def test_dt_refinement_gives_up_after_its_last_halving(tmp_path, capsys, monkeypatch):
    # no change is below a zero tolerance, so the one allowed halving ends
    # the ladder: a run error, exit 3, nothing written
    monkeypatch.setattr(scenarios, "REFINEMENT_TOL", 0.0)
    monkeypatch.setattr(scenarios, "MAX_REFINEMENTS", 1)
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", "heat_entropy_dissipation",
                 "--override", "integrator.dt=null", "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        "run failed: observables still moving after 1 dt halvings "
        "(scenario 'heat_entropy_dissipation')\n")
    assert not out_dir.exists()


def test_dt_refinement_refines_a_rung_a_solver_guard_stops(monkeypatch):
    # the 1e-3 rung stops on a guard, so the ladder compares the next two
    # rungs that finish and settles one rung finer than an unguarded run
    run_solver = scenarios._run_solver

    def guarded_first(ctx, dt):
        if dt == 1e-3:
            raise NodeError("density reached its floor")
        return run_solver(ctx, dt)
    monkeypatch.setattr(scenarios, "_run_solver", guarded_first)
    m = _heat_mapping(dt=None, total_time=0.01)
    outcome = run_scenario(ScenarioConfig.from_mapping(m), write=False)
    assert outcome.summary["dt_used"] == 2.5e-4
    assert outcome.passed


def test_dt_refinement_names_the_last_guard_when_it_gives_up(tmp_path, capsys, monkeypatch):
    def always_guarded(ctx, dt):
        raise StabilityError(f"energy grew at dt = {dt:g}")
    monkeypatch.setattr(scenarios, "_run_solver", always_guarded)
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", "heat_entropy_dissipation",
                 "--override", "integrator.dt=null", "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        "run failed: observables still moving after 8 dt halvings (scenario "
        "'heat_entropy_dissipation'); the last solver guard: energy grew at dt = 3.90625e-06\n")
    assert not out_dir.exists()


def _rebuilt_row(ctx, state):
    """The physics columns of one stored state, from the public definitions."""
    g, V, c = ctx.grid, ctx.potential, ctx.constants
    row = dict.fromkeys(("H_S", "H_F", "L_F"), np.nan)
    row["gauge_constant"] = 0.0
    if isinstance(state, DensityField):
        vals = functionals(state, V, c)
        row["mass"] = g.integrate(state.values)
        if ctx.config.solver == "dlss":
            gradient = wasserstein_gradient("total", state, V, c)
            row.update(H_F=vals.total_energy, L_F=lagrangian(gradient, V, c))
    else:
        if isinstance(state, WaveField):
            wave, point = state, madelung_transform(state, c)
            row["mass"] = g.integrate(np.abs(wave.values) ** 2)
        else:
            wave, point = WaveField(g, polar_wave(state, c)), state
            row["mass"] = g.integrate(point.base.values)
            row["gauge_constant"] = g.integrate(point.fiber_potential * point.base.values)
        vals = functionals(point.base, V, c)
        row.update(H_S=wave_hamiltonian(wave, V, c), H_F=hamiltonian(point, V, c),
                   L_F=lagrangian(point.tangent, V, c))
    row.update(entropy=vals.entropy, fisher=vals.fisher)
    return row


@pytest.mark.parametrize("scenario, overrides", [
    ("thm21_equivalence", ["integrator.solver=schrodinger", "integrator.total_time=0.01",
                           'checks=["mass_conservation"]']),
    ("thm21_equivalence", ["integrator.total_time=0.01", 'checks=["mass_conservation"]']),
    ("dlss_descent", []),
    ("thm44_hamiltonian", ["integrator.total_time=9.0"]),
], ids=["schrodinger", "madelung", "dlss", "static"])
def test_columns_are_rebuilt_from_the_stored_states(scenario, overrides):
    # every column, the gauge ledger too, is a function of the stored state
    mapping = apply_overrides(builtin_mapping(scenario), overrides)
    ctx = execute_config(ScenarioConfig.from_mapping(mapping))
    rec = ctx.record
    rows = [_rebuilt_row(ctx, state) for state in _states(rec)]
    rebuilt = {name: np.array([row[name] for row in rows])
               for name in OBSERVABLE_COLUMNS[1:]}
    rebuilt["time"] = rec.times
    assert len(rows) > 1
    for name in OBSERVABLE_COLUMNS:
        assert np.array_equal(ctx.columns[name], rebuilt[name], equal_nan=True), name


def test_madelung_run_restarts_from_a_snapshot_under_the_built_potential():
    # |sin x| has modes above the 2/3 band; the built V is projected onto
    # the band once, so the phase gains no mode that a restart, which
    # dealiases its start, would drop
    n = 64
    mapping = {
        "schema": 1, "name": "restart",
        "grid": {"n": n, "length": TAU},
        "potential": {"kind": "custom_table", "parameters": {
            "values": (0.5 * np.abs(np.sin(TAU * np.arange(n) / n))).tolist()}},
        "initial_state": {"kind": "polar_pair", "parameters": {
            "density": {"kind": "cosine_bump", "concentration": 1.0},
            "phase": {"kind": "sine", "amplitude": 0.2}}},
        "integrator": {"solver": "madelung", "dt": 1e-4, "total_time": 0.02,
                       "snapshot_stride": 100},
    }
    ctx = execute_config(ScenarioConfig.from_mapping(mapping))
    assert ctx.record.times[1] == pytest.approx(0.01)
    rest = madelung_evolve(ctx.record.state(1), ctx.potential, ctx.constants,
                           1e-4, 0.01, 100)
    whole, restarted = ctx.record.state(-1), rest.state(-1)
    assert np.max(np.abs(restarted.fiber_potential - whole.fiber_potential)) < 1e-14
    assert np.max(np.abs(restarted.base.values - whole.base.values)) < 1e-14


# -- command line ------------------------------------------------------------


def test_cli_list_is_stable(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for name in builtin_names():
        assert name in first
        assert SCENARIO_DESCRIPTIONS[name] in first


def test_cli_run_builtin(tmp_path, capsys):
    code = main(["run", "--scenario", "uniform_stationary",
                 "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  stationarity" in out
    assert (tmp_path / "run" / "summary.json").exists()


def test_cli_run_config_with_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_heat_mapping()))
    code = main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"),
                 "--override", "integrator.total_time=0.01"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["integrator"]["total_time"] == 0.01


def test_cli_symplectic_pullback_on_a_short_circle_passes(tmp_path, capsys):
    # the check differentiates the section exactly, so a circle on which a
    # finite transport step would fold the density still passes
    code = main(["run", "--scenario", "submersion_pullback",
                 "--override", "grid.length=0.1", "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  symplectic_pullback" in out


def test_cli_config_errors_leave_no_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", "uniform_stationary",
                 "--config", "also.json", "--out", str(out_dir)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out_dir)]) == 2
    assert main(["run", "--scenario", "not_a_scenario",
                 "--out", str(out_dir)]) == 2
    bad = apply_overrides(_heat_mapping(), ["integrator.dt=-1"])
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    capsys.readouterr()
    cfg_path.write_bytes(b"\xff\xfe")  # not UTF-8 text
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out_dir.exists()


def test_cli_solver_abort_exits_three(tmp_path, capsys):
    mapping = {
        "schema": 1, "name": "shock",
        "grid": {"n": 64, "length": TAU},
        "constants": {"hbar": 1.0},
        "potential": {"kind": "none"},
        "initial_state": {"kind": "polar_pair", "parameters": {
            "density": {"kind": "uniform"},
            "phase": {"kind": "sine", "amplitude": 6.0}}},
        "integrator": {"solver": "madelung", "dt": 1e-3, "total_time": 1.0,
                       "snapshot_stride": 100},
        "checks": [{"name": "mass_conservation"}],
    }
    cfg_path = tmp_path / "shock.json"
    cfg_path.write_text(json.dumps(mapping))
    out_dir = tmp_path / "shock_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "run failed" in err
    assert not out_dir.exists()


def test_cli_long_strang_run_off_the_unit_sphere_exits_three(tmp_path, capsys):
    # 40,000 steps: the norm drifts past NORM_TOL, which is not loosened
    out_dir = tmp_path / "never"
    argv = ["run", "--scenario", "thm21_equivalence", "--out", str(out_dir)]
    for item in ["integrator.solver=schrodinger", "integrator.dt=6.25e-6",
                 "integrator.snapshot_stride=400", 'checks=["mass_conservation"]']:
        argv += ["--override", item]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: the wave left the unit sphere at step ")
    assert err.count("\n") == 1 and "expected 1 within 1e-12" in err, err
    assert not out_dir.exists()


def test_record_budget_counts_the_floats_of_each_state_kind():
    limit = scenarios.MAX_RECORD_BYTES
    for solver, kind, floats in [("heat", "perturbed_uniform", 1024),
                                 ("static", "random_density", 1024),
                                 ("displacement", "gaussian_pair", 1024),
                                 ("madelung", "polar_pair", 2048),
                                 ("schrodinger", "gaussian", 2048),
                                 ("static", "random_polar", 2048)]:
        rows = limit // (8 * floats)  # the most snapshots that fit
        scenarios._require_record_budget(solver, kind, 1024, rows - 1, 1)
        scenarios._require_record_budget(solver, kind, 1024, 3 * (rows - 1), 3)
        with pytest.raises(ConfigError, match=f"{rows + 1} snapshots of {floats} floats"):
            scenarios._require_record_budget(solver, kind, 1024, rows, 1)
        with pytest.raises(ConfigError, match="raise integrator.snapshot_stride"):
            scenarios._require_record_budget(solver, kind, 1024, 3 * (rows - 1) + 1, 3)


def test_record_budget_is_checked_before_each_finer_rung(monkeypatch, tmp_path):
    # with dt omitted the heat ladder starts at 200 steps, 41 snapshots of
    # 256 floats (83,968 bytes); its second rung would keep 81
    monkeypatch.setattr(scenarios, "MAX_RECORD_BYTES", 100_000)
    solves = []
    run_solver = scenarios._run_solver

    def counted(ctx, dt):
        solves.append(dt)
        return run_solver(ctx, dt)
    monkeypatch.setattr(scenarios, "_run_solver", counted)
    config = ScenarioConfig.from_mapping(apply_overrides(
        builtin_mapping("heat_entropy_dissipation"), ["integrator.dt=null"]))
    with pytest.raises(ConfigError, match="81 snapshots of 256 floats"):
        run_scenario(config, tmp_path / "never")
    assert solves == [1e-3]
    assert not (tmp_path / "never").exists()


def test_cli_dlss_overlong_step_exits_three(tmp_path, capsys):
    out_dir = tmp_path / "dlss_out"
    assert main(["run", "--scenario", "dlss_descent",
                 "--override", "integrator.dt=2e-3", "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "run failed" in err and "density reached" in err
    assert not out_dir.exists()


def _fresh_cli_run(out_dir: Path, scenario: str, override: str) -> subprocess.CompletedProcess:
    """`madflow run` in a fresh interpreter, so the exit code and stderr are
    what a user sees."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "madflow.cli", "run",
                           "--scenario", scenario, "--override", override,
                           "--out", str(out_dir)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("override, code, prefix", [
    # a 1e300 phase overflows the energy guard on the first snapshot
    ('initial_state.parameters.phase={"kind":"sine","amplitude":1e300}', 3, "run failed: "),
    # the density overflows while the scenario is built
    ("initial_state.parameters.density.concentration=1e5", 2, "config error: "),
])
def test_cli_non_finite_field_exits_without_a_traceback(tmp_path, override, code, prefix):
    out_dir = tmp_path / "never"
    done = _fresh_cli_run(out_dir, "thm21_equivalence", override)
    assert done.returncode == code, done.stderr
    # one line: numpy's overflow warnings would print their file, line and
    # source before it
    assert done.stderr.startswith(prefix) and len(done.stderr.splitlines()) == 1, done.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["1e300", "1e-300"])
def test_cli_extreme_free_packet_sigma_exits_two(tmp_path, sigma):
    # the closed-form packet divides by sigma^2, which overflows or
    # underflows to zero before any resolution check reads it
    out_dir = tmp_path / "never"
    done = _fresh_cli_run(out_dir, "free_gaussian", f"initial_state.parameters.sigma={sigma}")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: ") and "sigma" in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert not out_dir.exists()


def test_cli_memory_error_while_building_exits_two(tmp_path, capsys, monkeypatch):
    def too_large(grid):
        raise MemoryError("Unable to allocate 8.00 TiB")
    monkeypatch.setitem(scenarios.POTENTIAL_KINDS, "none", (too_large, {}))
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", "heat_entropy_dissipation",
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Unable to allocate" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("override", [
    "grid.n=16",   # the pair's interpolants would dip below zero
    "grid.n=128",  # the pair's spectra reach the top wavenumber
])
def test_cli_unresolved_transport_density_exits_two(tmp_path, capsys, override):
    # sigma = 0.1 packets: the pair is built and tested before the solve
    out_dir = tmp_path / "bb_out"
    assert main(["run", "--scenario", "benamou_brenier_action",
                 "--override", override, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not resolved" in err
    assert not out_dir.exists()


def test_checks_declare_the_solvers_and_initial_kinds_they_serve():
    # each builtin with each check alone, free or in a well: validation
    # accepts exactly the runs whose solver, initial kind and potential kind
    # the check declares, save a potential on the heat flow (nothing solves)
    for scenario, potential in product(builtin_names(), ("none", "cosine_well")):
        base = builtin_mapping(scenario)
        solver, kind = base["integrator"]["solver"], base["initial_state"]["kind"]
        for name, definition in scenarios.CHECKS.items():
            mapping = apply_overrides(base, [f'checks=["{name}"]',
                                             f'potential={{"kind":"{potential}"}}'])
            try:
                ScenarioConfig.from_mapping(mapping)
                accepted = True
            except ConfigError:
                accepted = False
            admitted = (solver in definition.solvers and kind in definition.kinds
                        and potential in definition.potentials
                        and (solver != "heat" or potential == "none"))
            assert accepted == admitted, (scenario, potential, name)


@pytest.mark.parametrize("scenario, overrides, message", [
    # a check that reads what the initial state does not provide
    ("free_gaussian", ['checks=["eigenstate_phase"]'], "kind 'gaussian'"),
    ("plane_wave_eigenstate", ['checks=["free_packet_density"]'], "kind 'plane_wave'"),
    ("thm44_hamiltonian", ['checks=["symplectic_pullback"]'], "kind 'random_polar'"),
    ("submersion_pullback", ['checks=["hamiltonian_pullback"]'], "kind 'random_density'"),
    # the closed-form packet is the bare one
    ("free_gaussian", ["initial_state.parameters.floor_weight=1e-3"], "bare packet"),
    # Gaussians that double precision does not resolve on the grid
    ("free_gaussian", ["initial_state.parameters.sigma=1e-9"], "top wavenumber"),
    # a density whose images would be summed one by one, from far off the circle
    ("free_gaussian", ["initial_state.parameters.center=1e6",
                       "initial_state.parameters.floor_weight=1e-8",
                       'checks=["mass_conservation"]'], "10000 periodic images hold"),
    # a transport of zero length
    ("benamou_brenier_action", ["initial_state.parameters.centers=[1.0,1.0]"],
     "coincide on the circle"),
    ("benamou_brenier_action", ["initial_state.parameters.centers=[1.0,7.283185307179586]"],
     "coincide on the circle"),
    # with dt omitted, the first rung's 1500 steps; one snapshot past the start
    ("newton_residual", ["integrator.snapshot_stride=7", "integrator.dt=null"],
     "does not divide the 1500 steps"),
    ("benamou_brenier_action", ["integrator.snapshot_stride=63"], "five or more"),
    # 1500 steps in three equal parts: four snapshots, one short of five
    ("newton_residual", ["integrator.snapshot_stride=500"], "into four or more equal parts"),
    # the free-evolution oracles describe a run without a potential
    ("plane_wave_eigenstate", ["potential.kind=cosine_well"],
     "a potential of kind 'cosine_well'"),
    ("free_gaussian", ["potential.kind=cosine_well"], "a potential of kind 'cosine_well'"),
    # a floor weight that is not a number, before the bare-packet rule reads it
    ("free_gaussian", ['initial_state.parameters.floor_weight="0"'], "must be a number"),
    # by t = 100000 the free packet has spread past what its images may hold
    ("free_gaussian", ["integrator.total_time=100000", "integrator.dt=1",
                       "integrator.snapshot_stride=100000"],
     "spreads to 202031 about center 3.14159, past the spread 7400.69"),
    # 40,001 snapshots of 4096 floats, 1.3 GB of samples
    ("heat_entropy_dissipation", ["grid.n=4096", "integrator.dt=1e-6"],
     "40001 snapshots of 4096 floats, 1250 MiB"),
    # a record past any memory reads as exponents, not 300-digit integers
    ("thm21_equivalence", ["integrator.dt=1e-300"],
     "1e+298 snapshots of 512 floats, 3.91e+295 MiB, above"),
    # 8e308 MiB is past the largest double: the message says inf, not a traceback
    ("heat_entropy_dissipation", ["grid.n=1048576", "integrator.dt=1e-307",
                                  "integrator.total_time=10", "integrator.snapshot_stride=1"],
     "1e+308 snapshots of 1048576 floats, inf MiB, above"),
    # the periodic images are derived, not set
    ("free_gaussian", ["initial_state.parameters.images=6"], "unknown keys ['images']"),
    # JSON reads 1e400 as inf
    ("thm21_equivalence",
     ['potential={"kind":"custom_table","parameters":{"values":[1e400%s]}}' % (",0" * 255)],
     "contains non-finite entries"),
    # a density solver takes no phase
    ("heat_entropy_dissipation",
     ["initial_state.kind=polar_pair",
      'initial_state.parameters={"density":{"kind":"perturbed_uniform"},'
      '"phase":{"kind":"sine"}}'],
     "the 'heat' solver evolves densities only"),
])
def test_cli_unservable_start_exits_two_before_the_solve(monkeypatch, capsys, tmp_path,
                                                         scenario, overrides, message):
    def no_solve(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr("madflow.scenarios._run_solver", no_solve)
    out_dir = tmp_path / "never"
    argv = ["run", "--scenario", scenario, "--out", str(out_dir)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("scenario, override", [
    ("heat_entropy_dissipation", "initial_state.parameters.amplitude=1.5"),
    ("free_gaussian", "initial_state.parameters.floor_weight=1.5"),
    ("thm21_equivalence", "initial_state.parameters.reference=7.0"),
    ("heat_entropy_dissipation", "integrator.total_time=0.0101"),
    ("thm44_hamiltonian", "initial_state.parameters.density_amplitude=80"),
    ("submersion_pullback", "initial_state.parameters.amplitude=80"),
    # non-finite numbers: JSON reads 1e400 and Infinity as inf
    ("thm21_equivalence", "integrator.total_time=1e400"),
    ("heat_entropy_dissipation",
     'checks=[{"name":"mass_conservation","tolerance":1e400}]'),
    # checks must be a list
    ("heat_entropy_dissipation", "checks=5"),
    ("heat_entropy_dissipation", 'checks="mass_conservation"'),
    # hbar whose square is not a finite, normal double
    ("heat_entropy_dissipation", "constants.hbar=1e308"),
    ("dlss_descent", "constants.hbar=1e200"),
    pytest.param("dlss_descent", ("constants.hbar=1e-300", "integrator.dt=null"),
                 id="dlss_descent-constants.hbar=1e-300-integrator.dt=null"),
    # modes the grid cannot resolve: |mode| < n/2 = 128
    ("heat_entropy_dissipation", "initial_state.parameters.mode=1000"),
    ("plane_wave_eigenstate", "initial_state.parameters.mode=200"),
    pytest.param("thm21_equivalence", ("initial_state.parameters.phase.kind=sine",
                                       "initial_state.parameters.phase.mode=500"),
                 id="thm21_equivalence-sine-phase-mode=500"),
    ("thm44_hamiltonian", "initial_state.parameters.modes=128"),
    ("submersion_pullback", "initial_state.parameters.modes=128"),
    # a gaussian pair with mass at the transport cut
    ("benamou_brenier_action", "initial_state.parameters.floor_weight=0.5"),
    # a default dt that underflows to 0 or overflows
    pytest.param("dlss_descent", ("grid.length=1e150", "integrator.dt=null"),
                 id="dlss_descent-grid.length=1e150-integrator.dt=null"),
    pytest.param("dlss_descent", ("grid.length=1e-100", "integrator.dt=null"),
                 id="dlss_descent-grid.length=1e-100-integrator.dt=null"),
    # a potential table entry too large for a double
    pytest.param("thm21_equivalence",
                 'potential={"kind":"custom_table","parameters":{"values":[%s]}}'
                 % ",".join(["1" + "0" * 400] + ["0"] * 255),
                 id="thm21_equivalence-custom_table-values=10**400"),
    # a grid whose top wavenumber squared is not a finite, normal double
    ("heat_entropy_dissipation", "grid.length=1e-300"),
    pytest.param("dlss_descent", ("grid.length=1e300", "integrator.dt=null"),
                 id="dlss_descent-grid.length=1e300-integrator.dt=null"),
    ("thm21_equivalence", "grid.length=1e-300"),
    # a step count too large for a double
    pytest.param("thm21_equivalence", ("integrator.total_time=1e308", "integrator.dt=1e-10"),
                 id="thm21_equivalence-total_time=1e308-dt=1e-10"),
    # kinds and names must be strings naming a known entry
    ("heat_entropy_dissipation", 'initial_state.kind=["polar_pair"]'),
    ("heat_entropy_dissipation", "potential.kind={}"),
    ("heat_entropy_dissipation", 'checks=[{"name":["x"]}]'),
    ("heat_entropy_dissipation", 'output.formats=[["csv"]]'),
    ("heat_entropy_dissipation", 'output.formats="csv"'),
    ("heat_entropy_dissipation", 'checks=["mass_conservation","mass_conservation"]'),
])
def test_cli_out_of_range_parameter_exits_two(tmp_path, capsys, scenario, override):
    out_dir = tmp_path / "never"
    overrides = (override,) if isinstance(override, str) else override
    argv = ["run", "--scenario", scenario, "--out", str(out_dir)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out_dir.exists()


def _leaf_paths(node, prefix: str = ""):
    """The dotted override path of every non-container value in `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = f"{prefix}{key}"
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_paths(value, path + ".")
        else:
            yield path


#: the values the override fuzz puts at every leaf, as JSON
_FUZZ_VALUES = ("0", "-1", "1e-300", "1e300", "null", "true", '"x"', "[]", "{}",
                "0.5", "7", "1e-9")


def test_fuzzed_builtin_overrides_build_or_raise_a_typed_error():
    # every leaf of every builtin times a fixed list of values, built but
    # not solved: a case either builds or raises what execute_config and
    # the CLI turn into exit 2 or 3, never an untyped exception (exit 1
    # and a traceback)
    escaped, cases = [], 0
    for name in builtin_names():
        mapping = builtin_mapping(name)
        for path, value in product(_leaf_paths(mapping), _FUZZ_VALUES):
            cases += 1
            try:
                config = ScenarioConfig.from_mapping(
                    apply_overrides(mapping, [f"{path}={value}"]))
                with np.errstate(all="ignore"):  # as the `madflow` command runs
                    scenarios.build_potential(config)
                    build_initial(config)
            except (MadflowError, ValueError):
                pass
            except Exception as exc:  # noqa: BLE001 - the escapes are the finding
                escaped.append(f"{name} {path}={value}: {type(exc).__name__}: {exc}")
    assert cases >= 2000
    assert escaped == []


@pytest.mark.parametrize("override, message", [
    ("checks.0.tolerance=-1", "checks[0].tolerance must be positive"),
    ("checks.5.tolerance=1", "'checks.5.tolerance'"),
])
def test_cli_list_index_override_names_the_entry(tmp_path, capsys, override, message):
    out_dir = tmp_path / "never"
    assert main(["run", "--scenario", "heat_entropy_dissipation",
                 "--override", override, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, out", [
    (["run", "--scenario", "thm21_equivalence"], "file/sub"),
    (["run", "--scenario", "thm21_equivalence"], "file"),
    (["suite"], "file"),
])
def test_cli_output_path_through_a_file_exits_two_before_the_solve(
        tmp_path, capsys, monkeypatch, command, out):
    blocker = tmp_path / "file"
    blocker.write_text("keep")

    def unreachable(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr(scenarios, "_run_solver", unreachable)
    assert main(command + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "keep"


@pytest.mark.parametrize("name", ["observables.csv", "snapshots.json", "summary.json"])
def test_cli_artifact_name_held_by_a_directory_exits_two_before_the_solve(
        tmp_path, capsys, monkeypatch, name):
    held = tmp_path / "o" / name
    held.mkdir(parents=True)

    def unreachable(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr(scenarios, "_run_solver", unreachable)
    assert main(["run", "--scenario", "uniform_stationary", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert str(held) in err and "Traceback" not in err
    assert list((tmp_path / "o").iterdir()) == [held] and list(held.iterdir()) == []


def test_cli_second_run_into_a_directory_leaves_only_its_own_artifacts(tmp_path, capsys):
    # a json-only run after a csv run: the first run's observables.csv goes
    out = str(tmp_path / "d")
    assert main(["run", "--scenario", "uniform_stationary", "--out", out]) == 0
    assert main(["run", "--scenario", "thm21_equivalence", "--out", out,
                 "--override", 'output={"formats":["json"]}']) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == ["snapshots.json", "summary.json"]
    for name in ("snapshots.json", "summary.json"):
        assert json.loads((tmp_path / "d" / name).read_text())["scenario"] == "thm21_equivalence"


def test_run_failing_after_the_solve_leaves_the_previous_artifacts(tmp_path, monkeypatch):
    out = tmp_path / "d"
    run_builtin("uniform_stationary", out)
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}

    def failing(path, ctx):
        path.write_bytes(b'{"scenario":')
        raise OSError("no space left on device")
    monkeypatch.setattr(scenarios, "_write_snapshots", failing)
    with pytest.raises(OSError, match="no space left"):
        run_builtin("heat_entropy_dissipation", out)
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


_RUN = ["run", "--scenario", "heat_entropy_dissipation"]
_LONG = "x" * 300  # past the 255-byte name limit of common file systems


@pytest.mark.parametrize("argv", [
    pytest.param(_RUN + ["--override", 'name="a\\u0000b"'], id="name-nul"),
    pytest.param(_RUN + ["--override", 'name="a\\ud800b"'], id="name-unencodable"),
    pytest.param(_RUN + ["--override", f"name={_LONG}"], id="name-long"),
    pytest.param(_RUN + ["--override", "name=.."], id="name-parent"),
    pytest.param(_RUN + ["--override", 'output.directory="a\\u0000b/c"'],
                 id="directory-nul"),
    pytest.param(_RUN + ["--override", f'output.directory="out/{_LONG}"'],
                 id="directory-long"),
    pytest.param(_RUN + ["--out", f"out/{_LONG}"], id="out-long"),
    pytest.param(["suite", "--out", f"out/{_LONG}"], id="suite-out-long"),
])
def test_cli_output_path_the_os_refuses_exits_two_before_the_solve(
        tmp_path, capsys, monkeypatch, argv):
    # the refusal comes before the solve, not as a traceback once it is over
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)

    def unreachable(ctx, dt):
        raise AssertionError("the solver ran")
    monkeypatch.setattr(scenarios, "_run_solver", unreachable)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def _stub_suite_worker(monkeypatch, failing=()):
    """Replace the suite's per-scenario worker by one that runs nothing and
    fails the scenarios in `failing`; returns the (name, root) calls."""
    calls = []

    def worker(name, root):
        calls.append((name, root))
        return (name, False, ["mass_conservation", "stationarity"]) if name in failing \
            else (name, True, [])
    monkeypatch.setattr(scenarios, "_suite_worker", worker)
    return calls


def test_cli_suite(tmp_path, capsys, monkeypatch):
    # the real suite runs in the acceptance tests; here: --out reaches every
    # worker, and the verdicts print with their exit code
    calls = _stub_suite_worker(monkeypatch)
    assert main(["suite", "--out", str(tmp_path / "suite")]) == 0
    out = capsys.readouterr().out
    assert calls == [(name, str(tmp_path / "suite")) for name in builtin_names()]
    assert out.splitlines() == [f"PASS  {name}" for name in builtin_names()]

    _stub_suite_worker(monkeypatch, failing=("free_gaussian",))
    assert main(["suite", "--out", str(tmp_path / "suite")]) == 1
    out = capsys.readouterr().out
    assert "FAIL  free_gaussian: mass_conservation, stationarity\n" in out
    assert out.count("PASS  ") == len(builtin_names()) - 1


def test_suite_forks_at_most_one_worker_per_scenario(tmp_path, monkeypatch):
    # the pool forks all its workers at the first submit, so the bound is
    # checked on a stand-in that runs a stub worker inline: no process starts
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    calls = _stub_suite_worker(monkeypatch)
    results = run_suite(tmp_path, jobs=10**6)
    assert sizes == [len(builtin_names())] == [10]
    assert [name for name, _ in calls] == list(results) == builtin_names()
    assert all(ok for ok, _ in results.values())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_suite_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out_dir = tmp_path / "never"
    assert main(["suite", "--jobs", jobs, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out_dir.exists()
