"""Scenario configs, artifact writing, the check registry and the CLI."""

import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import madflow
from madflow import scenarios
from madflow.cli import main
from madflow.dynamics import madelung_evolve
from madflow.errors import ConfigError
from madflow.fields import DensityField, WaveField, functionals
from madflow.madelung import madelung_transform, polar_wave, wave_hamiltonian
from madflow.states import wrapped_gaussian_density
from madflow.scenarios import (
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
from madflow.wgeom import hamiltonian, lagrangian, wasserstein_gradient

TAU = 2 * np.pi
SRC = str(Path(madflow.__file__).resolve().parents[1])


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


def test_config_round_trip():
    cfg = ScenarioConfig.from_mapping(_heat_mapping())
    assert cfg.name == "heat_demo"
    assert cfg.grid.n == 64
    assert cfg.dt == 1e-3
    again = ScenarioConfig.from_mapping(cfg.resolved_mapping())
    assert again == cfg


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

    m = _heat_mapping()
    m["schema"] = 2
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
    # sigma = 2 on a 2 pi circle: with one image on each side the first
    # omitted one lies above double rounding, with three it does not
    def start(images):
        m = _heat_mapping(solver="schrodinger", total_time=1e-3)
        m["initial_state"] = {"kind": "gaussian", "parameters": {
            "sigma": 2.0, "floor_weight": 1e-8, "images": images}}
        return run_scenario(ScenarioConfig.from_mapping(m), write=False).context

    with pytest.raises(ConfigError, match="not resolved by 1 images"):
        start(1)
    ctx = start(3)
    mu = wrapped_gaussian_density(ctx.grid, np.pi, 2.0, 1e-8, 3)
    wave = ctx.initial["wave"].values
    assert np.max(np.abs(np.abs(wave) ** 2 - mu.values)) < 1e-12


def test_free_packet_images_need_only_hold_the_packet_at_the_final_time():
    # at t = 20 the packet's spread width is 40.4: past what 6 images hold
    # (4.8), within what 60 hold
    m = apply_overrides(builtin_mapping("free_gaussian"), [
        "integrator.total_time=20", "integrator.dt=0.01",
        "initial_state.parameters.images=60"])
    assert run_scenario(ScenarioConfig.from_mapping(m), write=False).passed


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
    assert resolve_output_dir(cfg, None, environ={}) == Path("runs") / "heat_demo"


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


def _rebuilt_row(ctx, state):
    """The physics columns of one stored state, from the public definitions."""
    g, V, c = ctx.grid, ctx.potential, ctx.constants
    row = dict.fromkeys(("H_S", "H_F", "L_F"), np.nan)
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
    # every column but the gauge ledger is a function of the stored state
    mapping = apply_overrides(builtin_mapping(scenario), overrides)
    ctx = execute_config(ScenarioConfig.from_mapping(mapping))
    rec = ctx.record
    rows = [_rebuilt_row(ctx, state) for state in rec.states]
    rebuilt = {name: np.array([row[name] for row in rows])
               for name in OBSERVABLE_COLUMNS[1:-1]}
    rebuilt.update(time=rec.times, gauge_constant=np.zeros(len(rows))
                   if rec.gauge_constant is None else rec.gauge_constant)
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
    rest = madelung_evolve(ctx.record.states[1], ctx.potential, ctx.constants,
                           1e-4, 0.01, 100)
    whole, restarted = ctx.record.states[-1], rest.states[-1]
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


def test_cli_dlss_overlong_step_exits_three(tmp_path, capsys):
    out_dir = tmp_path / "dlss_out"
    assert main(["run", "--scenario", "dlss_descent",
                 "--override", "integrator.dt=2e-3", "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "run failed" in err and "density reached" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("override, code, prefix", [
    # a 1e300 phase overflows the energy guard on the first snapshot
    ('initial_state.parameters.phase={"kind":"sine","amplitude":1e300}', 3, "run failed: "),
    # the density overflows while the scenario is built
    ("initial_state.parameters.density.concentration=1e5", 2, "config error: "),
])
def test_cli_non_finite_field_exits_without_a_traceback(tmp_path, override, code, prefix):
    # a fresh interpreter, so the exit code and stderr are what a user sees
    out_dir = tmp_path / "never"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "madflow.cli", "run",
                           "--scenario", "thm21_equivalence", "--override", override,
                           "--out", str(out_dir)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    # one line: numpy's overflow warnings would print their file, line and
    # source before it
    assert done.stderr.startswith(prefix) and len(done.stderr.splitlines()) == 1, done.stderr
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
    ("free_gaussian", ["initial_state.parameters.sigma=2.0",
                       "initial_state.parameters.images=1"], "first omitted image"),
    # a transport of zero length
    ("benamou_brenier_action", ["initial_state.parameters.centers=[1.0,1.0]"],
     "coincide on the circle"),
    ("benamou_brenier_action", ["initial_state.parameters.centers=[1.0,7.283185307179586]"],
     "coincide on the circle"),
    # with dt omitted, the first rung's 1500 steps; one snapshot past the start
    ("newton_residual", ["integrator.snapshot_stride=7", "integrator.dt=null"],
     "does not divide the 1500 steps"),
    ("benamou_brenier_action", ["integrator.snapshot_stride=63"], "three or more"),
    # the free-evolution oracles describe a run without a potential
    ("plane_wave_eigenstate", ["potential.kind=cosine_well"],
     "a potential of kind 'cosine_well'"),
    ("free_gaussian", ["potential.kind=cosine_well"], "a potential of kind 'cosine_well'"),
    # by t = 20 the free packet has spread past its 6 images
    ("free_gaussian", ["integrator.total_time=20", "integrator.dt=0.01"],
     "first omitted image"),
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


def test_cli_suite(tmp_path, capsys):
    # a cut-down suite through the CLI would re-run everything; the full
    # double-run determinism claim lives in the acceptance tests.  Here:
    # the suite honours --out and reports per-scenario verdicts.
    code = main(["suite", "--out", str(tmp_path / "suite")])
    out = capsys.readouterr().out
    assert code == 0
    for name in builtin_names():
        assert f"PASS  {name}" in out
        assert (tmp_path / "suite" / name / "observables.csv").exists()

def test_suite_forks_at_most_one_worker_per_scenario(tmp_path, monkeypatch):
    # the pool forks all its workers at the first submit, so the bound is
    # checked on a stand-in that runs each scenario inline: no process starts
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
    names = ["plane_wave_eigenstate", "free_gaussian"]
    results = run_suite(tmp_path, jobs=10**6, names=names)
    assert sizes == [2]
    assert list(results) == names and all(ok for ok, _ in results.values())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_suite_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out_dir = tmp_path / "never"
    assert main(["suite", "--jobs", jobs, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out_dir.exists()
