"""End-to-end acceptance battery.

Twelve numbered behaviours, each asserted at a fixed tolerance and
reported as one printed verdict line (visible with pytest -s or on
failure).  Everything here goes through the public API; the expensive
trapped-packet trajectory is shared by the three criteria that probe it.
"""

import numpy as np
import pytest

from madflow.dynamics import dlss_evolve, heat_evolve, schrodinger_evolve
from madflow.fields import (
    DensityField,
    PhysicsConstants,
    PotentialField,
    functionals,
)
from madflow.grid import Grid
from madflow.madelung import (
    madelung_section,
    submersion_pullback_defect,
    wave_hamiltonian,
)
from madflow.scenarios import (
    ScenarioConfig,
    run_builtin,
    run_scenario,
    run_suite,
)
from madflow.states import (
    perturbed_uniform_density,
    plane_wave,
    random_density,
    random_zero_mean,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.transport import displacement_geodesic, path_action, w2_distance
from madflow.wgeom import (
    GRADIENT_KINDS,
    StandardVectorFieldSpec,
    TangentBundlePoint,
    TangentVector,
    hamiltonian,
    pushforward_density,
    tangent_inner,
    wasserstein_gradient,
)

TAU = 2 * np.pi
PI = np.pi
GRID = Grid(256)
ONE = PhysicsConstants(hbar=1.0)
HBAR_CYCLE = (0.5, 1.0, 2.0)


def _report(index: int, label: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] acceptance {index:02d} {label}: {detail}")
    return ok


# the trapped-packet trajectory shared by criteria 03, 04 and 11: a smooth
# bump breathing in a cosine well, integrated hydrodynamically for half a
# time unit while the runner co-evolves the wave and scores every check
EQUIVALENCE_MAPPING = {
    "schema": 1, "name": "acceptance_equivalence",
    "grid": {"n": 256, "length": TAU},
    "constants": {"hbar": 1.0},
    "potential": {"kind": "cosine_well",
                  "parameters": {"depth": 1.0, "center": PI}},
    "initial_state": {"kind": "polar_pair", "parameters": {
        "density": {"kind": "cosine_bump", "center": PI, "concentration": 2.0},
        "phase": {"kind": "zero"}}},
    "integrator": {"solver": "madelung", "dt": 1e-4, "total_time": 0.5,
                   "snapshot_stride": 25},
    "checks": [{"name": "schrodinger_density_match", "tolerance": 1e-3},
               {"name": "velocity_potential_match", "tolerance": 1e-3},
               {"name": "newton_residual", "tolerance": 1e-3},
               {"name": "phase_correction_ledger", "tolerance": 1e-4},
               {"name": "mass_conservation", "tolerance": 1e-8}],
}


@pytest.fixture(scope="module")
def equivalence_outcome():
    config = ScenarioConfig.from_mapping(EQUIVALENCE_MAPPING)
    return run_scenario(config, write=False)


def _check_residual(outcome, name: str) -> float:
    for entry in outcome.summary["checks"]:
        if entry["name"] == name:
            return entry["residual"]
    raise KeyError(name)


def test_01_spectral_calculus_is_exact():
    # rounding noise in the sampled test field is amplified by k^2, an
    # absolute floor near (n/2)^2 * eps = 3.6e-12; the scaled laplacian
    # claim is therefore demonstrated on modes whose output clears it
    worst = 0.0
    for mode, phase in ((1, 0.0), (3, 0.4), (8, 1.7), (17, 1.1), (33, 0.9),
                        (64, 0.0), (100, 2.2), (127, 0.8)):
        f = np.cos(mode * GRID.points + phase)
        d_exact = -mode * np.sin(mode * GRID.points + phase)
        checks = [(GRID.derivative(f), d_exact)]
        if mode >= 8:
            checks.append((GRID.laplacian(f), -mode * mode * f))
        for got, exact in checks:
            scale = max(1.0, np.abs(exact).max())
            worst = max(worst, np.abs(got - exact).max() / scale)
    ok = worst <= 1e-12

    ibp = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        f = random_zero_mean(GRID, rng, modes=40) + rng.normal()
        g = random_zero_mean(GRID, rng, modes=40) + rng.normal()
        ibp = max(ibp, abs(GRID.integrate(f * GRID.derivative(g))
                           + GRID.integrate(GRID.derivative(f) * g)))
    ok = ok and ibp <= 1e-10
    assert _report(1, "spectral calculus",
                   ok, f"derivative/laplacian {worst:.3e} (tol 1e-12), "
                       f"parts pairing {ibp:.3e} (tol 1e-10)")


def test_02_wave_solver_reproduces_closed_forms():
    # single mode under a constant potential: the split step is exact
    v0 = 0.7
    potential = PotentialField(GRID, np.full(GRID.n, v0))
    record = schrodinger_evolve(plane_wave(GRID, 3), potential, ONE,
                                dt=1e-3, total_time=1.0, snapshot_stride=1000)
    exact = plane_wave(GRID, 3).values * np.exp(-1j * (0.5 * 9 + v0) * 1.0)
    phase_err = np.abs(record.states[-1].values - exact).max()

    free = run_builtin("free_gaussian", write=False)
    packet_err = _check_residual(free, "free_packet_density")
    eigen = run_builtin("plane_wave_eigenstate", write=False)
    phase_err = max(phase_err, _check_residual(eigen, "eigenstate_phase"))

    ok = phase_err <= 1e-10 and packet_err <= 1e-6
    assert _report(2, "wave solver oracles",
                   ok, f"plane-wave phase {phase_err:.3e} (tol 1e-10), "
                       f"spreading packet {packet_err:.3e} (tol 1e-6)")


def test_03_hydrodynamic_and_wave_evolutions_agree(equivalence_outcome):
    density = _check_residual(equivalence_outcome, "schrodinger_density_match")
    velocity = _check_residual(equivalence_outcome, "velocity_potential_match")
    ok = density <= 1e-3 and velocity <= 1e-3
    assert _report(3, "hydrodynamic/wave equivalence",
                   ok, f"density {density:.3e}, velocity potential "
                       f"{velocity:.3e} (tol 1e-3)")


def test_04_trajectory_satisfies_newton_law(equivalence_outcome):
    residual = _check_residual(equivalence_outcome, "newton_residual")
    ok = residual <= 1e-3
    assert _report(4, "second-order law on density space",
                   ok, f"acceleration residual {residual:.3e} (tol 1e-3)")


def test_05_hamiltonians_agree_through_the_section():
    potential = PotentialField(GRID, 0.7 * np.cos(GRID.points - 1.0))
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(500 + i)
        constants = PhysicsConstants(hbar=HBAR_CYCLE[i % 3])
        mu = random_density(GRID, rng, modes=4, amplitude=0.5)
        fiber = random_zero_mean(GRID, rng, modes=4, amplitude=0.4)
        point = TangentBundlePoint(mu, fiber)
        h_flow = hamiltonian(point, potential, constants)
        psi = madelung_section(point, 0.0, constants)
        h_wave = wave_hamiltonian(psi, potential, constants)
        worst = max(worst, abs(h_wave - h_flow) / max(1.0, abs(h_flow)))
    ok = worst <= 1e-8
    assert _report(5, "energy agrees on both sides",
                   ok, f"relative gap {worst:.3e} over 100 states (tol 1e-8)")


def test_06_section_pulls_back_the_symplectic_form():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(900 + i)
        constants = PhysicsConstants(hbar=HBAR_CYCLE[i % 3])
        mu = random_density(GRID, rng, modes=3, amplitude=0.4)
        point = TangentBundlePoint(mu, random_zero_mean(GRID, rng, modes=3,
                                                        amplitude=0.3))
        pair = [StandardVectorFieldSpec(
            GRID,
            random_zero_mean(GRID, rng, modes=3, amplitude=0.3),
            random_zero_mean(GRID, rng, modes=3, amplitude=0.3))
            for _ in range(2)]
        defect = submersion_pullback_defect(point, pair[0], pair[1],
                                            constants, step=1e-4)
        worst = max(worst, defect)
    ok = worst <= 1e-4
    assert _report(6, "symplectic pullback",
                   ok, f"defect {worst:.3e} over 20 pairs (tol 1e-4)")


def test_07_metric_gradients_are_directional_derivatives():
    potential = PotentialField(GRID, 0.6 * np.cos(GRID.points))
    h = 1e-5
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        mu = random_density(GRID, rng, modes=3, amplitude=0.4)
        psi = random_zero_mean(GRID, rng, modes=3, amplitude=0.4)
        direction = TangentVector(mu, psi)
        values = {}
        for t in (h, -h):
            f = functionals(pushforward_density(mu, psi, t), potential, ONE)
            values[t] = {"potential": f.potential_energy, "entropy": f.entropy,
                         "fisher": f.fisher, "total": f.total_energy}
        for kind in GRADIENT_KINDS:
            grad = wasserstein_gradient(kind, mu, potential, ONE)
            pairing = tangent_inner(grad, direction)
            fd = (values[h][kind] - values[-h][kind]) / (2.0 * h)
            worst = max(worst, abs(fd - pairing) / max(1.0, abs(pairing)))
    ok = worst <= 1e-5
    assert _report(7, "gradient table",
                   ok, f"pairing vs flow derivative {worst:.3e} over "
                       f"10 directions x {len(GRADIENT_KINDS)} kinds (tol 1e-5)")


def test_08_heat_flow_dissipates_entropy_at_fisher_rate():
    mu0 = perturbed_uniform_density(GRID, amplitude=0.3, mode=1)
    record = heat_evolve(mu0, dt=1e-3, total_time=0.5)
    values = [functionals(s, PotentialField.zero(GRID), ONE) for s in record.states]
    entropy = np.array([v.entropy for v in values])
    fisher = np.array([v.fisher for v in values])
    rate = (entropy[2:] - entropy[:-2]) / (2.0 * 1e-3)
    worst = float(np.max(np.abs(rate + fisher[1:-1]) / fisher[1:-1]))
    ok = worst <= 1e-4
    assert _report(8, "entropy dissipation identity",
                   ok, f"relative defect {worst:.3e} (tol 1e-4)")


def test_09_quartic_descent_is_monotone_and_fixes_uniform():
    small = Grid(64)
    none = PotentialField(small, np.zeros(small.n))
    record = dlss_evolve(perturbed_uniform_density(small, amplitude=0.2, mode=2),
                         none, ONE, dt=2e-5, total_time=0.01)
    energy = np.array([functionals(s, none, ONE).total_energy for s in record.states])
    ascent = float(np.max(np.diff(energy)))
    flat = dlss_evolve(uniform_density(small), none, ONE,
                       dt=2e-5, total_time=0.01)
    drift = max(np.abs(state.values - 1.0 / small.length).max()
                for state in flat.states)
    ok = ascent <= 1e-10 and energy[-1] < energy[0] and drift <= 1e-12
    assert _report(9, "energy descent flow",
                   ok, f"worst per-step ascent {ascent:.3e} (tol 1e-10), "
                       f"uniform drift {drift:.3e} (tol 1e-12)")


def test_10_displacement_path_attains_the_transport_action():
    mu = wrapped_gaussian_density(GRID, center=2.6, sigma=0.4, floor_weight=1e-8)
    nu = wrapped_gaussian_density(GRID, center=3.7, sigma=0.4, floor_weight=1e-8)
    w2 = w2_distance(mu, nu)
    count = 33
    timestep = 1.0 / (count - 1)
    geodesic = displacement_geodesic(mu, nu)
    path = [geodesic(t) for t in np.linspace(0.0, 1.0, count)]
    optimal = path_action(path, timestep)
    gap = abs(optimal - w2 ** 2) / w2 ** 2

    # the tilt window must open and close at a nonzero rate: a window flat
    # at the endpoints lets a perturbation ride the small discretization
    # bias of the reference action instead of paying transverse kinetic cost
    window = np.sin(np.linspace(0.0, np.pi, count))
    excesses = []
    for i in range(5):
        rng = np.random.default_rng(700 + i)
        tilt = random_zero_mean(GRID, rng, modes=3, amplitude=1.0)
        tilt = 0.1 * tilt / np.abs(tilt).max()
        bent = [DensityField(GRID, m.values * (1.0 + w * tilt)
                             * (1.0 / GRID.integrate(m.values * (1.0 + w * tilt))))
                for m, w in zip(path, window)]
        excesses.append(path_action(bent, timestep) - optimal)
    ok = gap <= 1e-3 and min(excesses) > 0.0
    assert _report(10, "transport action",
                   ok, f"action vs squared distance {gap:.3e} (tol 1e-3), "
                       f"smallest perturbed excess {min(excesses):.3e} > 0")


def test_11_gauge_ledger_reconciles_with_the_action_integral(equivalence_outcome):
    residual = _check_residual(equivalence_outcome, "phase_correction_ledger")
    ok = residual <= 1e-4
    assert _report(11, "phase ledger vs action integral",
                   ok, f"gap {residual:.3e} (tol 1e-4)")


def test_12_scenario_suite_is_deterministic(tmp_path):
    first = run_suite(tmp_path / "a")
    second = run_suite(tmp_path / "b", jobs=2)  # serial and parallel agree
    all_passed = all(ok for ok, _ in first.values()) \
        and all(ok for ok, _ in second.values())
    identical = all(
        (tmp_path / "a" / name / artifact).read_bytes()
        == (tmp_path / "b" / name / artifact).read_bytes()
        for name in first
        for artifact in ("observables.csv", "snapshots.json", "summary.json"))
    ok = all_passed and identical and first.keys() == second.keys()
    assert _report(12, "suite determinism",
                   ok, f"{len(first)} scenarios passed twice (serial, then in "
                       f"2 processes) with byte-identical artifacts: {identical}")