"""Solvers: wave splitting, polar-coordinate integration, gradient flows.

The wave splitting is exact (up to roundoff) whenever the potential
commutes with itself along the step, so plane waves under a constant
potential make a machine-precision oracle.  The heat semigroup acts
diagonally on modes: (1 + a e^{-t} cos x)/2pi is an exact trajectory.
"""

import numpy as np
import pytest

from madflow import (
    Grid,
    NodeError,
    NonFiniteError,
    PhysicsConstants,
    PotentialField,
    StabilityError,
    WaveField,
)
from madflow import dynamics, scenarios
from madflow.dynamics import (
    TrajectoryRecord,
    dlss_evolve,
    heat_evolve,
    madelung_evolve,
    schrodinger_evolve,
)
from madflow.fields import functionals
from madflow.madelung import madelung_section, wave_hamiltonian
from madflow.scenarios import builtin_config, execute_config
from madflow.states import (
    cosine_bump_density,
    perturbed_uniform_density,
    plane_wave,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.wgeom import (TangentBundlePoint, energy_coefficients, flow_kernel,
                           hamiltonian, lagrangian)

TAU = 2 * np.pi


def _at_rest(mu):
    return TangentBundlePoint(mu, np.zeros(mu.grid.n))


def _lagrangians(rec, V, c):
    """L_F of each polar snapshot, with the phase as velocity potential."""
    return np.array([lagrangian(s.tangent, V, c) for s in rec.states])


# -- record container --------------------------------------------------------


def test_trajectory_record_validation():
    g = Grid(16)
    mu = uniform_density(g)
    good = TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu), np.array([0.0, 0.5]))
    assert good.states == (mu, mu)
    assert TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu)).gauge_constant is None
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu,))
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([1.0, 0.5]), (mu, mu))
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu), np.array([1.0]))  # ledger shape


def test_step_count_and_stride_semantics():
    g = Grid(32)
    mu = perturbed_uniform_density(g, 0.3)
    with pytest.raises(ValueError):
        heat_evolve(mu, 0.3, 1.0)  # 1.0 is not a multiple of 0.3
    with pytest.raises(ValueError):
        heat_evolve(mu, -0.1, 1.0)
    with pytest.raises(ValueError):
        heat_evolve(mu, 0.1, 1.0, snapshot_stride=0)
    rec = heat_evolve(mu, 0.1, 1.0, snapshot_stride=3)
    # marks at 0, 3, 6, 9 strides plus the forced final step
    assert np.allclose(rec.times, [0.0, 0.3, 0.6, 0.9, 1.0])


@pytest.mark.parametrize("stride, marks", [
    (4, [0, 4, 8, 12, 16, 20]),         # divides the 20 steps
    (3, [0, 3, 6, 9, 12, 15, 18, 20]),  # does not: the last step is added
])
def test_every_run_samples_the_one_snapshot_schedule(stride, marks):
    g, c = Grid(16), PhysicsConstants(1.0)
    mu, V, dt, T = uniform_density(g), PotentialField.zero(g), 1e-3, 0.02
    config = scenarios.ScenarioConfig.from_mapping({
        "name": "static", "initial_state": {"kind": "random_density"},
        "integrator": {"solver": "static", "dt": dt, "total_time": T,
                       "snapshot_stride": stride}})
    records = [schrodinger_evolve(plane_wave(g, 1), V, c, dt, T, stride),
               madelung_evolve(_at_rest(mu), V, c, dt, T, stride),
               heat_evolve(mu, dt, T, stride),
               dlss_evolve(mu, V, c, dt, T, stride),
               scenarios._trials(config, lambda k: mu)]
    assert dynamics._snapshot_steps(dt, T, stride) == marks
    for rec in records:
        assert np.array_equal(rec.times, np.array(marks) * dt)


# -- wave solver -------------------------------------------------------------


def test_schrodinger_plane_wave_exact():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, np.full(g.n, 0.4))
    psi0 = plane_wave(g, 2)
    T = 0.2
    rec = schrodinger_evolve(psi0, V, c, 1e-3, T, snapshot_stride=50)
    expected = psi0.values * np.exp(-1j * (0.5 * 4.0 + 0.4) * T)
    err = np.sqrt(g.integrate(np.abs(rec.states[-1].values - expected) ** 2))
    assert err < 1e-12


def test_schrodinger_hbar_enters_dispersion():
    g = Grid(128)
    V = PotentialField.zero(g)
    psi0 = plane_wave(g, 3)
    T = 0.1
    for hbar in (0.5, 2.0):
        rec = schrodinger_evolve(psi0, V, PhysicsConstants(hbar), 1e-3, T)
        expected = psi0.values * np.exp(-1j * hbar * 4.5 * T)
        assert np.max(np.abs(rec.states[-1].values - expected)) < 1e-12


def test_schrodinger_conserves_mass_and_energy():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    psi0 = WaveField.normalized(g, np.sqrt(wrapped_gaussian_density(g, np.pi, 0.5).values))
    rec = schrodinger_evolve(psi0, V, c, 1e-3, 0.2, snapshot_stride=20)
    mass = np.array([g.integrate(np.abs(s.values) ** 2) for s in rec.states])
    assert np.abs(mass - 1.0).max() < 1e-12
    hs = np.array([wave_hamiltonian(s, V, c) for s in rec.states])
    assert np.abs(hs - hs[0]).max() / abs(hs[0]) < 1e-7


# -- polar-coordinate solver -------------------------------------------------


def test_madelung_uniform_rest_state_is_stationary():
    g = Grid(128)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    rec = madelung_evolve(_at_rest(mu), PotentialField.zero(g),
                          c, 1e-3, 0.05, snapshot_stride=10)
    final = rec.states[-1]
    assert isinstance(final, TangentBundlePoint)
    assert np.max(np.abs(final.base.values - mu.values)) < 1e-14
    assert np.max(np.abs(final.fiber_potential)) < 1e-14
    assert np.abs(rec.gauge_constant).max() < 1e-14


def test_madelung_constant_potential_feeds_the_ledger():
    # Uniform rest state under V = c: the phase equation removes -c dt per
    # step into the gauge ledger, and the Lagrangian is identically -c, so
    # ledger(t) = -c t exactly and l_f = -c.
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    V = PotentialField(g, np.full(g.n, 0.8))
    rec = madelung_evolve(_at_rest(mu), V, c, 1e-3, 0.1, snapshot_stride=20)
    assert np.max(np.abs(rec.gauge_constant - (-0.8 * rec.times))) < 1e-12
    assert np.max(np.abs(_lagrangians(rec, V, c) + 0.8)) < 1e-12
    h_f = [hamiltonian(s, V, c) for s in rec.states]
    assert np.max(np.abs(np.array(h_f) - 0.8)) < 1e-12


def test_madelung_pinned_input_enters_ledger_on_conversion():
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    raw = np.cos(g.points) + 1.5
    shifted = TangentBundlePoint(mu, raw - (raw[0] - 2.5))  # the phase pinned to 2.5 at x = 0
    mean = g.integrate(shifted.fiber_potential * mu.values)
    rec = madelung_evolve(shifted, PotentialField.zero(g), c, 1e-3, 0.002)
    assert abs(rec.gauge_constant[0] - mean) < 1e-12


def test_madelung_tracks_the_wave_solver():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 2.0)
    start = _at_rest(mu0)
    mrec = madelung_evolve(start, V, c, 1e-4, 0.05, snapshot_stride=100)
    wrec = schrodinger_evolve(madelung_section(start, 0.0, c), V, c,
                              1e-4, 0.05, snapshot_stride=100)
    assert np.allclose(mrec.times, wrec.times)
    for polar, wave in zip(mrec.states, wrec.states):
        gap = polar.base.values - np.abs(wave.values) ** 2
        assert np.sqrt(g.integrate(gap * gap)) < 1e-9


def test_madelung_gauge_ledger_matches_action_integral():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 2.0)
    rec = madelung_evolve(_at_rest(mu0), V, c, 1e-4, 0.02, snapshot_stride=1)
    lf = _lagrangians(rec, V, c)
    gc = rec.gauge_constant
    running = np.concatenate(([0.0], np.cumsum(0.5 * (lf[1:] + lf[:-1]) * 1e-4)))
    assert abs(gc[-1]) > 1e-3  # the reconciliation is not vacuous
    assert np.max(np.abs(gc - running)) < 1e-9


def test_madelung_restarts_from_a_stored_snapshot():
    # the solver starts from the point type it stores: two halves of the
    # thm21 run, the second started from the first's final snapshot, land
    # on the unbroken run, and their gauge ledgers add up to its ledger
    ctx = execute_config(builtin_config("thm21_equivalence"))
    full, half_time = ctx.record, 0.5 * ctx.config.total_time
    args = (ctx.potential, ctx.constants, ctx.dt, half_time)
    half = madelung_evolve(ctx.initial["point"], *args, snapshot_stride=1250)
    rest = madelung_evolve(half.states[-1], *args, snapshot_stride=1250)
    end, restarted = full.states[-1], rest.states[-1]
    assert np.max(np.abs(restarted.base.values - end.base.values)) < 1e-12
    assert np.max(np.abs(restarted.fiber_potential - end.fiber_potential)) < 1e-12
    ledger = half.gauge_constant[-1] + rest.gauge_constant[-1]
    assert abs(ledger - full.gauge_constant[-1]) < 1e-15


def test_madelung_node_guard():
    # A strong compressive kick drives the density through zero; the
    # integrator must refuse to continue instead of going negative.
    g = Grid(64)
    mu = uniform_density(g)
    kick = TangentBundlePoint(mu, 6.0 * np.cos(g.points))
    with pytest.raises(NodeError):
        madelung_evolve(kick, PotentialField.zero(g), PhysicsConstants(1.0), 1e-3, 1.0)


def test_madelung_energy_guard():
    # dt = 1e-3 is past the RK4 ceiling of mode 80 (hbar k^2 dt / 2 = 3.2 >
    # 2.83), so a 1e-3 ripple at that mode grows about 2.3 times per step
    # while the density stays near uniform: the blow-up guard is what stops
    # the run.  The ripple, not rounding, seeds the growth, so the step at
    # which the guard trips does not depend on the order of operations.
    g = Grid(256)
    mu0 = perturbed_uniform_density(g, 1e-3, mode=80)
    with pytest.raises(StabilityError, match=r"energy grew to .* at t = 0\.005"):
        madelung_evolve(_at_rest(mu0), PotentialField.zero(g),
                        PhysicsConstants(1.0), 1e-3, 0.1, snapshot_stride=1)


@pytest.mark.parametrize("solver, per_step", [("madelung", 9), ("dlss", 19)])
def test_rk4_step_makes_a_fixed_number_of_fft_calls(fft_calls, solver, per_step):
    # a step is four half-spectrum right-hand sides (2 calls each for
    # Madelung; 4 for DLSS, its generator and then the flow) and one inverse
    # transform back to samples, plus the 2 calls of `functionals` in the
    # DLSS descent guard.  A 20-step run minus a 10-step run cancels the
    # set-up and the two recorded snapshots.
    g = Grid(64)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 0.3)
    dt = 1e-5

    def calls(steps):
        before = len(fft_calls)
        if solver == "madelung":
            madelung_evolve(_at_rest(mu0), V, c, dt, steps * dt,
                            snapshot_stride=steps)
        else:
            dlss_evolve(mu0, V, c, dt, steps * dt, snapshot_stride=steps)
        return len(fft_calls) - before

    assert calls(20) - calls(10) == 10 * per_step


def test_buffered_rk4_equals_a_plain_allocating_rk4():
    # the solvers advance in place through kernel-owned buffers; the
    # textbook loop below allocates every stage and builds a fresh kernel
    # for every right-hand side, writing into a fresh buffer (for DLSS the
    # generator, then the flow's density row from a transform of both
    # rows).  Every snapshot and the ledger must agree bit for bit, so a
    # stage buffer overwritten before the final combination, or a kernel
    # that keeps state between calls, fails here.
    g = Grid(64)
    mask = g.dealias_mask[: g.n // 2 + 1]
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    c = PhysicsConstants(0.8)
    v_hat = g.rfft(V.values)
    mu0 = cosine_bump_density(g, np.pi, 0.3)
    steps = 20

    def plain(y, rhs, dt, settle):
        samples = [settle(y, g.irfft(y))]
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            samples.append(settle(y, g.irfft(y)))
        return samples

    ledger = [0.0]

    def regauge(y, x):
        removed = g.integrate(x[1] * x[0])
        x[1] -= removed
        y[1, 0] -= removed * g.n
        ledger.append(ledger[-1] + removed)
        return x

    start = TangentBundlePoint(mu0, 0.3 * np.sin(g.points))
    dt = 1e-3
    expected = plain(g.rfft(np.stack((mu0.values, start.fiber_potential))) * mask,
                     lambda y: flow_kernel(g, v_hat, c.hbar)(y, np.empty_like(y)), dt,
                     regauge)
    rec = madelung_evolve(start, V, c, dt, steps * dt)
    assert len(rec.states) == steps + 1
    for state, x in zip(rec.states, expected):
        assert np.array_equal(state.base.values, x[0])
        assert np.array_equal(state.fiber_potential, x[1])
    assert np.array_equal(rec.gauge_constant, ledger[1:])
    assert not np.array_equal(rec.states[-1].base.values, rec.states[0].base.values)

    def descent(y):
        generator = energy_coefficients(g, y[0], v_hat, c.hbar)
        both = np.stack((y[0], generator))
        return -flow_kernel(g)(both, np.empty_like(both))[:1]

    dt = 1e-5
    expected = plain(g.rfft(mu0.values[None, :]) * mask, descent, dt, lambda y, x: x)
    rec = dlss_evolve(mu0, V, c, dt, steps * dt)
    assert len(rec.states) == steps + 1
    for state, x in zip(rec.states, expected):
        assert np.array_equal(state.values, x[0])
    assert not np.array_equal(rec.states[-1].values, rec.states[0].values)


def test_madelung_stops_at_a_non_finite_phase(monkeypatch):
    # the per-step re-gauging is the one scan of the phase between
    # snapshots: a right-hand side that turns row 1 non-finite in the third
    # step must stop the run at that step, before the NaN reaches the ledger
    calls = []

    def poisoned_kernel(grid, potential, hbar):
        def rates(y, out):
            calls.append(1)
            out[...] = 0.0
            if len(calls) > 8:
                out[1] = np.nan
            return out
        return rates

    monkeypatch.setattr(dynamics, "flow_kernel", poisoned_kernel)
    g = Grid(64)
    with pytest.raises(NonFiniteError, match=r"at t = 0\.003$"):
        madelung_evolve(_at_rest(cosine_bump_density(g, np.pi, 0.3)),
                        PotentialField.zero(g), PhysicsConstants(1.0), 1e-3, 0.01,
                        snapshot_stride=5)
    assert len(calls) == 12


# -- gradient flows ----------------------------------------------------------


def test_heat_single_mode_decay_exact():
    g = Grid(128)
    a = 0.4
    mu0 = perturbed_uniform_density(g, a)
    rec = heat_evolve(mu0, 0.05, 0.5, snapshot_stride=2)
    for t, state in zip(rec.times, rec.states):
        exact = (1.0 + a * np.exp(-t) * np.cos(g.points)) / TAU
        assert np.max(np.abs(state.values - exact)) < 1e-14
    mass = np.array([g.integrate(s.values) for s in rec.states])
    assert np.abs(mass - 1.0).max() < 1e-14


def test_heat_dissipates_entropy_at_fisher_rate():
    g = Grid(128)
    rec = heat_evolve(perturbed_uniform_density(g, 0.3), 1e-3, 0.1)
    V, c = PotentialField.zero(g), PhysicsConstants()
    values = [functionals(s, V, c) for s in rec.states]
    ent = np.array([v.entropy for v in values])
    fis = np.array([v.fisher for v in values])
    assert np.all(np.diff(ent) < 0)
    rate = (ent[2:] - ent[:-2]) / (2e-3)
    rel = np.abs(rate + fis[1:-1]) / fis[1:-1]
    assert rel.max() < 1e-5


def test_dlss_uniform_is_stationary():
    g = Grid(64)
    mu = uniform_density(g)
    rec = dlss_evolve(mu, PotentialField.zero(g), PhysicsConstants(1.0),
                      1e-5, 1e-3, snapshot_stride=10)
    assert np.max(np.abs(rec.states[-1].values - mu.values)) < 1e-12


def test_dlss_descends_and_relaxes_toward_uniform():
    g = Grid(64)
    mu0 = perturbed_uniform_density(g, 0.2, mode=2)
    V, c = PotentialField.zero(g), PhysicsConstants(1.0)
    rec = dlss_evolve(mu0, V, c, 2e-5, 2e-3, snapshot_stride=10)
    hf = np.array([functionals(s, V, c).total_energy for s in rec.states])
    assert np.all(np.diff(hf) <= 1e-10)
    assert hf[-1] < hf[0]
    start_gap = np.max(np.abs(rec.states[0].values - 1.0 / TAU))
    end_gap = np.max(np.abs(rec.states[-1].values - 1.0 / TAU))
    assert end_gap < start_gap


def test_dlss_overlong_step_stops_at_the_density_floor():
    # At 100 times the builtin step the explicit stages overshoot below
    # zero; the log-free Fisher generator keeps them finite, so the run
    # ends at the density-floor guard rather than in a non-finite field.
    g = Grid(64)
    mu0 = perturbed_uniform_density(g, 0.2, mode=2)
    with pytest.raises(NodeError):
        dlss_evolve(mu0, PotentialField.zero(g), PhysicsConstants(1.0), 2e-3, 0.01,
                    snapshot_stride=25)


def test_dlss_rejects_unstable_step():
    g = Grid(64)
    mu0 = perturbed_uniform_density(g, 0.2, mode=2)
    with pytest.raises(StabilityError):
        dlss_evolve(mu0, PotentialField.zero(g), PhysicsConstants(1.0), 1e-3, 0.01)
