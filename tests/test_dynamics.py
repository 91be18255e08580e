"""Solvers: wave splitting, polar-coordinate integration, gradient flows.

The wave splitting is exact (up to roundoff) whenever the potential
commutes with itself along the step, so plane waves under a constant
potential make a machine-precision oracle.  The heat semigroup acts
diagonally on modes: (1 + a e^{-t} cos x)/2pi is an exact trajectory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    STATE_FIELDS,
    TrajectoryRecord,
    dlss_evolve,
    heat_evolve,
    madelung_evolve,
    schrodinger_evolve,
)
from madflow.fields import DensityField, functionals, normalize_density
from madflow.madelung import madelung_section, madelung_transform, wave_hamiltonian
from madflow.scenarios import builtin_config, execute_config
from madflow.states import (
    cosine_bump_density,
    free_gaussian_wave,
    perturbed_uniform_density,
    plane_wave,
    random_density,
    random_zero_mean,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.wgeom import (StandardVectorFieldSpec, TangentBundlePoint, flow_kernel,
                           green_operator, hamiltonian, lagrangian, symplectic_form)

TAU = 2 * np.pi


def _states(rec):
    """The validated state of each row of a record."""
    return [rec.state(i) for i in range(len(rec.times))]


def _at_rest(mu):
    return TangentBundlePoint(mu, np.zeros(mu.grid.n))


def _lagrangians(rec, V, c):
    """L_F of each polar snapshot, with the phase as velocity potential."""
    return np.array([lagrangian(s.tangent, V, c) for s in _states(rec)])


def _ledgers(rec):
    """The gauge ledger of each polar snapshot: the integral of S dmu of its row."""
    return np.array([rec.grid.integrate(row[1] * row[0]) for row in rec.data])


# -- record container --------------------------------------------------------


def _density_pair(g):
    mu = uniform_density(g).values
    return np.stack([[mu], [mu]])


@pytest.mark.parametrize("times, kind, rows", [
    ([0.0, 1.0], "density", slice(0, 1)),  # a row count other than the times'
    ([0.0, 1.0], "polar", slice(None)),  # one field where a polar state has two
    ([0.0, 1.0], "density", (slice(None), slice(None), slice(0, 8))),  # wrong n
    ([1.0, 0.5], "density", slice(None)),  # times not increasing
    ([0.0, 1.0], "wavelet", slice(None)),  # no such kind
], ids=["rows", "fields", "n", "times", "kind"])
def test_trajectory_record_validation(times, kind, rows):
    g = Grid(16)
    with pytest.raises(ValueError):
        TrajectoryRecord(g, np.array(times), kind, _density_pair(g)[rows])


def test_trajectory_record_data_is_read_only():
    g = Grid(16)
    data = np.ones((1, 1, 16)) / TAU
    rec = TrajectoryRecord(g, np.array([0.0]), "density", data)
    assert not rec.data.flags.writeable
    with pytest.raises(ValueError):
        rec.data[0, 0, 0] = 0.0


@pytest.mark.parametrize("kind", ["wave", "polar", "density"])
def test_trajectory_record_state_returns_the_stored_row_bit_for_bit(kind):
    g = Grid(32)
    density = (1.0 + 0.3 * np.cos(g.points)) / TAU
    phase = 0.4 * np.sin(g.points)
    wave = np.sqrt(density) * np.exp(1j * phase)
    wave[3] = complex(-0.0, wave[3].imag)  # a signed zero survives the round trip
    wave /= np.sqrt(g.integrate(np.abs(wave) ** 2))
    fields = {"wave": (wave.real, wave.imag), "polar": (density, phase),
              "density": (density,)}[kind]
    data = np.stack([fields, fields])
    rec = TrajectoryRecord(g, np.array([0.0, 0.5]), kind, data)
    state = rec.state(1)
    stored = {"wave": lambda: (state.values.real, state.values.imag),
              "polar": lambda: (state.base.values, state.fiber_potential),
              "density": lambda: (state.values,)}[kind]()
    assert len(stored) == len(STATE_FIELDS[kind])
    for got, row in zip(stored, data[1]):
        assert got.tobytes() == row.tobytes()


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
        "name": "static", "grid": {"n": 16}, "initial_state": {"kind": "random_density"},
        "integrator": {"solver": "static", "dt": dt, "total_time": T,
                       "snapshot_stride": stride}})
    records = [schrodinger_evolve(plane_wave(g, 1), V, c, dt, T, stride),
               madelung_evolve(_at_rest(mu), V, c, dt, T, stride),
               heat_evolve(mu, dt, T, stride),
               dlss_evolve(mu, V, c, dt, T, stride),
               scenarios._trials(config, lambda k: mu.values)]
    assert list(dynamics._snapshot_rows("density", g, dt, T, stride)[1]) == marks
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
    err = np.sqrt(g.integrate(np.abs(rec.state(-1).values - expected) ** 2))
    assert err < 1e-12


def test_schrodinger_hbar_enters_dispersion():
    g = Grid(128)
    V = PotentialField.zero(g)
    psi0 = plane_wave(g, 3)
    T = 0.1
    for hbar in (0.5, 2.0):
        rec = schrodinger_evolve(psi0, V, PhysicsConstants(hbar), 1e-3, T)
        expected = psi0.values * np.exp(-1j * hbar * 4.5 * T)
        assert np.max(np.abs(rec.state(-1).values - expected)) < 1e-12


def test_schrodinger_conserves_mass_and_energy():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    psi0 = WaveField.normalized(g, np.sqrt(wrapped_gaussian_density(g, np.pi, 0.5).values))
    rec = schrodinger_evolve(psi0, V, c, 1e-3, 0.2, snapshot_stride=20)
    mass = np.array([g.integrate(np.abs(s.values) ** 2) for s in _states(rec)])
    assert np.abs(mass - 1.0).max() < 1e-12
    hs = np.array([wave_hamiltonian(s, V, c) for s in _states(rec)])
    assert np.abs(hs - hs[0]).max() / abs(hs[0]) < 1e-7


# -- polar-coordinate solver -------------------------------------------------


def test_madelung_uniform_rest_state_is_stationary():
    g = Grid(128)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    rec = madelung_evolve(_at_rest(mu), PotentialField.zero(g),
                          c, 1e-3, 0.05, snapshot_stride=10)
    final = rec.state(-1)
    assert isinstance(final, TangentBundlePoint)
    assert np.max(np.abs(final.base.values - mu.values)) < 1e-14
    assert np.max(np.abs(final.fiber_potential)) < 1e-14
    assert np.abs(_ledgers(rec)).max() < 1e-14


def test_madelung_constant_potential_feeds_the_ledger():
    # Uniform rest state under V = c: the phase equation lowers the stored
    # phase by c dt per step, so the phase and its mu-mean, the gauge
    # ledger, read -c t, and the Lagrangian is identically -c, so l_f = -c.
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    V = PotentialField(g, np.full(g.n, 0.8))
    rec = madelung_evolve(_at_rest(mu), V, c, 1e-3, 0.1, snapshot_stride=20)
    assert np.max(np.abs(rec.data[:, 1] + 0.8 * rec.times[:, None])) < 1e-12
    assert np.max(np.abs(_ledgers(rec) - (-0.8 * rec.times))) < 1e-12
    assert np.max(np.abs(_lagrangians(rec, V, c) + 0.8)) < 1e-12
    h_f = [hamiltonian(s, V, c) for s in _states(rec)]
    assert np.max(np.abs(np.array(h_f) - 0.8)) < 1e-12


def test_madelung_pinned_input_enters_ledger_on_conversion():
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    raw = np.cos(g.points) + 1.5
    shifted = TangentBundlePoint(mu, raw - (raw[0] - 2.5))  # the phase pinned to 2.5 at x = 0
    mean = g.integrate(shifted.fiber_potential * mu.values)
    rec = madelung_evolve(shifted, PotentialField.zero(g), c, 1e-3, 0.002)
    assert abs(_ledgers(rec)[0] - mean) < 1e-12


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
    for polar, wave in zip(_states(mrec), _states(wrec)):
        gap = polar.base.values - np.abs(wave.values) ** 2
        assert np.sqrt(g.integrate(gap * gap)) < 1e-9


def test_madelung_gauge_ledger_matches_action_integral():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 2.0)
    rec = madelung_evolve(_at_rest(mu0), V, c, 1e-4, 0.02, snapshot_stride=1)
    lf = _lagrangians(rec, V, c)
    gc = _ledgers(rec)
    running = np.concatenate(([0.0], np.cumsum(0.5 * (lf[1:] + lf[:-1]) * 1e-4)))
    assert abs(gc[-1]) > 1e-3  # the reconciliation is not vacuous
    assert np.max(np.abs(gc - running)) < 1e-9


def test_madelung_restarts_from_a_stored_snapshot():
    # the solver starts from the point type it stores: two halves of the
    # thm21 run, the second started from the first's final snapshot, land
    # on the unbroken run's stored phase, so the second half continues the
    # absolute gauge ledger
    ctx = execute_config(builtin_config("thm21_equivalence"))
    full, half_time = ctx.record, 0.5 * ctx.config.total_time
    args = (ctx.potential, ctx.constants, ctx.dt, half_time)
    half = madelung_evolve(ctx.initial["point"], *args, snapshot_stride=1250)
    rest = madelung_evolve(half.state(-1), *args, snapshot_stride=1250)
    end, restarted = full.state(-1), rest.state(-1)
    assert np.max(np.abs(restarted.base.values - end.base.values)) < 1e-12
    assert np.max(np.abs(restarted.fiber_potential - end.fiber_potential)) < 1e-12
    assert abs(_ledgers(rest)[-1] - _ledgers(full)[-1]) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-10.0, 10.0), mark=st.integers(0, 3))
def test_madelung_record_is_blind_to_the_phase_constant_and_restarts(seed, shift, mark):
    # the rates read the phase only through its gradient, so a constant
    # added to the start moves no density and no gauged fiber and enters the
    # ledger whole; and a run restarted from any stored snapshot lands on
    # the unbroken run and continues its ledger
    g = Grid(64)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    rng = np.random.default_rng(seed)
    mu, phase = random_density(g, rng), random_zero_mean(g, rng)
    dt, stride, steps = 1e-3, 5, 20
    full = madelung_evolve(TangentBundlePoint(mu, phase), V, c, dt, steps * dt, stride)
    moved = madelung_evolve(TangentBundlePoint(mu, phase + shift), V, c, dt, steps * dt, stride)
    for a, b in zip(_states(full), _states(moved)):
        assert np.max(np.abs(a.base.values - b.base.values)) <= 1e-12
        assert np.max(np.abs(a.tangent.potential - b.tangent.potential)) <= 1e-12
    assert np.max(np.abs(_ledgers(moved) - _ledgers(full) - shift)) <= 1e-13

    rest = madelung_evolve(full.state(mark), V, c, dt, (steps - mark * stride) * dt, stride)
    assert np.max(np.abs(rest.state(-1).base.values - full.state(-1).base.values)) <= 1e-12
    assert abs(_ledgers(rest)[-1] - _ledgers(full)[-1]) <= 1e-13


def test_madelung_node_guard():
    # A strong compressive kick drives the density through zero; the
    # integrator must refuse to continue instead of going negative.
    g = Grid(64)
    mu = uniform_density(g)
    kick = TangentBundlePoint(mu, 6.0 * np.cos(g.points))
    with pytest.raises(NodeError):
        madelung_evolve(kick, PotentialField.zero(g), PhysicsConstants(1.0), 1e-3, 1.0)


@pytest.mark.parametrize("depth, message", [
    (0.0, r"energy grew to .* at t = 0\.005 "),
    (-1.0, r"energy grew to 6\.372e\+03 at t = 0\.008 "),
    (1.0, r"energy grew to 6\.372e\+03 at t = 0\.008 ")])
def test_madelung_energy_guard(depth, message):
    # dt = 1e-3 is past the RK4 ceiling of mode 80 (hbar k^2 dt / 2 = 3.2 >
    # 2.83), so a 1e-3 ripple at that mode grows about 2.3 times per step
    # while the density stays near uniform: the blow-up guard is what stops
    # the run.  The ripple, not rounding, seeds the growth, so the step at
    # which the guard trips does not depend on the order of operations.  The
    # guard reads the Hamiltonian at |V|, so wells of depth -1 and +1 (band
    # limited, so the 2/3 rule keeps them whole) trip at one energy.
    g = Grid(256)
    mu0 = perturbed_uniform_density(g, 1e-3, mode=80)
    V = PotentialField(g, depth * np.cos(g.points))
    with pytest.raises(StabilityError, match=message):
        madelung_evolve(_at_rest(mu0), V, PhysicsConstants(1.0), 1e-3, 0.1, snapshot_stride=1)


def _free_packet_gaps(stride: int = 250):
    """Largest gaps over the stored rows of a V = 0 Madelung run from a free
    Gaussian packet against the Madelung transform of its closed form: the
    L2 gaps of the density, of the phase after the mu-mean gauge and of the
    raw stored phase, and the gap of the gauge ledger, the integral of
    S dmu.  The closed form's phase at x = 0 stays on the branch the run
    starts from (it reads 1.0812 at t = 0.25), so the raw phases compare
    without a 2 pi hbar correction."""
    g = Grid(256)
    c = PhysicsConstants(1.0)
    dt, total = 1e-4, 0.25
    rec = madelung_evolve(madelung_transform(free_gaussian_wave(g, np.pi, 0.7, c, 0.0), c),
                          PotentialField.zero(g), c, dt, total, snapshot_stride=stride)
    density = phase = raw = ledger = 0.0
    for i, t in enumerate(rec.times):
        exact = madelung_transform(free_gaussian_wave(g, np.pi, 0.7, c, t), c)
        got = rec.state(i)
        density = max(density, np.sqrt(g.integrate((got.base.values - exact.base.values) ** 2)))
        phase = max(phase, np.sqrt(g.integrate((got.tangent.potential
                                                - exact.tangent.potential) ** 2)))
        raw = max(raw, np.sqrt(g.integrate((got.fiber_potential - exact.fiber_potential) ** 2)))
        ledger = max(ledger, abs(g.integrate(got.fiber_potential * got.base.values)
                                 - g.integrate(exact.fiber_potential * exact.base.values)))
    return density, phase, raw, ledger


def test_madelung_solver_follows_the_free_packet_closed_form(flow_mutant):
    # the hydrodynamic solver against a closed form, at V = 0 and hbar = 1:
    # rounding-level clean, the absolute phase and its ledger too, and a
    # kinetic coefficient off by 2e-4 or a quantum pressure off by 1e-4
    # moves the phase by orders more
    density, phase, raw, ledger = _free_packet_gaps()
    assert density <= 1e-13
    assert phase <= 1e-11
    assert raw <= 1e-11
    assert ledger <= 1e-13
    for kind, scale in (("pressure", 1.0001), ("kinetic", 1.0 + 2e-4)):
        with flow_mutant(kind, scale):
            assert _free_packet_gaps()[1] >= 1e-6
    # a constant 1e-6 off the phase rate moves no gradient, so the gauged
    # phase stays clean; only the absolute phase (6.3e-7 in L2) and its
    # ledger (2.5e-7) see it
    with flow_mutant("offset", 1e-6):
        _, phase, raw, ledger = _free_packet_gaps()
    assert phase <= 1e-11
    assert raw >= 1e-7
    assert ledger >= 1e-7


def _symplectic_defect(seed: int = 0, eps: float = 1e-5) -> float:
    """|omega_T - omega_0| / |omega_0| for the Madelung flow map at n = 64 over
    T = 0.5: the tangents a and b are central differences of runs from
    z +- eps a and z +- eps b, and omega is `symplectic_form` with psi the
    Green operator of the density tangent and phi the phase tangent, which
    is the canonical int (dmu_a dS_b - dmu_b dS_a) dx."""
    g, c = Grid(64), PhysicsConstants(1.0)
    x = g.points
    V = PotentialField(g, g.dealias(-np.cos(x - 1.0)))
    mu0 = normalize_density(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2.0 * x)).values
    s0 = 0.4 * np.sin(x + 0.3)
    rng = np.random.default_rng(seed)
    starts = [np.stack([random_zero_mean(g, rng, 3, 1.0) for _ in range(2)]) for _ in "ab"]

    def flow(start):  # the last (mu, S) row
        point = TangentBundlePoint(DensityField(g, start[0]), start[1])
        return madelung_evolve(point, V, c, 1e-3, 0.5, snapshot_stride=500).data[-1]

    def omega(mu, a, b):
        spec_a, spec_b = (StandardVectorFieldSpec(g, green_operator(g, mu, d[0]), d[1])
                          for d in (a, b))
        return symplectic_form(TangentBundlePoint(DensityField(g, mu), s0), spec_a, spec_b)

    z = np.stack((mu0, s0))
    ends = [(flow(z + eps * d), flow(z - eps * d)) for d in starts]
    (a_plus, a_minus), (b_plus, b_minus) = ends
    tangents = [(plus - minus) / (2.0 * eps) for plus, minus in ends]
    before = omega(mu0, *starts)
    after = omega(0.5 * (a_plus[0] + a_minus[0]), *tangents)
    return abs(after - before) / abs(before)


def test_madelung_flow_preserves_the_symplectic_form(flow_mutant):
    # a Hamiltonian flow preserves omega (Poincare): clean reads 5.7e-10,
    # set by the finite differences; a kinetic or a density flux
    # coefficient off by 2e-4 is no Hamiltonian flow and reads 4.6e-5
    assert _symplectic_defect() <= 1e-8
    for kind in ("kinetic", "flux"):
        with flow_mutant(kind, 1.0 + 2e-4):
            assert _symplectic_defect() >= 1e-5


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
    # the solvers fill four rate buffers through one kernel that owns its
    # transform buffers, and advance the coefficients in place; the loop
    # below allocates every rate and builds a fresh kernel for every
    # right-hand side, writing into a fresh buffer (for DLSS the flow's
    # phase rate at rest, then its density row along that rate, two full
    # flow kernels).  Every snapshot must agree bit for bit, so a rate
    # buffer overwritten before the final combination, or a kernel that
    # keeps state between calls, fails here.
    g = Grid(64)
    mask = g.dealias_mask[: g.n // 2 + 1]
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    c = PhysicsConstants(0.8)
    v_hat = g.rfft(V.values)
    mu0 = cosine_bump_density(g, np.pi, 0.3)
    steps = 20

    def plain(y, rhs, dt):
        samples = [g.irfft(y)]
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            samples.append(g.irfft(y))
        return samples

    start = TangentBundlePoint(mu0, 0.3 * np.sin(g.points))
    dt = 1e-3
    expected = plain(g.rfft(np.stack((mu0.values, start.fiber_potential))) * mask,
                     lambda y: flow_kernel(g, v_hat, c.hbar)(y, np.empty_like(y)), dt)
    rec = madelung_evolve(start, V, c, dt, steps * dt)
    assert len(rec.times) == steps + 1
    for state, x in zip(_states(rec), expected):
        assert np.array_equal(state.base.values, x[0])
        assert np.array_equal(state.fiber_potential, x[1])
    assert not np.array_equal(rec.state(-1).base.values, rec.state(0).base.values)

    def descent(y):
        at_rest = np.stack((y[0], np.zeros_like(y[0])))
        rate = flow_kernel(g, v_hat, c.hbar)(at_rest, np.empty_like(at_rest))[1]
        both = np.stack((y[0], rate))
        return flow_kernel(g)(both, np.empty_like(both))[:1]

    dt = 1e-5
    expected = plain(g.rfft(mu0.values[None, :]) * mask, descent, dt)
    rec = dlss_evolve(mu0, V, c, dt, steps * dt)
    assert len(rec.times) == steps + 1
    for state, x in zip(_states(rec), expected):
        assert np.array_equal(state.values, x[0])
    assert not np.array_equal(rec.state(-1).values, rec.state(0).values)


@pytest.mark.parametrize("row", [pytest.param(0, id="density"), pytest.param(1, id="phase")])
def test_madelung_stops_at_a_non_finite_row(monkeypatch, row):
    # a right-hand side that turns a row non-finite in the third step must
    # stop the run at that step: a NaN density is named non-finite, not a
    # floor breach (NaN fails the floor test too), and the stepper's scan
    # of every row stops a NaN phase between snapshots, before it reaches
    # the ledger
    calls = []

    def poisoned_kernel(grid, potential, hbar):
        def rates(y, out):
            calls.append(1)
            out[...] = 0.0
            if len(calls) > 8:
                out[row] = np.nan
            return out
        return rates

    monkeypatch.setattr(dynamics, "flow_kernel", poisoned_kernel)
    g = Grid(64)
    with pytest.raises(NonFiniteError,
                       match=r"state reached a non-finite value at step 3, t = 0\.003$"):
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
    for t, state in zip(rec.times, _states(rec)):
        exact = (1.0 + a * np.exp(-t) * np.cos(g.points)) / TAU
        assert np.max(np.abs(state.values - exact)) < 1e-14
    mass = np.array([g.integrate(s.values) for s in _states(rec)])
    assert np.abs(mass - 1.0).max() < 1e-14


def test_heat_dissipates_entropy_at_fisher_rate():
    g = Grid(128)
    rec = heat_evolve(perturbed_uniform_density(g, 0.3), 1e-3, 0.1)
    V, c = PotentialField.zero(g), PhysicsConstants()
    values = [functionals(s, V, c) for s in _states(rec)]
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
    assert np.max(np.abs(rec.state(-1).values - mu.values)) < 1e-12


def test_dlss_descends_and_relaxes_toward_uniform():
    g = Grid(64)
    mu0 = perturbed_uniform_density(g, 0.2, mode=2)
    V, c = PotentialField.zero(g), PhysicsConstants(1.0)
    rec = dlss_evolve(mu0, V, c, 2e-5, 2e-3, snapshot_stride=10)
    hf = np.array([functionals(s, V, c).total_energy for s in _states(rec)])
    assert np.all(np.diff(hf) <= 1e-10)
    assert hf[-1] < hf[0]
    start_gap = np.max(np.abs(rec.state(0).values - 1.0 / TAU))
    end_gap = np.max(np.abs(rec.state(-1).values - 1.0 / TAU))
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
