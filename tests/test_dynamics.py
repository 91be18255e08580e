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
    PhaseField,
    PhysicsConstants,
    PotentialField,
    StabilityError,
)
from madflow.dynamics import (
    TrajectoryRecord,
    dlss_evolve,
    heat_evolve,
    madelung_evolve,
    schrodinger_evolve,
)
from madflow.madelung import PolarDecomposition, madelung_section
from madflow.states import (
    cosine_bump_density,
    gaussian_wave,
    perturbed_uniform_density,
    plane_wave,
    uniform_density,
)

TAU = 2 * np.pi


def _zero_phase(g, mu):
    return PhaseField.mean_zero(g, np.zeros(g.n), mu)


# -- record container --------------------------------------------------------


def test_trajectory_record_validation():
    g = Grid(16)
    mu = uniform_density(g)
    good = TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu),
                            {"mass": np.array([1.0, 1.0])})
    assert good.states == (mu, mu)
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu,), {"mass": np.array([1.0, 1.0])})
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([1.0, 0.5]), (mu, mu), {"mass": np.array([1.0, 1.0])})
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu), {"energy": np.array([1.0, 1.0])})
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu), {"mass": np.array([1.0, 1.1])})
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), (mu, mu),
                         {"mass": np.array([1.0, 1.0]), "extra": np.array([1.0])})


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
    rec = schrodinger_evolve(gaussian_wave(g, np.pi, 0.5), V, c, 1e-3, 0.2,
                             snapshot_stride=20)
    assert np.abs(rec.observables["mass"] - 1.0).max() < 1e-12
    hs = rec.observables["h_s"]
    assert np.abs(hs - hs[0]).max() / abs(hs[0]) < 1e-7


# -- polar-coordinate solver -------------------------------------------------


def test_madelung_uniform_rest_state_is_stationary():
    g = Grid(128)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    rec = madelung_evolve(mu, _zero_phase(g, mu), PotentialField.zero(g),
                          c, 1e-3, 0.05, snapshot_stride=10)
    final = rec.states[-1]
    assert isinstance(final, PolarDecomposition)
    assert np.max(np.abs(final.density.values - mu.values)) < 1e-14
    assert np.max(np.abs(final.phase.values)) < 1e-14
    assert np.abs(rec.observables["gauge_constant"]).max() < 1e-14


def test_madelung_constant_potential_feeds_the_ledger():
    # Uniform rest state under V = c: the phase equation removes -c dt per
    # step into the gauge ledger, and the Lagrangian is identically -c, so
    # ledger(t) = -c t exactly and l_f = -c.
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    V = PotentialField(g, np.full(g.n, 0.8))
    rec = madelung_evolve(mu, _zero_phase(g, mu), V, c, 1e-3, 0.1, snapshot_stride=20)
    assert np.max(np.abs(rec.observables["gauge_constant"] - (-0.8 * rec.times))) < 1e-12
    assert np.max(np.abs(rec.observables["l_f"] + 0.8)) < 1e-12
    assert np.max(np.abs(rec.observables["h_f"] - 0.8)) < 1e-12


def test_madelung_pinned_input_enters_ledger_on_conversion():
    g = Grid(64)
    c = PhysicsConstants(1.0)
    mu = uniform_density(g)
    pinned = PhaseField.pinned(g, np.cos(g.points) + 1.5, 2.5)
    mean = g.integrate(pinned.values * mu.values)
    rec = madelung_evolve(mu, pinned, PotentialField.zero(g), c, 1e-3, 0.002)
    assert abs(rec.observables["gauge_constant"][0] - mean) < 1e-12


def test_madelung_tracks_the_wave_solver():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 2.0)
    ph0 = _zero_phase(g, mu0)
    mrec = madelung_evolve(mu0, ph0, V, c, 1e-4, 0.05, snapshot_stride=100)
    wrec = schrodinger_evolve(madelung_section(mu0, ph0, 0.0, c), V, c,
                              1e-4, 0.05, snapshot_stride=100)
    assert np.allclose(mrec.times, wrec.times)
    for polar, wave in zip(mrec.states, wrec.states):
        gap = polar.density.values - np.abs(wave.values) ** 2
        assert np.sqrt(g.integrate(gap * gap)) < 1e-9


def test_madelung_gauge_ledger_matches_action_integral():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, 1.0 - np.cos(g.points - np.pi))
    mu0 = cosine_bump_density(g, np.pi, 2.0)
    rec = madelung_evolve(mu0, _zero_phase(g, mu0), V, c, 1e-4, 0.02, snapshot_stride=1)
    lf = rec.observables["l_f"]
    gc = rec.observables["gauge_constant"]
    running = np.concatenate(([0.0], np.cumsum(0.5 * (lf[1:] + lf[:-1]) * 1e-4)))
    assert abs(gc[-1]) > 1e-3  # the reconciliation is not vacuous
    assert np.max(np.abs(gc - running)) < 1e-9


def test_madelung_node_guard():
    # A strong compressive kick drives the density through zero; the
    # integrator must refuse to continue instead of going negative.
    g = Grid(64)
    mu = uniform_density(g)
    kick = PhaseField.mean_zero(g, 6.0 * np.cos(g.points), mu)
    with pytest.raises(NodeError):
        madelung_evolve(mu, kick, PotentialField.zero(g), PhysicsConstants(1.0),
                        1e-3, 1.0)


# -- gradient flows ----------------------------------------------------------


def test_heat_single_mode_decay_exact():
    g = Grid(128)
    a = 0.4
    mu0 = perturbed_uniform_density(g, a)
    rec = heat_evolve(mu0, 0.05, 0.5, snapshot_stride=2)
    for t, state in zip(rec.times, rec.states):
        exact = (1.0 + a * np.exp(-t) * np.cos(g.points)) / TAU
        assert np.max(np.abs(state.values - exact)) < 1e-14
    assert np.abs(rec.observables["mass"] - 1.0).max() < 1e-14


def test_heat_dissipates_entropy_at_fisher_rate():
    g = Grid(128)
    rec = heat_evolve(perturbed_uniform_density(g, 0.3), 1e-3, 0.1)
    ent = rec.observables["entropy"]
    fis = rec.observables["fisher"]
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
    rec = dlss_evolve(mu0, PotentialField.zero(g), PhysicsConstants(1.0),
                      2e-5, 2e-3, snapshot_stride=10)
    hf = rec.observables["h_f"]
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
