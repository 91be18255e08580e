"""Wave <-> polar correspondence, wave-side energy and symplectic form."""

import numpy as np
import pytest

from madflow import Grid, PhysicsConstants, PotentialField
from madflow.errors import GaugeError
from madflow.madelung import (
    complex_symplectic_form,
    madelung_section,
    madelung_transform,
    phase_correction,
    polar_wave,
    submersion_pullback_defect,
    wave_hamiltonian,
)
from madflow.states import (
    cosine_bump_density,
    plane_wave,
    random_density,
    random_wave,
    random_zero_mean,
    uniform_density,
)
from madflow.wgeom import (
    StandardVectorFieldSpec,
    TangentBundlePoint,
    fisher_generator,
    hamiltonian,
)

TAU = 2 * np.pi


def test_transform_round_trip():
    g = Grid(128)
    c = PhysicsConstants(1.0)
    psi = random_wave(g, np.random.default_rng(1), c)
    point = madelung_transform(psi, c)
    assert np.max(np.abs(polar_wave(point, c) - psi.values)) < 1e-12
    assert np.max(np.abs(point.base.values - np.abs(psi.values) ** 2)) < 1e-14
    # the tangent potential is the gauge-fixed phase
    fiber = point.fiber_potential
    fixed = fiber - g.integrate(fiber * point.base.values)
    assert np.max(np.abs(point.tangent.potential - fixed)) < 1e-12


def test_transform_scales_phase_with_hbar():
    g = Grid(128)
    theta = 0.3 * np.sin(g.points)
    mu = cosine_bump_density(g, 0.0, 1.0)
    for hbar in (0.5, 2.0):
        c = PhysicsConstants(hbar)
        psi_values = np.sqrt(mu.values) * np.exp(1j * theta)
        from madflow.fields import WaveField
        point = madelung_transform(WaveField(g, psi_values), c)
        assert np.max(np.abs(point.fiber_potential - hbar * theta)) < 1e-12


def test_section_is_right_inverse():
    g = Grid(128)
    c = PhysicsConstants(1.0)
    mu = cosine_bump_density(g, 2.0, 1.5)
    raw_phase = 0.4 * np.sin(g.points) + 0.2 * np.cos(2 * g.points)
    start = TangentBundlePoint(mu, raw_phase)
    for ref in (0.0, 1.0, 6.0):
        psi = madelung_section(start, ref, c)
        assert abs(np.angle(psi.values[0]) % TAU - ref % TAU) < 1e-10
        point = madelung_transform(psi, c)
        assert np.max(np.abs(point.base.values - mu.values)) < 1e-13
        # phases agree up to the pinning constant
        diff = point.fiber_potential - raw_phase
        assert np.max(np.abs(diff - diff[0])) < 1e-12


def test_section_reference_validation():
    g = Grid(64)
    mu = uniform_density(g)
    rest = TangentBundlePoint(mu, np.zeros(g.n))
    with pytest.raises(ValueError):
        madelung_section(rest, -0.1, PhysicsConstants(1.0))
    with pytest.raises(ValueError):
        madelung_section(rest, TAU, PhysicsConstants(1.0))
    # the admissible window scales with hbar
    madelung_section(rest, 3.0 * np.pi, PhysicsConstants(2.0))


def _quantum_potential(mu, c):
    # (hbar^2/8)(|dlogmu|^2 - 2 lap mu/mu), the zero-point pressure term
    return 0.125 * c.hbar ** 2 * fisher_generator(mu.grid, mu.values)


def test_quantum_potential_closed_form():
    g = Grid(256)
    kappa = 1.5
    mu = cosine_bump_density(g, 0.0, kappa)
    c = PhysicsConstants(2.0)
    x = g.points
    expected = 0.125 * 4.0 * (2 * kappa * np.cos(x) - kappa ** 2 * np.sin(x) ** 2)
    assert np.max(np.abs(_quantum_potential(mu, c) - expected)) < 1e-9


def test_quantum_potential_curvature_identity():
    # (hbar^2/8)(|dlogmu|^2 - 2 lap mu/mu) = -(hbar^2/2) lap(sqrt mu)/sqrt mu
    g = Grid(256)
    mu = random_density(g, np.random.default_rng(8), modes=3)
    c = PhysicsConstants(1.0)
    root = np.sqrt(mu.values)
    other = -0.5 * g.laplacian(root) / root
    assert np.max(np.abs(_quantum_potential(mu, c) - other)) < 1e-8


def test_complex_symplectic_form():
    g = Grid(64)
    f = plane_wave(g, 0).values
    assert abs(complex_symplectic_form(g, f, 1j * f) - 2.0) < 1e-13
    h = plane_wave(g, 2).values
    ab = complex_symplectic_form(g, f, h)
    ba = complex_symplectic_form(g, h, f)
    assert abs(ab + ba) < 1e-13
    assert abs(complex_symplectic_form(g, f, f)) < 1e-13


def test_wave_hamiltonian_plane_wave():
    g = Grid(256)
    V = PotentialField(g, 0.3 + np.cos(g.points))
    for m in (1, 4):
        psi = plane_wave(g, m)
        for hbar in (1.0, 0.5):
            h = wave_hamiltonian(psi, V, PhysicsConstants(hbar))
            assert abs(h - (0.5 * hbar ** 2 * m ** 2 + 0.3)) < 1e-12


def test_hamiltonians_agree_through_the_transform():
    g = Grid(256)
    V = PotentialField(g, 1.0 - np.cos(g.points))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        c = PhysicsConstants((0.5, 1.0, 2.0)[seed % 3])
        psi = random_wave(g, rng, c)
        h_wave = wave_hamiltonian(psi, V, c)
        h_flow = hamiltonian(madelung_transform(psi, c), V, c)
        assert abs(h_wave - h_flow) < 1e-10 * abs(h_flow)


def test_phase_correction_constant_potential():
    # With mu uniform and S = 0 the Lagrangian is -V0: the corrected fiber
    # ramps linearly downward while the density never moves.
    g = Grid(64)
    mu = uniform_density(g)
    c = PhysicsConstants(1.0)
    V = PotentialField(g, np.full(g.n, 0.8))
    n_steps = 5
    dt = 0.1
    points = [TangentBundlePoint(mu, np.zeros(g.n))] * n_steps
    out = phase_correction(points, V, c, dt)
    for k, point in enumerate(out):
        assert point.base is mu
        assert np.max(np.abs(point.fiber_potential - (-0.8 * k * dt))) < 1e-12


def test_phase_correction_validation():
    g = Grid(64)
    mu = uniform_density(g)
    c = PhysicsConstants(1.0)
    V = PotentialField.zero(g)
    zero = TangentBundlePoint(mu, np.zeros(g.n))
    with pytest.raises(ValueError):
        phase_correction([], V, c, 0.1)
    with pytest.raises(ValueError):
        phase_correction([zero], V, c, 0.0)
    crooked = TangentBundlePoint(mu, np.cos(g.points) + 1.0)
    with pytest.raises(GaugeError):
        phase_correction([crooked], V, c, 0.1)


def _pullback_trial(g, trial):
    rng = np.random.default_rng(40 + trial)
    c = PhysicsConstants((0.5, 1.0, 2.0)[trial])
    mu = random_density(g, rng, modes=3, amplitude=0.4)
    point = TangentBundlePoint(mu, random_zero_mean(g, rng, modes=3, amplitude=0.4))
    a = StandardVectorFieldSpec(g, random_zero_mean(g, rng, modes=3, amplitude=0.4),
                                random_zero_mean(g, rng, modes=3, amplitude=0.4))
    b = StandardVectorFieldSpec(g, random_zero_mean(g, rng, modes=3, amplitude=0.4),
                                random_zero_mean(g, rng, modes=3, amplitude=0.4))
    return point, a, b, c


def test_submersion_pullback_defect_small():
    g = Grid(256)
    for trial in range(3):
        assert submersion_pullback_defect(*_pullback_trial(g, trial)) < 1e-6


def test_submersion_pullback_defect_is_second_order_in_step():
    # central differences: halving the step quarters the defect
    g = Grid(256)
    steps = (8e-4, 4e-4, 2e-4, 1e-4)
    for trial in range(3):
        args = _pullback_trial(g, trial)
        defects = [submersion_pullback_defect(*args, step=h) for h in steps]
        ratios = np.array(defects[:-1]) / np.array(defects[1:])
        assert np.all((ratios >= 3.9) & (ratios <= 4.1)), ratios
