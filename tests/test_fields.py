"""Field types, functionals and the state builders.

Functional oracles used below:
  * flat density 1/L: entropy = -log L, fisher = 0
  * mu = (1 + b cos x)/(2 pi):  fisher = 1 - sqrt(1 - b^2)  (closed form),
    entropy = -1.773238934388858 for b = 1/2 (independent adaptive
    quadrature of the continuum integrand, abs err < 2e-14)
  * mu ~ exp(k cos x): fisher = k * I1(k)/I0(k),
    entropy = k * I1(k)/I0(k) - log(2 pi I0(k))  (Bessel identities), with
    I_nu(k) = (1/2 pi) int exp(k cos t) cos(nu t) dt by the periodic
    trapezoid rule on 64 nodes, whose first aliased term I_{nu+64}(k) is
    below 1e-60 for k <= 4
"""

import numpy as np
import pytest

from madflow import (
    DensityField,
    Grid,
    NodeError,
    PhysicsConstants,
    PotentialField,
    WaveField,
)
from madflow.errors import AliasError, WindingError
from madflow.fields import (
    cyclic_phase_steps,
    density_floor,
    functionals,
    normalize_density,
    unwrapped_phase,
)
from madflow.states import (
    cosine_bump_density,
    free_gaussian_wave,
    perturbed_uniform_density,
    plane_wave,
    random_density,
    random_wave,
    random_zero_mean,
    sine_phase,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.wgeom import lagrangian, solve_velocity_potential

TAU = 2 * np.pi


def _bessel_i(order: int, kappa: float) -> float:
    """Modified Bessel function I_order(kappa), to rounding for kappa <= 4."""
    theta = TAU * np.arange(64) / 64
    return float(np.mean(np.exp(kappa * np.cos(theta)) * np.cos(order * theta)))


def test_physics_constants_validation():
    assert PhysicsConstants().hbar == 1.0
    assert PhysicsConstants(0.5).hbar == 0.5
    with pytest.raises(ValueError):
        PhysicsConstants(0.0)
    with pytest.raises(ValueError):
        PhysicsConstants(np.nan)
    # hbar^2 must be a finite, normal double: 1e154^2 overflows, 1e-155^2
    # is subnormal; numpy scalars must not warn on the way
    assert PhysicsConstants(1e150).hbar == 1e150
    assert PhysicsConstants(1e-150).hbar == 1e-150
    for hbar in (1e155, 1e-155, np.float64(1e200), np.float64(1e-300), np.inf):
        with pytest.raises(ValueError, match="finite, normal square"):
            PhysicsConstants(hbar)


def test_potential_field():
    g = Grid(32)
    V = PotentialField(g, np.cos(g.points))
    assert not V.values.flags.writeable
    assert np.max(np.abs(PotentialField.zero(g).values)) == 0.0
    with pytest.raises(ValueError):
        PotentialField(g, np.exp(1j * g.points))


def test_density_field_admissibility():
    g = Grid(64)
    uniform = DensityField(g, np.full(64, 1 / TAU))
    assert uniform.values.min() > density_floor(g) == 1e-12 / TAU
    with pytest.raises(ValueError):
        DensityField(g, np.full(64, 1.0))  # mass 2 pi, not 1
    bad = np.full(64, 1 / TAU)
    bad[5] = -0.1
    bad[6] += 0.1  # restore the mass; sign is the problem
    with pytest.raises(NodeError):
        DensityField(g, bad)


def test_normalize_density():
    g = Grid(64)
    mu = normalize_density(g, 2.0 + np.cos(g.points))
    assert abs(g.integrate(mu.values) - 1.0) < 1e-14
    with pytest.raises(NodeError):
        normalize_density(g, np.cos(g.points))  # touches zero and below


def test_wave_field_normalization():
    g = Grid(64)
    with pytest.raises(ValueError):
        WaveField(g, np.ones(64, dtype=complex))
    psi = WaveField.normalized(g, np.ones(64, dtype=complex))
    assert abs(g.integrate(np.abs(psi.values) ** 2) - 1.0) < 1e-14
    assert abs(psi.min_modulus - 1 / np.sqrt(TAU)) < 1e-14
    assert psi.is_nowhere_vanishing()
    node = WaveField.normalized(g, np.sin(g.points).astype(complex))
    assert not node.is_nowhere_vanishing()


def test_functionals_uniform():
    g = Grid(256)
    vals = functionals(uniform_density(g), PotentialField(g, np.cos(g.points) + 2.0),
                       PhysicsConstants())
    assert abs(vals.entropy + np.log(TAU)) < 1e-13
    assert abs(vals.fisher) < 1e-20
    assert abs(vals.potential_energy - 2.0) < 1e-13
    assert abs(vals.total_energy - 2.0) < 1e-13


def test_functionals_cosine_perturbation():
    g = Grid(256)
    mu = perturbed_uniform_density(g, 0.5)
    vals = functionals(mu, PotentialField.zero(g), PhysicsConstants())
    assert abs(vals.fisher - (1.0 - np.sqrt(0.75))) < 1e-12
    assert abs(vals.entropy - (-1.773238934388858)) < 1e-12


def test_functionals_von_mises():
    g = Grid(256)
    for kappa in (0.5, 2.0, 4.0):
        mu = cosine_bump_density(g, 1.0, kappa)
        vals = functionals(mu, PotentialField.zero(g), PhysicsConstants())
        ratio = _bessel_i(1, kappa) / _bessel_i(0, kappa)
        assert abs(vals.fisher - kappa * ratio) < 1e-10
        expected_entropy = kappa * ratio - np.log(TAU * _bessel_i(0, kappa))
        assert abs(vals.entropy - expected_entropy) < 1e-10


def test_functionals_hbar_weighting():
    g = Grid(128)
    mu = perturbed_uniform_density(g, 0.3)
    V = PotentialField(g, np.sin(g.points))
    low = functionals(mu, V, PhysicsConstants(1.0))
    high = functionals(mu, V, PhysicsConstants(2.0))
    assert abs(high.total_energy - low.potential_energy - 0.5 * low.fisher) < 1e-13
    assert high.fisher == low.fisher  # fisher itself carries no hbar


def test_wrapped_gaussian_fisher_matches_line_formula():
    # For sigma well inside the period the wrap and the uniform admixture
    # are negligible and fisher -> 1/sigma^2.
    g = Grid(256)
    mu = wrapped_gaussian_density(g, np.pi, 0.3)
    vals = functionals(mu, PotentialField.zero(g), PhysicsConstants())
    assert abs(vals.fisher - 1 / 0.09) / (1 / 0.09) < 1e-6


def test_lagrangian_kinetic_minus_energy():
    g = Grid(128)
    mu = uniform_density(g)
    tangent = solve_velocity_potential(mu, -g.laplacian(np.sin(g.points)) / TAU)
    V = PotentialField(g, np.full(g.n, 0.7))
    val = lagrangian(tangent, V, PhysicsConstants())
    # kinetic: phi = sin(x), int cos^2 / (2 pi) = 1/2, halved -> 1/4
    assert abs(val - (0.25 - 0.7)) < 1e-12


def test_state_builders_are_admissible():
    g = Grid(128)
    rng = np.random.default_rng(5)
    for mu in (uniform_density(g),
               wrapped_gaussian_density(g, 2.0, 0.4),
               cosine_bump_density(g, 0.5, 3.0),
               perturbed_uniform_density(g, 0.8, mode=3, offset=1.0),
               random_density(g, rng)):
        assert isinstance(mu, DensityField)
    with pytest.raises(ValueError):
        perturbed_uniform_density(g, 1.0)
    with pytest.raises(ValueError):
        wrapped_gaussian_density(g, 0.0, -0.1)
    with pytest.raises(ValueError):
        wrapped_gaussian_density(g, 0.0, 0.3, floor_weight=1.0)


def test_wrapped_gaussian_needs_floor_when_narrow():
    g = Grid(256)
    with pytest.raises(NodeError):
        wrapped_gaussian_density(g, np.pi, 0.3, floor_weight=0.0)
    mu = wrapped_gaussian_density(g, np.pi, 0.3)  # default admixture
    assert mu.values.min() > density_floor(g)


def test_sine_phase_and_perturbed_uniform_formulas():
    g = Grid(64, 3.0)
    x = g.points
    assert np.allclose(sine_phase(g, 0.7, mode=2, offset=0.5),
                       0.7 * np.sin(2 * TAU * (x - 0.5) / 3.0))
    mu = perturbed_uniform_density(g, 0.25, mode=2, offset=0.5)
    expected = (1 + 0.25 * np.cos(2 * TAU * (x - 0.5) / 3.0)) / 3.0
    assert np.max(np.abs(mu.values - expected)) < 1e-14


def test_plane_wave_and_winding():
    g = Grid(128)
    for m in (0, 1, -2, 5):
        psi = plane_wave(g, m)
        assert abs(g.integrate(np.abs(psi.values) ** 2) - 1.0) < 1e-13
        if m == 0:
            unwrapped_phase(psi)
        else:
            with pytest.raises(WindingError, match=f"winding {m}"):
                unwrapped_phase(psi)


def test_unwrapped_phase_recovers_smooth_phase():
    g = Grid(128)
    theta = 0.4 * np.sin(3 * g.points) + 1.2
    psi = WaveField.normalized(g, np.exp(1j * theta) * (2 + np.cos(g.points)))
    rec = unwrapped_phase(psi)
    assert np.max(np.abs(rec - theta)) < 1e-12


def test_phase_resolution_guards():
    g = Grid(64)
    # steps of ~2.5 rad between neighbours cannot be unwrapped
    wild = WaveField.normalized(g, np.exp(1.6j * np.sin(16 * g.points)))
    with pytest.raises(AliasError):
        cyclic_phase_steps(wild)
    node = WaveField.normalized(g, np.sin(g.points).astype(complex))
    with pytest.raises(NodeError):
        cyclic_phase_steps(node)


def test_free_gaussian_wave_time_zero_and_spreading():
    g = Grid(256)
    c = PhysicsConstants(1.0)
    psi0 = free_gaussian_wave(g, np.pi, 0.35, c, 0.0)
    bare = np.zeros(g.n)
    for m in range(-6, 7):
        bare += np.exp(-0.5 * ((g.points - np.pi + m * TAU) / 0.35) ** 2)
    bare /= g.integrate(bare)
    assert np.max(np.abs(np.abs(psi0.values) ** 2 - bare)) < 1e-10
    # variance of the density grows per the closed-form width law; the
    # tails wrapped around the circle shift the second moment at ~1e-5
    psi_t = free_gaussian_wave(g, np.pi, 0.35, c, 0.4)
    var = g.integrate((g.points - np.pi) ** 2 * np.abs(psi_t.values) ** 2)
    expected = 0.35 ** 2 + (0.4 / (2 * 0.35)) ** 2
    assert abs(var - expected) / expected < 1e-4


def _sixty_image_packet(g, center, sigma0, hbar, t):
    """The free packet at time t summed term by term over |m| <= 60."""
    alpha = 1.0 + 0.5j * hbar * t / sigma0 ** 2
    prefactor = (2.0 * np.pi * sigma0 ** 2) ** -0.25 / np.sqrt(alpha)
    values = np.zeros(g.n, dtype=complex)
    for m in range(-60, 61):
        xi = g.points - center + m * g.length
        values += prefactor * np.exp(-xi ** 2 / (4.0 * sigma0 ** 2 * alpha))
    return WaveField.normalized(g, values).values


@pytest.mark.parametrize("n, center, sigma0, hbar, t", [
    # the free_gaussian builtin at its snapshots, and its n = 4096 variant
    (256, np.pi, 0.35, 1.0, 0.0), (256, np.pi, 0.35, 1.0, 0.15),
    (256, np.pi, 0.35, 1.0, 0.3), (4096, np.pi, 0.35, 1.0, 0.1),
])
def test_builtin_free_packet_sums_its_images_bit_for_bit(n, center, sigma0, hbar, t):
    got = free_gaussian_wave(Grid(n), center, sigma0, PhysicsConstants(hbar), t).values
    assert got.tobytes() == _sixty_image_packet(Grid(n), center, sigma0, hbar, t).tobytes()


@pytest.mark.parametrize("n, center, sigma0, hbar, t", [
    (256, 0.0, 0.2, 1.0, 5.0),    # narrow and spread over the whole circle
    (256, np.pi, 2.0, 1.0, 0.0),  # wide already at time 0
    (256, 1.0, 3.0, 0.5, 12.0),
    (64, 5.5, 0.6, 1.0, 15.0),
    (256, 20.0, 0.35, 1.0, 0.7),  # centered about three lengths off the grid
])
def test_free_packet_derives_its_images_from_its_spread(n, center, sigma0, hbar, t):
    # the omitted images lie below double rounding of the peak; what is
    # left is the rounding of the sums and of the normalization
    got = free_gaussian_wave(Grid(n), center, sigma0, PhysicsConstants(hbar), t).values
    reference = _sixty_image_packet(Grid(n), center, sigma0, hbar, t)
    peak = np.abs(reference).max()
    assert np.abs(got - reference).max() <= 8 * np.finfo(float).eps * peak


def test_random_builders_reproducible():
    g = Grid(64)
    f1 = random_zero_mean(g, np.random.default_rng(42), modes=3)
    f2 = random_zero_mean(g, np.random.default_rng(42), modes=3)
    assert np.array_equal(f1, f2)
    assert abs(g.integrate(f1)) < 1e-13
    # band limited: modes above 3 carry nothing
    coef = np.fft.fft(f1)
    assert np.max(np.abs(coef[4:g.n - 3])) < 1e-10

    c = PhysicsConstants(1.0)
    psi = random_wave(g, np.random.default_rng(9), c)
    assert psi.is_nowhere_vanishing()
    unwrapped_phase(psi)  # zero winding, or WindingError
    psi2 = random_wave(g, np.random.default_rng(9), c)
    assert np.array_equal(psi.values, psi2.values)
