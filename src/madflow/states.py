"""Builders for potentials, densities, phases and waves used by scenarios and tests."""

from __future__ import annotations

import sys

import numpy as np

from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     normalize_density)
from .grid import TAU, Grid
from .madelung import polar_wave
from .wgeom import TangentBundlePoint

# Uniform admixture keeping wrapped Gaussians above the admissibility floor.
DEFAULT_GAUSSIAN_FLOOR = 1e-8


def cosine_well(grid: Grid, depth: float, center: float) -> PotentialField:
    """depth (1 - cos(2 pi (x - center)/L)), lowest at `center`."""
    values = depth * (1.0 - np.cos(TAU * (grid.points - center) / grid.length))
    return PotentialField(grid, values)


def uniform_density(grid: Grid) -> DensityField:
    return DensityField(grid, np.full(grid.n, 1.0 / grid.length))


#: a Gaussian exp(-x^2 / (2 w^2)) and its spectrum exp(-w^2 k^2 / 2) fall
#: below double rounding (machine epsilon) of their peaks past this many widths
GAUSSIAN_REACH = float(np.sqrt(-2.0 * np.log(np.finfo(float).eps)))


#: the most periodic images a wrapped Gaussian may sum on each side, ample
#: for a packet spread over a thousand grid lengths
MAX_IMAGES = 10 ** 4


def _wrapped_sum(grid: Grid, center: float, sigma: float, spread: float,
                 width: float, image) -> np.ndarray:
    """The sum over |m| <= M of image(x - center + m L), a Gaussian whose
    modulus has width `spread` and whose spectrum's modulus has width
    `width`, periodic and band-limited in double precision.

    M is the fewest images whose first omitted one lies below machine
    epsilon of the peak on the grid: the least m >= 0 with
    (m + 1) L - max |x - center| >= GAUSSIAN_REACH spread.  ValueError,
    naming `sigma`, if the spectrum at the top wavenumber lies above
    double rounding or M exceeds MAX_IMAGES.
    """
    if np.pi * grid.n / grid.length * width < GAUSSIAN_REACH:
        raise ValueError(f"a Gaussian of sigma {sigma:g} is not resolved on "
                         f"{grid.n} points: its spectrum at the top wavenumber "
                         "lies above double rounding")
    offsets = grid.points - center
    reach = np.abs(offsets).max()
    images = np.ceil((GAUSSIAN_REACH * spread + reach) / grid.length) - 1.0
    if not images <= MAX_IMAGES:
        bound = ((MAX_IMAGES + 1) * grid.length - reach) / GAUSSIAN_REACH
        raise ValueError(f"a Gaussian of sigma {sigma:g} spreads to {spread:g} "
                         f"about center {center:g}, past the spread {bound:g} "
                         f"that {MAX_IMAGES} periodic images hold")
    images = int(images)
    return sum(image(offsets + m * grid.length) for m in range(-images, images + 1))


def wrapped_gaussian_density(grid: Grid, center: float, sigma: float,
                             floor_weight: float = DEFAULT_GAUSSIAN_FLOOR) -> DensityField:
    """Periodized Gaussian bump, mixed with a small uniform component.

    The admixture (weight `floor_weight`) keeps narrow bumps above the
    density floor; pass 0.0 to get the bare periodized Gaussian (only
    admissible for wide bumps).
    """
    if not (0.0 < sigma and np.isfinite(sigma)):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not (0.0 <= floor_weight < 1.0):
        raise ValueError(f"floor weight must lie in [0, 1), got {floor_weight!r}")
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    bump = _wrapped_sum(grid, center, sigma, sigma, sigma,
                        lambda xi: norm * np.exp(-0.5 * (xi / sigma) ** 2))
    bump = bump / grid.integrate(bump)
    mixed = (1.0 - floor_weight) * bump + floor_weight / grid.length
    return normalize_density(grid, mixed)


def cosine_bump_density(grid: Grid, center: float, concentration: float) -> DensityField:
    """exp(kappa cos(x - center)) normalized; smooth and strictly positive."""
    raw = np.exp(concentration * np.cos(2.0 * np.pi * (grid.points - center) / grid.length))
    return normalize_density(grid, raw)


def perturbed_uniform_density(grid: Grid, amplitude: float, mode: int = 1,
                              offset: float = 0.0) -> DensityField:
    """(1 + a cos(2 pi m (x - offset)/L)) / L, requires |a| < 1."""
    if not abs(amplitude) < 1.0:
        raise ValueError(f"perturbation amplitude must satisfy |a| < 1, got {amplitude!r}")
    phase = 2.0 * np.pi * mode * (grid.points - offset) / grid.length
    return normalize_density(grid, 1.0 + amplitude * np.cos(phase))


def sine_phase(grid: Grid, amplitude: float, mode: int = 1, offset: float = 0.0) -> np.ndarray:
    """amplitude * sin(2 pi m (x - offset)/L) as raw phase samples."""
    phase = 2.0 * np.pi * mode * (grid.points - offset) / grid.length
    return amplitude * np.sin(phase)


def plane_wave(grid: Grid, mode: int) -> WaveField:
    """exp(i 2 pi m x / L) / sqrt(L); winds m times around zero."""
    values = np.exp(2j * np.pi * mode * grid.points / grid.length) / np.sqrt(grid.length)
    return WaveField(grid, values)


def free_gaussian_wave(grid: Grid, center: float, sigma0: float,
                       constants: PhysicsConstants, time: float) -> WaveField:
    """Closed-form free evolution of a periodized Gaussian wave packet.

    Line solution with complex width alpha(t) = 1 + i hbar t / (2 sigma0^2),
    summed over periodic images and normalized.  At time 0 this is the real
    square root of the bare wrapped Gaussian; the density variance grows as
    sigma0^2 + (hbar t / (2 sigma0))^2.  Each image's modulus is a Gaussian
    of width sqrt(2) sigma0 |alpha(t)|, which sets how many images time t
    sums, while its spectrum's modulus keeps the width of time 0.
    """
    if not sys.float_info.min <= sigma0 * sigma0 <= sys.float_info.max:
        raise ValueError(f"sigma must have a finite, normal square, got {sigma0!r}")
    alpha = 1.0 + 0.5j * constants.hbar * time / sigma0 ** 2
    prefactor = (2.0 * np.pi * sigma0 ** 2) ** -0.25 / np.sqrt(alpha)
    values = _wrapped_sum(
        grid, center, sigma0, np.sqrt(2.0) * sigma0 * abs(alpha), np.sqrt(2.0) * sigma0,
        lambda xi: prefactor * np.exp(-xi ** 2 / (4.0 * sigma0 ** 2 * alpha)))
    return WaveField.normalized(grid, values)


# -- random admissible states -----------------------------------------------


def random_zero_mean(grid: Grid, rng: np.random.Generator, modes: int = 4,
                     amplitude: float = 0.5) -> np.ndarray:
    """Random band-limited field with vanishing plain mean."""
    out = np.zeros(grid.n)
    base = 2.0 * np.pi * grid.points / grid.length
    for m in range(1, modes + 1):
        a, b = rng.normal(scale=amplitude / m, size=2)
        out += a * np.cos(m * base) + b * np.sin(m * base)
    return out


def random_density(grid: Grid, rng: np.random.Generator, modes: int = 4,
                   amplitude: float = 0.5) -> DensityField:
    """exp of a random band-limited field, normalized; spectrally clean."""
    return normalize_density(grid, np.exp(random_zero_mean(grid, rng, modes, amplitude)))


def random_wave(grid: Grid, rng: np.random.Generator,
                constants: PhysicsConstants, modes: int = 4,
                density_amplitude: float = 0.5,
                phase_amplitude: float = 0.3) -> WaveField:
    """Nowhere-vanishing unit wave with random smooth density and phase."""
    point = TangentBundlePoint(random_density(grid, rng, modes, density_amplitude),
                               random_zero_mean(grid, rng, modes, phase_amplitude))
    return WaveField.normalized(grid, polar_wave(point, constants))
