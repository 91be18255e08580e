"""Polar (hydrodynamic) description of waves and the maps between pictures.

madelung_transform sends a nowhere-vanishing unit wave to its point of the
tangent bundle: the density and hbar times the unwrapped phase, whose
tangent vector is the density velocity the wave induces; polar_wave maps
a point back, and madelung_section is the right inverse pinning the phase
value at the reference point.  The module also carries the wave-side
energy and symplectic form, the phase correction that adds the running
action integral to a trajectory of mean-zero points, and the finite
difference pullback defect used to verify that the transform intertwines
the two symplectic structures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import GaugeError
from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     unwrapped_phase)
from .grid import Grid
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint, lagrangian,
                    pushforward_density, symplectic_form)

# Largest base-weighted fiber mean that `phase_correction` accepts as zero.
GAUGE_TOL = 1e-10


def polar_wave(point: TangentBundlePoint, constants: PhysicsConstants) -> np.ndarray:
    """sqrt(mu) * exp(i S / hbar), the wave values the point (mu, S) represents."""
    return np.sqrt(point.base.values) * np.exp(1j * point.fiber_potential / constants.hbar)


def madelung_transform(psi: WaveField, constants: PhysicsConstants) -> TangentBundlePoint:
    """The point (|psi|^2, hbar * unwrapped argument of psi) of the bundle.

    The phase keeps its actual value at x = 0; the point's tangent is the
    transported density variation -d/dx(mu dS/dx).  Raises NodeError /
    AliasError / WindingError when no admissible single-valued phase exists.
    """
    return TangentBundlePoint(DensityField(psi.grid, np.abs(psi.values) ** 2),
                              constants.hbar * unwrapped_phase(psi))


def madelung_section(point: TangentBundlePoint, reference: float,
                     constants: PhysicsConstants) -> WaveField:
    """Wave sqrt(mu) exp(i (S - (S(0) - r)) / hbar) of the point (mu, S),
    with phase r at x = 0.

    `reference` must lie in [0, 2 pi hbar); composing with
    madelung_transform recovers (mu, S) up to the pinning constant.
    """
    two_pi_hbar = 2.0 * np.pi * constants.hbar
    if not (0.0 <= reference < two_pi_hbar):
        raise ValueError(f"reference phase must lie in [0, {two_pi_hbar!r}), got {reference!r}")
    fiber = point.fiber_potential
    pinned = TangentBundlePoint(point.base, fiber - (fiber[0] - reference))
    return WaveField(point.grid, polar_wave(pinned, constants))


def complex_symplectic_form(grid: Grid, f_values, g_values) -> float:
    """-2 int Im(F conj(G)) dx on complex fields."""
    f = np.asarray(grid.check_values(f_values), dtype=complex)
    h = np.asarray(grid.check_values(g_values), dtype=complex)
    return grid.integrate(-2.0 * np.imag(f * np.conj(h)))


def wave_hamiltonian(psi: WaveField, potential: PotentialField,
                     constants: PhysicsConstants) -> float:
    """(hbar^2/2) int |dpsi|^2 dx + int |psi|^2 V dx."""
    g = psi.grid
    dpsi = g.derivative(psi.values)
    kinetic = 0.5 * constants.hbar ** 2 * g.integrate(np.abs(dpsi) ** 2)
    return kinetic + g.integrate(np.abs(psi.values) ** 2 * potential.values)


def phase_correction(points: Sequence[TangentBundlePoint], potential: PotentialField,
                     constants: PhysicsConstants, timestep: float) -> list[TangentBundlePoint]:
    """Add the running action integral to a trajectory of mean-zero points.

    Each fiber must have base-weighted mean zero within GAUGE_TOL
    (GaugeError otherwise).  The output fibers are S + int_0^t L ds with
    the Lagrangian L evaluated along the trajectory (no re-zeroing).
    """
    if not points:
        raise ValueError("need a non-empty trajectory of points")
    if not timestep > 0.0:
        raise ValueError(f"timestep must be positive, got {timestep!r}")
    for point in points:
        mean = point.grid.integrate(point.fiber_potential * point.base.values)
        if abs(mean) > GAUGE_TOL:
            raise GaugeError(f"fiber has weighted mean {mean:.3e}, beyond {GAUGE_TOL}")
    lag = np.array([lagrangian(p.tangent, potential, constants) for p in points])
    running = np.concatenate(([0.0], np.cumsum(0.5 * (lag[1:] + lag[:-1]) * timestep)))
    return [TangentBundlePoint(p.base, p.fiber_potential + shift)
            for p, shift in zip(points, running)]


def submersion_pullback_defect(point: TangentBundlePoint,
                               a: StandardVectorFieldSpec,
                               b: StandardVectorFieldSpec,
                               constants: PhysicsConstants,
                               step: float = 1e-4,
                               reference: float = 0.0) -> float:
    """|omega_wave(section_* V_a, section_* V_b) - (1/hbar) omega(V_a, V_b)|.

    Each standard vector field is realized as a curve through the bundle
    point (base pushed along psi, fiber tilted by phi), mapped to the wave
    side through the pinned section, and differentiated centrally with the
    given step.  The defect vanishes as step^2 for resolved states.
    """
    g = point.grid
    mu = point.base
    fiber = point.fiber_potential

    def section_values(spec: StandardVectorFieldSpec, t: float) -> np.ndarray:
        moved = TangentBundlePoint(pushforward_density(mu, spec.psi, t), fiber + t * spec.phi)
        return madelung_section(moved, reference, constants).values

    tangents = []
    for spec in (a, b):
        forward = section_values(spec, step)
        backward = section_values(spec, -step)
        tangents.append((forward - backward) / (2.0 * step))
    wave_side = complex_symplectic_form(g, tangents[0], tangents[1])
    bundle_side = symplectic_form(point, a, b) / constants.hbar
    return abs(wave_side - bundle_side)
