"""Polar (hydrodynamic) description of waves and the maps between pictures.

madelung_transform sends a nowhere-vanishing unit wave to its density,
unwrapped phase and the induced density velocity; madelung_section is the
right inverse pinning the phase value at the reference point.  The module
also carries the wave-side energy and symplectic form, and the finite
difference pullback defect used to verify that the transform intertwines
the two symplectic structures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dataclasses import dataclass

from .fields import (DensityField, PhaseField, PhysicsConstants, PotentialField,
                     WaveField, check_mean_zero, lagrangian, unwrapped_phase)
from .grid import Grid
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint, TangentVector,
                    fisher_generator, pushforward_density, symplectic_form)


@dataclass(frozen=True)
class PolarDecomposition:
    """Density and single-valued phase of a nowhere-vanishing wave."""

    density: DensityField
    phase: PhaseField
    hbar: float

    def wave_values(self) -> np.ndarray:
        """sqrt(mu) * exp(i S / hbar), the wave this pair represents."""
        return np.sqrt(self.density.values) * np.exp(1j * self.phase.values / self.hbar)


def madelung_transform(psi: WaveField, constants: PhysicsConstants
                       ) -> tuple[PolarDecomposition, TangentVector]:
    """Split a wave into (density, phase) and the velocity it induces.

    The phase is hbar times the unwrapped argument, returned pinned at its
    actual value at x = 0; the tangent vector is the transported density
    variation -d/dx(mu dS/dx).  Raises NodeError / AliasError /
    WindingError when no admissible single-valued phase exists.
    """
    g = psi.grid
    theta = unwrapped_phase(psi)
    phase_values = constants.hbar * theta
    mu = DensityField(g, np.abs(psi.values) ** 2)
    phase = PhaseField(g, phase_values, "pinned", float(phase_values[0]))
    return PolarDecomposition(mu, phase, constants.hbar), TangentVector(mu, phase_values)


def madelung_section(mu: DensityField, phase: PhaseField, reference: float,
                     constants: PhysicsConstants) -> WaveField:
    """Wave sqrt(mu) exp(i (S - (S(0) - r)) / hbar) with phase r at x = 0.

    `reference` must lie in [0, 2 pi hbar); composing with
    madelung_transform recovers (mu, S) up to the pinning constant.
    """
    two_pi_hbar = 2.0 * np.pi * constants.hbar
    if not (0.0 <= reference < two_pi_hbar):
        raise ValueError(f"reference phase must lie in [0, {two_pi_hbar!r}), got {reference!r}")
    g = mu.grid
    shifted = phase.values - (phase.values[0] - reference)
    values = np.sqrt(mu.values) * np.exp(1j * shifted / constants.hbar)
    return WaveField(g, values)


def quantum_potential(mu: DensityField, constants: PhysicsConstants) -> np.ndarray:
    """(hbar^2/8) (|d log mu|^2 - 2 lap(mu)/mu), the zero-point pressure term."""
    return 0.125 * constants.hbar ** 2 * fisher_generator(mu.grid, mu.values)


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


def global_phase_distance(a: WaveField, b: WaveField) -> float:
    """L2 distance between the waves minimized over a global phase factor."""
    g = a.grid
    overlap = abs(g.integrate(a.values * np.conj(b.values)))
    na = g.integrate(np.abs(a.values) ** 2)
    nb = g.integrate(np.abs(b.values) ** 2)
    return float(np.sqrt(max(na + nb - 2.0 * overlap, 0.0)))


def phase_correction(phases: Sequence[PhaseField], densities: Sequence[DensityField],
                     potential: PotentialField, constants: PhysicsConstants,
                     timestep: float) -> list[PhaseField]:
    """Add the running action integral to a mean-zero phase trajectory.

    Input phases must be mean_zero with respect to the matching densities
    (GaugeError otherwise).  Output phases are S + int_0^t L ds with the
    Lagrangian L evaluated along the trajectory, returned pinned-style
    (no re-zeroing).
    """
    if len(phases) != len(densities) or not phases:
        raise ValueError("need matching non-empty phase and density trajectories")
    if not timestep > 0.0:
        raise ValueError(f"timestep must be positive, got {timestep!r}")
    for phase, mu in zip(phases, densities):
        check_mean_zero(phase, mu)
    lag = np.array([
        lagrangian(TangentVector(mu, phase.values), potential, constants)
        for phase, mu in zip(phases, densities)
    ])
    running = np.concatenate(([0.0], np.cumsum(0.5 * (lag[1:] + lag[:-1]) * timestep)))
    out = []
    for phase, shift in zip(phases, running):
        values = phase.values + shift
        out.append(PhaseField(phase.grid, values, "pinned", float(values[0])))
    return out


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
        mu_t = pushforward_density(mu, spec.psi, t)
        phase_values = fiber + t * spec.phi
        phase = PhaseField(g, phase_values, "pinned", float(phase_values[0]))
        return madelung_section(mu_t, phase, reference, constants).values

    tangents = []
    for spec in (a, b):
        forward = section_values(spec, step)
        backward = section_values(spec, -step)
        tangents.append((forward - backward) / (2.0 * step))
    wave_side = complex_symplectic_form(g, tangents[0], tangents[1])
    bundle_side = symplectic_form(point, a, b) / constants.hbar
    return abs(wave_side - bundle_side)
