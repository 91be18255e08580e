"""Polar (hydrodynamic) description of waves and the maps between pictures.

madelung_transform sends a nowhere-vanishing unit wave to its point of the
tangent bundle: the density and hbar times the unwrapped phase, whose
tangent vector is the density velocity the wave induces; polar_wave maps
a point back, and madelung_section is the right inverse pinning the phase
value at the reference point.  The module also carries the wave-side
energy and symplectic form, and the pullback defect, taken through the
section's exact differential, that verifies the transform intertwines the
two symplectic structures.  The constant phase shifts by which the
Madelung and Schrödinger flows differ are not corrected here: the
Madelung solver's stored phases carry them, each phase's mu-mean is its
gauge ledger, and the `phase_correction_ledger` check reconciles that
ledger with the running action integral.
"""

from __future__ import annotations

import numpy as np

from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     unwrapped_phase)
from .grid import Grid
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint, TangentVector,
                    symplectic_form)


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


def submersion_pullback_defect(point: TangentBundlePoint,
                               a: StandardVectorFieldSpec,
                               b: StandardVectorFieldSpec,
                               constants: PhysicsConstants) -> float:
    """|omega_wave(section_* V_a, section_* V_b) - (1/hbar) omega(V_a, V_b)|.

    The differential of the section pinned at phase 0 sends the standard
    vector field (psi, phi) to
    wave * (mu_dot / (2 mu) + i (phi - phi(0)) / hbar), with
    mu_dot = -d/dx(mu dpsi/dx) the density rate of the flow along psi.
    The defect is zero up to rounding.
    """
    wave = madelung_section(point, 0.0, constants).values
    tangents = [wave * (TangentVector(point.base, spec.psi).divergence_form
                        / (2.0 * point.base.values)
                        + 1j * (spec.phi - spec.phi[0]) / constants.hbar)
                for spec in (a, b)]
    wave_side = complex_symplectic_form(point.grid, tangents[0], tangents[1])
    bundle_side = symplectic_form(point, a, b) / constants.hbar
    return abs(wave_side - bundle_side)
