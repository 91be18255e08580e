"""Field types on the periodic grid, the transport pairing and the functionals.

A density is admissible when it is strictly positive (above a small floor
relative to the uniform level) and integrates to one; a wave is admissible
when it has unit L2 norm.  `metric_pairing`, int da/dx db/dx dmu, is the one
form that the metric, the symplectic form and the Fisher information read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import AliasError, NodeError, WindingError
from .grid import Grid

# Admissibility floor for densities, relative to the uniform level 1/length.
FLOOR_RELATIVE = 1e-12

# Construction tolerances.
MASS_TOL = 1e-12
NORM_TOL = 1e-12

# A neighbouring phase step at least this large cannot be unwrapped reliably.
PHASE_STEP_LIMIT = np.pi / 2


def density_floor(grid: Grid) -> float:
    return FLOOR_RELATIVE / grid.length


def _frozen_copy(values, dtype) -> np.ndarray:
    v = np.array(values, dtype=dtype, copy=True)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class PhysicsConstants:
    """Physical constants of a run (only the quantum of action here)."""

    hbar: float = 1.0

    def __post_init__(self) -> None:
        # the energies scale with hbar^2, which must be a finite, normal double
        square = float(self.hbar) * float(self.hbar)
        if not (self.hbar > 0.0 and sys.float_info.min <= square <= sys.float_info.max):
            raise ValueError(f"hbar must be positive with a finite, normal square, "
                             f"got {self.hbar!r}")


@dataclass(frozen=True)
class PotentialField:
    """External potential sampled on the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.grid.check_values(self.values)
        if np.iscomplexobj(v):
            raise ValueError("potential must be real valued")
        object.__setattr__(self, "values", _frozen_copy(v, float))

    @classmethod
    def zero(cls, grid: Grid) -> "PotentialField":
        return cls(grid, np.zeros(grid.n))


@dataclass(frozen=True)
class DensityField:
    """Strictly positive probability density with unit mass."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.grid.check_values(self.values)
        if np.iscomplexobj(v):
            raise ValueError("density must be real valued")
        v = np.asarray(v, dtype=float)
        floor = density_floor(self.grid)
        if v.min() < floor:
            raise NodeError(
                f"density reaches {v.min():.3e}, below the admissibility floor {floor:.3e}"
            )
        mass = self.grid.integrate(v)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"density mass is {mass!r}, expected 1 within {MASS_TOL}")
        object.__setattr__(self, "values", _frozen_copy(v, float))


def normalize_density(grid: Grid, raw_values) -> DensityField:
    """Scale strictly positive samples to unit mass.

    Raises NodeError if any sample is non-positive or ends up below the
    admissibility floor after scaling.
    """
    v = grid.check_values(raw_values)
    if np.iscomplexobj(v):
        raise ValueError("density must be real valued")
    if v.min() <= 0.0:
        raise NodeError(f"raw density has non-positive samples (min {v.min():.3e})")
    return DensityField(grid, v / grid.integrate(v))


@dataclass(frozen=True)
class WaveField:
    """Complex field with unit L2 norm."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.grid.check_values(self.values)
        v = np.asarray(v, dtype=complex)
        norm_sq = self.grid.integrate(np.abs(v) ** 2)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"wave norm squared is {norm_sq!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "values", _frozen_copy(v, complex))

    @classmethod
    def normalized(cls, grid: Grid, raw_values) -> "WaveField":
        v = np.asarray(grid.check_values(raw_values), dtype=complex)
        norm_sq = grid.integrate(np.abs(v) ** 2)
        if not norm_sq > 0.0:
            raise ValueError("cannot normalize the zero wave")
        return cls(grid, v / np.sqrt(norm_sq))

    @property
    def min_modulus(self) -> float:
        return float(np.abs(self.values).min())

    def is_nowhere_vanishing(self) -> bool:
        """Membership in the admissible class (modulus above sqrt of the floor)."""
        return self.min_modulus > np.sqrt(density_floor(self.grid))


# -- the transport pairing and the scalar functionals ------------------------


def _integrals(grid: Grid, values: np.ndarray) -> np.ndarray:
    """`Grid.integrate` of each row along the last axis, kept as a length-1 axis."""
    return grid.spacing * values.sum(axis=-1, keepdims=True)


def metric_pairing(grid: Grid, mu: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_mu = int da/dx db/dx dmu, the transport metric on potentials, row by row.

    Stacks (..., n) broadcast; the result keeps a length-1 last axis.  Every
    transform and sum (`_integrals`, the stacked rectangle rule) runs along
    the last axis, so each row is bit for bit the one-row value.  Unchecked.
    """
    slope = grid.apply_symbol(a, grid.derivative_symbol)
    other = slope if b is a else grid.apply_symbol(b, grid.derivative_symbol)
    return _integrals(grid, slope * other * mu)


@dataclass(frozen=True)
class FunctionalValues:
    """Values of the standard functionals at one density."""

    entropy: float
    fisher: float
    potential_energy: float
    total_energy: float


def functionals(mu: DensityField, potential: PotentialField,
                constants: PhysicsConstants) -> FunctionalValues:
    """Entropy, Fisher information, potential energy and their combination.

    entropy = int mu log mu dx
    fisher = <log mu, log mu>_mu, the squared norm of the entropy gradient
    total_energy = int V mu dx + (hbar^2 / 8) * fisher
    """
    g = mu.grid
    if potential.grid is not g and potential.grid != g:
        raise ValueError("potential and density live on different grids")
    log_mu = np.log(mu.values)
    entropy = g.integrate(mu.values * log_mu)
    fisher = float(metric_pairing(g, mu.values, log_mu, log_mu)[0])
    potential_energy = g.integrate(potential.values * mu.values)
    total = potential_energy + 0.125 * constants.hbar ** 2 * fisher
    return FunctionalValues(entropy, fisher, potential_energy, total)


# -- phase unwrapping and winding -------------------------------------------


def cyclic_phase_steps(psi: WaveField) -> np.ndarray:
    """Principal-value phase increments between cyclic neighbours.

    Raises NodeError if the modulus reaches the admissible floor and
    AliasError if any increment has magnitude >= pi/2.
    """
    if not psi.is_nowhere_vanishing():
        raise NodeError(
            f"wave modulus reaches {psi.min_modulus:.3e}; phase is not resolvable"
        )
    theta = np.angle(psi.values)
    steps = np.angle(np.exp(1j * np.diff(theta, append=theta[0])))
    worst = float(np.abs(steps).max())
    if worst >= PHASE_STEP_LIMIT:
        raise AliasError(
            f"neighbouring phase step of {worst:.3f} rad >= pi/2; grid too coarse"
        )
    return steps


def unwrapped_phase(psi: WaveField) -> np.ndarray:
    """Single-valued phase accumulated from x = 0 (requires zero winding)."""
    steps = cyclic_phase_steps(psi)
    winding = int(np.rint(float(steps.sum()) / (2.0 * np.pi)))
    if winding != 0:
        raise WindingError(f"wave has winding {winding}; no single-valued phase exists")
    theta0 = float(np.angle(psi.values[0]))
    return theta0 + np.concatenate(([0.0], np.cumsum(steps[:-1])))
