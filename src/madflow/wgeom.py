"""Calculus on the space of unit-mass densities over the circle.

A tangent vector at a density mu is represented by its velocity potential
phi, normalized so that the mu-weighted mean of phi vanishes; the same
vector in divergence form is -d/dx(mu dphi/dx).  The weighted Poisson
solve inverts that correspondence in closed form (double spectral
antiderivative), which is what makes the metric, gradients and the
symplectic form cheap and exact in one dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import BaseMismatchError, CompatibilityError, FoldError
from .fields import (DensityField, PhysicsConstants, PotentialField,
                     functionals, normalize_density)
from .grid import Grid

# Net-mass tolerance for admissible density variations.
SOURCE_MASS_TOL = 1e-10

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 60


def _same_base(a: DensityField, b: DensityField) -> bool:
    return a is b or (a.grid == b.grid and np.array_equal(a.values, b.values))


@dataclass(frozen=True)
class TangentVector:
    """Density variation at `base`, stored through its velocity potential.

    The potential handed to the constructor is shifted so that its
    base-weighted mean vanishes (gauge fixing is re-applied on every
    construction).  The divergence form is derived on demand.
    """

    base: DensityField
    potential: np.ndarray

    def __post_init__(self) -> None:
        g = self.base.grid
        v = np.asarray(g.check_values(self.potential), dtype=float)
        shift = g.integrate(v * self.base.values)
        v = v - shift
        v.setflags(write=False)
        object.__setattr__(self, "potential", v)

    @property
    def grid(self) -> Grid:
        return self.base.grid

    @cached_property
    def divergence_form(self) -> np.ndarray:
        """-d/dx (mu dphi/dx): the density rate of the flow along phi."""
        out = hamiltonian_flow(self.grid, self.base.values, self.potential)[0]
        out.setflags(write=False)
        return out

    def norm(self) -> float:
        return float(np.sqrt(max(tangent_inner(self, self), 0.0)))

    def _require_same_base(self, other: "TangentVector") -> None:
        if not _same_base(self.base, other.base):
            raise BaseMismatchError("tangent vectors live over different base densities")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.potential + other.potential)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.potential - other.potential)

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.potential)

    def __rmul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, float(scalar) * self.potential)


def tangent_inner(a: TangentVector, b: TangentVector) -> float:
    """Metric pairing int dphi_a dphi_b dmu over the shared base."""
    if not _same_base(a.base, b.base):
        raise BaseMismatchError("tangent vectors live over different base densities")
    g = a.grid
    return g.integrate(g.derivative(a.potential) * g.derivative(b.potential) * a.base.values)


def solve_velocity_potential(mu: DensityField, source) -> TangentVector:
    """Invert psi = -d/dx(mu dphi/dx) for the velocity potential phi.

    Closed-form Green operator on the circle: one antiderivative of the
    source, a flux constant fixed by periodicity of phi, a division by mu,
    and a second antiderivative.  Raises CompatibilityError when the
    source carries net mass.
    """
    g = mu.grid
    psi = np.asarray(g.check_values(source), dtype=float)
    net = g.integrate(psi)
    if abs(net) > SOURCE_MASS_TOL:
        raise CompatibilityError(f"source carries net mass {net:.3e}")
    cumulative = g.antiderivative(psi)
    inv = 1.0 / mu.values
    flux_const = g.integrate(cumulative * inv) / g.integrate(inv)
    slope = (flux_const - cumulative) * inv
    phi = g.antiderivative(slope)
    return TangentVector(mu, phi)


# -- flows of velocity potentials -------------------------------------------


def pushforward_density(mu: DensityField, potential, t: float) -> DensityField:
    """Image of mu under the map x -> x + t * d(potential)/dx.

    Change of variables: mu_t(x + t psi'(x)) (1 + t psi''(x)) = mu(x).
    The value on each grid node is obtained by Newton inversion of the
    monotone map through the trigonometric interpolants, which keeps the
    resampling spectrally accurate.  Raises FoldError when the map is not
    orientation preserving.
    """
    g = mu.grid
    psi = np.asarray(g.check_values(potential), dtype=float)
    slope = g.derivative(psi)
    curvature = g.derivative(slope)
    jac = 1.0 + t * curvature
    if np.any(jac <= 0.0):
        raise FoldError(f"transport map folds (min Jacobian {jac.min():.3e})")
    if t == 0.0:
        return DensityField(g, mu.values)
    target = g.points
    xi = target.astype(float).copy()
    stack = np.vstack([slope, curvature, mu.values])
    for _ in range(_NEWTON_MAX_ITER):
        s, c, _ = g.sample_all(stack, xi)
        residual = xi + t * s - target
        xi = xi - residual / (1.0 + t * c)
        if float(np.abs(residual).max()) < _NEWTON_TOL * max(1.0, g.length):
            break
    else:
        raise FoldError("could not invert the transport map (Newton stalled)")
    _, c, m = g.sample_all(stack, xi)
    values = m / (1.0 + t * c)
    return normalize_density(g, values)


# -- the Hamiltonian flow and functional gradients ----------------------------


@lru_cache(maxsize=8)
def _flow_symbols(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(d, lap) for a density's slope and Laplacian; (-d, -1) behind the 2/3 rule."""
    ik, mask = grid.derivative_symbol, grid.dealias_mask
    out = np.stack((ik, grid.laplacian_symbol)), np.stack((-ik * mask, -mask))
    for sym in out:
        sym.setflags(write=False)
    return out


def _fisher_terms(grid: Grid, mu: np.ndarray) -> np.ndarray:
    """(dmu/mu)^2 - 2 (lap mu)/mu before dealiasing, from one transform of mu."""
    mu_x, lap_mu = grid.apply_symbol(mu, _flow_symbols(grid)[0])
    return (mu_x / mu) ** 2 - 2.0 * lap_mu / mu


def hamiltonian_flow(grid: Grid, mu: np.ndarray, fiber: np.ndarray,
                     potential_values=0.0, hbar: float = 0.0) -> np.ndarray:
    """Rates (dmu/dt, dS/dt) of the Hamiltonian flow, stacked as rows.

    dmu/dt = -d/dx(mu dS/dx)                             (divergence form)
    dS/dt  = -(|dS/dx|^2 / 2 + V + (hbar^2/8) fisher generator)

    The flux and the whole drift are each dealiased once.  With no
    potential and hbar = 0 it is the geodesic flow, whose density rate is
    a tangent vector's divergence form.  Unchecked, for use on RK stages.
    """
    s_x = grid.apply_symbol(fiber, grid.derivative_symbol)
    pressure = 0.5 * s_x * s_x
    if hbar:
        pressure = pressure + 0.125 * hbar ** 2 * _fisher_terms(grid, mu)
    rates = grid.apply_symbol(np.stack((mu * s_x, pressure)), _flow_symbols(grid)[1])
    rates[1] -= potential_values
    return rates


def fisher_generator(grid: Grid, density_values: np.ndarray) -> np.ndarray:
    """(d mu / mu)^2 - 2 (lap mu)/mu, the generator of the Fisher gradient.

    |d log mu|^2 - 2 (lap mu)/mu without the logarithm, so it stays finite
    on the non-positive stages an explicit step can produce; dealiased in
    one pass and unchecked.  hbar^2/8 times it is the quantum correction.
    """
    return grid.apply_symbol(_fisher_terms(grid, density_values), grid.dealias_mask)


def energy_generator(grid: Grid, density_values: np.ndarray, potential_values,
                     hbar: float) -> np.ndarray:
    """V + (hbar^2/8) * fisher generator: the generator of the total-energy gradient."""
    return potential_values + 0.125 * hbar ** 2 * fisher_generator(grid, density_values)


GRADIENT_KINDS = ("potential", "entropy", "fisher", "total")


def wasserstein_gradient(kind: str, mu: DensityField,
                         potential: PotentialField | None = None,
                         constants: PhysicsConstants | None = None) -> TangentVector:
    """Metric gradient of a named functional, as a tangent vector at mu.

    kind "potential": generator V, for the functional int V dmu
    kind "entropy":   generator log mu (divergence form is -lap mu)
    kind "fisher":    generator (d mu / mu)^2 - 2 (lap mu)/mu
    kind "total":     V + (hbar^2/8) * fisher generator
    """
    g = mu.grid
    if kind == "potential":
        if potential is None:
            raise ValueError("the potential gradient needs a potential field")
        generator = potential.values
    elif kind == "entropy":
        generator = np.log(mu.values)
    elif kind == "fisher":
        generator = fisher_generator(g, mu.values)
    elif kind == "total":
        if potential is None or constants is None:
            raise ValueError("the total-energy gradient needs a potential and constants")
        generator = energy_generator(g, mu.values, potential.values, constants.hbar)
    else:
        raise ValueError(f"unknown gradient kind {kind!r}; known: {GRADIENT_KINDS}")
    return TangentVector(mu, generator)


# -- tangent bundle, symplectic structure, Hamiltonian flow ------------------


@dataclass(frozen=True)
class TangentBundlePoint:
    """Point of the tangent bundle: a base density plus a fiber potential."""

    base: DensityField
    fiber_potential: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.base.grid.check_values(self.fiber_potential), dtype=float)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "fiber_potential", v)

    @property
    def grid(self) -> Grid:
        return self.base.grid

    @cached_property
    def tangent(self) -> TangentVector:
        return TangentVector(self.base, self.fiber_potential)


@dataclass(frozen=True)
class StandardVectorFieldSpec:
    """Generators (psi, phi) of a standard vector field on the bundle.

    psi moves the base point (through its gradient flow), phi tilts the
    fiber potential.
    """

    grid: Grid
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.grid.check_values(self.psi), dtype=float).copy()
        q = np.asarray(self.grid.check_values(self.phi), dtype=float).copy()
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "psi", p)
        object.__setattr__(self, "phi", q)


def symplectic_form(point: TangentBundlePoint, a: StandardVectorFieldSpec,
                    b: StandardVectorFieldSpec) -> float:
    """Canonical two-form on standard vector fields at a bundle point.

    omega(V_a, V_b) = int da.psi' db.phi' dmu - int db.psi' da.phi' dmu;
    depends on the point only through the base density.
    """
    g = point.grid
    mu = point.base.values
    first = g.integrate(g.derivative(a.psi) * g.derivative(b.phi) * mu)
    second = g.integrate(g.derivative(b.psi) * g.derivative(a.phi) * mu)
    return first - second


def hamiltonian(point: TangentBundlePoint, potential: PotentialField,
                constants: PhysicsConstants) -> float:
    """Kinetic energy of the fiber plus total energy of the base density."""
    g = point.grid
    df = g.derivative(point.fiber_potential)
    kinetic = 0.5 * g.integrate(df * df * point.base.values)
    return kinetic + functionals(point.base, potential, constants).total_energy


def hamiltonian_vector_field(point: TangentBundlePoint, potential: PotentialField,
                             constants: PhysicsConstants) -> StandardVectorFieldSpec:
    """Standard vector field generating the Hamiltonian flow at `point`.

    The base moves along the fiber potential; the fiber drifts by
    -(|df|^2/2 + V + quantum correction), the phase rate of
    `hamiltonian_flow`.
    """
    g = point.grid
    f = point.fiber_potential
    drift = hamiltonian_flow(g, point.base.values, f, potential.values, constants.hbar)[1]
    return StandardVectorFieldSpec(g, f, drift)


def covariant_acceleration(phi_curve: Sequence[np.ndarray], density: DensityField,
                           step: float) -> TangentVector:
    """Covariant time derivative of a curve of velocity potentials.

    `phi_curve` holds the potentials at times t-step, t, t+step; the
    result is the tangent vector at `density` (the base at time t) with
    generator d(phi)/dt + |dphi/dx|^2 / 2, gauge fixed.
    """
    if len(phi_curve) != 3:
        raise ValueError("phi_curve must hold exactly three consecutive potentials")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    g = density.grid
    before = np.asarray(g.check_values(phi_curve[0]), dtype=float)
    current = np.asarray(g.check_values(phi_curve[1]), dtype=float)
    after = np.asarray(g.check_values(phi_curve[2]), dtype=float)
    dt_phi = (after - before) / (2.0 * step)
    slope = g.derivative(current)
    generator = dt_phi + 0.5 * g.dealias(slope * slope)
    return TangentVector(density, generator)
