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
from functools import cached_property

import numpy as np

from .errors import BaseMismatchError, CompatibilityError, FoldError
from .fields import (DensityField, PhysicsConstants, PotentialField, _frozen_copy,
                     _integrals, functionals, metric_pairing, normalize_density)
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
        v = mean_free(g, self.base.values, np.asarray(g.check_values(self.potential), dtype=float))
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

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if not _same_base(self.base, other.base):
            raise BaseMismatchError("tangent vectors live over different base densities")
        return TangentVector(self.base, self.potential + other.potential)


def mean_free(grid: Grid, mu: np.ndarray, potential: np.ndarray) -> np.ndarray:
    """The gauge: each potential minus its mu-weighted mean, row by row."""
    return potential - _integrals(grid, potential * mu)


def green_operator(grid: Grid, mu: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Invert psi = -d/dx(mu dphi/dx) for phi, row by row, before the gauge.

    Closed form on the circle: one antiderivative of the source, a flux
    constant fixed by periodicity of phi, a division by mu, and a second
    antiderivative.  Stacks (..., n) broadcast, and each row is bit for bit
    the one-row solve.  Unchecked samples; raises CompatibilityError when a
    source carries net mass, its `row` the flat index over the leading axes
    of the first such source.
    """
    net = _integrals(grid, source)
    drift = np.flatnonzero(np.abs(net) > SOURCE_MASS_TOL)
    if drift.size:
        raise CompatibilityError(f"source carries net mass {net.flat[drift[0]]:.3e}",
                                 row=int(drift[0]))
    cumulative = grid.apply_symbol(source, grid.antiderivative_symbol)
    inv = 1.0 / mu
    flux_const = _integrals(grid, cumulative * inv) / _integrals(grid, inv)
    slope = (flux_const - cumulative) * inv
    return grid.apply_symbol(slope, grid.antiderivative_symbol)


def tangent_inner(a: TangentVector, b: TangentVector) -> float:
    """Metric pairing int dphi_a dphi_b dmu over the shared base."""
    if not _same_base(a.base, b.base):
        raise BaseMismatchError("tangent vectors live over different base densities")
    return float(metric_pairing(a.grid, a.base.values, a.potential, b.potential)[0])


def solve_velocity_potential(mu: DensityField, source) -> TangentVector:
    """The tangent vector whose divergence form is `source`: the one-row
    `green_operator`, gauge fixed.  Raises CompatibilityError when the
    source carries net mass."""
    psi = np.asarray(mu.grid.check_values(source), dtype=float)
    return TangentVector(mu, green_operator(mu.grid, mu.values, psi))


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
    table = g.taylor_table(np.vstack([slope, curvature, mu.values]))
    for _ in range(_NEWTON_MAX_ITER):
        s, c, _ = g.sample_table(table, xi)
        residual = xi + t * s - target
        xi = xi - residual / (1.0 + t * c)
        if float(np.abs(residual).max()) < _NEWTON_TOL * max(1.0, g.length):
            break
    else:
        raise FoldError("could not invert the transport map (Newton stalled)")
    _, c, m = g.sample_table(table, xi)
    values = m / (1.0 + t * c)
    return normalize_density(g, values)


# -- the Hamiltonian flow and functional gradients ----------------------------


def _fisher_terms(mu: np.ndarray, mu_x: np.ndarray, lap2_mu: np.ndarray) -> np.ndarray:
    """(dmu/mu)^2 - (2 lap mu)/mu before dealiasing, from `lap2_mu` = 2 lap mu;
    written over `mu_x` and returned, `lap2_mu` is spent as scratch."""
    mu_x /= mu
    mu_x *= mu_x
    lap2_mu /= mu
    mu_x -= lap2_mu
    return mu_x


def flow_kernel(grid: Grid, potential=0.0, hbar: float = 0.0):
    """Rates of the Hamiltonian flow in `Grid.rfft` coefficients, buffers built once.

    dmu/dt = -d/dx(mu dS/dx)                             (divergence form)
    dS/dt  = -(|dS/dx|^2 / 2 + V + (hbar^2/8) fisher generator)

    Returns rates(coefficients, out): `coefficients` stacks the `Grid.rfft`
    coefficients of mu and S, `potential` holds those of V, and the (2,
    n/2+1) rates are written into `out`, which is returned.  One inverse
    transform gives dS/dx, mu, dmu/dx and 2 lap mu; one forward transform
    dealiases flux and twice the pressure, which the output row halves
    (scaling by 2 commutes with rounding).  At hbar = 0 the Fisher term adds
    an exact zero wherever mu has no zero sample.  The kernel builds its own
    symbol stacks; its spectral stack, sample stack and flux/pressure rows
    are overwritten by every call.  Unchecked, for RK stages.
    """
    h = grid.n // 2 + 1
    ik, mask = grid.derivative_symbol[:h], grid.dealias_mask[:h]
    # half-spectrum (d, 1, d, 2 lap) for (S, mu, mu, mu); (-d, -1/2) behind
    # the 2/3 rule for the flux and twice the pressure
    into = np.stack((ik, np.ones(h), ik, 2.0 * grid.laplacian_symbol[:h]))
    outof = np.stack((-ik * mask, -0.5 * mask))
    spectral = np.empty((4, h), dtype=complex)
    samples = np.empty((4, grid.n))
    fluxes = np.empty((2, grid.n))
    flux, pressure = fluxes
    s_x, mu, mu_x, lap2_mu = samples
    slope_symbol, density_symbols = into[0], into[1:]
    slope_hat, density_hats = spectral[0], spectral[1:]
    quantum = 0.25 * hbar ** 2

    def rates(coefficients: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(slope_symbol, coefficients[1], out=slope_hat)
        np.multiply(density_symbols, coefficients[0], out=density_hats)
        grid.irfft(spectral, out=samples)
        np.multiply(s_x, s_x, out=pressure)
        terms = _fisher_terms(mu, mu_x, lap2_mu)
        np.multiply(terms, quantum, out=terms)
        np.add(pressure, terms, out=pressure)
        np.multiply(mu, s_x, out=flux)
        grid.rfft(fluxes, out=out)
        out *= outof
        out[1] -= potential
        return out
    return rates


def hamiltonian_flow(grid: Grid, mu: np.ndarray, fiber=0.0,
                     potential_values=0.0, hbar: float = 0.0) -> np.ndarray:
    """One call of a fresh `flow_kernel` on samples, rows (dmu/dt, dS/dt).  With
    no potential and hbar = 0, row 0 is a tangent vector's divergence form;
    at rest (fiber 0), row 1 is minus the generator of the energy gradient."""
    coef = grid.rfft(np.stack(np.broadcast_arrays(mu, fiber, potential_values)))
    out = np.empty((2, grid.n // 2 + 1), dtype=complex)
    return grid.irfft(flow_kernel(grid, coef[2], hbar)(coef[:2], out))


def fisher_generator(grid: Grid, density_values: np.ndarray) -> np.ndarray:
    """(d mu / mu)^2 - 2 (lap mu)/mu, the generator of the Fisher gradient:
    |d log mu|^2 - 2 (lap mu)/mu without the logarithm, finite on the
    non-positive stages an explicit step can produce; dealiased, unchecked.
    -8 times the phase rate at rest of the flow with hbar = 1 and no potential."""
    return -8.0 * hamiltonian_flow(grid, density_values, hbar=1.0)[1]


GRADIENT_KINDS = ("potential", "entropy", "fisher", "total")


def wasserstein_gradient(kind: str, mu: DensityField,
                         potential: PotentialField | None = None,
                         constants: PhysicsConstants | None = None) -> TangentVector:
    """Metric gradient of a named functional, as a tangent vector at mu.

    kind "potential": generator V, for the functional int V dmu
    kind "entropy":   generator log mu (divergence form is -lap mu)
    kind "fisher":    generator (d mu / mu)^2 - 2 (lap mu)/mu
    kind "total":     V + (hbar^2/8) * fisher generator, minus the phase
                      rate of `hamiltonian_flow` at rest
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
        generator = -hamiltonian_flow(g, mu.values, 0.0, potential.values, constants.hbar)[1]
    else:
        raise ValueError(f"unknown gradient kind {kind!r}; known: {GRADIENT_KINDS}")
    return TangentVector(mu, generator)


# -- tangent bundle, symplectic structure, Hamiltonian flow ------------------


@dataclass(frozen=True)
class TangentBundlePoint:
    """Point of the tangent bundle: a base density plus a fiber potential, the
    raw one, whose mu-mean is free; `tangent` holds the gauged potential."""

    base: DensityField
    fiber_potential: np.ndarray

    def __post_init__(self) -> None:
        v = self.base.grid.check_values(self.fiber_potential)
        object.__setattr__(self, "fiber_potential", _frozen_copy(v, float))

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
        for name in ("psi", "phi"):
            v = self.grid.check_values(getattr(self, name))
            object.__setattr__(self, name, _frozen_copy(v, float))


def symplectic_form(point: TangentBundlePoint, a: StandardVectorFieldSpec,
                    b: StandardVectorFieldSpec) -> float:
    """Canonical two-form on standard vector fields at a bundle point, the
    transport pairing antisymmetrised: omega(V_a, V_b) = <a.psi, b.phi>_mu -
    <b.psi, a.phi>_mu.  It depends on the point only through the base density.
    """
    g, mu = point.grid, point.base.values
    return float(metric_pairing(g, mu, a.psi, b.phi)[0] - metric_pairing(g, mu, b.psi, a.phi)[0])


def hamiltonian(point: TangentBundlePoint, potential: PotentialField,
                constants: PhysicsConstants) -> float:
    """Kinetic energy of the fiber plus total energy of the base density."""
    t = point.tangent
    return 0.5 * tangent_inner(t, t) + functionals(point.base, potential, constants).total_energy


def lagrangian(tangent: TangentVector, potential: PotentialField,
               constants: PhysicsConstants) -> float:
    """Kinetic energy of a tangent vector minus the total energy of its base."""
    energy = functionals(tangent.base, potential, constants).total_energy
    return 0.5 * tangent_inner(tangent, tangent) - energy


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


def covariant_acceleration(point: TangentBundlePoint, phase_rate) -> TangentVector:
    """Covariant time derivative of a curve of velocity potentials at `point`.

    `phase_rate` is d(phi)/dt of the curve through the point's fiber phi;
    the result is the tangent vector at the base with generator
    d(phi)/dt + |dphi/dx|^2 / 2, gauge fixed, written from `Grid.derivative`
    alone so that it shares no code with `flow_kernel`.
    """
    slope = point.grid.derivative(point.fiber_potential)
    return TangentVector(point.base, phase_rate + 0.5 * slope * slope)
