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
                     _frozen_copy, functionals, normalize_density)
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
    slope = g.derivative(a.potential)
    other = slope if b is a else g.derivative(b.potential)
    return g.integrate(slope * other * a.base.values)


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


@lru_cache(maxsize=8)
def _flow_symbols(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-spectrum (d, 1, d, lap) for (S, mu, mu, mu); (-d, -1) behind the
    2/3 rule for the flux and the pressure; the 2/3 mask."""
    h = grid.n // 2 + 1
    ik, mask = grid.derivative_symbol[:h], grid.dealias_mask[:h]
    out = (np.stack((ik, np.ones(h), ik, grid.laplacian_symbol[:h])),
           np.stack((-ik * mask, -mask)), mask)
    for sym in out:
        sym.setflags(write=False)
    return out


def _fisher_terms(mu: np.ndarray, mu_x: np.ndarray, lap_mu: np.ndarray) -> np.ndarray:
    """(dmu/mu)^2 - 2 (lap mu)/mu before dealiasing, written over `mu_x` and
    returned; `lap_mu` is spent as scratch."""
    mu_x /= mu
    mu_x *= mu_x
    lap_mu *= 2.0
    lap_mu /= mu
    mu_x -= lap_mu
    return mu_x


def _generator(grid: Grid, mask: np.ndarray, terms: np.ndarray, out: np.ndarray,
               quantum: float | None = None, potential=0.0) -> np.ndarray:
    """The dealiased Fisher generator, from the `_fisher_terms` samples, in
    `Grid.rfft` coefficients, written into `out` and returned; with `quantum`
    set, potential + quantum * it, the total-energy generator (`potential` in
    coefficients too)."""
    grid.rfft(terms, out=out)
    out *= mask
    if quantum is not None:
        out *= quantum
        out += potential
    return out


def flow_kernel(grid: Grid, potential=0.0, hbar: float = 0.0):
    """Rates of the Hamiltonian flow in `Grid.rfft` coefficients, buffers built once.

    dmu/dt = -d/dx(mu dS/dx)                             (divergence form)
    dS/dt  = -(|dS/dx|^2 / 2 + V + (hbar^2/8) fisher generator)

    Returns rates(coefficients, out): `coefficients` stacks the `Grid.rfft`
    coefficients of mu and S, `potential` holds those of V, and the (2,
    n/2+1) rates are written into `out`, which is returned.  One inverse
    transform gives mu, dS/dx (and dmu/dx, lap mu with hbar set); one forward
    transform dealiases flux and pressure.  The spectral stack, the sample
    stack and the flux/pressure rows belong to the kernel and are overwritten
    by every call.  Unchecked, for RK stages.
    """
    into, outof, _ = _flow_symbols(grid)
    rows = 4 if hbar else 2
    spectral = np.empty((rows, grid.n // 2 + 1), dtype=complex)
    samples = np.empty((rows, grid.n))
    fluxes = np.empty((2, grid.n))
    flux, pressure = fluxes
    s_x, mu, *gradients = samples
    slope_symbol, density_symbols = into[0], into[1:rows]
    slope_hat, density_hats = spectral[0], spectral[1:]
    quantum = 0.125 * hbar ** 2

    def rates(coefficients: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(slope_symbol, coefficients[1], out=slope_hat)
        np.multiply(density_symbols, coefficients[0], out=density_hats)
        grid.irfft(spectral, out=samples)
        np.multiply(s_x, 0.5, out=pressure)
        np.multiply(pressure, s_x, out=pressure)
        if hbar:
            terms = _fisher_terms(mu, *gradients)
            np.multiply(terms, quantum, out=terms)
            np.add(pressure, terms, out=pressure)
        np.multiply(mu, s_x, out=flux)
        grid.rfft(fluxes, out=out)
        out *= outof
        out[1] -= potential
        return out
    return rates


def descent_kernel(grid: Grid, potential, hbar: float):
    """Rates of the steepest descent of the total energy, buffered like `flow_kernel`.

    Returns rates(coefficients, out) for the (1, n/2+1) `Grid.rfft`
    coefficients of mu: minus the divergence form of the total-energy
    generator `energy_coefficients` gives (`potential` holds the
    coefficients of V), written into `out` and returned.  The inverse
    transform behind the Fisher generator also gives the mu that carries
    the flux, so a call transforms 3 + 1 rows inverse and 1 + 1 forward.
    """
    into, outof, mask = _flow_symbols(grid)
    h = grid.n // 2 + 1
    spectral = np.empty((3, h), dtype=complex)
    samples = np.empty((3, grid.n))
    generator = np.empty(h, dtype=complex)
    flux = np.empty(grid.n)
    mu, mu_x, lap_mu = samples
    slope_symbol, density_symbols, divergence_symbol = into[0], into[1:], outof[0]
    slope_hat = spectral[0]
    quantum = 0.125 * hbar ** 2

    def rates(coefficients: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(density_symbols, coefficients[0], out=spectral)
        grid.irfft(spectral, out=samples)
        _generator(grid, mask, _fisher_terms(mu, mu_x, lap_mu), generator, quantum, potential)
        np.multiply(slope_symbol, generator, out=slope_hat)
        grid.irfft(slope_hat, out=flux)
        np.multiply(flux, mu, out=flux)
        grid.rfft(flux, out=out[0])
        out *= divergence_symbol
        np.negative(out, out=out)
        return out
    return rates


def hamiltonian_flow(grid: Grid, mu: np.ndarray, fiber: np.ndarray,
                     potential_values=0.0, hbar: float = 0.0) -> np.ndarray:
    """One call of a fresh `flow_kernel` on samples, rows (dmu/dt, dS/dt).  With
    no potential and hbar = 0, row 0 is a tangent vector's divergence form."""
    coef = grid.rfft(np.stack((mu, fiber, np.broadcast_to(potential_values, np.shape(mu)))))
    out = np.empty((2, grid.n // 2 + 1), dtype=complex)
    return grid.irfft(flow_kernel(grid, coef[2], hbar)(coef[:2], out))


def fisher_generator(grid: Grid, density_values: np.ndarray) -> np.ndarray:
    """(d mu / mu)^2 - 2 (lap mu)/mu, the generator of the Fisher gradient:
    |d log mu|^2 - 2 (lap mu)/mu without the logarithm, finite on the
    non-positive stages an explicit step can produce; dealiased, unchecked.
    hbar^2/8 times it is the quantum correction."""
    into, _, mask = _flow_symbols(grid)
    out = np.empty(grid.n // 2 + 1, dtype=complex)
    terms = _fisher_terms(*grid.irfft(into[1:] * grid.rfft(density_values)))
    return grid.irfft(_generator(grid, mask, terms, out))


def energy_coefficients(grid: Grid, coefficients: np.ndarray, potential,
                        hbar: float) -> np.ndarray:
    """V + (hbar^2/8) * fisher generator, the generator of the total-energy
    gradient, in `Grid.rfft` coefficients (of mu and V in, of it out)."""
    into, _, mask = _flow_symbols(grid)
    out = np.empty(grid.n // 2 + 1, dtype=complex)
    terms = _fisher_terms(*grid.irfft(into[1:] * coefficients))
    return _generator(grid, mask, terms, out, 0.125 * hbar ** 2, potential)


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
        coef = g.rfft(np.stack((mu.values, potential.values)))
        generator = g.irfft(energy_coefficients(g, coef[0], coef[1], constants.hbar))
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
