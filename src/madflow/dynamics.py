"""Time integration: wave, hydrodynamic and gradient-flow solvers.

schrodinger_evolve   split-step Fourier (Strang) for the linear wave equation
madelung_evolve      RK4 lines for the coupled (density, phase) system with
                     per-step mean-zero re-gauging and a gauge ledger
heat_evolve          exact spectral semigroup of the heat flow
dlss_evolve          explicit RK4 descent of the total energy (fourth order
                     quantum drift-diffusion)

The hydrodynamic right-hand side is `wgeom.hamiltonian_flow`, the
Hamiltonian vector field of the geometry itself, and the DLSS right-hand
side is minus the divergence form of the total-energy generator that
`wgeom.wasserstein_gradient("total")` returns; both run through one RK4
step, guard and snapshot loop.  Observables come from the single
definitions in `fields`, `wgeom` and `madelung`.  All solvers return a
TrajectoryRecord with snapshots and per-time observables; products are
dealiased with the 2/3 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeError, StabilityError
from .fields import (DensityField, PhaseField, PhysicsConstants, PotentialField,
                     WaveField, density_floor, functionals, lagrangian)
from .madelung import PolarDecomposition, wave_hamiltonian
from .wgeom import (TangentBundlePoint, energy_generator, hamiltonian,
                    hamiltonian_flow, wasserstein_gradient)

MASS_DRIFT_TOL = 1e-8
ENERGY_BLOWUP_FACTOR = 1e3
DESCENT_TOL = 1e-10


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshots of a run: times, states, and named observable columns."""

    times: np.ndarray
    states: tuple
    observables: dict

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must have matching lengths")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        obs = {k: np.asarray(v, dtype=float) for k, v in self.observables.items()}
        for key, col in obs.items():
            if col.shape != t.shape:
                raise ValueError(f"observable {key!r} has shape {col.shape}, expected {t.shape}")
        if "mass" not in obs:
            raise ValueError("observables must include a mass column")
        drift = float(np.abs(obs["mass"] - 1.0).max())
        if drift > MASS_DRIFT_TOL:
            raise ValueError(f"mass drifts by {drift:.3e}, beyond {MASS_DRIFT_TOL}")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "observables", obs)


def _step_count(dt: float, total_time: float) -> int:
    if not (dt > 0.0 and total_time > 0.0):
        raise ValueError(f"need positive dt and total time, got {dt!r}, {total_time!r}")
    steps = int(round(total_time / dt))
    if steps < 1 or abs(steps * dt - total_time) > 1e-9 * max(1.0, total_time):
        raise ValueError(f"total time {total_time!r} is not a multiple of dt {dt!r}")
    return steps


def _snapshot_steps(steps: int, stride: int) -> list[int]:
    if stride < 1:
        raise ValueError(f"snapshot stride must be >= 1, got {stride!r}")
    marks = list(range(0, steps + 1, stride))
    if marks[-1] != steps:
        marks.append(steps)
    return marks


def _rk4_run(y, rhs, dt: float, steps: int, marks: list[int], floor: float,
             settle, record) -> None:
    """Classical RK4 on the stacked state `y`, whose row 0 is the density.

    After each step the density must stay at or above `floor` (NodeError);
    `settle(step, y)` then applies the solver's own guard or re-gauging in
    place, and `record(step, y)` runs at every mark, step 0 included.
    """
    mark_set = set(marks)
    record(0, y)
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        low = float(y[0].min())
        if not low >= floor:
            raise NodeError(
                f"density reached {low:.3e} at t = {step * dt:.4g}, below the floor {floor:.3e}"
            )
        settle(step, y)
        if step in mark_set:
            record(step, y)


# -- linear wave solver ------------------------------------------------------


def schrodinger_evolve(initial: WaveField, potential: PotentialField,
                       constants: PhysicsConstants, dt: float, total_time: float,
                       snapshot_stride: int = 1) -> TrajectoryRecord:
    """Strang split-step: half potential phase, full kinetic phase, half potential."""
    g = initial.grid
    hbar = constants.hbar
    steps = _step_count(dt, total_time)
    marks = _snapshot_steps(steps, snapshot_stride)
    half_potential = np.exp(-0.5j * dt * potential.values / hbar)
    kinetic = np.exp(0.5j * hbar * dt * g.laplacian_symbol)

    psi = initial.values.astype(complex).copy()
    times, states, mass_col, energy_col = [], [], [], []

    def record(step_index: int) -> None:
        wave = WaveField(g, psi)
        times.append(step_index * dt)
        states.append(wave)
        mass_col.append(g.integrate(np.abs(psi) ** 2))
        energy_col.append(wave_hamiltonian(wave, potential, constants))

    mark_set = set(marks)
    record(0)
    for step in range(1, steps + 1):
        psi = half_potential * psi
        psi = g.apply_symbol(psi, kinetic)
        psi = half_potential * psi
        if step in mark_set:
            record(step)
    return TrajectoryRecord(np.array(times), tuple(states),
                            {"mass": mass_col, "h_s": energy_col})


# -- hydrodynamic solver -----------------------------------------------------


def madelung_evolve(mu0: DensityField, phase0: PhaseField, potential: PotentialField,
                    constants: PhysicsConstants, dt: float, total_time: float,
                    snapshot_stride: int = 1) -> TrajectoryRecord:
    """RK4 integration of the coupled density / phase system.

    d(mu)/dt = -d/dx(mu dS/dx)
    d(S)/dt  = -( |dS/dx|^2 / 2 + V + quantum correction )

    The right-hand side is `wgeom.hamiltonian_flow`.  The phase is
    re-gauged to mean zero after every step; removed constants accumulate
    in the gauge_constant observable (the ledger reconciled against the
    running action integral).  Raises NodeError when the density reaches
    its floor and StabilityError on energy blow-up.
    """
    g = mu0.grid
    hbar = constants.hbar
    steps = _step_count(dt, total_time)
    marks = _snapshot_steps(steps, snapshot_stride)
    v_vals = potential.values

    def rhs(y):
        return hamiltonian_flow(g, y[0], y[1], v_vals, hbar)

    # Work on dealiased copies so every retained mode is evolved consistently.
    y = g.apply_symbol(np.stack((mu0.values, phase0.values)), g.dealias_mask)
    ledger = g.integrate(y[1] * y[0])
    y[1] -= ledger

    times, states = [], []
    cols = {k: [] for k in ("mass", "h_f", "l_f", "entropy", "fisher", "gauge_constant")}
    reference_energy = None

    def settle(step_index: int, y: np.ndarray) -> None:
        nonlocal ledger
        removed = g.integrate(y[1] * y[0])
        y[1] -= removed
        ledger += removed

    def record(step_index: int, y: np.ndarray) -> None:
        nonlocal reference_energy
        mu_f = DensityField(g, y[0])
        point = TangentBundlePoint(mu_f, y[1])
        vals = functionals(mu_f, potential, constants)
        energy = hamiltonian(point, potential, constants)
        # kinetic + quantum + |V| energy: no cancellation can hide a blow-up
        guard = energy - vals.potential_energy + g.integrate(np.abs(v_vals) * y[0])
        if reference_energy is None:
            reference_energy = max(guard, 1e-12)
        elif guard > ENERGY_BLOWUP_FACTOR * reference_energy:
            raise StabilityError(
                f"energy grew to {guard:.3e} at t = {step_index * dt:.4g} "
                f"({ENERGY_BLOWUP_FACTOR:g} times the initial level)"
            )
        times.append(step_index * dt)
        states.append(PolarDecomposition(mu_f, PhaseField(g, y[1], "mean_zero"), hbar))
        cols["mass"].append(g.integrate(y[0]))
        cols["h_f"].append(energy)
        cols["l_f"].append(lagrangian(point.tangent, potential, constants))
        cols["entropy"].append(vals.entropy)
        cols["fisher"].append(vals.fisher)
        cols["gauge_constant"].append(ledger)

    _rk4_run(y, rhs, dt, steps, marks, density_floor(g), settle, record)
    return TrajectoryRecord(np.array(times), tuple(states), cols)


# -- gradient flows ----------------------------------------------------------


def heat_evolve(mu0: DensityField, dt: float, total_time: float,
                snapshot_stride: int = 1) -> TrajectoryRecord:
    """Heat flow by the exact spectral semigroup, sampled every stride steps."""
    g = mu0.grid
    steps = _step_count(dt, total_time)
    marks = _snapshot_steps(steps, snapshot_stride)

    times, states = [], []
    cols = {k: [] for k in ("mass", "entropy", "fisher")}
    for step in marks:
        t = step * dt
        mu_f = DensityField(g, g.apply_symbol(mu0.values, np.exp(g.laplacian_symbol * t)))
        vals = functionals(mu_f, PotentialField.zero(g), PhysicsConstants())
        times.append(t)
        states.append(mu_f)
        cols["mass"].append(g.integrate(mu_f.values))
        cols["entropy"].append(vals.entropy)
        cols["fisher"].append(vals.fisher)
    return TrajectoryRecord(np.array(times), tuple(states), cols)


def dlss_evolve(mu0: DensityField, potential: PotentialField,
                constants: PhysicsConstants, dt: float, total_time: float,
                snapshot_stride: int = 1) -> TrajectoryRecord:
    """Explicit RK4 descent of the total energy (steepest descent flow).

    The velocity is minus the metric gradient of the total energy, so the
    density rate is minus the divergence form of its generator and the
    energy must not increase; a per-step ascent beyond the descent
    tolerance raises StabilityError (step size violation).
    """
    g = mu0.grid
    hbar = constants.hbar
    steps = _step_count(dt, total_time)
    marks = _snapshot_steps(steps, snapshot_stride)
    v_vals = potential.values

    def rhs(y):
        generator = energy_generator(g, y[0], v_vals, hbar)
        return -hamiltonian_flow(g, y[0], generator)[:1]

    def energy_of(values: np.ndarray) -> float:
        return functionals(DensityField(g, values), potential, constants).total_energy

    y = g.apply_symbol(mu0.values, g.dealias_mask)[None, :]
    energy = energy_of(y[0])

    times, states = [], []
    cols = {k: [] for k in ("mass", "entropy", "fisher", "h_f", "l_f")}

    def settle(step_index: int, y: np.ndarray) -> None:
        nonlocal energy
        new_energy = energy_of(y[0])
        if new_energy > energy + DESCENT_TOL:
            raise StabilityError(
                f"energy rose by {new_energy - energy:.3e} in one step at "
                f"t = {step_index * dt:.4g}; reduce the step size"
            )
        energy = new_energy

    def record(step_index: int, y: np.ndarray) -> None:
        mu_f = DensityField(g, y[0])
        vals = functionals(mu_f, potential, constants)
        gradient = wasserstein_gradient("total", mu_f, potential, constants)
        times.append(step_index * dt)
        states.append(mu_f)
        cols["mass"].append(g.integrate(y[0]))
        cols["entropy"].append(vals.entropy)
        cols["fisher"].append(vals.fisher)
        cols["h_f"].append(vals.total_energy)
        cols["l_f"].append(lagrangian(gradient, potential, constants))

    _rk4_run(y, rhs, dt, steps, marks, density_floor(g), settle, record)
    return TrajectoryRecord(np.array(times), tuple(states), cols)
