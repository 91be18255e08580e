"""Time integration: wave, hydrodynamic and gradient-flow solvers.

schrodinger_evolve   split-step Fourier (Strang) for the linear wave equation
madelung_evolve      RK4 lines for the coupled (density, phase) system with
                     per-step mean-zero re-gauging and a gauge ledger; it
                     starts from and stores `wgeom.TangentBundlePoint`s
heat_evolve          exact spectral semigroup of the heat flow
dlss_evolve          explicit RK4 descent of the total energy (fourth order
                     quantum drift-diffusion)

The hydrodynamic right-hand side is `wgeom.flow_kernel`, the Hamiltonian
vector field of the geometry itself, and the DLSS right-hand side is
`wgeom.descent_kernel`, minus the divergence form of the total-energy
generator that `wgeom.wasserstein_gradient("total")` returns.  Each kernel
is built once per run and owns its transform buffers; as `rhs(y, out)` it
writes the rates of the coefficients `y` into `out`.  Both run through one
RK4 step, guard and snapshot loop, which owns the stage buffers, steps
`rfft` coefficients in place and returns to samples once per step.  Every
solver, and the scenario runner's pseudo-time runners, read the snapshot
schedule from `_snapshot_steps`; a record's times are those steps times
dt.  The solvers only integrate: a TrajectoryRecord holds the snapshot
times and states and, on the Madelung solver, the gauge ledger; mass,
energies, entropy and Fisher information are functions of a state,
derived from it by the caller.  Products are dealiased with the 2/3 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeError, NonFiniteError, StabilityError
from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     density_floor, functionals)
from .wgeom import TangentBundlePoint, descent_kernel, flow_kernel, hamiltonian

ENERGY_BLOWUP_FACTOR = 1e3
DESCENT_TOL = 1e-10


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshots of a run: times, states, and the Madelung gauge ledger.

    The ledger (None on the other solvers) is the one per-snapshot column
    no state determines; every other observable is a function of the
    stored state.
    """

    times: np.ndarray
    states: tuple
    gauge_constant: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must have matching lengths")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if self.gauge_constant is not None:
            ledger = np.asarray(self.gauge_constant, dtype=float)
            if ledger.shape != t.shape:
                raise ValueError(f"gauge ledger has shape {ledger.shape}, expected {t.shape}")
            object.__setattr__(self, "gauge_constant", ledger)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))


def _step_count(dt: float, total_time: float) -> int:
    if not (dt > 0.0 and total_time > 0.0):
        raise ValueError(f"need positive dt and total time, got {dt!r}, {total_time!r}")
    steps = int(round(total_time / dt))
    if steps < 1 or abs(steps * dt - total_time) > 1e-9 * max(1.0, total_time):
        raise ValueError(f"total time {total_time!r} is not a multiple of dt {dt!r}")
    return steps


def _snapshot_steps(dt: float, total_time: float, stride: int) -> list[int]:
    """The snapshot steps of a run: every `stride`-th step and the last."""
    steps = _step_count(dt, total_time)
    if stride < 1:
        raise ValueError(f"snapshot stride must be >= 1, got {stride!r}")
    marks = list(range(0, steps + 1, stride))
    if marks[-1] != steps:
        marks.append(steps)
    return marks


def _rk4_run(grid, samples, rhs, dt: float, marks: list[int], settle, record) -> None:
    """Classical RK4 on y, the dealiased `Grid.rfft` coefficients of
    `samples`, a stacked state, up to the last snapshot step of `marks`.

    `rhs(y, out)` writes the rates of the coefficients `y` into `out`; it
    must not keep either array.  The loop owns the rates k1 .. k4, the
    stage and the samples, and advances `y` in place; every stage and the
    combination round exactly as y + (c dt) k and y + (dt/6)(k1 + 2 k2 +
    2 k3 + k4) do.  After each step one inverse transform gives the
    samples `x`, whose row 0, the density, must stay at or above its floor
    (NodeError); then `settle(step, y, x)` applies the solver's own guard
    or re-gauging to both in place, and `record(step, x)` runs at every
    mark.  Step 0 is settled and recorded too.  `settle` and `record` must
    copy what they keep: `x` is overwritten by the next step.
    """
    y = grid.rfft(samples)
    y *= grid.dealias_mask[: grid.n // 2 + 1]
    floor = density_floor(grid)
    mark_set = set(marks)
    x = grid.irfft(y)
    settle(0, y, x)
    record(0, x)
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(1, marks[-1] + 1):
        rhs(y, k1)
        np.multiply(k1, half, out=stage)
        stage += y
        rhs(stage, k2)
        np.multiply(k2, half, out=stage)
        stage += y
        rhs(stage, k3)
        np.multiply(k3, dt, out=stage)
        stage += y
        rhs(stage, k4)
        k2 *= 2.0
        k3 *= 2.0
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= sixth
        y += k1
        grid.irfft(y, out=x)
        low = float(x[0].min())
        if not low >= floor:
            raise NodeError(
                f"density reached {low:.3e} at t = {step * dt:.4g}, below the floor {floor:.3e}"
            )
        settle(step, y, x)
        if step in mark_set:
            record(step, x)


# -- linear wave solver ------------------------------------------------------


def schrodinger_evolve(initial: WaveField, potential: PotentialField,
                       constants: PhysicsConstants, dt: float, total_time: float,
                       snapshot_stride: int = 1) -> TrajectoryRecord:
    """Strang split-step: half potential phase, full kinetic phase, half potential."""
    g = initial.grid
    hbar = constants.hbar
    marks = _snapshot_steps(dt, total_time, snapshot_stride)
    half_potential = np.exp(-0.5j * dt * potential.values / hbar)
    kinetic = np.exp(0.5j * hbar * dt * g.laplacian_symbol)

    psi = initial.values.astype(complex).copy()
    states = [WaveField(g, psi)]
    mark_set = set(marks)
    for step in range(1, marks[-1] + 1):
        psi = half_potential * psi
        psi = g.apply_symbol(psi, kinetic)
        psi = half_potential * psi
        if step in mark_set:
            states.append(WaveField(g, psi))
    return TrajectoryRecord(np.array(marks) * dt, tuple(states))


# -- hydrodynamic solver -----------------------------------------------------


def madelung_evolve(point: TangentBundlePoint, potential: PotentialField,
                    constants: PhysicsConstants, dt: float, total_time: float,
                    snapshot_stride: int = 1) -> TrajectoryRecord:
    """RK4 integration of the coupled density / phase system from `point`.

    d(mu)/dt = -d/dx(mu dS/dx)
    d(S)/dt  = -( |dS/dx|^2 / 2 + V + quantum correction )

    The right-hand side is `wgeom.flow_kernel`; each snapshot is the
    `TangentBundlePoint` (mu, S), so a stored snapshot restarts the run.
    The phase is re-gauged to mean zero at the start and after every step;
    removed constants accumulate in the record's gauge_constant ledger
    (reconciled against the running action integral).  Raises NodeError
    when the density reaches its floor and StabilityError on energy blow-up.
    """
    g = point.grid
    marks = _snapshot_steps(dt, total_time, snapshot_stride)
    v_vals = potential.values
    # hamiltonian + this weight gives kinetic + quantum + |V| energy, in
    # which no cancellation can hide a blow-up
    guard_weight = np.abs(v_vals) - v_vals
    rhs = flow_kernel(g, g.rfft(v_vals), constants.hbar)
    states, ledgers = [], []
    ledger = 0.0
    reference_energy = None

    def settle(step_index: int, y: np.ndarray, x: np.ndarray) -> None:
        nonlocal ledger
        removed = float(g.spacing * (x[1] * x[0]).sum())
        if not np.isfinite(removed):
            raise NonFiniteError(
                f"phase reached a non-finite mean at t = {step_index * dt:.4g}")
        x[1] -= removed
        y[1, 0] -= removed * g.n
        ledger += removed

    def record(step_index: int, x: np.ndarray) -> None:
        nonlocal reference_energy
        state = TangentBundlePoint(DensityField(g, x[0]), x[1])
        guard = hamiltonian(state, potential, constants) + g.integrate(guard_weight * x[0])
        if reference_energy is None:
            reference_energy = max(guard, 1e-12)
        elif guard > ENERGY_BLOWUP_FACTOR * reference_energy:
            raise StabilityError(
                f"energy grew to {guard:.3e} at t = {step_index * dt:.4g} "
                f"({ENERGY_BLOWUP_FACTOR:g} times the initial level)"
            )
        states.append(state)
        ledgers.append(ledger)

    _rk4_run(g, np.stack((point.base.values, point.fiber_potential)), rhs, dt, marks,
             settle, record)
    return TrajectoryRecord(np.array(marks) * dt, tuple(states), np.array(ledgers))


# -- gradient flows ----------------------------------------------------------


def heat_evolve(mu0: DensityField, dt: float, total_time: float,
                snapshot_stride: int = 1) -> TrajectoryRecord:
    """Heat flow by the exact spectral semigroup, sampled every stride steps."""
    g = mu0.grid
    times = np.array(_snapshot_steps(dt, total_time, snapshot_stride)) * dt
    states = [DensityField(g, g.apply_symbol(mu0.values, np.exp(g.laplacian_symbol * t)))
              for t in times]
    return TrajectoryRecord(times, tuple(states))


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
    marks = _snapshot_steps(dt, total_time, snapshot_stride)
    rhs = descent_kernel(g, g.rfft(potential.values), constants.hbar)
    energy = np.inf
    states = []

    def settle(step_index: int, y: np.ndarray, x: np.ndarray) -> None:
        nonlocal energy
        new_energy = functionals(DensityField(g, x[0]), potential, constants).total_energy
        if new_energy > energy + DESCENT_TOL:
            raise StabilityError(
                f"energy rose by {new_energy - energy:.3e} in one step at "
                f"t = {step_index * dt:.4g}; reduce the step size"
            )
        energy = new_energy

    def record(step_index: int, x: np.ndarray) -> None:
        states.append(DensityField(g, x[0]))

    _rk4_run(g, mu0.values[None, :], rhs, dt, marks, settle, record)
    return TrajectoryRecord(np.array(marks) * dt, tuple(states))
