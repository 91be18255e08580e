"""Time integration: wave, hydrodynamic and gradient-flow solvers.

schrodinger_evolve   split-step Fourier (Strang) for the linear wave equation
madelung_evolve      RK4 lines for the coupled (density, phase) system; it
                     starts from and stores `wgeom.TangentBundlePoint`s,
                     each the density and the phase it evolves
heat_evolve          exact spectral semigroup of the heat flow
dlss_evolve          explicit RK4 descent of the total energy (fourth order
                     quantum drift-diffusion)

The hydrodynamic right-hand side is `wgeom.flow_kernel`, the Hamiltonian
vector field of the geometry itself, and the DLSS right-hand side is two
calls of the same kernel: its density row along its own phase rate at
rest (S = 0), which is minus the total-energy gradient that
`wgeom.wasserstein_gradient("total")` returns.  The kernel is built once
per run and owns its transform buffers; each solver's right-hand side,
`rhs(y, out)`, writes the rates of the coefficients `y` into `out`.  Both
step through one RK4 generator, `_rk4_steps`, which keeps its `rfft`
coefficients and rate buffers to itself, returns to samples once per
step, guards every row's finiteness and the density floor and yields
(step, samples); each solver guards and records inline in its own loop
over it.  Every solver, and the scenario runner's pseudo-time runners,
read the snapshot schedule and an empty record from `_snapshot_rows`; a
record's times are the snapshot steps times dt.  The solvers only
integrate: a TrajectoryRecord holds the snapshot times and one stacked
array of the stored states; `STATE_FIELDS` names the arrays a state of
each kind stores, a row's fields in order.  Mass, energies, entropy,
Fisher information and the gauge ledger (the mu-mean of a stored phase)
are functions of a state, derived from it by the caller.  Products are
dealiased with the 2/3 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeError, NonFiniteError, StabilityError
from .fields import (DensityField, PhysicsConstants, PotentialField, WaveField,
                     density_floor, functionals)
from .grid import Grid
from .wgeom import TangentBundlePoint, flow_kernel, hamiltonian

ENERGY_BLOWUP_FACTOR = 1e3
DESCENT_TOL = 1e-10


#: the arrays a state of each kind stores, in the order of a record row's fields
STATE_FIELDS = {"wave": ("real", "imag"), "polar": ("density", "phase"),
                "density": ("density",)}


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshots of a run: its times and states.

    Row i of `data`, a float array of shape (rows, fields, n) that the
    record makes read-only, holds the fields STATE_FIELDS[kind] of the
    state at times[i]; `state(i)` builds that WaveField, TangentBundlePoint
    or DensityField, validated.
    """

    grid: Grid
    times: np.ndarray
    kind: str
    data: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float)
        data = np.asarray(self.data, dtype=float)
        fields = STATE_FIELDS.get(self.kind, ())
        if not fields or t.ndim != 1 or data.shape != (len(t), len(fields), self.grid.n):
            raise ValueError(f"data of shape {data.shape} is no record of {self.kind!r} "
                             f"states at times of shape {t.shape} on {self.grid.n} points")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        t.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "data", data)

    def state(self, i: int):
        """The validated state of row i."""
        row = self.data[i]
        if self.kind == "density":
            return DensityField(self.grid, row[0])
        if self.kind == "polar":
            return TangentBundlePoint(DensityField(self.grid, row[0]), row[1])
        psi = row[0].astype(complex)
        psi.imag = row[1]
        return WaveField(self.grid, psi)


def _step_count(dt: float, total_time: float) -> int:
    if not (dt > 0.0 and total_time > 0.0):
        raise ValueError(f"need positive dt and total time, got {dt!r}, {total_time!r}")
    ratio = total_time / dt
    if not np.isfinite(ratio):
        raise ValueError(f"total time {total_time!r} over dt {dt!r} is not a finite step count")
    steps = int(round(ratio))
    if steps < 1 or abs(steps * dt - total_time) > 1e-9 * max(1.0, total_time):
        raise ValueError(f"total time {total_time!r} is not a multiple of dt {dt!r}")
    return steps


def _snapshot_rows(kind: str, grid: Grid, dt: float, total_time: float, stride: int):
    """A run's snapshot times, every `stride`-th step and the last times dt, the
    record row of each such step, and the empty data of its `kind` states."""
    steps = _step_count(dt, total_time)
    if stride < 1:
        raise ValueError(f"snapshot stride must be >= 1, got {stride!r}")
    marks = list(range(0, steps + 1, stride))
    if marks[-1] != steps:
        marks.append(steps)
    data = np.empty((len(marks), len(STATE_FIELDS[kind]), grid.n))
    return np.array(marks) * dt, dict(zip(marks, range(len(marks)))), data


def _rk4_steps(grid, samples, rhs, dt: float, steps: int):
    """Classical RK4 on y, the dealiased `Grid.rfft` coefficients of
    `samples`, a stacked state, for `steps` steps.

    Yields `(step, x)` with the samples `x` of `y` at step 0 and after
    every step.  `rhs(y, out)` writes the rates of the coefficients `y`
    into `out`; it must not keep either array.  The loop owns `y`, the
    rates k1 .. k4 and the samples, and advances `y` in place by the
    textbook step.  After each step one inverse transform gives `x`, every
    row of which must stay finite (NonFiniteError) and whose row 0, the
    density, must stay at or above its floor (NodeError).  The caller
    must copy what it keeps: the next step overwrites `x`.
    """
    y = grid.rfft(samples)
    y *= grid.dealias_mask[: grid.n // 2 + 1]
    floor = density_floor(grid)
    x = grid.irfft(y)
    yield 0, x
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    for step in range(1, steps + 1):
        rhs(y, k1)
        rhs(y + (0.5 * dt) * k1, k2)
        rhs(y + (0.5 * dt) * k2, k3)
        rhs(y + dt * k3, k4)
        y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        grid.irfft(y, out=x)
        low = float(x[0].min())
        if not (np.isfinite(low) and np.isfinite(x[1:]).all()):
            raise NonFiniteError(
                f"the state reached a non-finite value at step {step}, t = {step * dt:.4g}")
        if not low >= floor:
            raise NodeError(
                f"density reached {low:.3e} at t = {step * dt:.4g}, below the floor {floor:.3e}"
            )
        yield step, x


# -- linear wave solver ------------------------------------------------------


def schrodinger_evolve(initial: WaveField, potential: PotentialField,
                       constants: PhysicsConstants, dt: float, total_time: float,
                       snapshot_stride: int = 1) -> TrajectoryRecord:
    """Strang split-step: half potential phase, full kinetic phase, half potential.

    Each step is unitary, but its rounding drifts the norm; a snapshot
    whose norm squared has left 1 by more than `fields.NORM_TOL` raises
    StabilityError.
    """
    g = initial.grid
    hbar = constants.hbar
    times, rows, data = _snapshot_rows("wave", g, dt, total_time, snapshot_stride)
    half_potential = np.exp(-0.5j * dt * potential.values / hbar)
    kinetic = np.exp(0.5j * hbar * dt * g.laplacian_symbol)

    psi = initial.values.astype(complex).copy()
    data[0] = psi.real, psi.imag
    for step in range(1, max(rows) + 1):
        psi = half_potential * psi
        psi = g.apply_symbol(psi, kinetic)
        psi = half_potential * psi
        if step in rows:
            try:
                WaveField(g, psi)
            except ValueError as exc:  # the norm drifted past NORM_TOL, or overflowed
                raise StabilityError(f"the wave left the unit sphere at step {step}, "
                                     f"t = {step * dt:.6g}: {exc}") from exc
            data[rows[step]] = psi.real, psi.imag
    return TrajectoryRecord(g, times, "wave", data)


# -- hydrodynamic solver -----------------------------------------------------


def madelung_evolve(point: TangentBundlePoint, potential: PotentialField,
                    constants: PhysicsConstants, dt: float, total_time: float,
                    snapshot_stride: int = 1) -> TrajectoryRecord:
    """RK4 integration of the coupled density / phase system from `point`.

    d(mu)/dt = -d/dx(mu dS/dx)
    d(S)/dt  = -( |dS/dx|^2 / 2 + V + quantum correction )

    The right-hand side is `wgeom.flow_kernel`; each snapshot is the
    `TangentBundlePoint` (mu, S) the solver evolves, ungauged, so a stored
    snapshot restarts the run and its gauge ledger, the integral of
    S dmu (the rates read S only through dS/dx), continues.  Raises
    NodeError when the density reaches its floor and StabilityError on
    energy blow-up.
    """
    g = point.grid
    times, rows, data = _snapshot_rows("polar", g, dt, total_time, snapshot_stride)
    # the guard reads the Hamiltonian at |V|: kinetic + quantum + |V|
    # energy, in which no cancellation can hide a blow-up
    guard_potential = PotentialField(g, np.abs(potential.values))
    rhs = flow_kernel(g, g.rfft(potential.values), constants.hbar)
    samples = np.stack((point.base.values, point.fiber_potential))
    reference_energy = None
    for step, x in _rk4_steps(g, samples, rhs, dt, max(rows)):
        if step not in rows:
            continue
        guard = hamiltonian(TangentBundlePoint(DensityField(g, x[0]), x[1]),
                            guard_potential, constants)
        if reference_energy is None:
            reference_energy = max(guard, 1e-12)
        elif guard > ENERGY_BLOWUP_FACTOR * reference_energy:
            raise StabilityError(
                f"energy grew to {guard:.3e} at t = {step * dt:.4g} "
                f"({ENERGY_BLOWUP_FACTOR:g} times the initial level)"
            )
        data[rows[step]] = x
    return TrajectoryRecord(g, times, "polar", data)


# -- gradient flows ----------------------------------------------------------


def heat_evolve(mu0: DensityField, dt: float, total_time: float,
                snapshot_stride: int = 1) -> TrajectoryRecord:
    """Heat flow by the exact spectral semigroup, sampled every stride steps."""
    g = mu0.grid
    times, _, data = _snapshot_rows("density", g, dt, total_time, snapshot_stride)
    for row, t in zip(data, times):
        row[0] = DensityField(g, g.apply_symbol(mu0.values, np.exp(g.laplacian_symbol * t))).values
    return TrajectoryRecord(g, times, "density", data)


def dlss_evolve(mu0: DensityField, potential: PotentialField,
                constants: PhysicsConstants, dt: float, total_time: float,
                snapshot_stride: int = 1) -> TrajectoryRecord:
    """Explicit RK4 descent of the total energy (steepest descent flow).

    The velocity is minus the metric gradient of the total energy, the
    Hamiltonian flow's phase rate at rest, so the density rate is the
    flow's density row along it: one `wgeom.flow_kernel` called at rest
    on (mu, 0) for that rate, then on (mu, rate) for the density row,
    which depends on neither V nor hbar.  The energy must not increase; a
    per-step ascent beyond the descent tolerance raises StabilityError
    (step size violation).
    """
    g = mu0.grid
    times, rows, data = _snapshot_rows("density", g, dt, total_time, snapshot_stride)
    kernel = flow_kernel(g, g.rfft(potential.values), constants.hbar)
    pair = np.empty((2, g.n // 2 + 1), dtype=complex)
    rates = np.empty_like(pair)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        pair[0] = y[0]
        pair[1] = 0.0
        pair[1] = kernel(pair, rates)[1]
        out[0] = kernel(pair, rates)[0]
        return out
    energy = np.inf
    for step, x in _rk4_steps(g, mu0.values[None, :], rhs, dt, max(rows)):
        mu = DensityField(g, x[0])
        new_energy = functionals(mu, potential, constants).total_energy
        if new_energy > energy + DESCENT_TOL:
            raise StabilityError(
                f"energy rose by {new_energy - energy:.3e} in one step at "
                f"t = {step * dt:.4g}; reduce the step size"
            )
        energy = new_energy
        if step in rows:
            data[rows[step], 0] = mu.values
    return TrajectoryRecord(g, times, "density", data)
