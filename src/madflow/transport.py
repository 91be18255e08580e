"""One-dimensional optimal transport through quantile functions.

The circle is treated as the interval [0, L) cut at the joint density
minimum; densities must carry negligible mass at the cut (CutError
otherwise), which makes the periodic problem equivalent to transport on
the line.  Cumulative distributions are built from the spectral
antiderivative of the trigonometric interpolant on a refined grid, so
quantiles of resolved densities are accurate far beyond the ladder
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import CutError
from .fields import DensityField, normalize_density
from .grid import Grid
from .wgeom import solve_velocity_potential, tangent_inner

DEFAULT_LADDER = 4096
CUT_MASS_TOL = 1e-8
_REFINE = 16


def joint_cut_index(mu: DensityField, nu: DensityField) -> int:
    """Grid index of the minimum of mu + nu, used as the cut point."""
    return int(np.argmin(mu.values + nu.values))


def _require_shared_grid(mu: DensityField, nu: DensityField) -> Grid:
    if mu.grid != nu.grid:
        raise ValueError("transport endpoints live on different grids")
    return mu.grid


def _check_cut_mass(density: DensityField, cut_index: int) -> None:
    cell_mass = density.values[cut_index] * density.grid.spacing
    if cell_mass > CUT_MASS_TOL:
        raise CutError(
            f"density carries mass {cell_mass:.3e} at the cut point "
            f"(index {cut_index}), beyond {CUT_MASS_TOL}"
        )


def _cumulative_from_cut(density: DensityField, cut_index: int,
                         refine: int = _REFINE):
    """Fine-grid positions (relative to the cut) and exact running mass.

    Returns (x, cdf) with x including both endpoints 0 and L, cdf[0] = 0
    and cdf[-1] = 1 exactly.
    """
    g = density.grid
    fine_grid = g.refined(refine)
    fine = np.roll(g.upsample(density.values, refine), -cut_index * refine)
    if fine.min() <= 0.0:
        raise ValueError("density is not resolved (its interpolant is not positive)")
    mean = 1.0 / g.length
    # Quantiles in floor-level tails magnify CDF rounding by 1/mu (~1e9): real
    # transforms moved path densities by 2e-8, so the CDF keeps complex ones.
    anti = fine_grid.antiderivative((fine - mean).astype(complex)).real
    cdf = (anti - anti[0]) + mean * fine_grid.points
    x = np.append(fine_grid.points, g.length)
    cdf = np.append(cdf, 1.0)
    if not np.all(np.diff(cdf) > 0.0):
        raise ValueError("cumulative distribution is not strictly increasing")
    return x, cdf


@dataclass(frozen=True)
class QuantileTable:
    """Uniform midpoint probability ladder with matching positions.

    Positions are measured from the cut point (coordinates on [0, L)).
    """

    probabilities: np.ndarray
    positions: np.ndarray
    cut_index: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        q = np.asarray(self.positions, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("probabilities and positions must be matching vectors")
        if np.any(np.diff(q) < 0.0):
            raise ValueError("quantile positions must be non-decreasing")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "positions", q)


def quantile_table(density: DensityField, ladder: int = DEFAULT_LADDER,
                   cut_index: int | None = None) -> QuantileTable:
    """Quantiles at midpoint probabilities (i + 1/2)/ladder."""
    if ladder < 2:
        raise ValueError(f"ladder size must be >= 2, got {ladder!r}")
    if cut_index is None:
        cut_index = int(np.argmin(density.values))
    _check_cut_mass(density, cut_index)
    x, cdf = _cumulative_from_cut(density, cut_index)
    p = (np.arange(ladder) + 0.5) / ladder
    positions = PchipInterpolator(cdf, x)(p)
    return QuantileTable(p, positions, cut_index)


def w2_distance(mu: DensityField, nu: DensityField,
                ladder: int = DEFAULT_LADDER) -> float:
    """Quadratic transport distance via the quantile ladder.

    W2^2 = int_0^1 |q_mu(p) - q_nu(p)|^2 dp, midpoint rule on the ladder.
    """
    _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    table_mu = quantile_table(mu, ladder, cut)
    table_nu = quantile_table(nu, ladder, cut)
    diff = table_mu.positions - table_nu.positions
    return float(np.sqrt(np.mean(diff * diff)))


def monge_map(mu: DensityField, nu: DensityField):
    """Monotone transport map T = q_nu(F_mu) on the fine cut-relative grid.

    Returns (x, T) where x are fine-grid positions relative to the cut.
    """
    g = _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    _check_cut_mass(mu, cut)
    _check_cut_mass(nu, cut)
    x_mu, cdf_mu = _cumulative_from_cut(mu, cut)
    x_nu, cdf_nu = _cumulative_from_cut(nu, cut)
    transport = PchipInterpolator(cdf_nu, x_nu)(cdf_mu)
    return x_mu, transport, cut


def displacement_interpolation(mu: DensityField, nu: DensityField,
                               t: float) -> DensityField:
    """Pushforward of mu under x -> (1 - t) x + t T(x) on the cut interval.

    The density along the interpolation is mu / ((1 - t) + t T'), with
    T' = mu / nu(T) by mass conservation, evaluated on the fine grid and
    resampled back to the base grid.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t!r}")
    g = _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    _check_cut_mass(mu, cut)
    _check_cut_mass(nu, cut)

    fine_grid = g.refined(_REFINE)
    mu_fine = np.roll(g.upsample(mu.values, _REFINE), -cut * _REFINE)
    nu_fine = np.roll(g.upsample(nu.values, _REFINE), -cut * _REFINE)
    x_mu, cdf_mu = _cumulative_from_cut(mu, cut)
    x_nu, cdf_nu = _cumulative_from_cut(nu, cut)
    transport = PchipInterpolator(cdf_nu, x_nu)(cdf_mu[:-1])

    # nu evaluated along the map, through a periodic spline of its samples
    nu_spline = CubicSpline(np.append(fine_grid.points, g.length),
                            np.append(nu_fine, nu_fine[0]), bc_type="periodic")
    slope = mu_fine / nu_spline(np.mod(transport, g.length))
    warped = (1.0 - t) * fine_grid.points + t * transport
    values = mu_fine / ((1.0 - t) + t * slope)

    # monotone resample back to the base grid (periodic extension)
    extended_x = np.concatenate([warped - g.length, warped, warped + g.length])
    extended_v = np.tile(values, 3)
    base_rel = np.mod(g.points - g.points[cut], g.length)
    resampled = CubicSpline(extended_x, extended_v)(base_rel)
    return normalize_density(g, resampled)


def displacement_path(mu: DensityField, nu: DensityField,
                      count: int) -> list[DensityField]:
    """Displacement interpolation sampled at `count` uniform parameters."""
    if count < 2:
        raise ValueError(f"need at least two samples, got {count!r}")
    return [displacement_interpolation(mu, nu, t)
            for t in np.linspace(0.0, 1.0, count)]


def path_action(path: Sequence[DensityField], timestep: float) -> float:
    """Kinetic action int |d(mu)/dt|^2 dt of a density path.

    Velocities come from second-order finite differences (one-sided at the
    endpoints) fed through the weighted Poisson solve; the metric energy is
    accumulated by the trapezoid rule.  CompatibilityError propagates when
    the mass drifts along the path.
    """
    if len(path) < 3:
        raise ValueError("a path needs at least three samples")
    if not timestep > 0.0:
        raise ValueError(f"timestep must be positive, got {timestep!r}")
    g = path[0].grid
    for mu in path[1:]:
        if mu.grid != g:
            raise ValueError("path samples live on different grids")
    energies = []
    last = len(path) - 1
    for k, mu in enumerate(path):
        if k == 0:
            rate = (-3.0 * path[0].values + 4.0 * path[1].values - path[2].values)
        elif k == last:
            rate = (3.0 * path[last].values - 4.0 * path[last - 1].values
                    + path[last - 2].values)
        else:
            rate = path[k + 1].values - path[k - 1].values
        velocity = solve_velocity_potential(mu, rate / (2.0 * timestep))
        energies.append(tangent_inner(velocity, velocity))
    energies = np.asarray(energies)
    return float(timestep * (energies.sum() - 0.5 * (energies[0] + energies[-1])))
