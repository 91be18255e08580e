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

from typing import Sequence

import numpy as np

from .errors import CutError, NodeError
from .fields import DensityField, normalize_density
from .grid import Grid
from .wgeom import solve_velocity_potential, tangent_inner

DEFAULT_LADDER = 4096
CUT_MASS_TOL = 1e-8
_REFINE = 16


def splines():
    """scipy's (CubicSpline, PchipInterpolator), imported on first call.

    scipy.interpolate pulls in scipy.special and scipy.optimize, about
    0.6 s of start-up that only transport needs, so no solver but the
    displacement runner pays it.  `ScenarioConfig.from_mapping` calls this
    for displacement configs, which keeps the import out of the solve.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator
    return CubicSpline, PchipInterpolator


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


def _resolved_fine(density: DensityField) -> np.ndarray:
    """The density's interpolant on the refined grid; NodeError unless positive."""
    fine = density.grid.upsample(density.values, _REFINE)
    if fine.min() <= 0.0:
        raise NodeError("density is not resolved (its interpolant is not positive)")
    return fine


def _cumulative_from_cut(density: DensityField, cut_index: int):
    """Fine-grid positions (relative to the cut) and exact running mass.

    Returns (x, cdf, fine) with x including both endpoints 0 and L,
    cdf[0] = 0 and cdf[-1] = 1 exactly, and `fine` the density's
    interpolant on the fine grid points x[:-1].  A density the grid does
    not resolve raises NodeError.
    """
    g = density.grid
    fine_grid = g.refined(_REFINE)
    fine = np.roll(_resolved_fine(density), -cut_index * _REFINE)
    mean = 1.0 / g.length
    # Quantiles in floor-level tails magnify CDF rounding by 1/mu (~1e9): real
    # transforms moved path densities by 2e-8, so the CDF keeps complex ones.
    anti = fine_grid.antiderivative((fine - mean).astype(complex)).real
    cdf = (anti - anti[0]) + mean * fine_grid.points
    x = np.append(fine_grid.points, g.length)
    cdf = np.append(cdf, 1.0)
    if not np.all(np.diff(cdf) > 0.0):
        raise NodeError("density is not resolved (its cumulative distribution "
                        "is not strictly increasing)")
    return x, cdf, fine


def quantile_table(density: DensityField, ladder: int = DEFAULT_LADDER,
                   cut_index: int | None = None) -> np.ndarray:
    """Quantiles at the midpoint probabilities (i + 1/2)/ladder, measured
    from the cut point (coordinates on [0, L))."""
    if ladder < 2:
        raise ValueError(f"ladder size must be >= 2, got {ladder!r}")
    if cut_index is None:
        cut_index = int(np.argmin(density.values))
    _check_cut_mass(density, cut_index)
    x, cdf, _ = _cumulative_from_cut(density, cut_index)
    p = (np.arange(ladder) + 0.5) / ladder
    _, PchipInterpolator = splines()
    return PchipInterpolator(cdf, x)(p)


def w2_distance(mu: DensityField, nu: DensityField,
                ladder: int = DEFAULT_LADDER) -> float:
    """Quadratic transport distance via the quantile ladder.

    W2^2 = int_0^1 |q_mu(p) - q_nu(p)|^2 dp, midpoint rule on the ladder.
    """
    _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    diff = quantile_table(mu, ladder, cut) - quantile_table(nu, ladder, cut)
    return float(np.sqrt(np.mean(diff * diff)))


def _check_parameter(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t!r}")


def displacement_geodesic(mu: DensityField, nu: DensityField):
    """The displacement interpolation from mu to nu, as a function of t.

    The t-independent part (cut, fine samples, both CDFs, the monotone
    map T and its slope T' = mu / nu(T)) is built once here; each call of
    the returned function, with t in [0, 1], only warps the fine samples
    and resamples them to the base grid.  A sample the grid does not
    resolve raises NodeError, as an unresolved endpoint does here.
    """
    g = _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    _check_cut_mass(mu, cut)
    _check_cut_mass(nu, cut)
    CubicSpline, PchipInterpolator = splines()

    x_mu, cdf_mu, mu_fine = _cumulative_from_cut(mu, cut)
    x_nu, cdf_nu, nu_fine = _cumulative_from_cut(nu, cut)
    transport = PchipInterpolator(cdf_nu, x_nu)(cdf_mu[:-1])
    fine_points = x_mu[:-1]

    # nu evaluated along the map, through a periodic spline of its samples
    nu_spline = CubicSpline(x_nu, np.append(nu_fine, nu_fine[0]), bc_type="periodic")
    slope = mu_fine / nu_spline(np.mod(transport, g.length))
    base_rel = np.mod(g.points - g.points[cut], g.length)

    def at(t: float) -> DensityField:
        _check_parameter(t)
        warped = (1.0 - t) * fine_points + t * transport
        values = mu_fine / ((1.0 - t) + t * slope)
        # monotone resample back to the base grid (periodic extension)
        extended_x = np.concatenate([warped - g.length, warped, warped + g.length])
        extended_v = np.tile(values, 3)
        resampled = normalize_density(g, CubicSpline(extended_x, extended_v)(base_rel))
        _resolved_fine(resampled)
        return resampled

    return at


def displacement_interpolation(mu: DensityField, nu: DensityField,
                               t: float) -> DensityField:
    """Pushforward of mu under x -> (1 - t) x + t T(x) on the cut interval.

    The density along the interpolation is mu / ((1 - t) + t T'), with
    T' = mu / nu(T) by mass conservation, evaluated on the fine grid and
    resampled back to the base grid.  Several samples of one geodesic
    should share one `displacement_geodesic`.
    """
    _check_parameter(t)
    return displacement_geodesic(mu, nu)(t)


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
