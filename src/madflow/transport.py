"""One-dimensional optimal transport through quantile functions.

The circle is treated as the interval [0, L) cut at the joint density
minimum; densities must carry negligible mass at the cut (CutError
otherwise), which makes the periodic problem equivalent to transport on
the line.  Cumulative distributions are built from the spectral
antiderivative of the trigonometric interpolant on a refined grid (16n
points), so quantiles of resolved densities are accurate far beyond the
ladder resolution.

Two numpy spline kernels do the interpolation.  A monotone piecewise
cubic (PCHIP) inverts the CDFs, for the quantile ladder and the transport
map.  A C2 periodic cubic spline, its slopes from one cyclic tridiagonal
solve, evaluates nu along the map and resamples each displacement sample
from its 16n warped fine points back to the base grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CutError, NodeError
from .fields import DensityField, normalize_density
from .grid import Grid
from .wgeom import solve_velocity_potential, tangent_inner

LADDER = 4096
CUT_MASS_TOL = 1e-8
_REFINE = 16


def _hermite(x, y, slopes, q):
    """The cubic Hermite interpolant of knots x, values y and knot slopes at q.

    Each query uses the interval that contains it: [x[i], x[i+1]), the last
    one closed, the end ones extended.  The arithmetic is scipy's PPoly
    power basis term by term, so PCHIP reproduces scipy's bit for bit.
    """
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(x) - 2)
    h = x[i + 1] - x[i]
    secant = (y[i + 1] - y[i]) / h
    d0, d1 = slopes[i], slopes[i + 1]
    excess = (d0 + d1 - 2 * secant) / h
    s = q - x[i]
    s2 = s * s
    return y[i] + d0 * s + ((secant - d0) / h - excess) * s2 + (excess / h) * (s2 * s)


def _pchip(x, y, q):
    """The monotone piecewise cubic (PCHIP, Fritsch & Butland) through
    (x, y), x increasing with at least three knots, at q.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, 0 at a local extremum or a flat secant; each end slope is the
    one-sided three-point estimate, set to 0 when its sign disagrees with
    the end secant and to 3 secants when it overshoots next to a sign
    change (Moler, Numerical Computing with MATLAB, 3.6).
    """
    h = np.diff(x)
    m = np.diff(y) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

    def end(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    slopes = np.concatenate([[end(h[0], h[1], m[0], m[1])], interior,
                             [end(h[-1], h[-2], m[-1], m[-2])]])
    return _hermite(x, y, slopes, q)


def _previous(v):
    """v[i - 1] at each i, cyclically: np.roll(v, 1) without its overhead."""
    return np.concatenate((v[-1:], v[:-1]))


def _solve_cyclic(diag, off, rhs):
    """Solve the symmetric cyclic tridiagonal system
    off[i-1] u[i-1] + diag[i] u[i] + off[i] u[i+1] = rhs[i] (indices mod N)
    by cyclic reduction, which is stable on diagonally dominant rows.

    Each level eliminates the odd unknowns from the even rows and leaves a
    symmetric cyclic system of half the size, so N must be a power of two.
    """
    size = len(diag)
    if size < 1 or size & (size - 1):
        raise ValueError(f"cyclic reduction needs a power-of-two size, got {size}")
    b, e, d = diag, off, rhs
    levels = []
    while len(b) > 1:
        e_even, e_odd, d_odd = e[0::2], e[1::2], d[1::2]
        w = 1.0 / b[1::2]
        gamma = e_even * w  # weight of the odd row after each even row
        alpha = e_odd * w  # ... and of the odd row before the next even row
        levels.append((e_even, e_odd, d_odd, w))
        b = b[0::2] - _previous(alpha * e_odd) - gamma * e_even
        d = d[0::2] - _previous(alpha * d_odd) - gamma * d_odd
        e = -gamma * e_odd
    u = d / (b + 2 * e)
    for e_even, e_odd, d_odd, w in reversed(levels):
        full = np.empty(2 * len(u))
        full[0::2] = u
        full[1::2] = (d_odd - e_even * u - e_odd * np.concatenate((u[1:], u[:1]))) * w
        u = full
    return u


def _periodic_spline(x, y, period, q):
    """The C2 periodic cubic spline through (x, y) at q.

    x is increasing with x[-1] < x[0] + period, and its length a power of
    two.  With spacings h and secants m, the knot slopes s solve the C2
    conditions divided by h[i-1] h[i], a symmetric cyclic system:
    s[i-1] / h[i-1] + 2 (1 / h[i-1] + 1 / h[i]) s[i] + s[i+1] / h[i]
        = 3 (m[i-1] / h[i-1] + m[i] / h[i]).
    """
    knots = np.append(x, x[0] + period)
    values = np.append(y, y[0])
    r = 1.0 / np.diff(knots)
    mr = np.diff(values) * r * r
    slopes = _solve_cyclic(2 * (_previous(r) + r), r, 3 * (_previous(mr) + mr))
    # each query moved by whole periods into [x[0], x[0] + period)
    q = q - period * np.floor((q - x[0]) / period)
    return _hermite(knots, values, np.append(slopes, slopes[0]), q)


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


def quantile_table(density: DensityField, cut_index: int) -> np.ndarray:
    """Quantiles at the midpoint probabilities (i + 1/2)/LADDER, measured
    from the cut point (coordinates on [0, L))."""
    _check_cut_mass(density, cut_index)
    x, cdf, _ = _cumulative_from_cut(density, cut_index)
    p = (np.arange(LADDER) + 0.5) / LADDER
    return _pchip(cdf, x, p)


def w2_distance(mu: DensityField, nu: DensityField) -> float:
    """Quadratic transport distance via the quantile ladder.

    W2^2 = int_0^1 |q_mu(p) - q_nu(p)|^2 dp, midpoint rule on the ladder.
    """
    return w2_distances([mu], nu)[0]


def w2_distances(path: Sequence[DensityField], nu: DensityField) -> list[float]:
    """`w2_distance(mu, nu)` for each mu of `path`, with nu's quantile
    table built once per distinct joint cut."""
    tables: dict[int, np.ndarray] = {}
    out = []
    for mu in path:
        _require_shared_grid(mu, nu)
        cut = joint_cut_index(mu, nu)
        table = quantile_table(mu, cut)
        if cut not in tables:
            tables[cut] = quantile_table(nu, cut)
        diff = table - tables[cut]
        out.append(float(np.sqrt(np.mean(diff * diff))))
    return out


def displacement_geodesic(mu: DensityField, nu: DensityField):
    """The displacement interpolation from mu to nu, as a function of t.

    The t-independent part (cut, fine samples, both CDFs, the monotone
    map T and its slope T' = mu / nu(T)) is built once here; each call of
    the returned function, with t in [0, 1], only warps the fine samples
    and resamples them to the base grid through the periodic spline on the
    16n warped knots.  A sample the grid does not resolve raises NodeError,
    as an unresolved endpoint does here.
    """
    g = _require_shared_grid(mu, nu)
    cut = joint_cut_index(mu, nu)
    _check_cut_mass(mu, cut)
    _check_cut_mass(nu, cut)

    x_mu, cdf_mu, mu_fine = _cumulative_from_cut(mu, cut)
    x_nu, cdf_nu, nu_fine = _cumulative_from_cut(nu, cut)
    transport = _pchip(cdf_nu, x_nu, cdf_mu[:-1])
    fine_points = x_mu[:-1]

    # nu evaluated along the map, through a periodic spline of its samples
    slope = mu_fine / _periodic_spline(x_nu[:-1], nu_fine, g.length,
                                       np.mod(transport, g.length))
    base_rel = np.mod(g.points - g.points[cut], g.length)

    def at(t: float) -> DensityField:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"interpolation parameter must lie in [0, 1], got {t!r}")
        warped = (1.0 - t) * fine_points + t * transport
        values = mu_fine / ((1.0 - t) + t * slope)
        # resample to the base grid through the periodic spline on the warped knots
        resampled = normalize_density(g, _periodic_spline(warped, values, g.length, base_rel))
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
