"""One-dimensional optimal transport through quantile functions.

The circle is treated as the interval [0, L) cut at the joint density
minimum; densities must carry negligible mass at the cut (CutError otherwise),
which makes the periodic problem equivalent to transport on the line.  CDFs
come from the spectral antiderivative of the interpolant on a 16n-point grid,
so resolved quantiles are accurate far beyond the ladder: quantile tables take
it from one real transform of two rows, the displacement geodesic's endpoints
from complex ones, whose tail rounding sets the path's bits.

Two numpy spline kernels do the interpolation.  A monotone piecewise
cubic (PCHIP) inverts the CDFs, for the quantile ladder and the transport
map.  A C2 periodic cubic spline, its slopes from one cyclic tridiagonal
solve, evaluates nu along the map and resamples each displacement sample
from its 16n warped fine points back to the base grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CompatibilityError, CutError, NodeError, NonFiniteError
from .fields import DensityField, normalize_density
from .grid import Grid
from .wgeom import green_operator, mean_free, metric_pairing

LADDER = 4096
CUT_MASS_TOL = 1e-8
_REFINE = 16
# floats per array in one stacked chunk of `path_action`'s solve: a whole
# 64-sample path at n = 256, and no rise in peak memory at n = 1024
_CHUNK_FLOATS = 2 ** 14


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


def _resolved(fine: np.ndarray) -> np.ndarray:
    """`fine`, a density's interpolant on the refined grid; NodeError unless positive."""
    if fine.min() <= 0.0:
        raise NodeError("density is not resolved (its interpolant is not positive)")
    return fine


def _fine_rows(density: DensityField, cut_index: int, antiderivative: bool) -> np.ndarray:
    """The interpolant on the 16n grid from the cut and, with `antiderivative`,
    its zero-mean part's antiderivative: one rfft, the Nyquist coefficient
    halved as in `Grid.upsample`, one irfft.  NodeError unless positive."""
    g = density.grid
    coef = g.rfft(density.values) * _REFINE  # modes 0 .. n/2
    coef[-1] *= 0.5
    spectrum = np.zeros((1 + antiderivative, _REFINE * g.n // 2 + 1), dtype=complex)
    spectrum[0, :coef.size] = coef
    if antiderivative:
        spectrum[1, 1:coef.size] = coef[1:] / (1j * np.abs(g.wavenumbers[1:coef.size]))
    rows = np.roll(g.refined(_REFINE).irfft(spectrum), -cut_index * _REFINE, axis=1)
    _resolved(rows[0])
    return rows


def _running_mass(g: Grid, anti: np.ndarray):
    """(x, cdf): fine positions from the cut, ends 0 and L, and the running mass
    from `anti`, cdf[0] = 0 and cdf[-1] = 1 exactly; NodeError unless increasing."""
    points = g.refined(_REFINE).points
    cdf = np.append((anti - anti[0]) + (1.0 / g.length) * points, 1.0)
    if not np.all(np.diff(cdf) > 0.0):
        raise NodeError("density is not resolved (its cumulative distribution "
                        "is not strictly increasing)")
    return np.append(points, g.length), cdf


def _cumulative_from_cut(density: DensityField, cut_index: int):
    """(x, cdf, fine): `_running_mass` and the interpolant on x[:-1], through
    `Grid.upsample` and a complex antiderivative; NodeError if unresolved.

    Only the geodesic's endpoints take it: tail quantiles magnify CDF rounding
    by 1/mu (~1e9), and real transforms here moved `bb_action_n256`'s path
    densities by 5.4e-8, so they wait for the CDF's cancellation to be fixed.
    """
    g = density.grid
    fine = np.roll(_resolved(g.upsample(density.values, _REFINE)), -cut_index * _REFINE)
    anti = g.refined(_REFINE).antiderivative((fine - 1.0 / g.length).astype(complex)).real
    return (*_running_mass(g, anti), fine)


def quantile_table(density: DensityField, cut_index: int) -> np.ndarray:
    """Quantiles at the midpoint probabilities (i + 1/2)/LADDER, measured
    from the cut point (coordinates on [0, L))."""
    _check_cut_mass(density, cut_index)
    x, cdf = _running_mass(density.grid, _fine_rows(density, cut_index, antiderivative=True)[1])
    return _pchip(cdf, x, (np.arange(LADDER) + 0.5) / LADDER)


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
        _fine_rows(resampled, 0, antiderivative=False)
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

    Rates come from one `np.gradient` call over the stacked path, second
    order with one-sided ends, fed through the weighted Poisson solve; the
    metric energy is accumulated by the trapezoid rule.  The solve runs in
    stacked chunks of max(1, 2**14 // n) rows, at most 2**14 floats per
    array, through `wgeom.green_operator` and `wgeom.metric_pairing`, each
    row bit for bit the one-sample solve.  Raises ValueError for fewer than
    three samples, samples on different grids or a timestep that is not
    finite and positive, NonFiniteError when a rate overflows, and
    CompatibilityError, naming the first such sample, when the mass drifts
    along the path.
    """
    if len(path) < 3:
        raise ValueError("a path needs at least three samples")
    if not 0.0 < timestep < np.inf:
        raise ValueError(f"timestep must be finite and positive, got {timestep!r}")
    g = path[0].grid
    for mu in path[1:]:
        if mu.grid != g:
            raise ValueError("path samples live on different grids")
    mus = np.stack([mu.values for mu in path])
    # second order on purpose: the splines bound bb_action_match, and five points read worse
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.gradient(mus, timestep, axis=0, edge_order=2)
    if not np.isfinite(rates).all():
        raise NonFiniteError(f"path rates overflow at timestep {timestep!r}")
    rows = max(1, _CHUNK_FLOATS // g.n)
    energies = np.empty(len(path))
    for start in range(0, len(path), rows):
        chunk = slice(start, start + rows)
        try:
            phi = green_operator(g, mus[chunk], rates[chunk])
        except CompatibilityError as err:
            sample = start + err.row
            raise CompatibilityError(f"path sample {sample}: {err}", row=sample) from None
        velocity = mean_free(g, mus[chunk], phi)
        energies[chunk] = metric_pairing(g, mus[chunk], velocity, velocity)[:, 0]
    return float(timestep * (energies.sum() - 0.5 * (energies[0] + energies[-1])))
