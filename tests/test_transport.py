"""Quantile transport on the cut circle.

Independent oracle: the monotone coupling built directly by two-pointer
mass splitting between fine histogram cells (65536 of them) of the two
trigonometric interpolants, cut at the shared low-density point.  For
translates of a localized bump the distance must equal the shift.

The two spline kernels are checked against dense solves, their defining
smoothness and shape properties, their convergence order and, where scipy
is installed, scipy's interpolators.
"""

import math

import numpy as np
import pytest

from madflow import DensityField, Grid, scenarios
from madflow.errors import CompatibilityError, CutError, NonFiniteError
from madflow.states import (
    perturbed_uniform_density,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.transport import (
    _CHUNK_FLOATS,
    LADDER,
    _cumulative_from_cut,
    _pchip,
    _periodic_spline,
    _solve_cyclic,
    displacement_geodesic,
    displacement_interpolation,
    joint_cut_index,
    path_action,
    quantile_table,
    w2_distance,
)
from madflow.wgeom import solve_velocity_potential, tangent_inner

TAU = 2 * np.pi


def _geodesic_samples(mu: DensityField, nu: DensityField, count: int) -> list[DensityField]:
    """The displacement geodesic from mu to nu at `count` uniform parameters."""
    geodesic = displacement_geodesic(mu, nu)
    return [geodesic(t) for t in np.linspace(0.0, 1.0, count)]


def _brute_force_w2(mu: DensityField, nu: DensityField, cells: int = 65536) -> float:
    """Monotone mass splitting between fine histogram cells of mu and nu."""
    g = mu.grid
    cut = joint_cut_index(mu, nu)
    width = g.length / cells
    x = (np.arange(cells) + 0.5) * width
    offset = g.points[cut]
    heights = g.sample_all(np.vstack([mu.values, nu.values]), x + offset)
    a = heights[0] * width
    b = heights[1] * width
    a /= a.sum()
    b /= b.sum()
    i = j = 0
    cost = 0.0
    remaining_a = a[0]
    remaining_b = b[0]
    while i < cells and j < cells:
        moved = min(remaining_a, remaining_b)
        cost += moved * (x[i] - x[j]) ** 2
        remaining_a -= moved
        remaining_b -= moved
        if remaining_a <= remaining_b:
            i += 1
            if i < cells:
                remaining_a = a[i]
        else:
            j += 1
            if j < cells:
                remaining_b = b[j]
    return float(np.sqrt(cost))


def test_joint_cut_index():
    g = Grid(64)
    mu = wrapped_gaussian_density(g, 1.0, 0.5)
    nu = wrapped_gaussian_density(g, 1.5, 0.5)
    cut = joint_cut_index(mu, nu)
    assert cut == int(np.argmin(mu.values + nu.values))


def test_cut_gate_rejects_spread_mass():
    # Nowhere-vanishing densities leave no admissible cut point.
    g = Grid(64)
    with pytest.raises(CutError):
        w2_distance(uniform_density(g), perturbed_uniform_density(g, 0.3))
    rho = perturbed_uniform_density(g, 0.9)
    with pytest.raises(CutError):
        quantile_table(rho, int(np.argmin(rho.values)))


def test_quantile_table_structure():
    g = Grid(256)
    mu = wrapped_gaussian_density(g, np.pi, 0.4)
    positions = quantile_table(mu, int(np.argmin(mu.values)))
    assert positions.shape == (LADDER,)
    assert np.all(np.diff(positions) >= 0)
    assert positions[0] >= 0.0 and positions[-1] <= g.length


def test_quantile_table_median_of_symmetric_bump():
    g = Grid(256)
    mu = wrapped_gaussian_density(g, np.pi, 0.3)
    cut = int(np.argmin(mu.values))
    positions = quantile_table(mu, cut)
    median = np.interp(0.5, (np.arange(LADDER) + 0.5) / LADDER, positions)
    offset = g.points[cut]
    absolute = (median + offset) % g.length
    assert abs(absolute - np.pi) < 1e-8


_BUILTIN_PAIR = scenarios.builtin_mapping("benamou_brenier_action")["initial_state"]["parameters"]


@pytest.mark.parametrize("n, centers", [
    (256, _BUILTIN_PAIR["centers"]),
    (1024, _BUILTIN_PAIR["centers"]),
    (256, [0.4, 1.3]),  # a joint minimum away from index 0
])
def test_quantile_table_agrees_with_the_geodesic_endpoint_cdf(n, centers):
    # quantile_table takes its CDF from one real transform of two rows; the
    # geodesic's endpoints keep Grid.upsample and the complex antiderivative
    g = Grid(n)
    mu, nu = (wrapped_gaussian_density(g, c, _BUILTIN_PAIR["sigma"],
                                       _BUILTIN_PAIR["floor_weight"]) for c in centers)
    cut = joint_cut_index(mu, nu)
    assert (cut != 0) == (centers == [0.4, 1.3])
    p = (np.arange(LADDER) + 0.5) / LADDER
    complex_path = []
    for density in (mu, nu):
        x, cdf, _ = _cumulative_from_cut(density, cut)
        complex_path.append(_pchip(cdf, x, p))
        assert np.max(np.abs(quantile_table(density, cut) - complex_path[-1])) <= 1e-12
    gap = complex_path[0] - complex_path[1]
    assert abs(w2_distance(mu, nu) - np.sqrt(np.mean(gap * gap))) <= 1e-14


def test_w2_translate_oracle():
    g = Grid(256)
    for shift in (0.3, 0.9):
        mu = wrapped_gaussian_density(g, np.pi - shift / 2, 0.25)
        nu = wrapped_gaussian_density(g, np.pi + shift / 2, 0.25)
        d = w2_distance(mu, nu)
        assert abs(d - shift) < 1e-6
        assert abs(w2_distance(nu, mu) - d) < 1e-12
    same = wrapped_gaussian_density(g, np.pi, 0.25)
    assert w2_distance(same, same) < 1e-12


def test_w2_matches_brute_force_coupling():
    # 64 points: a width-0.4 packet is not resolved on 32
    g = Grid(64)
    cases = [
        (wrapped_gaussian_density(g, 2.6, 0.4), wrapped_gaussian_density(g, 3.7, 0.4)),
        (wrapped_gaussian_density(g, 3.0, 0.4), wrapped_gaussian_density(g, 3.4, 0.45)),
    ]
    for mu, nu in cases:
        fast = w2_distance(mu, nu)
        brute = _brute_force_w2(mu, nu)
        assert abs(fast - brute) < 1e-6


def test_displacement_endpoints_and_validation():
    g = Grid(256)
    mu = wrapped_gaussian_density(g, 2.8, 0.3)
    nu = wrapped_gaussian_density(g, 3.5, 0.3)
    start = displacement_interpolation(mu, nu, 0.0)
    end = displacement_interpolation(mu, nu, 1.0)
    assert np.max(np.abs(start.values - mu.values)) < 1e-7
    assert np.max(np.abs(end.values - nu.values)) < 1e-7
    with pytest.raises(ValueError):
        displacement_interpolation(mu, nu, -0.1)
    with pytest.raises(ValueError):
        displacement_interpolation(mu, nu, 1.1)


def test_displacement_of_translates_is_a_translate():
    g = Grid(256)
    shift = 0.8
    mu = wrapped_gaussian_density(g, np.pi - shift / 2, 0.3)
    nu = wrapped_gaussian_density(g, np.pi + shift / 2, 0.3)
    mid = displacement_interpolation(mu, nu, 0.5)
    expected = wrapped_gaussian_density(g, np.pi, 0.3)
    assert np.max(np.abs(mid.values - expected.values)) < 1e-6


def test_displacement_path_has_constant_speed():
    g = Grid(256)
    mu = wrapped_gaussian_density(g, 2.9, 0.3)
    nu = wrapped_gaussian_density(g, 3.6, 0.3)
    total = w2_distance(mu, nu)
    path = _geodesic_samples(mu, nu, 5)
    for k, rho in enumerate(path):
        t = k / 4
        assert abs(w2_distance(mu, rho) - t * total) < 1e-6


def test_path_action_equals_squared_distance():
    g = Grid(128)
    mu = wrapped_gaussian_density(g, 2.9, 0.35)
    nu = wrapped_gaussian_density(g, 3.6, 0.35)
    count = 33
    path = _geodesic_samples(mu, nu, count)
    action = path_action(path, 1.0 / (count - 1))
    w2sq = w2_distance(mu, nu) ** 2
    assert abs(action - w2sq) / w2sq < 1e-3


def test_perturbed_paths_cost_more():
    g = Grid(128)
    mu = wrapped_gaussian_density(g, 2.9, 0.35)
    nu = wrapped_gaussian_density(g, 3.6, 0.35)
    count = 33
    dt = 1.0 / (count - 1)
    path = _geodesic_samples(mu, nu, count)
    base_action = path_action(path, dt)
    rng = np.random.default_rng(13)
    for _ in range(3):
        mode = int(rng.integers(1, 4))
        bent = []
        for k, rho in enumerate(path):
            envelope = 0.03 * np.sin(np.pi * k / (count - 1))
            tilt = 1.0 + envelope * np.cos(mode * g.points + rng.uniform(0, TAU))
            from madflow.fields import normalize_density
            bent.append(normalize_density(g, rho.values * tilt))
        assert path_action(bent, dt) > base_action


def test_path_action_validation():
    g = Grid(128)
    mu = wrapped_gaussian_density(g, 2.9, 0.35)
    nu = wrapped_gaussian_density(g, 3.6, 0.35)
    path = _geodesic_samples(mu, nu, 5)
    with pytest.raises(ValueError):
        path_action(path[:2], 0.1)
    for timestep in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            path_action(path, timestep)
    # a subnormal step overflows the rates
    with pytest.raises(NonFiniteError):
        path_action(path, 1e-310)


def _looped_action(path: list[DensityField], timestep: float) -> float:
    """The action as one weighted Poisson solve per sample, then the trapezoid;
    the rates are `np.gradient`'s second-order formulas written out."""
    f = [mu.values for mu in path]
    energies = []
    for k, mu in enumerate(path):
        if k == 0:
            rate = (-1.5 / timestep) * f[0] + (2.0 / timestep) * f[1] + (-0.5 / timestep) * f[2]
        elif k == len(path) - 1:
            rate = (0.5 / timestep) * f[-3] + (-2.0 / timestep) * f[-2] + (1.5 / timestep) * f[-1]
        else:
            rate = (f[k + 1] - f[k - 1]) / (2.0 * timestep)
        velocity = solve_velocity_potential(mu, rate)
        energies.append(tangent_inner(velocity, velocity))
    energies = np.asarray(energies)
    return float(timestep * (energies.sum() - 0.5 * (energies[0] + energies[-1])))


@pytest.mark.parametrize("n", [64, 1024])
def test_stacked_path_action_is_the_per_sample_loop(n):
    # lengths inside one chunk, filling it, one past it and, at n = 1024,
    # across four chunks: each sample's energy is the one-sample solve's
    g = Grid(n)
    mu = wrapped_gaussian_density(g, 2.9, 0.35)
    nu = wrapped_gaussian_density(g, 3.6, 0.35)
    geodesic = displacement_geodesic(mu, nu)
    rows = max(1, _CHUNK_FLOATS // n)
    for count in (3, rows, rows + 1, 64):
        path = [geodesic(t) for t in np.linspace(0.0, 1.0, count)]
        timestep = 1.0 / (count - 1)
        assert path_action(path, timestep) == _looped_action(path, timestep)


def test_path_action_names_the_drifting_sample():
    g = Grid(128)
    mu = wrapped_gaussian_density(g, 2.9, 0.35)
    nu = wrapped_gaussian_density(g, 3.6, 0.35)
    path = _geodesic_samples(mu, nu, 5)
    # masses 1 + 1e-13 k stay within MASS_TOL; every rate carries ~1e-9
    drifting = [DensityField(g, rho.values * (1.0 + 1e-13 * k)) for k, rho in enumerate(path)]
    with pytest.raises(CompatibilityError, match=r"^path sample 0: source carries net mass"):
        path_action(drifting, 1e-4)
    # at n = 1024 a chunk holds 16 samples: a mass step at sample 20 first
    # shows in sample 19's central rate, row 3 of the second chunk
    g = Grid(1024)
    geodesic = displacement_geodesic(wrapped_gaussian_density(g, 2.9, 0.35),
                                     wrapped_gaussian_density(g, 3.6, 0.35))
    path = [geodesic(t) for t in np.linspace(0.0, 1.0, 40)]
    drifting = [DensityField(g, rho.values * (1.0 + 1e-13 * (k >= 20)))
                for k, rho in enumerate(path)]
    with pytest.raises(CompatibilityError, match=r"^path sample 19: ") as err:
        path_action(drifting, 1e-4)
    assert err.value.row == 19


def _dense_cyclic(diag, off):
    """The matrix of `_solve_cyclic`'s system: off[i] couples i and i + 1 mod N."""
    size = len(diag)
    matrix = np.diag(diag)
    for i in range(size):
        matrix[i, (i + 1) % size] += off[i]
        matrix[(i + 1) % size, i] += off[i]
    return matrix


def _warped_knots(count: int) -> np.ndarray:
    """`count` increasing, non-uniform knots on one period from 0.1."""
    u = TAU * np.arange(count) / count
    return u + 0.5 * np.sin(u) + 0.1


def _cubic_pieces(x, y, period):
    """Each spline interval's cubic in s = (q - x[i]) / h[i], fitted through
    four interior samples: coefficients (4, N) of 1, s, s^2, s^3, and h."""
    h = np.diff(np.append(x, x[0] + period))
    s = np.array([0.2, 0.4, 0.6, 0.8])
    samples = _periodic_spline(x, y, period, x[None, :] + s[:, None] * h[None, :])
    return np.linalg.solve(np.vander(s, 4, increasing=True), samples), h


def test_cyclic_solver_matches_a_dense_solve():
    rng = np.random.default_rng(5)
    for size in (1, 2, 4, 8, 64):
        off = rng.uniform(-1.0, 1.0, size)
        diag = rng.uniform(2.1, 3.0, size) * rng.choice([-1.0, 1.0], size)
        rhs = rng.uniform(-1.0, 1.0, size)
        expected = np.linalg.solve(_dense_cyclic(diag, off), rhs)
        assert np.max(np.abs(_solve_cyclic(diag, off, rhs) - expected)) < 1e-14
    for size in (3, 12):
        with pytest.raises(ValueError):
            _solve_cyclic(np.full(size, 3.0), np.ones(size), np.ones(size))


def test_periodic_spline_interpolates_and_is_c2_across_every_knot():
    x = _warped_knots(64)
    y = np.exp(np.sin(x)) + 0.3 * np.cos(5 * x)
    assert np.max(np.abs(_periodic_spline(x, y, TAU, x) - y)) < 1e-15
    # one period on, and one back
    assert np.max(np.abs(_periodic_spline(x, y, TAU, x + TAU) - y)) < 1e-14
    assert np.max(np.abs(_periodic_spline(x, y, TAU, x - TAU) - y)) < 1e-14
    c, h = _cubic_pieces(x, y, TAU)
    # value, slope and curvature at each interval's two ends; the right end
    # of the last interval meets the left end of the first across the wrap
    left = np.array([c[0], c[1] / h, 2 * c[2] / h**2])
    right = np.array([c.sum(axis=0), (c[1] + 2 * c[2] + 3 * c[3]) / h,
                      (2 * c[2] + 6 * c[3]) / h**2])
    jumps = np.abs(np.roll(left, -1, axis=1) - right)
    scales = np.max(np.abs(left), axis=1, keepdims=True)
    assert np.all(jumps < 1e-9 * scales)


def test_periodic_spline_error_falls_sixteenfold_per_doubling():
    def f(x):
        return np.sin(x) + 0.5 * np.cos(3 * x)

    q = TAU * (np.arange(1000) + 0.5) / 1000
    errors = []
    for count in (32, 64, 128, 256):
        x = _warped_knots(count)
        errors.append(np.max(np.abs(_periodic_spline(x, f(x), TAU, q) - f(q))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios > 12.0) & (ratios < 20.0)), ratios


def test_pchip_reproduces_lines_and_keeps_monotone_data_monotone():
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.uniform(0.1, 1.0, 40))
    q = np.linspace(x[0], x[-1], 2001)
    assert np.max(np.abs(_pchip(x, 2.5 * x - 1.0, q) - (2.5 * q - 1.0))) < 1e-13
    steps = rng.uniform(0.0, 1.0, 39) ** 4
    steps[[5, 6, 20]] = 0.0  # flat stretches
    # end secants that the three-point end rule would overshoot below zero
    steps[[0, -1]] = 1e-3
    steps[[1, -2]] = 1.0
    y = np.concatenate([[0.0], np.cumsum(steps)])
    assert np.all(np.diff(_pchip(x, y, q)) >= 0.0)
    assert np.all(np.diff(_pchip(x, -y, q)) <= 0.0)
    assert np.array_equal(_pchip(x, y, x), y)


def test_spline_kernels_agree_with_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(21)
    x = np.cumsum(rng.uniform(0.1, 1.0, 64))
    q = np.linspace(x[0] - 1.0, x[-1] + 1.0, 3001)
    rising = np.cumsum(rng.uniform(0.0, 1.0, 64))
    # both end slopes capped at 3 secants next to a sign change
    wavy = np.concatenate([[0.0, 1.0, -5.0], rng.normal(size=58), [-5.0, 1.0, 0.0]])
    for y in (rising, wavy):
        expected = interpolate.PchipInterpolator(x, y)(q)
        assert np.max(np.abs(_pchip(x, y, q) - expected)) <= 1e-14 * np.max(np.abs(expected))
    knots = _warped_knots(256)
    values = np.exp(np.sin(knots))
    q = np.linspace(-1.0, TAU + 1.0, 3001)
    periodic = interpolate.CubicSpline(np.append(knots, knots[0] + TAU),
                                       np.append(values, values[0]), bc_type="periodic")
    expected = periodic(q)
    got = _periodic_spline(knots, values, TAU, q)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
