"""Quantile transport on the cut circle.

Independent oracle: the monotone coupling built directly by two-pointer
mass splitting between fine histogram cells (65536 of them) of the two
trigonometric interpolants, cut at the shared low-density point.  For
translates of a localized bump the distance must equal the shift.
"""

import numpy as np
import pytest

from madflow import DensityField, Grid
from madflow.errors import CutError
from madflow.states import (
    perturbed_uniform_density,
    uniform_density,
    wrapped_gaussian_density,
)
from madflow.transport import (
    LADDER,
    displacement_geodesic,
    displacement_interpolation,
    joint_cut_index,
    path_action,
    quantile_table,
    w2_distance,
)

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
    with pytest.raises(ValueError):
        path_action(path, 0.0)
