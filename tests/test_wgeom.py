"""Tangent vectors, the weighted Poisson solve, gradients and the bundle.

Closed-form pairings used as oracles (all on L = 2 pi):
  * flat base, phi_a = phi_b = sin x:    <a, b> = 1/2
  * flat base, phi = sin 2x:             |phi|^2 = 2
  * (1 + cos x / 2)/2pi base, phi=sin x: <a, a> = 1/2   (odd terms drop)
"""

import tracemalloc

import numpy as np
import pytest

from madflow import DensityField, Grid, PhysicsConstants, PotentialField
from madflow.dynamics import madelung_evolve
from madflow.errors import BaseMismatchError, CompatibilityError, FoldError
from madflow.fields import functionals
from madflow.states import (
    cosine_bump_density,
    perturbed_uniform_density,
    random_density,
    random_zero_mean,
    uniform_density,
)
from madflow.wgeom import (
    StandardVectorFieldSpec,
    TangentBundlePoint,
    TangentVector,
    covariant_acceleration,
    fisher_generator,
    flow_kernel,
    hamiltonian,
    hamiltonian_flow,
    hamiltonian_vector_field,
    pushforward_density,
    solve_velocity_potential,
    symplectic_form,
    tangent_inner,
    wasserstein_gradient,
)


def test_tangent_vector_gauge_fixing():
    g = Grid(128)
    mu = perturbed_uniform_density(g, 0.4)
    v = TangentVector(mu, np.cos(g.points) + 5.0)
    assert abs(g.integrate(v.potential * mu.values)) < 1e-12
    # the additive constant is gone, the slope is untouched
    assert np.max(np.abs(g.derivative(v.potential) + np.sin(g.points))) < 1e-11


def test_divergence_form_carries_no_mass():
    g = Grid(128)
    rng = np.random.default_rng(0)
    mu = random_density(g, rng)
    v = TangentVector(mu, random_zero_mean(g, rng))
    assert abs(g.integrate(v.divergence_form)) < 1e-12


def test_metric_closed_forms():
    g = Grid(128)
    flat = uniform_density(g)
    a = TangentVector(flat, np.sin(g.points))
    b = TangentVector(flat, np.sin(2 * g.points))
    assert abs(tangent_inner(a, a) - 0.5) < 1e-13
    assert abs(tangent_inner(b, b) - 2.0) < 1e-13
    assert abs(a.norm() - np.sqrt(0.5)) < 1e-13
    tilted = perturbed_uniform_density(g, 0.5)
    c = TangentVector(tilted, np.sin(g.points))
    assert abs(tangent_inner(c, c) - 0.5) < 1e-13


def test_tangent_arithmetic_and_base_guard():
    g = Grid(64)
    mu = uniform_density(g)
    a = TangentVector(mu, np.sin(g.points))
    b = TangentVector(mu, np.cos(g.points))
    s = a + b
    assert np.max(np.abs(s.potential - (a.potential + b.potential))) < 1e-14
    assert np.max(np.abs((2.0 * a).potential - 2.0 * a.potential)) < 1e-14
    assert np.max(np.abs((-a).potential + a.potential)) < 1e-14
    other = TangentVector(perturbed_uniform_density(g, 0.2), np.sin(g.points))
    with pytest.raises(BaseMismatchError):
        a + other
    with pytest.raises(BaseMismatchError):
        tangent_inner(a, other)


def test_poisson_solve_round_trip():
    g = Grid(256)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        mu = random_density(g, rng, modes=3)
        v = TangentVector(mu, random_zero_mean(g, rng, modes=5))
        back = solve_velocity_potential(mu, v.divergence_form)
        assert np.max(np.abs(back.potential - v.potential)) < 1e-10
        assert abs(tangent_inner(back, v) - tangent_inner(v, v)) < 1e-10


def test_poisson_solve_rejects_net_mass():
    g = Grid(64)
    with pytest.raises(CompatibilityError):
        solve_velocity_potential(uniform_density(g), np.full(g.n, 0.1))


def test_pushforward_identity_and_change_of_variables():
    g = Grid(256)
    rng = np.random.default_rng(21)
    mu = random_density(g, rng, modes=3)
    psi = 0.2 * np.cos(g.points) + 0.1 * np.sin(2 * g.points)
    assert np.max(np.abs(pushforward_density(mu, psi, 0.0).values - mu.values)) == 0.0
    t = 0.3
    nu = pushforward_density(mu, psi, t)
    moved = g.points + t * g.derivative(psi)
    # int h dnu = int h(x + t psi') dmu for periodic test functions h
    for h in (np.cos, lambda y: np.sin(2 * y)):
        lhs = g.integrate(h(g.points) * nu.values)
        rhs = g.integrate(h(moved) * mu.values)
        assert abs(lhs - rhs) < 1e-12


def test_pushforward_memory_stays_linear_in_n():
    # off-grid evaluation keeps O(n) tables per Newton step, not an n x n matrix
    g = Grid(1024)
    rng = np.random.default_rng(22)
    mu = random_density(g, rng, modes=3)
    psi = random_zero_mean(g, rng, modes=3, amplitude=0.4)
    tracemalloc.start()
    try:
        pushforward_density(mu, psi, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pushforward_builds_one_taylor_table(monkeypatch):
    # the (slope, curvature, mu) stack is fixed, so every Newton iteration
    # sums the same table
    g = Grid(256)
    rng = np.random.default_rng(24)
    mu = random_density(g, rng, modes=3)
    psi = random_zero_mean(g, rng, modes=3, amplitude=0.4)
    calls = {"taylor_table": 0, "sample_table": 0}
    for name in calls:
        method = getattr(Grid, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(Grid, name, counted)
    pushforward_density(mu, psi, 0.3)
    assert calls["taylor_table"] == 1
    assert calls["sample_table"] >= 3  # several Newton iterations, then the values


def test_pushforward_fold_guard():
    g = Grid(128)
    mu = uniform_density(g)
    with pytest.raises(FoldError):
        pushforward_density(mu, np.cos(g.points), 1.2)


def test_fisher_generator_pairs_to_fisher_information():
    g = Grid(256)
    for seed in (1, 2):
        mu = random_density(g, np.random.default_rng(seed), modes=3)
        gen = fisher_generator(g, mu.values)
        vals = functionals(mu, PotentialField.zero(g), PhysicsConstants())
        assert abs(g.integrate(gen * mu.values) - vals.fisher) < 1e-10


def test_gradient_generators():
    g = Grid(256)
    mu = cosine_bump_density(g, np.pi, 1.5)
    V = PotentialField(g, np.cos(g.points))
    c = PhysicsConstants(2.0)

    pot = wasserstein_gradient("potential", mu, potential=V)
    assert np.max(np.abs(g.derivative(pot.potential) - g.derivative(V.values))) < 1e-10

    ent = wasserstein_gradient("entropy", mu)
    # divergence form of the entropy gradient is minus the laplacian
    assert np.max(np.abs(ent.divergence_form + g.laplacian(mu.values))) < 1e-8

    fis = wasserstein_gradient("fisher", mu)
    tot = wasserstein_gradient("total", mu, potential=V, constants=c)
    combo = TangentVector(mu, V.values + 0.125 * 4.0 * fis.potential)
    assert np.max(np.abs(tot.potential - combo.potential)) < 1e-10

    with pytest.raises(ValueError):
        wasserstein_gradient("potential", mu)
    with pytest.raises(ValueError):
        wasserstein_gradient("total", mu, potential=V)
    with pytest.raises(ValueError):
        wasserstein_gradient("curvature", mu)


def test_gradient_is_metric_dual_of_directional_derivative():
    # d/dt F(pushforward(mu, phi, t)) at t = 0 equals <grad F, v_phi>_mu
    g = Grid(256)
    mu = random_density(g, np.random.default_rng(4), modes=3)
    phi = 0.3 * np.sin(g.points) + 0.2 * np.cos(2 * g.points)
    v = TangentVector(mu, phi)
    V = PotentialField(g, 1.0 - np.cos(g.points))
    c = PhysicsConstants(1.0)
    h = 1e-5

    def value(kind, rho):
        vals = functionals(rho, V, c)
        return {"potential": vals.potential_energy, "entropy": vals.entropy,
                "fisher": vals.fisher, "total": vals.total_energy}[kind]

    plus = pushforward_density(mu, phi, h)
    minus = pushforward_density(mu, phi, -h)
    for kind in ("potential", "entropy", "fisher", "total"):
        grad = wasserstein_gradient(kind, mu, potential=V, constants=c)
        fd = (value(kind, plus) - value(kind, minus)) / (2 * h)
        pairing = tangent_inner(grad, v)
        assert abs(fd - pairing) < 1e-7 * max(1.0, abs(pairing))


def test_bundle_point_and_fiber_tangent():
    g = Grid(64)
    mu = perturbed_uniform_density(g, 0.3)
    pt = TangentBundlePoint(mu, np.sin(g.points) + 2.0)
    assert abs(g.integrate(pt.tangent.potential * mu.values)) < 1e-12
    assert pt.grid is g


def test_symplectic_form_closed_form_and_antisymmetry():
    g = Grid(128)
    pt = TangentBundlePoint(uniform_density(g), np.zeros(g.n))
    a = StandardVectorFieldSpec(g, np.sin(g.points), np.zeros(g.n))
    b = StandardVectorFieldSpec(g, np.zeros(g.n), np.sin(g.points))
    assert abs(symplectic_form(pt, a, b) - 0.5) < 1e-13
    assert abs(symplectic_form(pt, b, a) + 0.5) < 1e-13
    assert abs(symplectic_form(pt, a, a)) < 1e-13


def test_hamiltonian_closed_form():
    g = Grid(128)
    pt = TangentBundlePoint(uniform_density(g), np.sin(g.points))
    V = PotentialField(g, np.full(g.n, 0.7))
    assert abs(hamiltonian(pt, V, PhysicsConstants()) - (0.25 + 0.7)) < 1e-12


def test_hamiltonian_vector_field_satisfies_hamiltons_equation():
    # omega(X_H, W) = dH(W) for an arbitrary standard vector field W,
    # with dH taken by central differences along W's flow.
    g = Grid(256)
    rng = np.random.default_rng(14)
    mu = random_density(g, rng, modes=3)
    pt = TangentBundlePoint(mu, random_zero_mean(g, rng, modes=3))
    V = PotentialField(g, 1.0 - np.cos(g.points))
    c = PhysicsConstants(1.0)
    w = StandardVectorFieldSpec(g, random_zero_mean(g, rng, modes=3, amplitude=0.3),
                                random_zero_mean(g, rng, modes=3, amplitude=0.3))
    X = hamiltonian_vector_field(pt, V, c)
    lhs = symplectic_form(pt, X, w)
    h = 1e-4
    vals = []
    for sign in (1.0, -1.0):
        base = pushforward_density(mu, w.psi, sign * h)
        fiber = pt.fiber_potential + sign * h * w.phi
        vals.append(hamiltonian(TangentBundlePoint(base, fiber), V, c))
    rhs = (vals[0] - vals[1]) / (2 * h)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_madelung_step_is_rk4_of_the_hamiltonian_vector_field():
    # One solver step, recomposed by hand from the geometry's public
    # vector field: the base moves by the divergence form of the fiber,
    # the fiber by the drift of hamiltonian_vector_field.
    g = Grid(64)
    rng = np.random.default_rng(21)
    mu0 = random_density(g, rng, modes=3)
    start = TangentBundlePoint(mu0, random_zero_mean(g, rng, modes=3, amplitude=0.3))
    V = PotentialField(g, 1.0 - np.cos(g.points))
    c = PhysicsConstants(0.8)
    dt = 1e-3
    rec = madelung_evolve(start, V, c, dt, dt)

    def field(mu, s):
        base = DensityField(g, mu)
        flow = hamiltonian_vector_field(TangentBundlePoint(base, s), V, c)
        return TangentVector(base, s).divergence_form, flow.phi

    mu, s = g.dealias(mu0.values), g.dealias(start.fiber_potential)
    s = s - g.integrate(s * mu)
    k1 = field(mu, s)
    k2 = field(mu + 0.5 * dt * k1[0], s + 0.5 * dt * k1[1])
    k3 = field(mu + 0.5 * dt * k2[0], s + 0.5 * dt * k2[1])
    k4 = field(mu + dt * k3[0], s + dt * k3[1])
    mu = mu + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    s = s + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    s = s - g.integrate(s * mu)

    final = rec.states[-1]
    assert np.max(np.abs(final.base.values - mu)) < 1e-12
    assert np.max(np.abs(final.fiber_potential - s)) < 1e-12
    # and the step moved the state, so the comparison is not vacuous
    assert np.max(np.abs(final.base.values - rec.states[0].base.values)) > 1e-6


def test_hamiltonian_flow_fuses_its_transforms(fft_calls):
    # the half-spectrum kernel makes one inverse transform of (S, mu, mu, mu)
    # for dS/dx, mu, dmu/dx and lap mu, and one forward transform of the
    # flux and the pressure: 2 FFT calls, and the rates equal those built
    # from one transform per row, bit for bit
    g = Grid(256)
    rng = np.random.default_rng(25)
    mu = random_density(g, rng, modes=3).values
    s = random_zero_mean(g, rng, modes=3, amplitude=0.3)
    hbar = 0.8
    coef, v_hat = g.rfft(np.stack((mu, s))), g.rfft(1.0 - np.cos(g.points))
    kernel = flow_kernel(g, v_hat, hbar)
    before = len(fft_calls)
    rates = kernel(coef, np.empty_like(coef))
    assert len(fft_calls) - before == 2

    h = g.n // 2 + 1
    ik, mask = g.derivative_symbol[:h], g.dealias_mask[:h]
    mu_r, s_x = g.irfft(coef[0]), g.irfft(ik * coef[1])
    mu_x, lap_mu = g.irfft(ik * coef[0]), g.irfft(g.laplacian_symbol[:h] * coef[0])
    pressure = 0.5 * s_x * s_x + 0.125 * hbar ** 2 * (
        (mu_x / mu_r) ** 2 - 2.0 * lap_mu / mu_r)
    assert np.array_equal(rates[0], g.rfft(mu_r * s_x) * (-ik * mask))
    assert np.array_equal(rates[1], g.rfft(pressure) * -mask - v_hat)
    # the sample-space wrapper is the same kernel between one rfft and one irfft
    assert np.array_equal(hamiltonian_flow(g, mu, s, 1.0 - np.cos(g.points), hbar),
                          g.irfft(rates))


def test_covariant_acceleration_formula_and_guards():
    g = Grid(128)
    mu = perturbed_uniform_density(g, 0.2)
    h = 1e-3
    curve = [np.sin(g.points) * np.cos(t) for t in (-h, 0.0, h)]
    acc = covariant_acceleration(curve, mu, h)
    dt_phi = np.sin(g.points) * (np.cos(h) - np.cos(-h)) / (2 * h)
    generator = dt_phi + 0.5 * g.dealias(np.cos(g.points) ** 2)
    expected = TangentVector(mu, generator)
    assert np.max(np.abs(acc.potential - expected.potential)) < 1e-12
    with pytest.raises(ValueError):
        covariant_acceleration(curve[:2], mu, h)
    with pytest.raises(ValueError):
        covariant_acceleration(curve, mu, 0.0)


def test_geodesic_curve_has_vanishing_acceleration():
    # Velocity potentials read off a displacement flow by finite-difference
    # continuity solves form a curve with (numerically) zero covariant
    # acceleration: the defining property of an unforced path.
    g = Grid(256)
    mu = cosine_bump_density(g, np.pi, 1.0)
    psi = 0.1 * np.sin(g.points)
    h = 1e-3
    rhos = [pushforward_density(mu, psi, 0.1 + k * h) for k in range(-2, 3)]
    phis = []
    for i in (1, 2, 3):
        rate = (rhos[i + 1].values - rhos[i - 1].values) / (2 * h)
        phis.append(solve_velocity_potential(rhos[i], rate).potential)
    acc = covariant_acceleration(phis, rhos[2], h)
    scale = TangentVector(rhos[2], phis[1]).norm()
    assert acc.norm() < 1e-4 * scale
