"""Spectral calculus on the periodic grid: exactness on resolved modes."""

import numpy as np
import pytest

from madflow import Grid, MadflowError, NonFiniteError
from madflow.grid import TAU

# A real field goes through the half-spectrum real transforms and a complex
# one through the full complex transforms; every calculus test holds both
# branches to the same closed form by also running on a complex multiple
# of its real field (the operators are complex linear).
BRANCH_SCALES = (1.0, 0.6 - 0.8j)


def _lift(f, scale):
    return f if scale == 1.0 else scale * f


def test_points_and_spacing():
    g = Grid(16, 4.0)
    assert g.spacing == 0.25
    assert np.allclose(g.points, np.arange(16) * 0.25)
    assert g.points[0] == 0.0


def test_mode_number_ordering():
    g = Grid(8)
    assert list(g.mode_numbers) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert np.allclose(g.wavenumbers, g.mode_numbers * (TAU / g.length))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(12)  # not a power of two
    with pytest.raises(ValueError):
        Grid(4)  # too small
    with pytest.raises(ValueError):
        Grid(16, -1.0)
    with pytest.raises(ValueError):
        Grid(16, np.inf)


def test_check_values_rejects_bad_fields():
    g = Grid(16)
    with pytest.raises(ValueError):
        g.derivative(np.zeros(17))
    with pytest.raises(ValueError):
        g.integrate(np.full(16, np.nan))
    # a MadflowError too, so an overflow during a solve is a run failure
    with pytest.raises(NonFiniteError):
        g.integrate(np.full(16, np.inf))
    assert issubclass(NonFiniteError, MadflowError)


def test_derivative_exact_on_trig_modes():
    g = Grid(256)
    x = g.points
    for m in (1, 3, 17, 80):
        f = np.cos(m * x) + 0.5 * np.sin(m * x)
        exact = -m * np.sin(m * x) + 0.5 * m * np.cos(m * x)
        scale = max(1.0, np.max(np.abs(exact)))
        for c in BRANCH_SCALES:
            out = g.derivative(_lift(f, c))
            assert np.max(np.abs(out - _lift(exact, c))) < 1e-12 * scale


def test_derivative_exact_on_general_length():
    L = 3.7
    g = Grid(128, L)
    x = g.points
    k = 2 * TAU / L  # mode number 2
    f = np.sin(k * x + 0.3)
    exact = k * np.cos(k * x + 0.3)
    for c in BRANCH_SCALES:
        assert np.max(np.abs(g.derivative(_lift(f, c)) - _lift(exact, c))) < 1e-12


def test_laplacian_exact_on_trig_modes():
    g = Grid(256)
    x = g.points
    f = np.cos(7 * x) - 2.0 * np.sin(31 * x)
    exact = -49 * np.cos(7 * x) + 2.0 * 31 ** 2 * np.sin(31 * x)
    # the Nyquist cosine has the unambiguous symbol -(n/2)^2
    nyquist = np.cos((g.n // 2) * x)
    for c in BRANCH_SCALES:
        fc = _lift(f, c)
        lap = g.apply_symbol(fc, g.laplacian_symbol)
        assert np.max(np.abs(lap - _lift(exact, c))) < 1e-9
        # laplacian == derivative twice on resolved modes
        assert np.max(np.abs(lap - g.derivative(g.derivative(fc)))) < 1e-9
        lap_ny = g.apply_symbol(_lift(nyquist, c), g.laplacian_symbol)
        assert np.max(np.abs(lap_ny + (g.n // 2) ** 2 * _lift(nyquist, c))) < 1e-9


def test_derivative_preserves_realness_and_kind():
    g = Grid(64)
    f = np.cos(3 * g.points)
    assert not np.iscomplexobj(g.derivative(f))
    z = np.exp(1j * g.points)
    dz = g.derivative(z)
    assert np.iscomplexobj(dz)
    assert np.max(np.abs(dz - 1j * z)) < 1e-12


def test_nyquist_mode_derivative_is_zero():
    # The sawtooth cos(n/2 * x) has a sign-ambiguous derivative; the
    # symbol zeroes it rather than guessing.
    g = Grid(32)
    f = np.cos((g.n // 2) * g.points)
    for c in BRANCH_SCALES:
        assert np.max(np.abs(g.derivative(_lift(f, c)))) < 1e-12


def test_integrate_quadrature():
    g = Grid(64, 5.0)
    assert abs(g.integrate(np.ones(64)) - 5.0) < 1e-14
    f = np.cos(3 * TAU / 5.0 * g.points)
    assert abs(g.integrate(f)) < 1e-13
    assert abs(g.integrate(1.0 + f * f) - 5.0 * 1.5) < 1e-12


def test_integration_by_parts():
    rng = np.random.default_rng(7)
    g = Grid(256)
    for _ in range(5):
        cf = np.zeros(g.n, dtype=complex)
        cg = np.zeros(g.n, dtype=complex)
        for m in range(1, 20):
            cf[m] = rng.normal() + 1j * rng.normal()
            cg[m] = rng.normal() + 1j * rng.normal()
        f = np.fft.ifft(cf).real + rng.normal()
        h = np.fft.ifft(cg).real + rng.normal()
        lhs = g.integrate(f * g.derivative(h))
        rhs = -g.integrate(g.derivative(f) * h)
        assert abs(lhs - rhs) < 1e-10


def test_antiderivative_inverts_derivative():
    g = Grid(128)
    x = g.points
    f = np.sin(4 * x) - 0.25 * np.cos(9 * x)  # zero mean
    exact = -np.cos(4 * x) / 4 - 0.25 * np.sin(9 * x) / 9
    for c in BRANCH_SCALES:
        fc = _lift(f, c)
        F = g.antiderivative(fc)
        assert np.iscomplexobj(F) == np.iscomplexobj(fc)
        assert np.max(np.abs(F - _lift(exact, c))) < 1e-13
        assert abs(g.integrate(F)) < 1e-13
        assert np.max(np.abs(g.derivative(F) - fc)) < 1e-12
        # the mean component is annihilated, not integrated into a ramp
        assert np.max(np.abs(g.antiderivative(fc + 2.0) - F)) < 1e-12


def test_dealias_threshold():
    g = Grid(256)
    x = g.points
    cut = int(2 / 3 * (g.n // 2))  # 85
    inside = np.cos(cut * x)
    outside = np.cos((cut + 1) * x)
    for c in BRANCH_SCALES:
        assert np.max(np.abs(g.dealias(_lift(inside, c)) - _lift(inside, c))) < 1e-12
        assert np.max(np.abs(g.dealias(_lift(outside, c)))) < 1e-12


def test_dealias_makes_quadratic_products_exact():
    # With both factors in the 2/3 band, the product of interpolants is
    # recovered exactly after dealiasing (no spurious wrap-around).
    g = Grid(64)
    fine = Grid(256)
    x = g.points
    f = np.cos(10 * x) + 0.3 * np.sin(4 * x)
    h = np.sin(11 * x)
    prod = g.dealias(f) * g.dealias(h)
    exact = (np.cos(10 * fine.points) + 0.3 * np.sin(4 * fine.points)) * np.sin(11 * fine.points)
    resampled = g.sample_all(prod[None], fine.points)[0]
    # only the dealiased band of the true product can be represented
    keep = (np.abs(fine.mode_numbers) <= 2 / 3 * 32 + 1e-9).astype(float)
    band = fine.apply_symbol(exact, keep)
    assert np.max(np.abs(resampled - band)) < 1e-12


def test_sample_reproduces_grid_values():
    g = Grid(32, 2.5)
    rng = np.random.default_rng(3)
    f = rng.normal(size=32)
    assert np.max(np.abs(g.sample_all(f[None], g.points)[0] - f)) < 1e-12


def test_sample_matches_closed_form_off_grid():
    g = Grid(64)
    f = np.cos(5 * g.points) + 2.0
    pts = np.array([0.123, 1.0, 2.913, 5.5, TAU + 0.123])
    vals = g.sample_all(f[None], pts)[0]
    assert np.max(np.abs(vals - (np.cos(5 * pts) + 2.0))) < 1e-12
    # periodicity: shifted by one period gives the same values
    assert abs(vals[0] - vals[-1]) < 1e-12


def test_sample_all_stacks():
    g = Grid(32)
    stack = np.stack([np.cos(g.points), np.sin(2 * g.points)])
    pts = np.linspace(0, TAU, 7)
    out = g.sample_all(stack, pts)
    assert out.shape == (2, 7)
    assert np.max(np.abs(out[0] - np.cos(pts))) < 1e-12
    assert np.max(np.abs(out[1] - np.sin(2 * pts))) < 1e-12


@pytest.mark.parametrize("n, bound", [(64, 1e-13), (512, 1e-12), (4096, 1e-11)])
def test_sample_all_matches_closed_forms(n, bound):
    # Off-grid values come from a Taylor series about the nearest node.
    # Node midpoints are its worst case (|k delta| = pi/2 on the top mode);
    # points in [-7, 14] reach into neighbouring periods on both sides.
    g = Grid(n)
    pts = np.concatenate([g.points + 0.5 * g.spacing, np.linspace(-7.0, 14.0, 997)])
    modes = (1, 5, n // 4, n // 2 - 1)
    waves = [(f, m) for m in modes for f in (np.cos, np.sin)] + [(np.cos, n // 2)]
    stack = np.stack([f(m * g.points) for f, m in waves])
    exact = np.stack([f(m * pts) for f, m in waves])
    for scale in BRANCH_SCALES:
        out = g.sample_all(_lift(stack, scale), pts)
        assert out.shape == exact.shape
        assert np.iscomplexobj(out) == (scale != 1.0)
        assert np.max(np.abs(out - scale * exact)) < bound


def test_upsample_is_trig_interpolation():
    g = Grid(32)
    fine = g.refined(8)
    rng = np.random.default_rng(11)
    f = np.real(np.fft.ifft(np.concatenate([rng.normal(size=10), np.zeros(g.n - 19), rng.normal(size=9)])))
    up = g.upsample(f, 8)
    assert up.shape == (256,)
    assert np.max(np.abs(up - g.sample_all(f[None], fine.points)[0])) < 1e-12
    assert np.max(np.abs(up[::8] - f)) < 1e-13
    assert np.max(np.abs(g.upsample(f, 1) - f)) == 0.0


def test_upsample_real_nyquist_split():
    # A real field with energy at the Nyquist mode stays real and keeps
    # its samples after refinement (cosine convention).
    g = Grid(16)
    f = np.cos(8 * g.points)
    up = g.upsample(f, 4)
    assert not np.iscomplexobj(up)
    assert np.max(np.abs(up[::4] - f)) < 1e-13


def test_upsample_rejects_bad_factor():
    g = Grid(16)
    with pytest.raises(ValueError):
        g.upsample(np.zeros(16), 3)
    with pytest.raises(ValueError):
        g.upsample(np.zeros(16), 0)


def test_refined_grid_shares_points():
    g = Grid(16, 3.0)
    fine = g.refined(4)
    assert fine.n == 64 and fine.length == 3.0
    assert np.allclose(fine.points[::4], g.points)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2 ** p for p in range(3, 13)])
def test_transforms_equal_numpy_fft_bit_for_bit(n):
    # Grid calls numpy's pocketfft gufuncs with numpy.fft's factors; these
    # are the shapes the package transforms
    g, h = Grid(n), n // 2 + 1
    rng = np.random.default_rng(n)
    real = rng.normal(size=n)
    wave = real + 1j * rng.normal(size=n)
    half = np.fft.rfft(rng.normal(size=n))
    assert _same_bits(g.rfft(real), np.fft.rfft(real))
    assert _same_bits(g.irfft(half), np.fft.irfft(half, n))
    assert _same_bits(g.fft(wave), np.fft.fft(wave))
    assert _same_bits(g.fft(real), np.fft.fft(real))
    assert _same_bits(g.ifft(wave), np.fft.ifft(wave))
    # the RK4 stacks: (4, h) -> (4, n) in, (2, n) -> (2, h) out, into buffers
    spectral = np.fft.rfft(rng.normal(size=(4, n)))
    samples = np.empty((4, n))
    assert g.irfft(spectral, out=samples) is samples
    assert _same_bits(samples, np.fft.irfft(spectral, n))
    fluxes, rates = rng.normal(size=(2, n)), np.empty((2, h), dtype=complex)
    assert g.rfft(fluxes, out=rates) is rates
    assert _same_bits(rates, np.fft.rfft(fluxes))
    # a symbol stack broadcast over a complex field stack, and over a real one
    symbols = g.taylor_symbols[:, None, :]
    stack = np.stack((wave, 2.0 * wave))[:, None, None, :]
    assert _same_bits(g.apply_symbol(stack, symbols),
                      np.fft.ifft(symbols * np.fft.fft(stack)))
    assert _same_bits(g.apply_symbol(real[None, None, :], symbols),
                      np.fft.irfft(symbols[..., :h] * np.fft.rfft(real), n))


@pytest.mark.parametrize("n", [8, 64, 256])
def test_refined_inverse_and_upsample_equal_numpy_fft_bit_for_bit(n):
    g = Grid(n)
    rng = np.random.default_rng(n)
    spectrum = np.fft.rfft(rng.normal(size=(2, 16 * n)))[:, : n // 2 + 1]
    assert _same_bits(g.refined(16).irfft(spectrum), np.fft.irfft(spectrum, 16 * n))
    for values in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        coef = np.fft.fft(values)
        padded = np.zeros(16 * n, dtype=complex)
        padded[: n // 2] = coef[: n // 2]
        padded[n // 2] = padded[-(n // 2)] = 0.5 * coef[n // 2]
        padded[-(n // 2) + 1:] = coef[n // 2 + 1:]
        expected = np.fft.ifft(padded) * 16
        assert _same_bits(g.upsample(values, 16),
                          expected if np.iscomplexobj(values) else expected.real)
