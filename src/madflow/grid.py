"""Uniform periodic grid with Fourier pseudospectral calculus.

All fields in the package are arrays of samples on such a grid and are
interpreted through their trigonometric interpolant.  Differentiation,
integration, dealiasing and off-grid evaluation are therefore spectral:
exact for band-limited data, spectrally accurate for smooth data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError

TAU = 2.0 * np.pi

# Cutoff fraction used for the standard 2/3-rule dealiasing of products.
DEALIAS_FRACTION = 2.0 / 3.0

# Highest Taylor order of off-grid evaluation: with |k delta| <= pi/2 the
# first omitted term, (pi/2)^25 / 25!, is ~1e-20, below double rounding.
TAYLOR_ORDER = 24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """n equispaced samples of the circle of circumference `length`.

    Points are x_j = j * length / n for j = 0 .. n-1; x = 0 is the
    reference point at which `madelung_section` pins the phase.
    """

    n: int
    length: float = TAU

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or not _is_power_of_two(int(self.n)):
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n!r}")
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"grid length must be positive and finite, got {self.length!r}")
        # the Laplacian and the energies scale with the top wavenumber squared
        k_max = math.pi * self.n / self.length
        if not sys.float_info.min <= k_max * k_max <= sys.float_info.max:
            raise ValueError(f"grid length {self.length!r} leaves (pi n / length)^2 "
                             "outside the finite, normal doubles")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @cached_property
    def points(self) -> np.ndarray:
        x = np.arange(self.n) * (self.length / self.n)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*m/length in FFT ordering."""
        k = TAU * np.fft.fftfreq(self.n, d=self.spacing)
        k.setflags(write=False)
        return k

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices m in FFT ordering (Nyquist is -n/2)."""
        m = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        m.setflags(write=False)
        return m

    @cached_property
    def derivative_symbol(self) -> np.ndarray:
        """i*k with the (sign-ambiguous) Nyquist mode zeroed."""
        ik = 1j * self.wavenumbers.copy()
        ik[self.n // 2] = 0.0
        ik.setflags(write=False)
        return ik

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        sym = -self.wavenumbers ** 2
        sym.setflags(write=False)
        return sym

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """1 on the modes with |m| <= (2/3)(n/2), 0 above."""
        threshold = DEALIAS_FRACTION * (self.n / 2)
        mask = (np.abs(self.mode_numbers) <= threshold + 1e-9).astype(float)
        mask.setflags(write=False)
        return mask

    @cached_property
    def antiderivative_symbol(self) -> np.ndarray:
        """1/(i*k), with the k = 0 and Nyquist modes zeroed."""
        ik = self.derivative_symbol
        sym = np.divide(1.0, ik, out=np.zeros(self.n, dtype=complex), where=ik != 0.0)
        sym.setflags(write=False)
        return sym

    @cached_property
    def taylor_symbols(self) -> np.ndarray:
        """(i*k)^K / K! for K = 0 .. TAYLOR_ORDER, one row per order.

        The Nyquist mode is the cosine cos(k x), whose odd derivatives
        vanish on the nodes: odd rows hold 0 there, even rows (-k^2)^(K/2)/K!.
        """
        orders = np.arange(TAYLOR_ORDER + 1)[:, None]
        factorials = np.array([math.factorial(K) for K in range(TAYLOR_ORDER + 1)],
                              dtype=float)[:, None]
        k = self.wavenumbers
        sym = np.array([1, 1j, -1, -1j])[orders % 4] * (k ** orders / factorials)
        ny = self.n // 2
        sym[1::2, ny] = 0.0
        sym.setflags(write=False)
        return sym

    # -- validation ---------------------------------------------------------

    def check_values(self, values) -> np.ndarray:
        v = np.asarray(values)
        if v.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite samples")
        return v

    # -- calculus -----------------------------------------------------------

    def apply_symbol(self, values, symbol) -> np.ndarray:
        """ifft(symbol * fft(values)), the one Fourier multiplier kernel.

        `symbol` spans all n modes in FFT ordering and is Hermitian off the
        Nyquist mode, so real input goes through the half-spectrum real
        transforms and stays real; complex input uses the complex ones.
        Leading axes broadcast (several symbols on one field, or several
        fields).  Unchecked: the methods below validate their input.
        """
        v = np.asarray(values)
        if np.iscomplexobj(v):
            return np.fft.ifft(symbol * np.fft.fft(v))
        return self.irfft(np.asarray(symbol)[..., : self.n // 2 + 1] * self.rfft(v))

    def rfft(self, values, out=None) -> np.ndarray:
        """Half-spectrum coefficients (modes 0 .. n/2) of real samples, along the last axis.

        `out`, when given, receives them and is returned."""
        return np.fft.rfft(values, out=out)

    def irfft(self, coefficients, out=None) -> np.ndarray:
        """Real samples of half-spectrum coefficients: the inverse of `rfft`."""
        return np.fft.irfft(coefficients, self.n, out=out)

    def derivative(self, values) -> np.ndarray:
        """Spectral first derivative; preserves real/complex kind."""
        return self.apply_symbol(self.check_values(values), self.derivative_symbol)

    def laplacian(self, values) -> np.ndarray:
        return self.apply_symbol(self.check_values(values), self.laplacian_symbol)

    def integrate(self, values):
        """Quadrature over one period (rectangle rule, spectrally exact)."""
        v = self.check_values(values)
        total = self.spacing * v.sum()
        return total if np.iscomplexobj(v) else float(total)

    def antiderivative(self, values) -> np.ndarray:
        """Periodic antiderivative of the zero-mean part, itself zero-mean.

        The k = 0 and Nyquist coefficients of the result are set to zero,
        so this inverts `derivative` on band-limited zero-mean fields.
        """
        return self.apply_symbol(self.check_values(values), self.antiderivative_symbol)

    def dealias(self, values) -> np.ndarray:
        """2/3-rule low pass, applied to pointwise products before use."""
        return self.apply_symbol(self.check_values(values), self.dealias_mask)

    # -- off-grid evaluation ------------------------------------------------

    def sample_all(self, stack, points) -> np.ndarray:
        """Evaluate the trig interpolants of several fields at arbitrary points.

        `stack` has shape (m, n); the result has shape (m, len(points)).
        The Nyquist mode is evaluated as a cosine, matching the symmetric
        interpolant of real data.  Equal to
        `sample_table(taylor_table(stack), points)`; callers that sample
        one stack at several point sets build the table once.
        """
        return self.sample_table(self.taylor_table(stack), points)

    def taylor_table(self, stack) -> np.ndarray:
        """Taylor coefficients f^(K)/K!, K <= TAYLOR_ORDER, of each field on every node.

        One spectral transform of the (m, n) stack gives the (m,
        TAYLOR_ORDER + 1, n) table (Anderson & Dahleh, SISC 17, 1996);
        `sample_table` sums it about each point's nearest node.
        """
        arr = np.atleast_2d(np.asarray(stack))
        if arr.shape[1] != self.n:
            raise ValueError(f"expected fields of length {self.n}, got {arr.shape}")
        return self.apply_symbol(arr[:, None, :], self.taylor_symbols)

    def sample_table(self, table, points) -> np.ndarray:
        """Sum a `taylor_table` at arbitrary points, shape (m, len(points)).

        Each point gathers its nearest node's column and sums it by
        Horner's rule in the offset delta.  The nearest node lies within
        h/2, so |k delta| <= pi/2 for every mode and the first omitted
        term is (pi/2)^25/25! ~ 1e-20 of the field's coefficients: below
        rounding at any n and any point.
        """
        p = np.atleast_1d(np.asarray(points, dtype=float)).ravel()
        node = np.rint(p / self.spacing)
        delta = p - node * self.spacing
        columns = np.take(table, np.mod(node, self.n).astype(np.intp), axis=-1)
        out = columns[:, TAYLOR_ORDER].copy()
        for order in range(TAYLOR_ORDER - 1, -1, -1):
            out *= delta
            out += columns[:, order]
        return out

    def sample(self, values, points) -> np.ndarray:
        return self.sample_all(self.check_values(values)[None, :], points)[0]

    # -- refinement ---------------------------------------------------------

    def refined(self, factor: int) -> "Grid":
        return Grid(self.n * int(factor), self.length)

    def upsample(self, values, factor: int) -> np.ndarray:
        """Resample onto the `factor` times finer grid by Fourier zero padding."""
        factor = int(factor)
        if factor < 1 or not _is_power_of_two(factor):
            raise ValueError(f"refinement factor must be a power of two >= 1, got {factor!r}")
        v = self.check_values(values)
        if factor == 1:
            return v.copy()
        big = self.n * factor
        coef = np.fft.fft(v)
        out = np.zeros(big, dtype=complex)
        half = self.n // 2
        out[:half] = coef[:half]
        out[half] = 0.5 * coef[half]
        out[big - half] = 0.5 * coef[half]
        out[big - half + 1:] = coef[half + 1:]
        res = np.fft.ifft(out) * factor
        return res if np.iscomplexobj(v) else res.real
