"""The vectorized float text: byte for byte what `json.dumps` writes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from madflow import floattext


def _dumps(values: np.ndarray) -> bytes:
    return json.dumps(values.tolist(), separators=(",", ":"))[1:-1].encode()


def _encode(values: np.ndarray) -> bytes:
    return floattext.encode_rows(values[None])[0]


def _neighbours(values: np.ndarray) -> np.ndarray:
    """Each value, one ulp below and one ulp above, both signs, finite."""
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.inf)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    bits = np.random.default_rng(20260421).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert _encode(values) == _dumps(values)


def test_powers_of_two_and_ten_and_their_neighbours():
    # a power of two has the asymmetric rounding interval (half the gap below)
    values = _neighbours(np.concatenate([2.0 ** np.arange(-1074, 1024),
                                         10.0 ** np.arange(-323, 309)]))
    assert _encode(values) == _dumps(values)


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 0.0],
    [5e-324, -5e-324, 1e-323, 1.5e-323, 9.9e-324, 2e-322, 2.2250738585072009e-308,
     2.2250738585072014e-308, 1.7976931348623157e308],
    [1e-5, 1e-4, 9.999999999999999e-5, 0.0001, 0.00012345678901234567, 0.001, 0.1],
    [1e15, 1e16, 9999999999999998.0, 999999999999999.9, 1234567890123456.8, 1e17],
    [1e-100, 1e-300, 1.5e-310, 1e100, 1e300, 1.2345e-123, 6.02214076e23],
    [1.0, 2.0, 100.0, 123.0, 1.5, 0.5, 0.3, 2.5, 1e22, 1e23, -7.0],
], ids=["zeros", "subnormals_and_extremes", "small_layout_edge", "large_layout_edge",
        "three_digit_exponents", "short"])
def test_named_edges(values):
    values = np.array(values)
    assert _encode(values) == _dumps(values)


def test_integers_near_two_to_the_53():
    values = _neighbours(np.arange(2.0 ** 53 - 2000, 2.0 ** 53 + 2000, 1.0))
    assert _encode(values) == _dumps(values)


def test_rows_split_one_pass_at_each_row():
    scales = 10.0 ** np.arange(-24, 24)[:, None]
    table = np.random.default_rng(7).standard_normal((48, 64)) * scales
    assert floattext.encode_rows(table) == [_dumps(row) for row in table]
    assert floattext.encode_rows(np.zeros((3, 0))) == [b""] * 3
    assert _encode(np.array([])) == b""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise(bad):
    with pytest.raises(ValueError, match="finite"):
        _encode(np.array([1.0, bad]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_floats(values):
    assert _encode(values) == _dumps(values)
