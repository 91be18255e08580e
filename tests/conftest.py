"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one on every numpy FFT call while the test runs."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(np.fft, name)

        def counted(*args, _transform=transform, **kwargs):
            calls.append(1)
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
