"""Shared fixtures and options."""

import contextlib

import pytest

from madflow import grid


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one on every transform `Grid` makes while the test runs."""
    calls = []
    for name in ("_fft", "_ifft", "_rfft", "_irfft"):
        transform = getattr(grid, name)

        def counted(*args, _transform=transform, **kwargs):
            calls.append(1)
            return _transform(*args, **kwargs)
        monkeypatch.setattr(grid, name, counted)
    return calls


def _kinetic_mutant(kernel, scale):
    """`kernel` with its kinetic coefficient 1/2 scaled by `scale`."""
    def build(grid, potential=0.0, hbar=0.0):
        rates = kernel(grid, potential, hbar)
        h = grid.n // 2 + 1

        def mutant(coefficients, out):
            rates(coefficients, out)
            s_x = grid.irfft(grid.derivative_symbol[:h] * coefficients[1])
            out[1] -= (scale - 1.0) * grid.rfft(0.5 * s_x * s_x) * grid.dealias_mask[:h]
            return out
        return mutant
    return build


def _flux_mutant(kernel, scale):
    """`kernel` with its density rate -d/dx(mu dS/dx) scaled by `scale`."""
    def build(grid, potential=0.0, hbar=0.0):
        rates = kernel(grid, potential, hbar)

        def mutant(coefficients, out):
            rates(coefficients, out)
            out[0] *= scale
            return out
        return mutant
    return build


def _offset_mutant(kernel, scale):
    """`kernel` with the constant `scale` subtracted from its phase rate."""
    def build(grid, potential=0.0, hbar=0.0):
        rates = kernel(grid, potential, hbar)

        def mutant(coefficients, out):
            rates(coefficients, out)
            out[1, 0] -= scale * grid.n
            return out
        return mutant
    return build


@pytest.fixture
def flow_mutant(monkeypatch):
    """`with flow_mutant(kind, scale):` runs its block on a Hamiltonian flow
    with one known error: kind "pressure" scales the quantum pressure
    (`wgeom._fisher_terms`), kind "kinetic" the kinetic coefficient 1/2,
    kind "flux" the density row of `flow_kernel` as `wgeom` and `dynamics`
    see it, and kind "offset" subtracts the constant `scale` from its phase
    rate."""
    @contextlib.contextmanager
    def patched(kind, scale):
        from madflow import dynamics, wgeom
        with monkeypatch.context() as m:
            if kind == "pressure":
                terms = wgeom._fisher_terms
                m.setattr(wgeom, "_fisher_terms", lambda *args: terms(*args) * scale)
            else:
                wrap = {"kinetic": _kinetic_mutant, "flux": _flux_mutant,
                        "offset": _offset_mutant}[kind]
                mutant = wrap(wgeom.flow_kernel, scale)
                for module in (wgeom, dynamics):
                    m.setattr(module, "flow_kernel", mutant)
            yield
    return patched


def pytest_addoption(parser):
    parser.addoption("--regenerate-golden", action="store_true",
                     help="record this platform's suite digests in tests/golden/suite.json")
