"""What madflow needs at import and run time: numpy alone, its pocketfft
gufuncs in `grid` only, and every name the benchmark tracer wraps.

Each case runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import madflow
from madflow import grid

SRC = str(Path(madflow.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_builtin_validates_and_transport_runs_without_scipy():
    # scipy blocked: importing it anywhere in madflow raises ImportError
    _run("""
import sys
sys.modules["scipy"] = None
import madflow.cli
from madflow import Grid, quantile_table, scenarios, w2_distance
from madflow.states import wrapped_gaussian_density
configs = [scenarios.builtin_config(name) for name in scenarios.builtin_names()]
config = next(c for c in configs if c.name == "benamou_brenier_action")
assert scenarios.run_scenario(config, write=False).passed
g = Grid(256)
mu, nu = (wrapped_gaussian_density(g, c, 0.3) for c in (3.0, 3.5))
assert abs(w2_distance(mu, nu) - 0.5) < 1e-6
assert quantile_table.__module__ == "madflow.transport"
""")


def test_bench_tracer_installs_on_the_cli_imports():
    # bench/tracer.py wraps madflow functions and methods by name, so a
    # rename in src/ would break every `bench/run.py --trace 1` run.  The
    # FFT counters are left out and no bytecode is written: bench/ is only read.
    _run(f"""
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, {BENCH!r})
import madflow.cli
import tracer
tracer.Tracer().install()
from madflow import grid, transport
assert hasattr(grid.Grid.sample_all, "__wrapped__")
assert hasattr(transport.displacement_interpolation, "__wrapped__")
""")


def _fft_uses(tree: ast.AST) -> list[str]:
    """Each `<x>.fft.<name>` reference and each import from `numpy.fft` in `tree`."""
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"):
            uses.append(f"fft.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            uses.append(f"from {node.module}")
        elif isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name.startswith("numpy.fft")]
    return uses


def test_grid_alone_transforms():
    # every transform in the package goes through Grid, which calls numpy's
    # pocketfft gufuncs; elsewhere numpy.fft serves only its frequency tables
    package = Path(madflow.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        uses = _fft_uses(ast.parse(path.read_text(), str(path)))
        if path.name == "grid.py":
            assert sorted(set(uses)) == ["fft.fftfreq", "from numpy.fft._pocketfft_umath"]
        else:
            assert uses == [], path.name
    # the gufuncs are numpy's own: a numpy that moves or renames them fails here
    import numpy.fft._pocketfft_umath as pocketfft
    for name, kernel in (("_fft", "fft"), ("_ifft", "ifft"), ("_irfft", "irfft"),
                         ("_rfft", "rfft_n_even")):
        assert getattr(grid, name) is getattr(pocketfft, kernel)
