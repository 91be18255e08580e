"""What madflow needs at import and run time: numpy alone, and every name
the benchmark tracer wraps.

Each case runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import madflow

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
