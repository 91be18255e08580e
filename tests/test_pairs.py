"""The verdict rules of tools/pairs.py, on made-up paired runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00]


@pytest.mark.parametrize("change, better, bound, word", [
    ([1.00, 1.00, 1.00, 1.01, 0.99, 1.00], "lower", 0.25, "no regression"),
    ([1.30, 1.31, 1.29, 1.32, 1.28, 1.30], "lower", 0.25, "regression"),
    ([0.90, 0.91, 0.89, 0.92, 0.88, 0.90], "lower", 0.25, "gain"),
    # five wins of six are below nine tenths: no gain
    ([0.90, 0.91, 0.89, 0.92, 0.88, 1.10], "lower", 0.25, "no regression"),
    # a 2% parent spread against a 1% bound cannot tell a 0.5% move
    ([1.005, 1.015, 0.995, 1.025, 0.985, 1.005], "lower", 0.01, "unresolved"),
    ([1.10, 1.10, 1.10, 1.10, 1.10, 1.10], "higher", 0.01, "gain"),
    ([0.95, 0.95, 0.95, 0.95, 0.95, 0.95], "higher", 0.01, "regression"),
])
def test_verdict(change, better, bound, word):
    assert pairs.verdict(PARENT, change, better, bound)["verdict"] == word


def test_verdict_counts_ties_for_neither_side():
    same = pairs.verdict(PARENT, list(PARENT), "lower", 0.25)
    assert same["wins"] == 0 and same["verdict"] == "no regression"


def test_a_run_without_a_result_leaves_the_metric_incomplete():
    change = [1.0, 1.0, float("nan"), 1.0, 1.0, 1.0]
    assert pairs.verdict(PARENT, change, "lower", 0.25)["verdict"] == "incomplete"


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("outside = src\n")
    assert pairs.src_lines(tmp_path) == 5
