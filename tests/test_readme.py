"""README's "Library layout" table, its list of error types, its kind
tables and its check reference table name only what the library has."""

import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import madflow
import madflow.errors
from madflow import scenarios

README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names in its contents cell) for each table row."""
    table = README.read_text().split("## Library layout", 1)[1].split("\n\n")[1]
    rows = []
    for line in table.splitlines()[2:]:
        module, contents = (cell.strip() for cell in line.strip().strip("|").split("|"))
        rows.append((module.strip("`"), re.findall(r"`([^`]+)`", contents)))
    return rows


def _resolves(name: str, module) -> bool:
    """A bare name on the module, a builtin or an attribute of one of the
    module's classes; a dotted name from `madflow` or an importable module.
    `name(args)` resolves by its name."""
    head, *rest = name.split("(")[0].split(".")
    if rest:
        try:
            obj = getattr(madflow, head) if hasattr(madflow, head) else importlib.import_module(head)
            for part in rest:
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            return False
        return True
    if head == madflow.__name__ or hasattr(module, head) or hasattr(builtins, head):
        return True
    return any(hasattr(cls, head) for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__)


def test_layout_table_is_found():
    assert len(_layout_rows()) >= 10


@pytest.mark.parametrize("module_name, names", _layout_rows(), ids=[m for m, _ in _layout_rows()])
def test_layout_table_names_resolve(module_name, names):
    module = importlib.import_module(module_name)
    assert [name for name in names if not _resolves(name, module)] == []


def test_error_sentence_names_resolve():
    # the backticked names of the "Errors are typed (...)" sentence
    sentence = README.read_text().split("Errors are typed (", 1)[1].split(")", 1)[0]
    names = re.findall(r"`([^`]+)`", sentence)
    assert len(names) >= 5
    assert [name for name in names if not hasattr(madflow.errors, name)] == []


def _reference_table_checks() -> list[str]:
    """The backticked names in the first cell of each row of the table
    under "## Check references"."""
    names, rows = [], False
    for line in README.read_text().split("## Check references", 1)[1].splitlines():
        if line.startswith("|"):
            rows = True
            names += re.findall(r"`(\w+)`", line.strip("|").split("|")[0])
        elif rows:
            break
    return names


def test_reference_table_names_every_check_once():
    assert sorted(_reference_table_checks()) == sorted(scenarios.CHECKS)


def _kind_table(header: str) -> list[list[str]]:
    """The cells of each row of the table under "## Scenario configs" whose
    first column is headed `header`."""
    section = README.read_text().split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    lines = iter(section.splitlines())
    for line in lines:
        if line.startswith(f"| {header} |"):
            break
    else:
        raise AssertionError(f"no table headed {header!r}")
    next(lines)  # the | --- | rule
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _names(cell: str) -> list[str]:
    """The backticked names of a cell outside its bracketed defaults."""
    return re.findall(r"`(\w+)`", re.sub(r"\[[^\]]*\]", "", cell))


@pytest.mark.parametrize("header, kinds", [
    ("potential kind", scenarios.POTENTIAL_KINDS),
    ("initial-state kind", scenarios.INITIAL_KINDS),
    ("density kind", scenarios.DENSITY_KINDS),
    ("phase kind", scenarios.PHASE_KINDS),
], ids=["potential", "initial_state", "density", "phase"])
def test_kind_tables_name_every_kind_once_with_its_parameters(header, kinds):
    rows = _kind_table(header)
    assert sorted(name for row in rows for name in _names(row[0])) == sorted(kinds)
    for row in rows:
        (kind,) = _names(row[0])
        assert sorted(_names(row[1])) == sorted(kinds[kind][1]), kind
        if kinds is scenarios.INITIAL_KINDS:  # the solvers that accept the kind
            assert sorted(_names(row[2])) == sorted(kinds[kind][0]), kind
