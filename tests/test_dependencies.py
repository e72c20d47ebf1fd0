"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lattice_gf").glob("*.py"))


def absolute_imports(path: Path):
    """Top-level names of the modules that ``path`` imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_imports_are_standard_library(path):
    assert set(absolute_imports(path)) <= sys.stdlib_module_names


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
