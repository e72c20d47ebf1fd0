"""The package runs on the Python standard library alone, its CLI loads no
number type but ``int``, and it keeps every name the benchmark harness in
``perfbench/`` reaches into."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_benchmark_module

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


# Modules that ``import lattice_gf.cli`` must not add.  Coefficients live in
# Z[[t]], so no command needs the modules of other number types; the classes
# are written out, so no method is generated at import; and annotations need
# no ``typing``.  Each would only lengthen every start-up.
UNUSED_AT_IMPORT = (
    "fractions", "decimal", "numbers",
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
)


def test_cli_import_adds_no_unused_modules():
    # What the import adds, not what is loaded: interpreter start-up may
    # already have loaded some of these, ``typing`` for one.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import lattice_gf.cli;"
         f" print(sorted(set(sys.modules) - before & set({UNUSED_AT_IMPORT!r})))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def test_benchmark_spans_resolve():
    # The tracer reports zero calls for a wrapped name that is gone, so a
    # removed public callable would silently empty its span.
    for name, places in load_benchmark_module("tracer")._SPANS.items():
        for owner, attr in places:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_benchmark_worker_and_gate_attributes():
    import lattice_gf

    for name in ("row_relation_check", "column_substitution_check",
                 "cramer_ratio_check", "hn_determinant_check"):
        assert callable(getattr(lattice_gf.circulant, name))
    restriction = lattice_gf.PeriodicSet((0,), 2)
    solution = lattice_gf.solve_restricted(1, restriction, 4)
    assert solution.series[0].coeffs == (1, 2, 8, 24)
    table = lattice_gf.oracle.count_restricted(1, restriction, 3)
    assert (table.dim, len(table), tuple(table.counts)) == (1, 4, (1, 2, 8, 24))
