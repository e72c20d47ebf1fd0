"""The package runs on the Python standard library alone, its CLI loads no
number type but ``int``, it keeps every name the benchmark harness in
``perfbench/`` and the README's library example reach into, and it defines
no public name that only the tests use."""

import ast
import contextlib
import io
import re
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
    # removed public callable would silently empty its span.  The one name
    # removed on purpose is TruncatedSeries.__rmul__: it could never return
    # a product, because __mul__ refuses every operand that is not a
    # series, and the series.mul span still wraps __mul__.
    from lattice_gf.series import TruncatedSeries

    for name, places in load_benchmark_module("tracer")._SPANS.items():
        for owner, attr in places:
            if (owner, attr) == (TruncatedSeries, "__rmul__"):
                assert not hasattr(owner, attr)
                continue
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
    # make_reference.py digests every solved series and the dim-3 escaping
    # counts; the gate solves through restricted_path_gf and runs
    # cramer_ratio_check, both from the package root.
    assert {start: s.coeffs for start, s in solution.series.items()} == {0: (1, 2, 8, 24)}
    assert tuple(lattice_gf.count_escaping(3, 3).counts) == (1, 56, 3432, 214592)
    assert lattice_gf.restricted_path_gf(1, restriction, 0, 4).coeffs == (1, 2, 8, 24)
    assert lattice_gf.cramer_ratio_check(1, 1, 4) is True


def referenced_names(path: Path):
    """Names that ``path`` reads: variables, attributes, and strings that are
    exactly an identifier, as the tracer's and the CLI's ``getattr`` tables
    hold them.  A name's own ``def`` or ``class`` line and an import of it
    are not references."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def public_definitions(path: Path):
    """Names of the public top-level functions and classes of ``path``."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name


def test_public_names_have_a_caller_outside_the_tests():
    # A public name that only tests reach is surface to delete, not to keep:
    # every export, and every public top-level def or class in src/.  The
    # strings of __all__ are not callers, and neither are the tests.
    import lattice_gf

    callers = [path for path in SOURCES if path.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in callers:
        used.update(referenced_names(path))
    # Entry points, "module:function"; tomllib would need Python 3.11.
    used.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    public = {f"lattice_gf.{name}" for name in lattice_gf.__all__}
    for path in SOURCES:
        public.update(f"{path.stem}.{name}" for name in public_definitions(path))
    assert sorted(name for name in public if name.rpartition(".")[2] not in used) == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), namespace)
    assert out.getvalue() == f"{namespace['gf'].coeffs[3]}\n" == "24\n"


RANGE_MESSAGE_TAILS = (
    "must be positive", "must be nonnegative", "must be at least", "positive integer",
    "must be integers",
)


def test_range_rule_spelled_only_in_check_int():
    # errors.check_int words every "<name> must be positive|nonnegative"
    # refusal; a second spelling of the rule, such as "must be at least 1"
    # or "must be a positive integer", drifts from the first.  It is
    # looked for anywhere in a string constant, so the constant parts of an
    # f-string such as f"{name} must be positive, got {raw!r}" count too.
    spelled = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and any(tail in node.value for tail in RANGE_MESSAGE_TAILS)):
                spelled.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert spelled == []


def test_no_assert_in_the_package():
    # Invariants are explicit exceptions: python -O strips every assert.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_only_the_cli_changes_the_digit_limit():
    # The library changes no interpreter state; the CLI lifts the limit on
    # int-to-str conversion for one subcommand and restores it.
    callers = [path.name for path in SOURCES
               if "set_int_max_str_digits" in set(referenced_names(path))]
    assert callers == ["cli.py"]
