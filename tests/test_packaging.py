import ast
import re
import sys
from pathlib import Path

import pytest

import dltsched

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(dltsched.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def absolute_imports(source: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def package_imports(source: Path) -> set[str]:
    """Dotted names one module imports from the package, by an absolute or a
    relative import: each module, and each name taken from it as
    ``module.name``."""
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("dltsched" if node.level else None, node.module)))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.startswith("dltsched.")}


def third_party_imports() -> set[str]:
    """Top-level names of the absolute imports in the package that are
    neither the standard library nor the package itself."""
    names = set().union(*map(absolute_imports, PACKAGE.glob("*.py")))
    return names - set(sys.stdlib_module_names) - {"dltsched"}


def test_every_third_party_import_is_a_declared_dependency():
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower() for requirement in declared}
    imported = third_party_imports()
    assert "numpy" in imported
    assert imported <= names


def test_only_the_codec_imports_orjson():
    # Every file's JSON goes through one module, so one number rule holds for all.
    assert {source.name for source in PACKAGE.glob("*.py") if "orjson" in absolute_imports(source)} == {"codec.py"}


def test_evaluation_imports_no_mlp():
    # Metrics and plot tables work on predictions alone, whatever made them.
    imported = package_imports(PACKAGE / "evaluation.py")
    assert "dltsched.datagen" in imported
    assert "dltsched.mlp" not in imported


def test_the_command_line_imports_no_numpy():
    # Numeric decisions belong to the library modules a caller imports too.
    assert "numpy" not in absolute_imports(PACKAGE / "cli.py")
