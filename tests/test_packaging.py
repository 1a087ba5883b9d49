import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import dltsched
from dltsched import mlp

PACKAGE = Path(dltsched.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
README = PACKAGE.parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)


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
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11; the other tests here run on 3.10
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


def test_the_package_exports_one_solve_path():
    # The closed form is the one public solve; the linear-system oracle stays
    # in the solver module as the benchmark's reference alone.
    from dltsched import solver

    assert dltsched.solve_optimal is solver.solve_optimal
    assert {name for name in dir(dltsched) if "solve" in name and callable(getattr(dltsched, name))} == {"solve_optimal"}
    assert not hasattr(dltsched, "oracle_solve") and callable(solver.oracle_solve)


def test_every_error_type_is_raised():
    # A type no code raises is dead: callers would catch it, and docs name
    # it, for a failure that never comes. A base class is raised through
    # its subclasses.
    classes = [node for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = set()
    for source in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert {node.name for node in classes} - bases - raised == set()


def package_names(tree: ast.Module) -> dict[str, object]:
    """What each name a code block imports from the package refers to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "dltsched":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "dltsched":  # binds the package, or the module "as" a name
                    names[alias.asname or "dltsched"] = importlib.import_module(alias.name if alias.asname else "dltsched")
    return names


def package_object(node: ast.expr, names: dict[str, object]):
    """The package object a name or an attribute chain refers to, or None
    for anything else."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = package_object(node.value, names)
        if inspect.ismodule(owner):
            assert hasattr(owner, node.attr), f"{owner.__name__} has no {node.attr}"
            return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("source", README_BLOCKS, ids=[f"block-{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_matches_the_package(source):
    # Each example compiles, imports only names the package has, and calls
    # every package function with arguments its current signature accepts.
    compile(source, "README.md", "exec")
    tree = ast.parse(source)
    names = package_names(tree)
    bound = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = package_object(node.func, names)
        if not callable(fn) or not getattr(fn, "__module__", "").startswith("dltsched."):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        assert None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args)
        try:
            inspect.signature(fn).bind(*node.args, **keywords)
        except TypeError as exc:
            pytest.fail(f"README.md: {ast.unparse(node)}: {exc}")
        bound += 1
    assert names and bound


def test_readme_lists_exactly_the_bundle_metadata_keys():
    # The README's model-bundle entry lists one key per nested item. They
    # must be ModelMetadata's fields, in order, so a field added to the
    # record, or a key dropped from it, cannot leave the docs behind.
    bundle = re.search(r"^- Model bundle:.*?(?=^- |^\S|\Z)", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    keys = re.findall(r"^  - `(\w+)`", bundle.group(), flags=re.MULTILINE)
    assert keys == [field.name for field in dataclasses.fields(mlp.ModelMetadata)]
