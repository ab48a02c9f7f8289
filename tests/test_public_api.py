"""Checks of the package's public surface.

Every name a subpackage lists in ``__all__`` must be bound where it claims
to come from, and no module of the package or of its tests may import a
name it neither uses nor re-exports: dead imports are how deleted API
creeps back. Every console
script that ``pyproject.toml`` declares must resolve to a callable. Map
building must neither load nor need SciPy.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cityvps"
MODULES = sorted(PACKAGE.rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """{bound name: node} for every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node
    return names


def top_level_names(tree):
    """Names bound at module level by definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(ast.Module(body=[node], type_ignores=[])))
    return names


def dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree):
    """Names loaded anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def source_module(package_dir, node):
    """The file a relative ``from .x import y`` in `package_dir`/__init__.py reads from."""
    base = package_dir
    for _ in range(node.level - 1):
        base = base.parent
    target = base.joinpath(*node.module.split("."))
    return target / "__init__.py" if target.is_dir() else target.with_suffix(".py")


@pytest.mark.parametrize("subpackage", ["geometry", "mapbuild", "worldsim"])
def test_all_names_resolve(subpackage):
    init = PACKAGE / subpackage / "__init__.py"
    tree = parse(init)
    exported = dunder_all(tree)
    assert exported, f"{subpackage} lists no __all__"
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    bound = top_level_names(tree)
    imports = imported_names(tree)
    for name in exported:
        assert name in bound, f"cityvps.{subpackage}.__all__ names unbound {name!r}"
        node = imports.get(name)
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            origin = source_module(init.parent, node)
            assert name in top_level_names(parse(origin)), f"{name!r} is not defined in {origin.name}"


def module_id(path):
    """A package module's path in the package, a test module's in the repository."""
    return str(path.relative_to(PACKAGE if path.is_relative_to(PACKAGE) else ROOT))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=module_id)
def test_no_unused_imports(path):
    tree = parse(path)
    keep = used_names(tree) | set(dunder_all(tree))
    unused = sorted(name for name in imported_names(tree) if name not in keep)
    assert not unused, f"{module_id(path)} imports unused {unused}"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{name} = {target!r}"


def package_env():
    """The environment with the package's sources first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_map_building_loads_no_scipy_module():
    # Resident memory differs between hosts and numpy builds; which modules
    # an import loads does not. SciPy costs about 28 MB of a map build's
    # peak; numpy alone runs it.
    code = (
        "import sys, cityvps.geometry, cityvps.mapbuild, cityvps.fusion; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=package_env())
    assert out.stdout.strip() == "[]"


def test_map_builds_verifies_and_fuses_with_scipy_blocked():
    # The script blocks `import scipy` before importing the package, so a
    # SciPy import on any code path of a build, its verification or its
    # fusion fails it; CI runs it before the test dependencies are installed.
    script = ROOT / "tests" / "build_without_scipy.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=package_env())
    assert out.returncode == 0, out.stderr
