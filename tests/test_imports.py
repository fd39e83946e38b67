"""Every name a module of the package or of its tests imports is used in
that module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qdkd"


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_detects_an_unused_import():
    assert _unused_imports("import math\nimport numbers\nfrom x import y as z\nmath.pi\n") == {
        "numbers",
        "z",
    }


# The package root's imports are its re-exports, which tests/test_readme.py
# pins. No test module shares a name with a package module.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == set()


def test_import_loads_no_numpy_submodule_of_its_own():
    """Importing the package loads no numpy module that importing numpy
    does not: numpy 2 loads numpy.random on first use, and a module-level
    reference to it, an annotation included, would add its import to
    every process's start-up."""
    script = (
        "import sys, numpy; before = set(sys.modules); import qdkd; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), *sys.path])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
