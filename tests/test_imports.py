"""Every name a module of the package or of its tests imports is used in
that module."""

import ast
import pathlib

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
