"""The README's Python examples run against the package as it is, and its
API list is the package root's namespace."""

import importlib
import pathlib
import re
import types

import qdkd

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _api_list() -> dict[str, str]:
    """{name: module} of the bullets "- `qdkd.<module>`: `name`, ..." in the
    README's Python API section."""
    section = README.read_text().split("\n## Python API\n")[1].split("\n## ")[0]
    listed = {}
    for module, names in re.findall(r"^- `(qdkd\.\w+)`: (.*(?:\n  .*)*)", section, re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, f"{name} is listed twice"
            listed[name] = module
    return listed


def test_api_list_is_the_package_root():
    """Every public name of the package root that is not a submodule is in
    the README's list, under the module that defines it, and every listed
    name is in the package root."""
    listed = _api_list()
    public = {
        name
        for name, value in vars(qdkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(listed)
    for name, module in listed.items():
        value = getattr(qdkd, name)
        assert getattr(importlib.import_module(module), name) is value, name
        if isinstance(value, (type, types.FunctionType)):  # not a Union alias
            assert value.__module__ == module, name
