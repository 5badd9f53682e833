"""The package's public surface and its imports: every exported name resolves,
a star import works, and no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import dynamohull

MODULES = sorted(Path(dynamohull.__file__).resolve().parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert [name for name in dynamohull.__all__ if not hasattr(dynamohull, name)] == []
    assert len(set(dynamohull.__all__)) == len(dynamohull.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dynamohull import *", namespace)
    assert set(dynamohull.__all__) <= set(namespace)


def _unused_imports(path: Path) -> list:
    """The names a module binds by import and never reads; a name listed in
    the module's __all__ counts as read, since the module exports it."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []
