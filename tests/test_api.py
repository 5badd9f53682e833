"""The package's public surface and its imports: every exported name resolves,
a star import works, no module of the package imports a name it never uses,
and the per-point layer loads no numpy."""

import ast
import json
import os
import subprocess
import sys
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


def _module_level_names(tree: ast.Module) -> list:
    """The names a module binds at its top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_level_name_is_read_or_exported():
    # A name bound at the top level of a module must be read somewhere in the
    # package (as a name, an attribute or an import) or be exported.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    read = set(dynamohull.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [(name, line, module) for module, tree in trees.items()
              for line, name in _module_level_names(tree)
              if name not in read and not name.startswith("__")]
    assert unread == []


# Runs in a fresh interpreter, with the path of a triple file as argv[1], and
# prints whether numpy is loaded after each step.
IMPORT_STEPS = """
import json, os, sys
loaded = {}
import dynamohull as dh
loaded["import"] = "numpy" in sys.modules
p = dh.HullParams(1.0, 1.0)
z = dh.Triple(dh.Vec3(0.3, 0.0, 0.0), dh.Vec3(0.0, 0.4, 0.0), dh.Vec3(0.0, 0.0, 0.5))
d = dh.decompose(z, p)
assert dh.in_hull(z, p) and dh.verify_decomposition(d, z, p).passed
loaded["set-up probe"] = "numpy" in sys.modules
dh.separation_witness(z, p)
dh.in_wave_cone(z, dh.ConeKind.STATIONARY_INCOMPRESSIBLE)
dh.unit_perpendicular_to_all((z.B, z.u))
d.to_json_dict()
loaded["per-point calls"] = "numpy" in sys.modules
from dynamohull import cli
for command in ("decompose", "wavecone"):
    assert cli.main([command, "--input", sys.argv[1], "--output", os.devnull]) == 0
loaded["cli decompose, wavecone"] = "numpy" in sys.modules
sample_hull = dh.sample_hull
loaded["sample_hull"] = "numpy" in sys.modules
loaded["sample_hull is oracle's"] = sample_hull is dh.oracle.sample_hull
print(json.dumps(loaded))
"""


def test_per_point_layer_loads_no_numpy(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text('{"B": [0.3, 0.1, 0], "u": [0, 0.2, 0.4], "E": [0.04, -0.12, 0.36]}')
    src = str(Path(dynamohull.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_STEPS, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "import": False, "set-up probe": False, "per-point calls": False,
        "cli decompose, wavecone": False, "sample_hull": True, "sample_hull is oracle's": True,
    }


def test_lazy_names_are_listed_and_unknown_names_raise():
    assert set(dynamohull.__all__) <= set(dir(dynamohull))
    with pytest.raises(AttributeError, match="module 'dynamohull' has no attribute 'nope'"):
        dynamohull.nope
