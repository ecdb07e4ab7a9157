import ast
from pathlib import Path

import pytest

import qmapkit

MODULES = sorted(p for p in Path(qmapkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # its imports are the API


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_scan_finds_an_unused_import():
    assert _unused_imports(
        "from dataclasses import dataclass, replace\nimport numpy as np\n"
        "import os.path\n@dataclass\nclass A:\n    x: np.ndarray\n"
    ) == ["os", "replace"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_import_nothing_they_do_not_use(path):
    assert _unused_imports(path.read_text()) == []


def _stranded_private_names(sources: dict) -> list:
    """(module, name) of each private name that a module's top level binds
    and that no module in ``sources`` reads: the module itself by name, any
    module as an attribute or by importing it from that module."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {module: set() for module in trees}
    attrs = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.split(".")[-1]
                read.setdefault(source, set()).update(
                    alias.name for alias in node.names)
    bound = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound += [(module, n.id) for t in targets
                          for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted((module, name) for module, name in bound
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read[module] | attrs)


def test_the_scan_finds_a_stranded_private_name():
    assert _stranded_private_names({
        "a": "_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\n"
             "class _K:\n    pass\n__all__ = []\n",
        "b": "from .a import _C\nimport a\nprint(a._K, _B)\n_B = 4\n",
    }) == [("a", "_B"), ("a", "_f")]


def test_no_private_module_level_name_is_stranded():
    package = Path(qmapkit.__file__).parent
    assert _stranded_private_names(
        {p.stem: p.read_text() for p in package.glob("*.py")}) == []
