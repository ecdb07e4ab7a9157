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
