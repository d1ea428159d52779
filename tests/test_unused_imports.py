"""No module of the package keeps a module-level import it never uses.

No linter ships with the toolchain, so this stands in for the one check
that matters after a deletion: a dangling import left behind.
"""

import ast
from pathlib import Path

import pytest

import grasskit

MODULES = sorted(p for p in Path(grasskit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_dangling_import():
    source = "import os\nfrom math import pi, tau\nfrom . import linalg\n\nx = pi + linalg.y\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]
