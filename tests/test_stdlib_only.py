"""The modules a config check needs import nothing beyond the standard
library and each other.

``python -m grasskit.cli validate`` loads the package, ``params`` and
``errors`` and no numerical layer, and ``grasskit validate`` adds only
``__main__``, so that checking a config never imports numpy.  Any import in these modules, at module level or inside a function,
of a module outside the standard library and outside this set would undo
that without failing anything else.
"""

import ast
import sys
from pathlib import Path

import pytest

import grasskit

PACKAGE = Path(grasskit.__file__).parent
STDLIB_ONLY = ["__init__", "__main__", "errors", "params"]


def foreign_imports(source: str) -> list[str]:
    """The imports of ``source`` that name neither a standard-library module
    nor a module of ``STDLIB_ONLY``; relative ones keep their dots."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names
                    if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            out += ["." * node.level + t for t in targets
                    if node.level > 1 or t.split(".")[0] not in STDLIB_ONLY]
        elif isinstance(node, ast.ImportFrom):
            if node.module.split(".")[0] not in sys.stdlib_module_names:
                out.append(node.module)
    return out


@pytest.mark.parametrize("name", STDLIB_ONLY)
def test_module_imports_only_the_standard_library(name):
    assert foreign_imports((PACKAGE / f"{name}.py").read_text()) == []


def test_the_check_finds_a_foreign_import():
    source = ("import json, numpy.linalg\nfrom math import pi\nfrom .errors import E\n"
              "from . import params, kakeya\n\ndef f():\n    from .linalg import svd\n"
              "    from scipy import stats\n")
    assert foreign_imports(source) == ["numpy.linalg", ".kakeya", ".linalg", "scipy"]
