"""Every function, method and class the package defines is named somewhere
else: in the package, the tests, the benchmark scripts or the README.

No linter ships with the toolchain, so this stands in for a dead-code
check: a definition that nothing names is either unused or undocumented.
A name counts where the code names it (a name, an attribute, an import or a
word of a string that is not a docstring) and anywhere in the README.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def defined(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def named(tree: ast.AST) -> set[str]:
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFINITIONS))
                  and ast.get_docstring(node) is not None}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(WORD.findall(node.value))
    return out


def unreferenced(package: list[str], others: list[str], text: str) -> list[str]:
    """Names defined in the ``package`` sources that no source and no word
    of ``text`` names, sorted."""
    trees = [ast.parse(source) for source in package + others]
    used = set(WORD.findall(text)).union(*map(named, trees))
    return sorted(set().union(*map(defined, trees[:len(package)])) - used)


def test_every_package_definition_is_named_elsewhere():
    package = [p.read_text() for p in sorted((ROOT / "src" / "grasskit").glob("*.py"))]
    others = [p.read_text() for pattern in ("tests/*.py", "perfbench/*.py")
              for p in sorted(ROOT.glob(pattern))]
    assert unreferenced(package, others, (ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize("source, text, expected", [
    ('def f():\n    """f: g"""\n\ndef g():\n    return f()\n', "", ["g"]),
    ("class A:\n    def m(self):\n        pass\n\n    def __len__(self):\n        return 0\n",
     "", ["A", "m"]),
    ("class A:\n    def m(self):\n        pass\n", "see `A.m`", []),
    ('def f():\n    pass\n\nWRAPPED = ["f"]\n', "", []),
])
def test_the_check_finds_an_unreferenced_name(source, text, expected):
    assert unreferenced([source], [], text) == expected
