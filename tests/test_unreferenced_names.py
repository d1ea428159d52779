"""Every function, method and class the package defines is named somewhere
else: in the package, the tests, the benchmark scripts or the README; and
every field of a package dataclass is read somewhere in that code.

No linter ships with the toolchain, so this stands in for a dead-code
check: a definition that nothing names is either unused or undocumented.
A name counts where the code names it (a name, an attribute, an import or a
word of a string that is not a docstring) and anywhere in the README.  A
field counts as read where the code loads it as an attribute or names it in
a string that is not a docstring (the keys of ``asdict`` records).
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


def string_words(tree: ast.AST) -> set[str]:
    """The words of every string constant that is not a docstring."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFINITIONS))
                  and ast.get_docstring(node) is not None}
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings for word in WORD.findall(node.value)}


def named(tree: ast.AST) -> set[str]:
    out = string_words(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def fields(tree: ast.AST) -> set[str]:
    """``Class.field`` for every annotated field of a ``@dataclass`` class."""
    def is_dataclass(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return {f"{node.name}.{stmt.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}


def read(tree: ast.AST) -> set[str]:
    return string_words(tree) | {node.attr for node in ast.walk(tree) if
                                 isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unreferenced(package: list[str], others: list[str], text: str) -> list[str]:
    """Names defined in the ``package`` sources that no source and no word
    of ``text`` names, sorted."""
    trees = [ast.parse(source) for source in package + others]
    used = set(WORD.findall(text)).union(*map(named, trees))
    return sorted(set().union(*map(defined, trees[:len(package)])) - used)


def unread(package: list[str], others: list[str]) -> list[str]:
    """``Class.field`` of the dataclass fields in the ``package`` sources
    that no source reads, sorted."""
    trees = [ast.parse(source) for source in package + others]
    used = set().union(*map(read, trees))
    return sorted(f for f in set().union(*map(fields, trees[:len(package)]))
                  if f.split(".")[1] not in used)


def sources() -> tuple[list[str], list[str]]:
    package = [p.read_text() for p in sorted((ROOT / "src" / "grasskit").glob("*.py"))]
    others = [p.read_text() for pattern in ("tests/*.py", "perfbench/*.py")
              for p in sorted(ROOT.glob(pattern))]
    return package, others


def test_every_package_definition_is_named_elsewhere():
    assert unreferenced(*sources(), (ROOT / "README.md").read_text()) == []


def test_every_dataclass_field_is_read():
    assert unread(*sources()) == []


@pytest.mark.parametrize("source, text, expected", [
    ('def f():\n    """f: g"""\n\ndef g():\n    return f()\n', "", ["g"]),
    ("class A:\n    def m(self):\n        pass\n\n    def __len__(self):\n        return 0\n",
     "", ["A", "m"]),
    ("class A:\n    def m(self):\n        pass\n", "see `A.m`", []),
    ('def f():\n    pass\n\nWRAPPED = ["f"]\n', "", []),
])
def test_the_check_finds_an_unreferenced_name(source, text, expected):
    assert unreferenced([source], [], text) == expected


@pytest.mark.parametrize("source, expected", [
    ("@dataclass\nclass A:\n    x: int\n    y: int = 0\n\nA(1).x\n", ["A.y"]),
    # a store is not a read, and a plain class has no fields
    ("@dataclass(frozen=True)\nclass A:\n    x: int\n\nclass B:\n    y: int\n\n"
     "def f(a):\n    a.x = 1\n", ["A.x"]),
    ('@dataclasses.dataclass\nclass A:\n    """x"""\n    x: int\n', ["A.x"]),
    ('@dataclass\nclass A:\n    x: int\n\nrecord = {"x": 1}\n', []),
])
def test_the_check_finds_an_unread_field(source, expected):
    assert unread([source], []) == expected
