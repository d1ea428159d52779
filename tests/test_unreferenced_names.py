"""Every function, method and class the package defines is named somewhere
else in the package, the benchmark scripts or the README, or, for a short
list of kept names, in the tests; every field of a package dataclass is
read somewhere in that code; and every parameter with a default is passed
by some call in that code or in a python block of the README.

No linter ships with the toolchain, so this stands in for a dead-code
check: a definition that nothing names is either unused or undocumented.
A name counts where the code names it (a name, an attribute, an import or a
word of a string that is not a docstring) and anywhere in the README.  A
field counts as read where the code loads it as an attribute or names it in
a string that is not a docstring (the keys of ``asdict`` records).  A
defaulted parameter that no call passes is an option nobody sets, so its
default is the only value it can take.  A definition that only the tests
name is a helper that lives for the tests alone: the tests should call what
the package runs.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
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


def defaulted(tree: ast.AST) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, name, parameter, position) of every parameter with a
    default; the position counts the arguments a call passes before it, not
    ``self`` or ``cls``, and is None for a keyword-only parameter."""
    out = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, in_class)
                continue
            a, name = child.args, child.name
            bound = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                         for d in child.decorator_list)
            params = a.posonlyargs + a.args
            first = len(params) - len(a.defaults)
            out.extend((prefix + name, name, p.arg, i - bound)
                       for i, p in enumerate(params[first:], first))
            out.extend((prefix + name, name, p.arg, None)
                       for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            visit(child, f"{prefix}{name}.", False)

    visit(tree, "", False)
    return out


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by ``**``, or by
    position, where a ``*`` argument passes every position."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unset(package: list[str], others: list[str]) -> list[str]:
    """``function(parameter)`` for every defaulted parameter of the
    ``package`` sources that no call of a function of that name passes,
    sorted."""
    trees = [ast.parse(source) for source in package + others]
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)),
                         []).append(node)
    return sorted(f"{qualified}({param})" for tree in trees[:len(package)]
                  for qualified, name, param, position in defaulted(tree)
                  if not any(passes(c, param, position) for c in calls.get(name, [])))


# the definitions that only the tests name, each kept for a reason
TESTS_ONLY = [
    # acceptance criterion 7 binds them
    "check_spacing", "partition_spacing",
    # the ROADMAP's classifier on real families and chart-invariance items build on them
    "bush_directions", "affine_of",
    # the tests' containment oracle, a max-norm residual that shares no code
    # with the principal-angle kernels it checks
    "containment_residual",
]


def sources(patterns=("tests/*.py", "perfbench/*.py")) -> tuple[list[str], list[str]]:
    package = [p.read_text() for p in sorted((ROOT / "src" / "grasskit").glob("*.py"))]
    others = [p.read_text() for pattern in patterns for p in sorted(ROOT.glob(pattern))]
    return package, others


def test_every_package_definition_is_named_elsewhere():
    assert unreferenced(*sources(), (ROOT / "README.md").read_text()) == []


def test_no_package_definition_lives_for_the_tests_alone():
    readme = (ROOT / "README.md").read_text()
    assert unreferenced(*sources(("perfbench/*.py",)), readme) == sorted(TESTS_ONLY)


def test_every_dataclass_field_is_read():
    assert unread(*sources()) == []


def test_every_defaulted_parameter_is_passed():
    package, others = sources()
    assert unset(package, others + README_BLOCKS) == []


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


@pytest.mark.parametrize("source, expected", [
    ("def f(x, tol=1, *, k=None):\n    pass\n\nf(0)\n", ["f(k)", "f(tol)"]),
    ("def f(x, tol=1, *, k=None):\n    pass\n\nf(0, 2)\ng.f(0, k=3)\n", []),
    ("def f(x, tol=1):\n    pass\n\nf(*xs)\nf(0, **kw)\n", []),
    # self is not passed by position, and a nested function counts too
    ("class A:\n    def m(self, x=1):\n        def g(y=2):\n            pass\n\nA().m()\n",
     ["A.m(x)", "A.m.g(y)"]),
    ("class A:\n    @classmethod\n    def m(cls, x, y=1):\n        pass\n\nA.m(0, 1)\n", []),
])
def test_the_check_finds_an_unset_option(source, expected):
    assert unset([source], []) == expected
