"""The public API holds only names the program itself uses.

A name earns its place in ``spod.__all__`` by a use outside its own
definition in the package modules, the benchmark, the scripts or the
acceptance test. Unit tests do not count: a name that only its own
tests call is surface for nobody.
"""

import ast
from pathlib import Path

import spod

ROOT = Path(__file__).resolve().parents[1]
USER_FILES = (
    [p for p in (ROOT / "src" / "spod").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "bench").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


class _Uses(ast.NodeVisitor):
    """Names read as a Name, an Attribute or an import alias, except
    inside the def or class of the same name."""

    def __init__(self):
        self.names = set()
        self._defining = []

    def _scope(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _use(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def _used_names():
    uses = _Uses()
    for path in USER_FILES:
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses.names


USED = _used_names()


def test_public_names_resolve():
    assert len(set(spod.__all__)) == len(spod.__all__)
    assert [n for n in spod.__all__ if getattr(spod, n, None) is None] == []


def test_public_names_are_used_outside_their_definitions():
    # names that only their own definition or unit tests use
    assert [n for n in spod.__all__ if n not in USED] == []


def test_own_definition_does_not_count():
    uses = _Uses()
    uses.visit(ast.parse("def f(n):\n    return f(n - 1)\n"
                         "class C:\n    x = C\n"))
    assert "f" not in uses.names and "C" not in uses.names
    uses.visit(ast.parse("from m import f\nC.g()\n"))
    assert {"f", "C", "g"} <= uses.names
