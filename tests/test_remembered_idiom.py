"""Every derived fact under src/semigalois is kept through `remembered`.

A validated object keeps what it derives in its `facts` dict, by the
`semigroups.remembered` decorator, so each fact has one definition.  Each
module is parsed with `ast`, and this test fails on the other idioms:

- an import of `functools.cached_property`, which writes through the
  instance `__dict__`, after which every attribute read on the object is
  slower;
- a read or write of `__dict__`;
- a function that returns a `remembered(...)` call on a private
  function (after its precondition checks, say): a public name beside its
  private twin.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semigalois"


def _private(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.startswith("_")


def violations(text):
    """(line, what) of each use of another compute-once idiom in `text`."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "cached_property" for a in node.names):
            found.append((node.lineno, "imports cached_property"))
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.append((node.lineno, "reads functools.cached_property"))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append((node.lineno, "reads or writes __dict__"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Return) and isinstance(call := sub.value, ast.Call)
                        and isinstance(call.func, ast.Name) and call.func.id == "remembered"
                        and any(_private(arg) for arg in call.args)):
                    found.append((node.lineno, f"{node.name} returns remembered() on a private twin"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_fact_has_one_definition(path):
    assert violations(path.read_text()) == []


PLANTED = {
    "from functools import cached_property\n": "imports cached_property",
    "import functools\nclass A:\n    p = functools.cached_property(len)\n":
        "reads functools.cached_property",
    "def f(obj):\n    obj.__dict__['x'] = 1\n": "reads or writes __dict__",
    "def fact(S):\n    '''Doc.'''\n    return remembered(S, 'fact', _fact)\n":
        "fact returns remembered() on a private twin",
    "def fact(self):\n    return remembered(self, 'fact', self._derive)\n":
        "fact returns remembered() on a private twin",
    "def fact(S):\n    if S.zero is None:\n        raise ValueError\n"
    "    return remembered(S, 'fact', _fact)\n": "fact returns remembered() on a private twin",
}


@pytest.mark.parametrize("text", PLANTED)
def test_the_scan_catches_each_planted_idiom(text):
    assert [what for _, what in violations(text)] == [PLANTED[text]]


def test_the_decorator_and_a_public_derivation_pass():
    text = ("@remembered\ndef fact(S):\n    '''Doc.'''\n    return len(S)\n\n"
            "def other(S):\n    return remembered(S, 'key', lambda S: 0)\n")
    assert violations(text) == []
