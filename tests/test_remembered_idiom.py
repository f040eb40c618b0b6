"""Every derived fact and every cache under src/semigalois is kept through `remembered`.

A validated object keeps what it derives in its `facts` dict, by the
`semigroups.remembered` decorator, so each fact has one definition.  Each
module is parsed with `ast`, and this test fails on the other idioms:

- an import of `functools.cached_property`, which writes through the
  instance `__dict__`, after which every attribute read on the object is
  slower;
- a read or write of `__dict__`;
- a function that returns a `remembered(...)` call on a private
  function (after its precondition checks, say): a public name beside its
  private twin;
- a keyed memo by hand: a dict attribute of a class that a method other
  than `__init__` fills by subscript, on `self.x` or on a local alias of it
  (`cache = self.x; cache[k] = ...`);
- a lazy attribute: `if self.x is None: ... self.x = ...`;
- `functools.cache` or `lru_cache` decorating a method, which keeps every
  object it is called on alive in one cache on the class.

What the scan lets pass is not a memo of an object's facts.  A dict
attribute that `__init__` fills is data built once with the object.  A
module-level cache (`corpus._PALETTE_ATOMS`, the `functools.cache` on
`cli.parser`) belongs to no object that could hold facts.  A `functools.cache` closure inside a function dies with the call
that made it, as those of the pair-loop oracle `beta_strong_by_pairs` in
`tests/oracles.py` do; `src/` keeps none, as strongness and S_B read the
moved atoms kept per B (`galois._moved_atoms`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semigalois"


def _private(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.startswith("_")


def _self_attr(node):
    """The name x of an expression `self.x`, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_cache_decorator(node):
    node = node.func if isinstance(node, ast.Call) else node
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in ("cache", "lru_cache")


def _class_memos(cls):
    """(line, what) of each keyed memo, lazy attribute and cached method of a class."""
    dicts = {_self_attr(target) for node in ast.walk(cls) if isinstance(node, ast.Assign)
             and (isinstance(node.value, ast.Dict) or isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", "") == "dict")
             for target in node.targets} - {None}
    found = []
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(map(_is_cache_decorator, method.decorator_list)):
            found.append((method.lineno, f"{cls.name}.{method.name} is a cached method"))
        if method.name == "__init__":
            continue
        aliases = {target.id: _self_attr(node.value) for node in ast.walk(method)
                   if isinstance(node, ast.Assign) and _self_attr(node.value) in dicts
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(method):
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Subscript):
                    base = target.value
                    attr = aliases.get(base.id) if isinstance(base, ast.Name) else _self_attr(base)
                    if attr in dicts:
                        found.append((node.lineno, f"{cls.name}.{attr} is filled by subscript "
                                                   f"in {method.name}"))
            if (isinstance(node, ast.If) and isinstance(test := node.test, ast.Compare)
                    and (attr := _self_attr(test.left)) and isinstance(test.ops[0], ast.Is)
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                    and any(_self_attr(t) == attr for sub in node.body for n in ast.walk(sub)
                            if isinstance(n, ast.Assign) for t in n.targets)):
                found.append((node.lineno, f"{cls.name}.{attr} is a lazy attribute in {method.name}"))
    return found


def violations(text):
    """(line, what) of each use of another compute-once idiom in `text`."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef):
            found += _class_memos(node)
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
    "class A:\n    def __init__(self):\n        self._kept = {}\n\n    def get(self, k):\n"
    "        if k not in self._kept:\n            self._kept[k] = k * k\n        return self._kept[k]\n":
        "A._kept is filled by subscript in get",
    "class A:\n    def __init__(self):\n        self._kept = dict()\n\n    def get(self, k):\n"
    "        kept = self._kept\n        if k not in kept:\n            kept[k] = k * k\n"
    "        return kept[k]\n": "A._kept is filled by subscript in get",
    "class A:\n    __slots__ = ('_x',)\n\n    @property\n    def x(self):\n"
    "        if self._x is None:\n            self._x = 1\n        return self._x\n":
        "A._x is a lazy attribute in x",
    "import functools\nclass A:\n    @functools.cache\n    def f(self, k):\n        return k\n":
        "A.f is a cached method",
    "from functools import lru_cache\nclass A:\n    @lru_cache(maxsize=None)\n"
    "    def f(self, k):\n        return k\n": "A.f is a cached method",
}


@pytest.mark.parametrize("text", PLANTED)
def test_the_scan_catches_each_planted_idiom(text):
    assert [what for _, what in violations(text)] == [PLANTED[text]]


def test_the_decorator_and_a_public_derivation_pass():
    text = ("@remembered\ndef fact(S):\n    '''Doc.'''\n    return len(S)\n\n"
            "def other(S):\n    return remembered(S, 'key', lambda S: 0)\n")
    assert violations(text) == []


def test_data_built_once_and_caches_outside_objects_pass():
    """A dict `__init__` fills, a module-level cache, a cached module
    function, a per-call cached closure, and a list filled by subscript."""
    text = ("import functools\n_KEPT = {}\n\ndef draw(k):\n    if k not in _KEPT:\n"
            "        _KEPT[k] = k\n    return _KEPT[k]\n\n@functools.cache\ndef parser():\n"
            "    return 0\n\ndef strong(B):\n    @functools.cache\n    def moved(s):\n"
            "        return s\n    return moved(B)\n\nclass Part:\n    def __init__(self, cs):\n"
            "        self.place = {}\n        for k, c in enumerate(cs):\n"
            "            self.place[c] = k\n        self.out = [0] * len(cs)\n\n"
            "    def put(self, i, x):\n        self.out[i] = x\n")
    assert violations(text) == []
