"""Every definition under src/semigalois is reached by a command, the public API or the benchmark.

A top-level function or class, or a method of a top-level class, is kept
when `src/` code reads it outside the definition's own body, when
`semigalois.__all__` names it, or when the benchmark reaches it: the last
part of a "module:function" or "module:Class.method" spec in
`bench/tracer.py`'s `LAYERS` (loaded as `test_tracer_layers.py` loads it),
or an identifier that a file in `bench/` reads.  Dunder methods are exempt:
the language calls them.  So are the few methods of exported classes that
README.md documents as API and only tests call (`API_METHODS`).  Anything
else is read by tests alone and belongs under `tests/`.  The same scan
holds `tests/oracles.py` and `tests/fixtures.py` to what the test modules
read, so a retired route's helpers do not outlive it.

A bare name reaches a top-level definition alone, and `self.m`, `cls.m`
or `C.m` reaches only class C's m, so a method that only a same-named local
reads is caught.  Any other attribute read reaches every definition of
that name, since the scan does not know the object's type:
`FiniteRing.mult_matrix` would hide behind `tensor.mult_matrix`.  The test
catches what nothing reads, not every definition no caller reaches.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semigalois"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"

# Methods of exported classes that README.md documents and tests alone call.
API_METHODS = {
    "rings:FiniteRing.element",  # README.md:100
    "rings:StructuredIso.matching",  # README.md:109
    "rings:StructuredIso.twist",  # README.md:109
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("semigalois_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _definitions(tree):
    """(qualified name, node) of each top-level def and class and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{sub.name}", sub


def _reads(tree, classes=frozenset()):
    """(name, scope, line) of each variable and attribute the tree reads.

    `scope` is where a definition must sit for the read to reach it: "" for
    a bare name, which reaches a top-level definition alone; a class for
    `self.m` or `cls.m` inside its body, or for `C.m` with C one of
    `classes`; None for any other attribute, which reaches every `m`."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, "", node.lineno
            elif isinstance(node, ast.Attribute):
                base = node.value
                base = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                scope = (owner if base in ("self", "cls") and owner
                         else base if base in classes else None)
                yield node.attr, scope, node.lineno


def exported_names(init_text):
    """The names `__all__` lists in the package's `__init__`."""
    for node in ast.parse(init_text).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def bench_names(layers, bench_texts):
    """The names the benchmark reaches: each `LAYERS` spec's function or method
    name, and every identifier the bench files read."""
    names = {spec.rsplit(":", 1)[1].rsplit(".", 1)[-1]
             for specs in layers.values() for spec in specs}
    for text in bench_texts:
        names |= {name for name, _, _ in _reads(ast.parse(text))}
    return names


def unreached(modules, exempt):
    """"module:qualified name" of each definition in `modules` (module name ->
    source) that no module reads outside its own body, dunder methods aside.
    `exempt` names definitions to let through, by name or as
    "module:qualified name"."""
    trees = {m: ast.parse(text) for m, text in modules.items()}
    defined = {m: list(_definitions(tree)) for m, tree in trees.items()}
    classes = {qual for quals in defined.values() for qual, node in quals
               if isinstance(node, ast.ClassDef) and "." not in qual}
    members = {tuple(qual.split(".")) for quals in defined.values() for qual, _ in quals if "." in qual}
    read = {}  # name -> [(scope, module, line)]
    for m, tree in trees.items():
        for name, scope, line in _reads(tree, classes):
            if scope and (scope, name) not in members:
                scope = None  # inherited, or set on the instance: any definition
            read.setdefault(name, []).append((scope, m, line))
    out = []
    for m, quals in defined.items():
        for qual, node in quals:
            owner, _, name = qual.rpartition(".")
            if (name.startswith("__") and name.endswith("__") or name in exempt
                    or f"{m}:{qual}" in exempt):
                continue
            if not any(scope in (None, owner) and (rm != m or not node.lineno <= line <= node.end_lineno)
                       for scope, rm, line in read.get(name, ())):
                out.append(f"{m}:{qual}")
    return sorted(out)


def _src_modules():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def _bench_texts():
    return [p.read_text() for p in sorted(BENCH.glob("*.py"))]


def _exempt(bench_texts):
    return exported_names((SRC / "__init__.py").read_text()) | bench_names(
        _load_tracer().LAYERS, bench_texts)


def test_every_definition_is_reached():
    """Apart from `API_METHODS`, each of which is needed."""
    assert unreached(_src_modules(), _exempt(_bench_texts())) == sorted(API_METHODS)


def test_every_oracle_and_fixture_is_read():
    modules = {p.stem: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert [d for d in unreached(modules, set())
            if d.split(":")[0] in ("oracles", "fixtures")] == []


def test_a_method_read_only_through_a_same_named_local_is_caught():
    """A bare name keeps a top-level definition alone, and `self.m` and
    `C.m` keep class C's m alone; any other attribute read keeps every m."""
    modules = {"m": "class Kept:\n    def local(self):\n        return 0\n\n"
                    "    def own(self):\n        return self.twin()\n\n"
                    "    def twin(self):\n        return 0\n\n\n"
                    "class Other:\n    def twin(self):\n        return 1\n\n"
                    "    def by_class(self):\n        return 2\n\n"
                    "    def by_any(self):\n        return 3\n\n\n"
                    "def main(x):\n    local = Kept()\n"
                    "    return local, x.by_any(), Other.by_class, Kept.own\n\n\nmain(0)\n"}
    assert unreached(modules, set()) == ["m:Kept.local", "m:Other.twin"]


def test_a_planted_unread_definition_is_caught():
    """A function nothing reads, one that only calls itself and a method only
    its own class's other name reads are caught; the bench exemptions come
    from the bench files, so a name one of them reads is let through."""
    modules = _src_modules()
    modules["rings"] += ("\n\ndef planted_unread():\n    return 0\n\n\n"
                         "def planted_recursive(n):\n    return planted_recursive(n - 1) if n else 0\n\n\n"
                         "class Planted:\n    def __init__(self):\n        self.x = 0\n\n"
                         "    def planted_method(self):\n        return self.x\n")
    bench = _bench_texts()
    assert unreached(modules, _exempt(bench) | API_METHODS) == [
        "rings:Planted", "rings:Planted.planted_method", "rings:planted_recursive",
        "rings:planted_unread"]
    bench.append("from semigalois.rings import planted_unread\n\nplanted_unread()\n")
    assert unreached(modules, _exempt(bench) | API_METHODS) == [
        "rings:Planted", "rings:Planted.planted_method", "rings:planted_recursive"]


def test_exemptions_come_from_all_dunders_and_bench():
    """`__all__` names, dunder methods and the tracer's spec names each let a
    definition through; nothing else does."""
    modules = {"m": "class Exported:\n    def __repr__(self):\n        return ''\n\n\n"
                    "def traced():\n    pass\n\n\ndef plain():\n    pass\n"}
    assert unreached(modules, set()) == ["m:Exported", "m:plain", "m:traced"]
    exempt = {"Exported"} | bench_names({"group": ["m:traced"]}, [])
    assert unreached(modules, exempt) == ["m:plain"]
