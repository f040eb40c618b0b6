"""Every definition under src/semigalois is reached by a command, the public API or the benchmark.

A top-level function or class, or a method of a top-level class, is kept
when `src/` code reads its name outside the definition's own body (as a
variable or as an attribute), when `semigalois.__all__` names it, or when
the benchmark reaches it: the last part of a "module:function" or
"module:Class.method" spec in `bench/tracer.py`'s `LAYERS` (loaded as
`test_tracer_layers.py` loads it), or an identifier that a file in
`bench/` reads.  Dunder methods are exempt: the language calls them.
Anything else is read by tests alone and belongs under `tests/`.

The scan goes by name, not by binding, so a definition that shares its name
with something `src/` reads passes unread: `FiniteRing.mult_matrix` would
hide behind `TensorPresentation.mult_matrix`, and a module-level
`semigroups.idempotents` behind the attribute `S.idempotents`.  The test
catches what nothing reads by name, not every definition no caller reaches.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semigalois"
BENCH = ROOT / "bench"


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


def _reads(tree):
    """(name, line) of each variable and attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


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
        names |= {name for name, _ in _reads(ast.parse(text))}
    return names


def unreached(modules, exempt):
    """"module:qualified name" of each definition in `modules` (module name ->
    source) that no module reads outside its own body and `exempt` does not
    name, dunder methods aside."""
    trees = {m: ast.parse(text) for m, text in modules.items()}
    read = {}  # name -> [(module, line)]
    for m, tree in trees.items():
        for name, line in _reads(tree):
            read.setdefault(name, []).append((m, line))
    out = []
    for m, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__") or name in exempt:
                continue
            if not any(rm != m or not node.lineno <= line <= node.end_lineno
                       for rm, line in read.get(name, ())):
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
    assert unreached(_src_modules(), _exempt(_bench_texts())) == []


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
    assert unreached(modules, _exempt(bench)) == [
        "rings:Planted", "rings:Planted.planted_method", "rings:planted_recursive",
        "rings:planted_unread"]
    bench.append("from semigalois.rings import planted_unread\n\nplanted_unread()\n")
    assert unreached(modules, _exempt(bench)) == [
        "rings:Planted", "rings:Planted.planted_method", "rings:planted_recursive"]


def test_exemptions_come_from_all_dunders_and_bench():
    """`__all__` names, dunder methods and the tracer's spec names each let a
    definition through; nothing else does."""
    modules = {"m": "class Exported:\n    def __repr__(self):\n        return ''\n\n\n"
                    "def traced():\n    pass\n\n\ndef plain():\n    pass\n"}
    assert unreached(modules, set()) == ["m:Exported", "m:plain", "m:traced"]
    exempt = {"Exported"} | bench_names({"group": ["m:traced"]}, [])
    assert unreached(modules, exempt) == ["m:plain"]
