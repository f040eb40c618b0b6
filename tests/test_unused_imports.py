"""No module under src/semigalois or tests/ imports a name it never reads.

The repository has no linter, and deleting or moving code can leave an
import behind.  Each module is parsed with `ast`; a module-level import is used
when the module reads the bound name anywhere, as a variable or as the base
of an attribute.  Names the module lists in `__all__`, and names imported
on a line marked `# noqa: F401` (kept for re-export), are allowed.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "semigalois"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(text):
    """The names that `text`'s module-level imports bind and it never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted(name for name, line in imported.items()
                  if name not in read | exported and "# noqa: F401" not in lines[line - 1])


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_a_planted_unused_import_is_caught():
    text = "from __future__ import annotations\nimport os\nfrom math import gcd, prod\n"
    assert unused_imports(text + "print(prod([2]))\n") == ["gcd", "os"]
    assert unused_imports(text + "__all__ = ['gcd']\nos.sep\nprod\n") == []
    assert unused_imports("from math import (gcd,  # noqa: F401\n    prod)\n") == ["prod"]
