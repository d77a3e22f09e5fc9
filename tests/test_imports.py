"""Dead-code guards over the package source.

Every package module uses every name it imports (`__init__.py` is exempt,
since its imports are the public re-exports), and every module-level private
function and class is referenced somewhere outside its own definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qud"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c as d\nb(np.e)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """Module-level private functions and classes that no statement other than
    their own definition names (as a name, an attribute or an import).

    Matching is by name across all the given sources.
    """
    defined, referenced = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.add(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(defined - referenced)


def test_guard_finds_unreferenced_private_defs():
    a = "def _used():\n    pass\n\ndef _lone(n):\n    return _lone(n - 1)\n\nclass _Gone:\n    pass\n"
    b = "from a import _used\n\ndef public():\n    return _used()\n"
    assert unreferenced_private_defs([a, b]) == ["_Gone", "_lone"]


def test_every_private_def_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_defs(sources) == []
