"""Every name a package module imports is used in that module: a deleted
helper takes its imports with it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quivermoduli"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads. Quoted
    annotations are parsed too, so a name used only there counts."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = [
        a
        for n in ast.walk(tree)
        for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
        if a is not None
    ]
    quoted = [
        ast.parse(n.value, mode="eval")
        for a in annotations
        for n in ast.walk(a)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    used = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_flags_an_unused_import():
    source = "from x import a, b as c\nimport d.e\nimport f\nf.g(a)\ny: 'list[d]'\n"
    assert _unused_imports(source) == ["c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == [], path.name
