"""Every name a package module imports is used in that module, and every
definition and method of the package is referenced: a deleted helper takes
its imports with it, and nothing is left that no code reads. Maps between
modules are sparse (linalg.Map): the dense matrix products stay at the
edges, in base_change, and a Rep is its arrow Maps, written out dense only
by its views."""

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


TESTS = Path(__file__).resolve().parent


def _walk(node: ast.AST, skip: ast.AST | None):
    """Every node below ``node``, leaving out the subtree of ``skip``."""
    for child in ast.iter_child_nodes(node):
        if child is not skip:
            yield child
            yield from _walk(child, skip)


def _references(tree: ast.Module, skip: ast.stmt | None = None) -> set[str]:
    """Names a module reads outside the statement ``skip``: names,
    attributes, imported names, and string constants that are dotted names
    (getattr, monkeypatch and the traced-name snapshot name functions so)."""
    out: set[str] = set()
    for n in _walk(tree, skip):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _unreferenced_definitions(sources: dict[str, str], package: set[str]) -> list[str]:
    """Top-level defs and classes of the files in ``package``, and the
    methods of those classes, that no file references, their own bodies
    aside, as "file:name" or "file:Class.name". Dunder methods are called
    by the language and are not checked."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    out = []
    for name in sorted(package):
        tree = trees[name]
        others = set().union(*(_references(t) for n, t in trees.items() if n != name))
        defs = [(s.name, s) for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (f"{c.name}.{m.name}", m)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for m in c.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
        ]
        for label, node in defs:
            if node.name not in others and node.name not in _references(tree, skip=node):
                out.append(f"{name}:{label}")
    return out


def test_the_scan_flags_an_unreferenced_definition():
    sources = {
        "a.py": "def used(): pass\ndef dead(): return dead()\nclass Old: pass\n",
        "b.py": "from a import used\nused()\nx = getattr(m, 'pkg.Old')\n",
    }
    assert _unreferenced_definitions(sources, {"a.py"}) == ["a.py:dead"]


def test_the_scan_flags_an_unreferenced_method():
    sources = {
        "a.py": (
            "class A:\n"
            "    def __len__(self): return 0\n"
            "    def used(self): return self.size\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    def dead(self): return self.dead()\n"
            "    def named(self): pass\n"
        ),
        "b.py": "A().used()\nx = getattr(m, 'pkg.A.named')\n",
    }
    assert _unreferenced_definitions(sources, {"a.py"}) == ["a.py:A.dead"]


def test_every_package_definition_has_a_reference():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    sources = {f"{p.parent.name}/{p.name}": p.read_text() for p in files}
    package = {f"{SRC.name}/{p.name}" for p in SRC.glob("*.py")}
    assert _unreferenced_definitions(sources, package) == []


# -- one map format --------------------------------------------------------------

DENSE_ARITHMETIC = {"mat_mul", "mat_pow", "transpose", "kernel_basis", "identity"}


def _imported(source: str, names: set[str]) -> list[str]:
    """The names among ``names`` that an import statement binds."""
    return sorted(
        a.name
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for a in n.names
        if a.name in names
    )


def _readers(source: str, names: set[str]) -> list[str]:
    """Top-level statements, imports aside, that read any of ``names`` as a
    name or an attribute: functions and classes by name, other statements
    by line."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if any(
            (isinstance(n, ast.Name) and n.id in names) or (isinstance(n, ast.Attribute) and n.attr in names)
            for n in ast.walk(stmt)
        ):
            out.append(getattr(stmt, "name", f"line {stmt.lineno}"))
    return out


def test_the_scans_flag_dense_arithmetic():
    source = (
        "from .linalg import Map, mat_mul, transpose\n"
        "import linalg\n"
        "def edge(a): return mat_mul(None, a, a)\n"
        "class Piece:\n"
        "    def split(self): return linalg.inverse(None, self)\n"
        "def sparse(x): return x\n"
        "table = [mat_mul]\n"
    )
    assert _imported(source, DENSE_ARITHMETIC) == ["mat_mul", "transpose"]
    assert _readers(source, {"mat_mul", "inverse"}) == ["edge", "Piece", "line 7"]


@pytest.mark.parametrize("name", ["degeneration.py", "grass.py"])
def test_the_split_and_sweep_modules_import_no_dense_arithmetic(name):
    assert _imported((SRC / name).read_text(), DENSE_ARITHMETIC) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_base_change_multiplies_or_inverts_dense_matrices(path):
    expected = ["base_change"] if path.name == "reps.py" else []
    assert _readers(path.read_text(), {"mat_mul", "mat_pow", "inverse"}) == expected


def test_a_rep_is_its_arrow_maps():
    # the dense views write Maps out through one helper, and nothing else in
    # reps builds a dense matrix: the builders and the Hom solve stay on Maps
    from quivermoduli.reps import Rep

    source = (SRC / "reps.py").read_text()
    assert set(_readers(source, {"zeros"})) <= {"Rep", "hom_basis", "global_matrix"}
    assert _readers(source, {"_matrix"}) == ["Rep", "global_matrix", "hom_basis"]
    assert _readers(source, {"mats"}) == ["Rep", "base_change"]
    assert "_arrows" not in Rep.__slots__ and "mats" not in Rep.__slots__


# -- one construction of P -------------------------------------------------------

COVER_REBUILDERS = {"direct_sum", "rep_of_projective", "radical_layering"}


def _calls_in_class(source: str, cls: str, names: set[str]) -> list[str]:
    """The names among ``names`` that the body of class ``cls`` calls, as a
    name or an attribute."""
    body = next(s for s in ast.parse(source).body if isinstance(s, ast.ClassDef) and s.name == cls)
    called = (n.func for n in ast.walk(body) if isinstance(n, ast.Call))
    return sorted({getattr(f, "id", getattr(f, "attr", None)) for f in called} & names)


def test_the_scan_flags_a_call_in_a_class_body():
    source = (
        "def direct_sum(a, b): return a\n"
        "class Cover:\n"
        "    def __init__(self):\n"
        "        self.rep = reps.direct_sum(rep_of_projective(1), None)\n"
        "        self.f = radical_layering\n"
    )
    assert _calls_in_class(source, "Cover", COVER_REBUILDERS) == ["direct_sum", "rep_of_projective"]


def test_the_cover_is_built_once_from_its_path_basis():
    # P and its coordinates come from one reps._free_rep call and the
    # certificate from the normal forms: no direct-sum chain, no second
    # projective, no layering elimination
    source = (SRC / "grass.py").read_text()
    assert _calls_in_class(source, "ProjectiveCover", COVER_REBUILDERS) == []
