"""Every name a package module imports is used in that module, and every
definition and method of the package is reached from the command line, or
is a name the benchmark wraps: a deleted helper takes its imports with it,
and what only the tests use lives in tests/. Maps between modules are
sparse (linalg.Map): only linalg multiplies dense matrices, a Rep is its
arrow Maps, built by one constructor and written out dense only by its
views, and a path acts on Maps through one fold."""

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


# -- reachable from the command line -------------------------------------------

# perfbench/tracing.py::TRACED names that no CLI path reaches. They stay in
# src/ only because the benchmark wraps them by name; each waits on ROADMAP
# item 8, which takes them off that list.
LIBRARY_API = (
    "linalg.rref",  # item 8
    "linalg.span_rref",  # item 8
    "linalg.reduce_mod",  # item 8
    "linalg.kernel_basis",  # item 8
    "linalg.mat_mul",  # item 8
    "linalg.mat_pow",  # item 8
    "linalg.solve",  # item 8
    "reps.hom_basis",  # item 8
    "reps.is_isomorphic",  # item 8
    "polys.poly_det",  # item 8
)


def _loads(nodes) -> set[str]:
    """What the nodes read: plain names as themselves, attributes as
    ".name"."""
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add("." + n.attr)
    return out


def _unreached(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Top-level functions and classes, as "module.name", and their methods,
    as "module.Class.name", that no path reaches from the roots.

    Module-level statements run on import, so what they read is reached.
    A reached definition reaches what its body reads: a plain name reaches
    every top-level definition of that name, an attribute every method of
    that name in a reached class; dunder methods come with their class.
    Definitions are matched by name alone, so a name collision can hide an
    unreached one: a local variable read under a function's name, or an
    attribute read on any object under a method's name. linalg.rref and
    Echelon.rref stay apart only because one is read as a plain name and
    the other as an attribute.
    """
    defs = {}  # key -> (name, owning class key or None, what its body reads)
    names: set[str] = set()
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                cls = f"{mod}.{stmt.name}"
                body = [n for n in ast.iter_child_nodes(stmt) if not isinstance(n, ast.FunctionDef)]
                defs[cls] = (stmt.name, None, _loads(body))
                for m in stmt.body:
                    if isinstance(m, ast.FunctionDef):
                        defs[f"{cls}.{m.name}"] = ("." + m.name, cls, _loads([m]))
            elif isinstance(stmt, ast.FunctionDef):
                defs[f"{mod}.{stmt.name}"] = (stmt.name, None, _loads([stmt]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names |= _loads([stmt])
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, (name, owner, reads) in defs.items():
            if key in reached or (owner is not None and owner not in reached):
                continue
            if key in roots or name in names or name.startswith(".__"):
                reached.add(key)
                names |= reads
                grew = True
    return sorted(set(defs) - reached)


def test_the_scan_flags_an_unreached_definition():
    sources = {
        "cli": "def main():\n    size = 0\n    return Table().rows + helper() + size\n",
        "lib": (
            "def helper(): return 1\n"
            "def dead(): return helper()\n"
            "def pinned(): return 2\n"
            "def loaded(): return 3\n"
            "def size(): return 4\n"
            "class Table:\n"
            "    def __len__(self): return 0\n"
            "    def rows(self): return self.cols()\n"
            "    def cols(self): return 2\n"
            "    def dead(self): return Spare()\n"
            "class Spare:\n"
            "    def rows(self): return 3\n"
            "HOOK = loaded\n"
        ),
    }
    # Spare.rows shares its name with a reached method, but Spare is not
    # reached; lib.size is hidden behind the local variable of main
    unreached = ["lib.Spare", "lib.Spare.rows", "lib.Table.dead", "lib.dead"]
    assert _unreached(sources, {"cli.main"}) == unreached + ["lib.pinned"]
    assert _unreached(sources, {"cli.main", "lib.pinned"}) == unreached


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in SRC.glob("*.py")}


def test_every_definition_is_reached_from_the_command_line():
    # what only the tests use belongs in tests/; the benchmark's names wait
    # on item 8 in LIBRARY_API
    assert _unreached(_package_sources(), {"cli.main", *LIBRARY_API}) == []


def test_the_library_api_is_what_the_benchmark_pins_and_the_cli_does_not_reach():
    source = (SRC.parent.parent / "perfbench" / "tracing.py").read_text()
    traced = next(
        ast.literal_eval(s.value)
        for s in ast.parse(source).body
        if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "TRACED"
    )
    assert set(LIBRARY_API) <= {f"{m}.{f}" for m, fs in traced.items() for f in fs}
    assert set(LIBRARY_API) <= set(_unreached(_package_sources(), {"cli.main"}))


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
def test_only_linalg_multiplies_or_inverts_dense_matrices(path):
    assert _readers(path.read_text(), {"mat_mul", "mat_pow", "inverse"}) == []


def test_a_rep_is_its_arrow_maps():
    # the dense views write Maps out through one helper, and nothing else in
    # reps builds a dense matrix: the builders and the Hom solve stay on Maps
    from quivermoduli.reps import Rep

    source = (SRC / "reps.py").read_text()
    assert _readers(source, {"zeros", "mats"}) == []
    assert _readers(source, {"_matrix"}) == ["Rep", "hom_basis"]
    assert "_arrows" not in Rep.__slots__ and "mats" not in Rep.__slots__


def _class(source: str, name: str) -> ast.ClassDef:
    return next(s for s in ast.parse(source).body if isinstance(s, ast.ClassDef) and s.name == name)


def _second_constructors(cls: ast.ClassDef) -> list[str]:
    """The methods of a class that build an instance besides __init__:
    class and static methods, and __new__."""
    return [
        s.name
        for s in cls.body
        if isinstance(s, ast.FunctionDef)
        and (s.name == "__new__" or any(getattr(d, "id", None) in ("classmethod", "staticmethod") for d in s.decorator_list))
    ]


def test_the_scan_flags_a_second_constructor():
    source = (
        "class Rep:\n"
        "    def __init__(self, arrows): self.arrows = arrows\n"
        "    @classmethod\n"
        "    def _of_maps(cls, arrows): return cls.__new__(cls)\n"
        "    @property\n"
        "    def mats(self): return {}\n"
    )
    assert _second_constructors(_class(source, "Rep")) == ["_of_maps"]


def test_a_rep_has_one_constructor_and_no_module_reads_matrices_in():
    # every builder, the document reader included, hands Rep its arrow Maps;
    # no dense reader pads a module block with zero matrices
    assert _second_constructors(_class((SRC / "reps.py").read_text(), "Rep")) == []
    assert all(".__new__" not in _loads([ast.parse(p.read_text())]) for p in MODULES)
    assert _imported((SRC / "dsl.py").read_text(), {"zeros"}) == []


# -- one construction of P -------------------------------------------------------

COVER_REBUILDERS = {"direct_sum", "rep_of_projective", "radical_layering"}


def _calls_in(source: str, top: str, names: set[str]) -> list[str]:
    """The names among ``names`` that the body of the top-level class or
    function ``top`` calls, as a name or an attribute."""
    body = next(
        s for s in ast.parse(source).body if isinstance(s, (ast.ClassDef, ast.FunctionDef)) and s.name == top
    )
    called = (n.func for n in ast.walk(body) if isinstance(n, ast.Call))
    return sorted({getattr(f, "id", getattr(f, "attr", None)) for f in called} & names)


def test_the_scan_flags_a_call_in_a_class_body():
    source = (
        "def direct_sum(a, b): return a\n"
        "class Cover:\n"
        "    def __init__(self):\n"
        "        self.rep = reps.direct_sum(rep_of_projective(1), None)\n"
        "        self.f = radical_layering\n"
        "def grow(P):\n"
        "    def step(p): return alg.nf_path(extend(p, a))\n"
        "    return step, compose\n"
    )
    assert _calls_in(source, "Cover", COVER_REBUILDERS) == ["direct_sum", "rep_of_projective"]
    assert _calls_in(source, "grow", PATH_ARITHMETIC) == ["extend", "nf_path"]


def test_the_cover_is_built_once_from_its_path_basis():
    # P and its coordinates come from one reps._free_rep call and the
    # certificate from the arrow table: no direct-sum chain, no second
    # projective, no layering elimination
    source = (SRC / "grass.py").read_text()
    assert _calls_in(source, "ProjectiveCover", COVER_REBUILDERS) == []


# -- one coordinate system for P -------------------------------------------------

PATH_ARITHMETIC = {"extend", "compose", "nf_path", "normal_form", "arrow_act", "initial"}


@pytest.mark.parametrize("name", ["_grow_skeleta", "chart_equations", "coords_to_point", "endo_space"])
def test_the_cover_code_runs_on_positions(name):
    # skeleta, charts, points and End(P) read P's position tables and the
    # arrow Maps of P.rep: no path is extended, composed or normal-formed
    assert _calls_in((SRC / "grass.py").read_text(), name, PATH_ARITHMETIC) == []


@pytest.mark.parametrize("name, top", [("grass.py", "point_from_generators"), ("dsl.py", "doc_direction")])
def test_parsed_paths_act_on_the_cover_by_folding(name, top):
    # a point generator or a direction is folded from z_r's position along
    # P's arrow Maps: no path is normal-formed in Lambda and looked up again
    source = (SRC / name).read_text()
    assert _calls_in(source, top, PATH_ARITHMETIC | {"fold"}) == ["fold"]


@pytest.mark.parametrize("name, top", [("grass.py", "ProjectiveCover"), ("reps.py", "_free_rep")])
def test_the_cover_copies_the_arrow_table_of_the_algebra(name, top):
    # P's arrow Maps, parent, ext and rank are Lambda's, copied onto each
    # generator: building a cover does no path arithmetic
    assert _calls_in((SRC / name).read_text(), top, PATH_ARITHMETIC) == []


def _members(cls: ast.ClassDef) -> set[str]:
    """The methods of a class, its annotated fields and the attributes its
    methods assign on self."""
    out = {s.name for s in cls.body if isinstance(s, ast.FunctionDef)}
    out |= {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    targets = [t for n in ast.walk(cls) if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in ast.walk(cls) if isinstance(n, ast.AnnAssign)]
    return out | {t.attr for t in targets if isinstance(t, ast.Attribute)}


def test_the_scan_reads_the_members_of_a_class():
    source = "class A:\n    size: int\n    def __init__(self):\n        self.table = {}\n        self.n: int = 0\n"
    assert _members(ast.parse(source).body[0]) == {"size", "__init__", "table", "n"}


def test_the_algebra_keeps_no_second_arrow_table():
    # Lambda is its basis and arrow table: no table of normal forms keyed
    # by path, no path index, no second arrow action, no normal form keyed
    # by path
    algebra = _class((SRC / "algebra.py").read_text(), "Algebra")
    assert {"arrows", "parent", "ext"} <= _members(algebra)
    assert _members(algebra).isdisjoint({"arrow_act", "_nf_table", "basis_index", "nf_path", "normal_form"})


def test_paths_and_relations_act_through_one_fold():
    # linalg.fold is the one action of a path on arrow Maps: no second fold
    # in algebra, no element image in reps
    tops = {p.stem: {s.name for s in ast.parse(p.read_text()).body if isinstance(s, ast.FunctionDef)} for p in MODULES}
    assert [m for m, names in tops.items() if names & {"fold", "_fold", "_element_image"}] == ["linalg"]
