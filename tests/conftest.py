"""Shared algebra fixtures, named by their quiver shapes."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from quivermoduli import QQ, Element, Field, build_algebra, make_quiver
from quivermoduli.dsl import doc_algebra, parse_input
from quivermoduli.linalg import Echelon
from quivermoduli.quiver import PathWord

from oracles import path_from_labels


def rel(quiver, *terms):
    """Relation from (coeff, [labels right-to-left]) pairs."""
    out = Element()
    for coeff, labels in terms:
        p = path_from_labels(quiver, labels)
        out.terms[p] = out.terms.get(p, 0) + coeff
    out.terms = {p: c for p, c in out.terms.items() if c != 0}
    return out


def monomials(quiver, words):
    return [rel(quiver, (1, list(w))) for w in words]


def all_paths_of_length(quiver, k):
    """Label words (right-to-left) of every length-k path."""
    frontier = [((), v) for v in quiver.vertices]
    for _ in range(k):
        nxt = []
        for labels, at in frontier:
            for a in quiver.arrows:
                if a.start == at:
                    nxt.append(((a.label,) + labels, a.end))
        frontier = nxt
    return [list(labels) for labels, _ in frontier]


def kronecker_over(field):
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2)])
    return build_algebra(q, [], field, 2)


@pytest.fixture
def kronecker():
    return kronecker_over(QQ)


@pytest.fixture
def kronecker_f2():
    return kronecker_over(Field(2))


@pytest.fixture
def kronecker_f3():
    return kronecker_over(Field(3))


@pytest.fixture
def loop_bridge():
    """Loop a at vertex 1 with a^2 = 0, bridge b: 1 -> 2."""
    q = make_quiver(2, [("a", 1, 1), ("b", 1, 2)])
    return build_algebra(q, monomials(q, [("a", "a")]), QQ, 3)


def loop_bridge_over(field):
    q = make_quiver(2, [("a", 1, 1), ("b", 1, 2)])
    return build_algebra(q, monomials(q, [("a", "a")]), field, 3)


def star3_over(field):
    """Two arrows 1->2 and one arrow 1->3, radical square zero."""
    q = make_quiver(3, [("a1", 1, 2), ("a2", 1, 2), ("b", 1, 3)])
    return build_algebra(q, [], field, 2)


@pytest.fixture
def star3():
    return star3_over(QQ)


def kronecker3_over(field):
    """Three parallel arrows 1->2."""
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2)])
    return build_algebra(q, [], field, 2)


def cycle_flag_algebra(field):
    """Four parallel arrows 1->2, then 2->3, then 3->1; all length-4 paths zero."""
    q = make_quiver(
        3,
        [("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2), ("a4", 1, 2), ("b", 2, 3), ("c", 3, 1)],
    )
    rels = monomials(q, all_paths_of_length(q, 4))
    return build_algebra(q, rels, field, 4)


@pytest.fixture
def cycle_flag():
    return cycle_flag_algebra(QQ)


def fork_merge_algebra(field):
    """Arrows a, b: 1 -> 2 and c: 2 -> 3 with the merge relation ca = cb."""
    q = make_quiver(3, [("a", 1, 2), ("b", 1, 2), ("c", 2, 3)])
    return build_algebra(q, [rel(q, (1, ["c", "a"]), (-1, ["c", "b"]))], field, 3)


def inhomogeneous_algebra():
    """Arrows a: 1 -> 2, b: 2 -> 3, c: 3 -> 4 and d: 1 -> 3 with cba = cd
    over Q: cd lies in J^3 although its path has length 2."""
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)])
    return build_algebra(q, [rel(q, (1, ["c", "b", "a"]), (-1, ["c", "d"]))], QQ, 4)


INPUTS = Path(__file__).resolve().parent.parent / "scripts" / "inputs"


def fixture_and_document_algebras():
    """(name, algebra) for the 29 fixture and document algebras: each
    fixture family over F2, F3 and Q, inhomogeneous_algebra, and every
    document but the candidate list, which holds points only."""
    makers = (
        kronecker_over,
        kronecker3_over,
        loop_bridge_over,
        star3_over,
        cycle_flag_algebra,
        fork_merge_algebra,
        double_loop_algebra,
        two_loop_two_arrow_algebra,
    )
    algs = [(make.__name__, make(field)) for make in makers for field in (Field(2), Field(3), QQ)]
    algs.append(("inhomogeneous", inhomogeneous_algebra()))
    docs = sorted(path for path in INPUTS.glob("*.qm") if not path.stem.endswith("_candidates"))
    return algs + [(path.name, doc_algebra(parse_input(path.read_text()))) for path in docs]


def double_loop_algebra(field):
    """Four loops w1..w4 at vertex 1 with all products zero, arrows a, b: 1 -> 2."""
    q = make_quiver(
        2,
        [
            ("w1", 1, 1),
            ("w2", 1, 1),
            ("w3", 1, 1),
            ("w4", 1, 1),
            ("a", 1, 2),
            ("b", 1, 2),
        ],
    )
    words = [(f"w{i}", f"w{j}") for i in range(1, 5) for j in range(1, 5)]
    words += [("a", f"w{i}") for i in (3, 4)]
    words += [("b", f"w{i}") for i in (1, 2)]
    rels = monomials(q, words)
    return build_algebra(q, rels, field, 3)


@pytest.fixture
def double_loop():
    return double_loop_algebra(QQ)


def two_loop_two_arrow_algebra(field):
    """Loops w1, w2 at vertex 1, arrows a, b: 1 -> 2; cube of the radical zero
    plus the mixing relations of the two-generator-tops example family."""
    q = make_quiver(2, [("w1", 1, 1), ("w2", 1, 1), ("a", 1, 2), ("b", 1, 2)])
    words = [("w1", "w1"), ("w2", "w2"), ("w1", "w2"), ("w2", "w1"), ("b", "w1"), ("a", "w2")]
    rels = monomials(q, words)
    return build_algebra(q, rels, field, 3)


@pytest.fixture
def two_loop_two_arrow():
    return two_loop_two_arrow_algebra(QQ)


def path_word(quiver, labels_rtl, start=None):
    if not labels_rtl:
        return PathWord(start, (), start)
    return path_from_labels(quiver, labels_rtl)


@pytest.fixture
def zero_free_rows(monkeypatch):
    """Checks the contract that lets Echelon.reduce copy a row as it is:
    every row handed to it stores no zero, and over F_p each entry is its
    residue in [1, p). Returns the rows checked, counted per field."""
    checked: Counter = Counter()
    real = Echelon.reduce

    def reduce(self, row):
        p = self.field.p
        bad = {k: x for k, x in row.items() if not (0 < x < p if p else x != 0)}
        assert not bad, f"a row handed to Echelon.reduce over {self.field} stores {bad}"
        checked[self.field] += 1
        return real(self, row)

    monkeypatch.setattr(Echelon, "reduce", reduce)
    return checked
