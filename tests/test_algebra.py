"""Bound quiver algebra construction, checked against naive walk oracles."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivermoduli import (
    BadRelation,
    Element,
    Field,
    NotAdmissible,
    QQ,
    SearchTooLarge,
    algebra,
    build_algebra,
    make_quiver,
)
from quivermoduli.dsl import doc_algebra, parse_input
from quivermoduli.linalg import Echelon
from quivermoduli.quiver import deglex_key, extend, idempotent

from conftest import (
    INPUTS,
    all_paths_of_length,
    fixture_and_document_algebras,
    fork_merge_algebra,
    monomials,
    rel,
)
from oracles import (
    algebra_mul,
    all_products_algebra,
    count_walks,
    enumerate_paths,
    homogeneous_ideal_oracle,
    initial,
    nf_path,
    normal_form,
    path_from_labels,
)
from test_properties import bound_algebras

CYCLE_ARROWS = [("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2), ("a4", 1, 2), ("b", 2, 3), ("c", 3, 1)]


def test_kronecker_counts(kronecker):
    assert kronecker.dim == 4
    assert kronecker.loewy == 2
    assert sorted(str(p) for p in kronecker.basis) == ["a1", "a2", "e1", "e2"]
    assert [str(p) for p in kronecker.basis_at(2)] == ["e2"]


def test_cycle_flag_dims_match_walk_oracle(cycle_flag):
    # killing exactly the length-4 paths leaves the shorter walks as a basis
    for v in (1, 2, 3):
        walks = [w for k in range(4) for w in count_walks(CYCLE_ARROWS, v, k)]
        assert len(cycle_flag.basis_at(v)) == len(walks)
    assert len(cycle_flag.basis_at(1)) == 13
    assert cycle_flag.dim == 30
    assert cycle_flag.loewy == 4


def test_dimension_partitions_by_start(cycle_flag):
    assert cycle_flag.dim == sum(len(cycle_flag.basis_at(v)) for v in cycle_flag.quiver.vertices)


def test_double_loop_counts(double_loop):
    assert double_loop.dim == 12
    assert [len(double_loop.basis_at(v)) for v in (1, 2)] == [11, 1]
    assert double_loop.loewy == 3
    assert double_loop.is_homogeneous_ideal() is True


def test_two_loop_two_arrow_counts(two_loop_two_arrow):
    assert two_loop_two_arrow.dim == 8
    assert [len(two_loop_two_arrow.basis_at(v)) for v in (1, 2)] == [7, 1]


def test_loop_without_relations_is_rejected():
    q = make_quiver(1, [("a", 1, 1)])
    with pytest.raises(NotAdmissible):
        build_algebra(q, [], QQ, 4)


def test_radical_idempotent_relation_is_rejected():
    # a^3 = a^2 makes the class of a^2 a nonzero idempotent inside the radical
    q = make_quiver(1, [("a", 1, 1)])
    r = rel(q, (1, ["a", "a", "a"]), (-1, ["a", "a"]))
    with pytest.raises(NotAdmissible):
        build_algebra(q, [r], QQ, 6)


def test_bad_relations_rejected():
    q = make_quiver(3, [("a", 1, 2), ("b", 1, 2), ("c", 2, 3), ("d", 2, 1)])
    with pytest.raises(BadRelation):
        build_algebra(q, [rel(q, (1, ["a"]))], QQ, 3)
    with pytest.raises(BadRelation):
        build_algebra(q, [rel(q, (1, ["c", "a"]), (1, ["d", "a"]))], QQ, 3)
    with pytest.raises(BadRelation):
        build_algebra(q, [Element()], QQ, 3)


def test_relation_vanishing_mod_p_rejected():
    q = make_quiver(1, [("a", 1, 1)])
    with pytest.raises(BadRelation):
        build_algebra(q, [rel(q, (3, ["a", "a"]))], Field(3), 4)


def test_relation_coefficients_canonicalized_mod_p():
    # over F_3 the generator collapses to a^2 alone; without reduction the
    # length-3 term would be taken as the pivot
    q = make_quiver(1, [("a", 1, 1)])
    r = rel(q, (1, ["a", "a"]), (3, ["a", "a", "a"]))
    alg = build_algebra(q, [r], Field(3), 4)
    assert alg.dim == 2
    assert alg.loewy == 2


def test_deglex_rewrite_prefers_later_declared_arrows():
    # declaration order puts g, d first, so b*a is the pivot of b*a - d*g
    q = make_quiver(4, [("g", 1, 4), ("d", 4, 3), ("a", 1, 2), ("b", 2, 3)])
    r = rel(q, (1, ["b", "a"]), (-1, ["d", "g"]))
    alg = build_algebra(q, [r], QQ, 3)
    ba = path_from_labels(q, ["b", "a"])
    dg = path_from_labels(q, ["d", "g"])
    assert nf_path(alg, ba) == {dg: QQ.one()}
    assert nf_path(alg, dg) == {dg: QQ.one()}
    assert alg.dim == 9
    assert ba not in set(alg.basis)
    assert dg in set(alg.basis)


def test_component_wise_homogeneous_generator():
    # b*a*l - b*a generates the same ideal as {l*l, b*a}, so every length
    # component of the generator reduces to zero on its own
    q = make_quiver(3, [("l", 1, 1), ("a", 1, 2), ("b", 2, 3)])
    rels = [rel(q, (1, ["l", "l"])), rel(q, (1, ["b", "a", "l"]), (-1, ["b", "a"]))]
    alg = build_algebra(q, rels, QQ, 4)
    assert alg.dim == 7
    assert alg.loewy == 3
    assert alg.is_homogeneous_ideal() is True
    assert nf_path(alg, path_from_labels(q, ["b", "a"])) == {}


def test_genuinely_inhomogeneous_ideal():
    # c*b*a = c*d identifies a length-3 path with a length-2 one
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)])
    r = rel(q, (1, ["c", "b", "a"]), (-1, ["c", "d"]))
    alg = build_algebra(q, [r], QQ, 4)
    assert alg.dim == 11
    assert alg.loewy == 4
    assert alg.is_homogeneous_ideal() is False
    cba = path_from_labels(q, ["c", "b", "a"])
    cd = path_from_labels(q, ["c", "d"])
    assert nf_path(alg, cba) == {cd: QQ.one()}
    # the identified class sits in the cube of the radical although the
    # surviving basis word has length 2
    assert max(p.length for p in alg.basis) == 2


def test_window_size_does_not_change_the_algebra():
    q = make_quiver(2, [("a", 1, 1), ("b", 1, 2)])
    small = build_algebra(q, monomials(q, [("a", "a")]), QQ, 3)
    large = build_algebra(q, monomials(q, [("a", "a")]), QQ, 6)
    assert small.basis == large.basis
    assert small.loewy == large.loewy


def test_basis_closed_under_initial_subpaths(cycle_flag):
    basis = set(cycle_flag.basis)
    for p in basis:
        for m in range(p.length):
            assert initial(p, m, cycle_flag.quiver) in basis


def test_mul_respects_relations(cycle_flag):
    q = cycle_flag.quiver
    b = rel(q, (1, ["b"]))
    a1 = rel(q, (1, ["a1"]))
    assert algebra_mul(cycle_flag, b, a1).terms == rel(q, (1, ["b", "a1"])).terms
    cba = rel(q, (1, ["c", "b", "a1"]))
    a2 = rel(q, (1, ["a2"]))
    assert algebra_mul(cycle_flag, a2, cba).is_zero()  # length 4 dies
    assert algebra_mul(cycle_flag, a2, a1).is_zero()  # not composable


def test_projective_layers_kronecker(kronecker):
    assert kronecker.projective_layer_dims(1) == ((1, 0), (0, 2))
    assert kronecker.projective_layer_dims(2) == ((0, 1),)


def test_projective_layers_loop_bridge(loop_bridge):
    assert loop_bridge.projective_layer_dims(1) == ((1, 0), (1, 1), (0, 1))
    assert loop_bridge.projective_layer_dims(2) == ((0, 1),)


def test_projective_layers_cycle_flag(cycle_flag):
    assert cycle_flag.projective_layer_dims(1) == ((1, 0, 0), (0, 4, 0), (0, 0, 4), (4, 0, 0))


def test_projective_layers_star3(star3):
    assert star3.projective_layer_dims(1) == ((1, 0, 0), (0, 2, 1))


def test_monomial_recognition(kronecker, loop_bridge, star3, cycle_flag, double_loop, two_loop_two_arrow):
    for alg in (kronecker, loop_bridge, star3, cycle_flag, double_loop, two_loop_two_arrow):
        assert alg.is_monomial() is True, alg
    # c*b reduces to c*a, not to zero
    assert fork_merge_algebra(QQ).is_monomial() is False


def test_nakayama_recognition():
    line = make_quiver(3, [("a", 1, 2), ("b", 2, 3)])
    assert build_algebra(line, [], QQ, 3).is_nakayama() is True
    kron = make_quiver(2, [("a", 1, 2), ("b", 1, 2)])
    assert build_algebra(kron, [], QQ, 2).is_nakayama() is False


# -- normal form properties on a fixed algebra -----------------------------

_Q = make_quiver(3, CYCLE_ARROWS)
_ALG = build_algebra(_Q, monomials(_Q, all_paths_of_length(_Q, 4)), QQ, 4)
_PATHS = [idempotent(v) for v in _Q.vertices] + [
    path_from_labels(_Q, w) for k in (1, 2, 3, 4) for w in all_paths_of_length(_Q, k)
]


def _sum(x, y):
    out = Element(x.terms)
    QQ.axpy(out.terms, QQ.one(), y.terms)
    return out


@st.composite
def elements(draw, alg=_ALG):
    """Sums of paths of alg's window."""
    f = alg.field
    paths = [p for layer in enumerate_paths(alg.quiver, alg.max_len) for p in layer]
    out = Element()
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.sampled_from(paths))
        f.axpy(out.terms, f.of_int(draw(st.integers(-4, 4))), {p: f.one()})
    return out


@given(x=elements(), y=elements())
def test_normal_form_is_a_linear_projection(x, y):
    nx = normal_form(_ALG, x)
    assert normal_form(_ALG, nx).terms == nx.terms
    lhs = normal_form(_ALG, _sum(x, y))
    rhs = _sum(nx, normal_form(_ALG, y))
    assert lhs.terms == rhs.terms


@given(alg=st.one_of(st.just(_ALG), bound_algebras()), data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_multiplication_descends_to_the_quotient(alg, data):
    # a product of two window paths may be twice as long as the window:
    # nf_path folds the arrow table along a path of any length
    x, y = data.draw(elements(alg)), data.draw(elements(alg))
    direct = algebra_mul(alg, x, y)
    reduced = algebra_mul(alg, normal_form(alg, x), normal_form(alg, y))
    assert direct.terms == reduced.terms


@given(p=st.sampled_from([w for w in _PATHS if w.length >= 1]))
def test_reduction_never_increases_deglex(p):
    nf = nf_path(_ALG, p)
    if p in _ALG.basis:
        assert nf == {p: QQ.one()}
    else:
        for b in nf:
            assert deglex_key(_Q, b) < deglex_key(_Q, p)


def test_deglex_orders_by_length_then_declared_arrows_then_start():
    # declaration order g, d, a, b: d*g (arrows g, d) comes before b*a
    # (arrows a, b), and the arrows of length one sort as declared
    q = make_quiver(4, [("g", 1, 4), ("d", 4, 3), ("a", 1, 2), ("b", 2, 3)])
    words = [["b", "a"], ["d", "g"], ["b"], ["a"], ["d"], ["g"]]
    paths = [idempotent(v) for v in (3, 1)] + [path_from_labels(q, w) for w in words]
    ordered = sorted(paths, key=lambda p: deglex_key(q, p))
    assert [str(p) for p in ordered] == ["e1", "e3", "g", "d", "a", "b", "d*g", "b*a"]
    # the same quiver declared in another order sorts the same paths anew
    flipped = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("g", 1, 4), ("d", 4, 3)])
    assert deglex_key(flipped, paths[-1]) < deglex_key(flipped, paths[-2])
    # a total order: no two paths of the cycle algebra share a key
    assert len({deglex_key(_Q, p) for p in _PATHS}) == len(_PATHS)


# -- the monomial part of the ideal needs no elimination ------------------------


def test_the_graded_ideal_rule_matches_the_former_one_on_the_fixture_algebras():
    # length grading at every vertex against every length component of
    # every relation reducing to zero; inhomogeneous_algebra is not graded
    algs = fixture_and_document_algebras()
    assert [name for name, alg in algs if not alg.is_homogeneous_ideal()] == ["inhomogeneous"]
    for name, alg in algs:
        assert alg.is_homogeneous_ideal() == homogeneous_ideal_oracle(alg), name


def test_the_level_loop_gives_the_graded_loewy_lengths_on_the_fixture_algebras(monkeypatch):
    # build_algebra reads the Loewy length of a graded ideal off its longest
    # basis path; the level loop, run on every algebra, agrees
    graded = [(name, alg.loewy) for name, alg in fixture_and_document_algebras()]
    monkeypatch.setattr(algebra.Algebra, "is_homogeneous_ideal", lambda self: False)
    assert [(name, alg.loewy) for name, alg in fixture_and_document_algebras()] == graded


def test_fixture_and_document_algebras_match_the_all_products_elimination():
    algs = fixture_and_document_algebras()
    assert len(algs) == 29
    for name, alg in algs:
        basis, normal_forms, loewy = all_products_algebra(alg.quiver, alg.relations, alg.field, alg.max_len)
        assert (alg.basis, alg.loewy) == (basis, loewy), name
        assert {p: nf_path(alg, p) for p in normal_forms} == normal_forms, name


def _mixed_tops():
    return doc_algebra(parse_input((INPUTS / "mixed_tops.qm").read_text()))


@pytest.mark.parametrize("max_len", [9, 12])
def test_a_monomial_window_past_the_path_budget_is_answered_from_its_tip_free_paths(max_len):
    # vertex 1 has four loops and the arrows a, b out, so the window holds
    # 6 * 4**(k - 1) paths of each length k >= 1 from it and more than
    # PATH_BUDGET in all; every loop product is a one-term relation
    small = _mixed_tops()
    assert small.max_len == 3
    assert 2 + sum(6 * 4 ** (k - 1) for k in range(1, max_len + 1)) > algebra.PATH_BUDGET
    big = build_algebra(small.quiver, list(small.relations), small.field, max_len)
    assert (big.basis, big.loewy, big.is_monomial()) == (small.basis, small.loewy, True)
    paths = [p for layer in enumerate_paths(small.quiver, 4) for p in layer]
    assert {p: nf_path(big, p) for p in paths} == {p: nf_path(small, p) for p in paths}


def test_the_walk_builds_at_most_one_path_per_basis_path_and_arrow(monkeypatch):
    # each extend call builds one path; the walk extends the tip-free paths,
    # which for a monomial algebra are the basis paths
    calls = []

    def counting_extend(path, arrow):
        calls.append(path)
        return extend(path, arrow)

    small = _mixed_tops()
    monkeypatch.setattr(algebra, "extend", counting_extend)
    big = build_algebra(small.quiver, list(small.relations), small.field, 12)
    assert big.dim == small.dim == 12
    assert 0 < len(calls) <= small.quiver.n + big.dim * len(small.quiver.arrows)


def test_the_path_budget_refusal_counts_the_paths_of_the_walk(monkeypatch):
    # no relations on an acyclic quiver: e1, e2, a, b are four paths
    q = make_quiver(2, [("a", 1, 2), ("b", 1, 2)])
    monkeypatch.setattr(algebra, "PATH_BUDGET", 4)
    assert build_algebra(q, [], QQ, 2).dim == 4
    monkeypatch.setattr(algebra, "PATH_BUDGET", 3)
    with pytest.raises(SearchTooLarge, match=r"^more than 3 paths of length <= 2$"):
        build_algebra(q, [], QQ, 2)


def _recorded_rows(monkeypatch):
    """The rows that build_algebra inserts into any Echelon from now on."""
    rows = []

    class Recording(Echelon):
        def insert(self, row):
            rows.append(row)
            return super().insert(row)

    monkeypatch.setattr(algebra, "Echelon", Recording)
    return rows


@pytest.mark.parametrize("doc, inserted", [("mixed_tops.qm", 0), ("fork_merge.qm", 1)])
def test_only_relations_with_several_terms_are_eliminated(monkeypatch, doc, inserted):
    # mixed_tops has 20 monomial relations and no other, so no row; in
    # fork_merge the merge relation c*a - c*b meets one basis path, e1, at
    # length 2, and no candidate is left at length 3
    rows = _recorded_rows(monkeypatch)
    alg = doc_algebra(parse_input((INPUTS / doc).read_text()))
    assert len(rows) == inserted
    assert all(len(row) == 2 for row in rows)
    assert alg.is_monomial() == (inserted == 0)


def _commuting_loops():
    """Three commuting loops with zero squares: dim 8 and Loewy length 4."""
    q = make_quiver(1, [("x", 1, 1), ("y", 1, 1), ("z", 1, 1)])
    rels = [rel(q, (1, [u, u])) for u in "xyz"]
    return q, rels + [rel(q, (1, [u, v]), (-1, [v, u])) for u, v in ("xy", "xz", "yz")]


@pytest.mark.parametrize("doc", ["mixed_tops.qm", "fork_merge.qm", None])
def test_the_walk_extends_basis_paths_only(monkeypatch, doc):
    # candidates grow from basis paths alone: a pivot or a cut path is
    # never extended. With doc None, the commuting loops: their pivots
    # x*y, x*z and y*z have arrows out
    extended = []

    def recording_extend(path, arrow):
        extended.append(path)
        return extend(path, arrow)

    monkeypatch.setattr(algebra, "extend", recording_extend)
    if doc is None:
        alg = build_algebra(*_commuting_loops(), QQ, 6)
    else:
        alg = doc_algebra(parse_input((INPUTS / doc).read_text()))
    assert extended
    assert set(extended) <= set(alg.basis)


@pytest.mark.parametrize("max_len", [4, 24])
def test_a_wider_window_adds_no_row(monkeypatch, max_len):
    # the walk stops at length 4, where every candidate is a pivot: the
    # six relations meet e1 at length 2, the three arrows at length 3 and
    # the three paths of length 2 at length 4
    q, rels = _commuting_loops()
    small = build_algebra(q, rels, QQ, 4)
    rows = _recorded_rows(monkeypatch)
    alg = build_algebra(q, rels, QQ, max_len)
    assert ([str(p) for p in alg.basis], alg.loewy) == (
        ["e1", "x", "y", "z", "y*x", "z*x", "z*y", "z*y*x"],
        4,
    )
    assert (alg.arrows, alg.parent, alg.ext) == (small.arrows, small.parent, small.ext)
    assert len(rows) == 6 * (1 + 3 + 3)


# -- the outward basis and the certificate of the arrow table --------------------


@pytest.mark.parametrize("max_len", [4, 5, 6])
def test_a_path_whose_initial_subpath_is_eliminated_is_no_basis_path(max_len):
    # x1*x1 lies in the ideal, as x1*x0*x0 does, but no product that fits
    # the window reaches x1**max_len: the all-products elimination keeps
    # that path of the ideal in its basis, at every window
    f = Field(2)
    q = make_quiver(1, [("x0", 1, 1), ("x1", 1, 1)])
    rels = [rel(q, (1, ["x1", "x0"])), rel(q, (1, ["x0", "x1"])), rel(q, (1, ["x0"] * 3))]
    rels.append(rel(q, (1, ["x1", "x0", "x0"]), (1, ["x1", "x1"])))
    alg = build_algebra(q, rels, f, max_len)
    assert ([str(p) for p in alg.basis], alg.loewy) == (["e1", "x0", "x1", "x0*x0"], 3)
    basis, _, loewy = all_products_algebra(q, alg.relations, f, max_len)
    assert (basis, loewy) == (alg.basis + (path_from_labels(q, ["x1"] * max_len),), 3)


def test_a_window_that_the_elimination_refuses_answers_as_the_next_one_does():
    # x2*x0 lies in the ideal, as x0*x1*x0 does, but at max_len 3 no
    # product reaches x1*x2*x0, so the all-products elimination refuses
    f = Field(2)
    q = make_quiver(2, [("x0", 1, 2), ("x1", 2, 1), ("x2", 2, 2)])
    rels = [rel(q, (1, ["x0", "x1"])), rel(q, (1, ["x2", "x2"])), rel(q, (1, ["x0", "x1", "x0"]), (1, ["x2", "x0"]))]
    alg = build_algebra(q, rels, f, 3)
    assert (alg.dim, alg.loewy) == (7, 3)
    assert all_products_algebra(q, alg.relations, f, 3)[2] is None
    basis, normal_forms, loewy = all_products_algebra(q, alg.relations, f, 4)
    assert (alg.basis, alg.loewy) == (basis, loewy)
    assert {p: nf_path(alg, p) for p in normal_forms} == normal_forms


@pytest.mark.parametrize("max_len", [4, 5, 6])
def test_a_nonzero_fold_of_a_relation_joins_the_relations(monkeypatch, max_len):
    # x*x lies in the ideal, as x*x*x*x does. No row uses the second
    # relation, as no candidate is left at length 4, so x*x is a basis path
    # and the relation folds to x*x on e1: that fold joins the relations,
    # and the second build answers
    q = make_quiver(2, [("x", 1, 1), ("a", 2, 1)])
    rels = [rel(q, (1, ["x", "x", "x"])), rel(q, (1, ["x", "x"]), (1, ["x", "x", "x", "x"]))]
    generators = []
    table = algebra._arrow_table

    def recording(quiver, relations, field, window):
        generators.append([x.format(field) for x in relations])
        return table(quiver, relations, field, window)

    monkeypatch.setattr(algebra, "_arrow_table", recording)
    alg = build_algebra(q, rels, QQ, max_len)
    assert ([str(p) for p in alg.basis], alg.loewy) == (["e1", "e2", "x", "a", "x*a"], 3)
    given = ["x*x*x", "x*x + x*x*x*x"]
    assert generators == [given, given + ["x*x"]]
    assert [x.format(QQ) for x in alg.relations] == given
    # the all-products elimination answers max_len 4 with x*x*a in its basis
    basis, _, loewy = all_products_algebra(q, alg.relations, QQ, 4)
    assert (basis, loewy) == (alg.basis + (path_from_labels(q, ["x", "x", "a"]),), 4)
    basis, _, loewy = all_products_algebra(q, alg.relations, QQ, 5)
    assert (basis, loewy) == (alg.basis, alg.loewy)


REFUSED_AT_3 = r"^no m <= 3 has all length-m paths reducing to zero; the ideal may not be admissible or max_len is too small$"


def test_a_basis_path_of_length_max_len_is_certified_by_one_more_length():
    # the same presentation at max_len 3: x*x*a is a basis path of length 3
    # until the certificate folds the second relation on e1 to x*x. The
    # walk goes to length 4, where every extension of x*x*a has the tip
    # x*x*x, so the table is whole and the certificate may run
    q = make_quiver(2, [("x", 1, 1), ("a", 2, 1)])
    rels = [rel(q, (1, ["x", "x", "x"])), rel(q, (1, ["x", "x"]), (1, ["x", "x", "x", "x"]))]
    alg = build_algebra(q, rels, QQ, 3)
    assert ([str(p) for p in alg.basis], alg.loewy) == (["e1", "e2", "x", "a", "x*a"], 3)


def _free_loops_and_w(k):
    """k free loops at vertex 1, and a loop w at vertex 2 with w*w + w*w*w
    over F2: vertex 1 has a basis path of every length, and w*w*w is a
    pivot with form w*w."""
    loops = [(f"x{i}", 1, 1) for i in range(k)]
    q = make_quiver(2, loops + [("w", 2, 2)])
    return q, [rel(q, (1, ["w", "w"]), (1, ["w", "w", "w"]))]


def test_a_basis_path_one_length_past_max_len_refuses_in_the_walk():
    q, rels = _free_loops_and_w(1)
    with pytest.raises(NotAdmissible, match=REFUSED_AT_3) as err:
        build_algebra(q, rels, Field(2), 3)
    assert err.traceback[-1].name == "_arrow_table"


def test_a_basis_path_of_length_max_len_refuses_after_the_certificate_without_the_level_loop(monkeypatch):
    # b*a = e*d*c is not graded by length, so the Loewy length would need
    # the level loop; x*x*x*x is a basis path of length max_len, and the
    # walk's last length holds none (x**5 is a tip), so the certificate runs
    # and x*x*x*x refuses at once
    q = make_quiver(6, [("a", 1, 2), ("b", 2, 3), ("c", 1, 4), ("d", 4, 5), ("e", 5, 3), ("x", 6, 6)])
    rels = [rel(q, (1, ["b", "a"]), (-1, ["e", "d", "c"])), rel(q, (1, ["x"] * 5))]
    # with x*x*x a tip instead, the level loop answers
    alg = build_algebra(q, [rels[0], rel(q, (1, ["x"] * 3))], QQ, 4)
    assert (alg.is_homogeneous_ideal(), alg.loewy) == (False, 4)
    applied = []
    monkeypatch.setattr(algebra, "apply", lambda *args: applied.append(args))
    with pytest.raises(NotAdmissible, match=r"^no m <= 4 has all length-m paths reducing to zero; "):
        build_algebra(q, rels, QQ, 4)
    assert applied == []


def test_the_path_budget_past_max_len_refuses_as_the_window_does(monkeypatch):
    # x0, x1 free: 10 paths up to length 2, then 9 candidates at length 3
    # (8 words in x0, x1, and w*w*w); the 16 at length 4 pass a budget of 33
    q, rels = _free_loops_and_w(2)
    monkeypatch.setattr(algebra, "PATH_BUDGET", 33)
    with pytest.raises(NotAdmissible, match=REFUSED_AT_3):
        build_algebra(q, rels, Field(2), 3)
    monkeypatch.setattr(algebra, "PATH_BUDGET", 18)
    with pytest.raises(SearchTooLarge, match=r"^more than 18 paths of length <= 3$"):
        build_algebra(q, rels, Field(2), 3)


@pytest.mark.parametrize("max_len", [4, 5, 6, 7])
def test_a_row_that_leaves_basis_paths_alone_joins_the_relations(monkeypatch, max_len):
    # x1*x0 = r - r*x0 + x1*x0**3 lies in the ideal, for r the third
    # relation. The row of r on e1 makes x1*x0*x0 a pivot with form x1*x0;
    # at length 4 the row of r on x0 folds x1*x0**3 to zero and x1*x0*x0 to
    # x1*x0, which it leaves alone: x1*x0 joins the relations, and the
    # second build answers
    f = Field(2)
    q = make_quiver(1, [("x0", 1, 1), ("x1", 1, 1)])
    rels = [rel(q, (1, ["x1", "x1"])), rel(q, (1, ["x0"] * 3)), rel(q, (1, ["x1", "x0", "x0"]), (1, ["x1", "x0"]))]
    generators = []
    table = algebra._arrow_table

    def recording(quiver, relations, field, window):
        generators.append([x.format(field) for x in relations])
        return table(quiver, relations, field, window)

    monkeypatch.setattr(algebra, "_arrow_table", recording)
    alg = build_algebra(q, rels, f, max_len)
    assert ([str(p) for p in alg.basis], alg.loewy) == (["e1", "x0", "x1", "x0*x0", "x0*x1", "x0*x0*x1"], 4)
    given = ["x1*x1", "x0*x0*x0", "x1*x0 + x1*x0*x0"]
    assert generators == [given, given + ["x1*x0"]]
    assert [x.format(f) for x in alg.relations] == given


def test_the_loewy_length_is_read_off_the_certified_table():
    # before the certificate x0*x0*x0*x1 is a pivot with form -x0*x0*x1, so
    # x0**k*x1 would never vanish; the certificate folds x0**4 on x1 to
    # x0*x0*x1, which joins the relations, and the Loewy length is 4
    f = Field(2)
    q = make_quiver(2, [("x0", 1, 1), ("x1", 2, 1)])
    rels = [rel(q, (1, ["x0", "x0", "x1"]), (1, ["x0", "x0", "x0", "x1"])), rel(q, (1, ["x0"] * 4))]
    alg = build_algebra(q, rels, f, 6)
    assert ([str(p) for p in alg.basis], alg.loewy) == (
        ["e1", "e2", "x0", "x1", "x0*x0", "x0*x1", "x0*x0*x0"],
        4,
    )
