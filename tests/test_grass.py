"""Submodule Grassmannians: projective covers, skeleta, affine charts,
automorphism orbits, and fine-moduli reports, frozen against hand-checked
classification examples."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from quivermoduli import (
    EquationsViolated,
    Field,
    QQ,
    UnsupportedAlgebra,
    build_algebra,
    grass,
    make_quiver,
)
from quivermoduli.config import DEFAULT_LIMITS, SearchLimits
from quivermoduli.degeneration import one_param_limit
from quivermoduli.grass import (
    TopSpec,
    chart_equations,
    coker_rep,
    coords_to_point,
    endo_invariant,
    endo_space,
    enumerate_skeleta,
    in_radical,
    is_grass_point,
    is_homogeneous_point,
    make_skeleton,
    moduli_report,
    orbit_dims,
    point_from_generators,
    projective_cover,
    skeleta_of_point,
    skeleta_with_dims,
    submodule_point,
)
from quivermoduli.cli import main
from quivermoduli.linalg import Echelon, dense, sparse
from quivermoduli.quiver import deglex_key, extend
from quivermoduli.reps import closure, radical_layering

from conftest import (
    all_paths_of_length,
    fixture_and_document_algebras,
    fork_merge_algebra,
    inhomogeneous_algebra,
    monomials,
    path_word,
    rel,
)
from oracles import (
    apply_auto,
    direct_sum_cover_oracle,
    identity_coords,
    initial,
    length_grading_oracle,
    plain_stratum_points,
    point_to_coords,
    skeleta_of_point_oracle,
)


def skeleton_names(P, sk):
    """Per-copy sorted path strings, the printable identity of a skeleton."""
    by = {}
    for p, copy in (P.belems[i] for i in sk.elems):
        by.setdefault(copy, []).append(str(p))
    return {copy: sorted(names) for copy, names in by.items()}


def pair_of_loops(extra_vertex=False):
    """Loops x, y at vertex 1 with y^2 = xy = yx = 0 and x^3 = 0."""
    n = 2 if extra_vertex else 1
    q = make_quiver(n, [("x", 1, 1), ("y", 1, 1)])
    words = [("y", "y"), ("x", "y"), ("y", "x"), ("x", "x", "x")]
    return build_algebra(q, monomials(q, words), QQ, 3)


def two_loops_one_bridge_one_loop():
    """Loops al, be at vertex 1, bridge ga: 1 -> 2, loop de at 2; J^4 = 0."""
    q = make_quiver(2, [("al", 1, 1), ("be", 1, 1), ("ga", 1, 2), ("de", 2, 2)])
    rels = monomials(q, [tuple(w) for w in all_paths_of_length(q, 4)])
    return build_algebra(q, rels, QQ, 4)


def three_tops_point(alg):
    """The worked S_1^3 example point: a 67-dimensional submodule whose
    quotient has layering (S_1^3, S_1^2+S_2, S_1+S_2^2, S_2^2)."""
    q = alg.quiver
    P = projective_cover(alg, (3, 0))
    C = point_from_generators(
        P,
        [
            (rel(q, (1, ["ga"])), 0),
            (rel(q, (1, ["ga", "al"])), 0),
            (rel(q, (1, ["al", "al"])), 0),
            (rel(q, (1, ["be", "be"])), 0),
            (rel(q, (1, ["be", "al"]), (-1, ["al", "be"])), 0),
            (rel(q, (1, ["al", "al", "be"])), 0),
            (rel(q, (1, ["be", "be", "al"])), 0),
            (rel(q, (1, ["al"])), 1),
            (rel(q, (1, ["be"])), 1),
            (rel(q, (1, ["de", "de", "ga"])), 1),
            (rel(q, (1, ["al"])), 2),
            (rel(q, (1, ["be"])), 2),
            [
                (rel(q, (1, ["ga"])), 2),
                (rel(q, (-1, ["de", "ga", "be"])), 0),
                (rel(q, (-1, ["de", "ga"])), 1),
            ],
        ],
    )
    return P, C


def crossed_arrows():
    """Arrows a1, a2: 1 -> 2 and b: 2 -> 1 with all length-3 paths zero."""
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2), ("b", 2, 1)])
    rels = monomials(q, [tuple(w) for w in all_paths_of_length(q, 3)])
    return build_algebra(q, rels, QQ, 3)


# -- covers and points ---------------------------------------------------------


def test_projective_cover_shape(kronecker):
    P = projective_cover(kronecker, (1, 0))
    assert P.dims == (1, 2)
    assert P.total == 3
    assert [P.describe(i) for i in range(P.total)] == ["z1", "a1*z1", "a2*z1"]
    assert P.top.simple and P.top.squarefree and P.top.total == 1
    assert str(P.top) == "S1"
    assert P.gens == (1,)


def test_top_spec_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        TopSpec((0, 0))
    with pytest.raises(ValueError):
        TopSpec((1, -1))


def _refusal(v):
    return (
        f"path lengths do not grade the radical filtration of Lambda*e{v}; "
        "charts are unavailable for this algebra"
    )


def test_cover_requires_length_graded_radical():
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)])
    alg = build_algebra(q, [rel(q, (1, ["c", "b", "a"]), (-1, ["c", "d"]))], QQ, 4)
    with pytest.raises(UnsupportedAlgebra) as refusal:
        projective_cover(alg, (1, 0, 0, 0))
    assert str(refusal.value) == _refusal(1)


# -- one construction of P ------------------------------------------------------


def _tops(alg):
    """Each top S_v and 2 S_v, and 2 S_1 plus every other simple once."""
    n = alg.quiver.n
    tops = [tuple(k * (i == v) for i in range(n)) for v in range(n) for k in (1, 2)]
    return tops + [(2,) + (1,) * (n - 1)] * (n > 1)


def test_the_length_certificate_matches_the_layering_comparison():
    refused = []
    for name, alg in fixture_and_document_algebras():
        for v in alg.quiver.vertices:
            assert alg.lengths_grade_radical(v) == length_grading_oracle(alg, v), (name, v)
            if not alg.lengths_grade_radical(v):
                refused.append((name, v))
    # cba = cd rewrites the path cba into a shorter one
    assert refused == [("inhomogeneous", 1)]


def test_the_cover_is_the_direct_sum_of_its_projectives():
    # Map for Map, on tops with a simple twice among them
    checked = 0
    for name, alg in fixture_and_document_algebras():
        for top in _tops(alg):
            if max(top) < 2 or not all(alg.lengths_grade_radical(v + 1) for v, t in enumerate(top) if t):
                continue
            P = projective_cover(alg, top)
            belems, rep = direct_sum_cover_oracle(alg, P.gens)
            assert list(P.belems) == belems, (name, top)
            assert (P.rep.d, P.rep.arrows) == (rep.d, rep.arrows), (name, top)
            checked += 1
    assert checked == 97


def test_the_position_tables_are_the_subpaths_and_extensions_of_the_basis():
    # parent, ext and rank, built once per cover, against the path
    # operations they stand for; an extension on the basis is its own
    # arrow image in P.rep
    checked = 0
    for name, alg in fixture_and_document_algebras():
        q = alg.quiver
        for top in itertools.product(range(3), repeat=q.n):
            if not 1 <= sum(top) <= 2 or not all(alg.lengths_grade_radical(v + 1) for v, t in enumerate(top) if t):
                continue
            P = projective_cover(alg, top)
            one = alg.field.one()
            for i, (p, r) in enumerate(P.belems):
                assert P.parent[i] == (P.index[initial(p, p.length - 1, q), r] if p.length else -1), (name, top, i)
                ext = {a.label: P.index[w, r] for a in q.arrows_out(p.end) if (w := extend(p, a)) in alg.basis}
                assert list(P.ext[i].items()) == list(ext.items()), (name, top, i)
                for label, j in ext.items():
                    assert P.rep.arrows[label][i] == {j: one}, (name, top, i, label)
            by_rank = sorted(range(P.total), key=P.rank.__getitem__)
            assert [P.belems[i] for i in by_rank] == sorted(P.belems, key=lambda b: (deglex_key(q, b[0]), b[1]))
            checked += 1
    assert checked == 189


def test_building_a_cover_inserts_no_echelon_row(monkeypatch):
    # the certificate is read off the normal forms and P is built on its
    # path basis, so no elimination runs, not even for a refusal
    algs = fixture_and_document_algebras()
    rows = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, row: rows.append(row) or real(self, row))
    built = refused = 0
    for _, alg in algs:
        for top in _tops(alg):
            try:
                projective_cover(alg, top)
                built += 1
            except UnsupportedAlgebra:
                refused += 1
    assert rows == []
    assert (built, refused) == (166, 3)


def _two_refusals():
    """inhomogeneous_algebra twice over, on vertices 1-4 and 5-8: vertices 1
    and 5 refuse."""
    arrows = [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)]
    q = make_quiver(8, arrows + [(x + "2", s + 4, e + 4) for x, s, e in arrows])
    rels = [rel(q, (1, ["c", "b", "a"]), (-1, ["c", "d"])), rel(q, (1, ["c2", "b2", "a2"]), (-1, ["c2", "d2"]))]
    return build_algebra(q, rels, QQ, 4)


def test_the_refusal_names_the_first_vertex_that_refuses():
    alg = _two_refusals()
    assert [v for v in alg.quiver.vertices if not alg.lengths_grade_radical(v)] == [1, 5]
    for top, v in [((0, 0, 0, 0, 1, 0, 0, 0), 5), ((0, 1, 0, 0, 2, 0, 0, 0), 5), ((1, 0, 0, 0, 1, 0, 0, 0), 1)]:
        with pytest.raises(UnsupportedAlgebra) as refusal:
            projective_cover(alg, top)
        assert str(refusal.value) == _refusal(v), top
    assert projective_cover(alg, (0, 1, 1, 1, 0, 1, 1, 1)).dims == (0, 1, 2, 3, 0, 1, 2, 3)


def test_the_cli_prints_the_refusal(tmp_path, capsys):
    doc = tmp_path / "doc.qm"
    doc.write_text(
        "quiver { vertices: 1 2 3 4; arrows: a: 1 -> 2, b: 2 -> 3, c: 3 -> 4, d: 1 -> 3; }\n"
        "algebra { field: Q; max_len: 4; relations: [1*c*b*a - 1*c*d]; }\n"
        "top { mult: (1, 0, 0, 0); }\n"
        "dimvec { d: (1, 1, 1, 1); }\n"
    )
    assert main(["skeleta", str(doc)]) == 1
    assert capsys.readouterr() == ("", f"error: {_refusal(1)}\n")


def test_point_from_generators_takes_arrow_closure(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    f = loop_bridge.field
    C = point_from_generators(P, [(rel(loop_bridge.quiver, (1, ["b"])), 0)])
    assert C.dim == 1
    assert C.dims == (2, 1)
    assert C.rows == ((f.zero(), f.zero(), f.one(), f.zero()),)
    # b*a*z1 generates a smaller submodule: b*z1 does not close over it
    Cba = point_from_generators(P, [(rel(loop_bridge.quiver, (1, ["b", "a"])), 0)])
    assert Cba.rows == ((f.zero(), f.zero(), f.zero(), f.one()),)
    assert is_grass_point(P, C, (2, 1)) and is_grass_point(P, Cba, (2, 1))


def test_point_from_generators_takes_vertex_components(loop_bridge):
    # a*z1 ends at vertex 1 and b*z1 at vertex 2: the submodule generated by
    # their sum contains both, since the idempotents act
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    C = point_from_generators(P, [(rel(q, (1, ["a"]), (1, ["b"])), 0)])
    apart = point_from_generators(P, [(rel(q, (1, ["a"])), 0), (rel(q, (1, ["b"])), 0)])
    assert C.dim == 3
    assert C == apart
    assert is_grass_point(P, C, C.dims)


def test_raw_span_need_not_be_a_point(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    f = loop_bridge.field
    # span{a*z1} is not arrow-stable: b sends it to b*a*z1
    raw = submodule_point(P, [sparse(f, [f.zero(), f.one(), f.zero(), f.zero()])])
    assert not is_grass_point(P, raw, raw.dims)


def test_every_point_keeps_the_echelon_its_rows_are_read_off(loop_bridge):
    # each route to a point hands it the span it built, already reduced
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    endo = P.endo
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    charts = [chart_equations(P, sigma) for sigma in skeleta_with_dims(P, (2, 1))]
    pres = next(pres for pres in charts if pres.variables)
    on_chart = coords_to_point(pres, [2] * len(pres.variables))
    coeffs = identity_coords(endo)
    for j in endo.unipotent:
        coeffs[j] = loop_bridge.field.of_int(3)
    moved = apply_auto(P, coeffs, Cb, endo)
    shift = [0] * endo.dim
    shift[endo.unipotent[0]] = 1
    limit = one_param_limit(P, Cb, shift, endo)
    for C in (Cb, on_chart, moved, limit):
        assert C.span.rref(P.total) == [list(r) for r in C.rows]
    assert on_chart != Cb and moved != Cb and limit != Cb


def test_points_with_equal_rows_are_equal_whatever_order_built_their_spans(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    f = loop_bridge.field
    u, w = (dense(f, {P.index[b]: f.one()}, P.total) for b in P.belems if b[0].length == 1)
    rows = [sparse(f, [f.add(x, y) for x, y in zip(u, w)]), sparse(f, w)]
    one, other = submodule_point(P, rows), submodule_point(P, rows[::-1])
    # the stored rows come in different orders, the points are one
    assert list(one.span.rows) != list(other.span.rows)
    assert one == other and hash(one) == hash(other) and repr(one) == repr(other)
    assert len({one, other}) == 1


def test_a_span_through_a_generator_is_not_in_the_radical(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    f = loop_bridge.field
    unit = [{j: f.one()} for j in range(P.total)]
    whole, radical = submodule_point(P, unit), submodule_point(P, unit[1:])
    assert not in_radical(P, whole) and not is_grass_point(P, whole, (0, 0))
    assert in_radical(P, radical) and is_grass_point(P, radical, (1, 0))
    # a z1 coordinate is caught whatever row of the echelon it sits in
    mixed = submodule_point(P, [unit[3], sparse(f, [f.one(), f.zero(), f.of_int(2), f.one()])])
    assert not in_radical(P, mixed)


def test_in_radical_reads_the_generator_coordinates_of_every_row():
    # oracle: C lies in JP when every row of C is zero at the coordinates
    # of the generators z_r, the basis elements of path length 0
    rng = random.Random(11)
    seen = set()
    for name, alg in fixture_and_document_algebras():
        f = alg.field
        for v in alg.quiver.vertices:
            top = tuple(2 if w == v else 0 for w in alg.quiver.vertices)
            try:
                P = projective_cover(alg, top)
            except UnsupportedAlgebra:
                continue
            zpos = [i for i, (p, _) in enumerate(P.belems) if p.length == 0]
            for _ in range(4):
                off = set(zpos) if rng.random() < 0.5 else set()
                rows = [
                    [f.zero() if i in off else f.of_int(rng.choice((0, 0, 1, 2))) for i in range(P.total)]
                    for _ in range(rng.randint(1, 3))
                ]
                C = submodule_point(P, [sparse(f, row) for row in rows])
                expected = all(row[i] == 0 for row in C.rows for i in zpos)
                assert in_radical(P, C) is expected, (name, top, rows)
                seen.add(expected)
    assert seen == {True, False}


def test_coker_rep_layering(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    C = point_from_generators(P, [(rel(loop_bridge.quiver, (1, ["b"])), 0)])
    M = coker_rep(P, C)
    assert M.d == (2, 1)
    assert radical_layering(loop_bridge, M) == ((1, 0), (1, 0), (0, 1))


# -- skeleta -------------------------------------------------------------------


def test_kronecker_skeleta(kronecker):
    P = projective_cover(kronecker, (1, 0))
    sks = skeleta_with_dims(P, (1, 1))
    assert [skeleton_names(P, s) for s in sks] == [
        {0: ["a1", "e1"]},
        {0: ["a2", "e1"]},
    ]
    assert all(s.dims == (1, 1) and len(s) == 2 for s in sks)


def test_make_skeleton_requires_subpath_closure(kronecker):
    P = projective_cover(kronecker, (1, 0))
    a1 = path_word(kronecker.quiver, ["a1"])
    with pytest.raises(ValueError):
        make_skeleton(P, [(a1, 0)])


def test_skeleta_of_point_single_chart_cases(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    Cba = point_from_generators(P, [(rel(q, (1, ["b", "a"])), 0)])
    assert [skeleton_names(P, s) for s in skeleta_of_point(P, Cb)] == [
        {0: ["a", "b*a", "e1"]}
    ]
    assert [skeleton_names(P, s) for s in skeleta_of_point(P, Cba)] == [
        {0: ["a", "b", "e1"]}
    ]


def test_abstract_skeleta_are_layering_constrained():
    alg = two_loops_one_bridge_one_loop()
    P = projective_cover(alg, (3, 0))
    layering = ((3, 0), (2, 1), (1, 2), (0, 2))
    assert len(enumerate_skeleta(P, layering)) == 1620


# -- charts --------------------------------------------------------------------


def test_kronecker_chart_roundtrip(kronecker):
    P = projective_cover(kronecker, (1, 0))
    f = kronecker.field
    sigma = skeleta_with_dims(P, (1, 1))[0]
    pres = chart_equations(P, sigma)
    assert len(pres.variables) == 1
    assert pres.variables[0][0] == "a2"
    assert len(pres.equations) == 0
    pt = coords_to_point(pres, [f.of_int(5)])
    assert pt.rows == ((f.zero(), f.one(), Fraction(-1, 5)),)
    assert point_to_coords(P, sigma, pt, pres) == [f.of_int(5)]
    assert len(skeleta_of_point(P, pt)) == 2


def test_point_off_chart_is_rejected(kronecker):
    P = projective_cover(kronecker, (1, 0))
    f = kronecker.field
    sks = skeleta_with_dims(P, (1, 1))
    other = coords_to_point(chart_equations(P, sks[1]), [f.zero()])
    with pytest.raises(ValueError, match="not the direct sum"):
        point_to_coords(P, sks[0], other, chart_equations(P, sks[0]))


def test_bridge_stratum_is_line_plus_point(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    assert [P.describe(i) for i in range(P.total)] == ["z1", "a*z1", "b*z1", "b*a*z1"]
    charts = [
        (skeleton_names(P, s), len(chart_equations(P, s).variables))
        for s in skeleta_with_dims(P, (2, 1))
    ]
    assert charts == [
        ({0: ["a", "b", "e1"]}, 0),
        ({0: ["a", "b*a", "e1"]}, 1),
    ]


def test_merge_relation_cuts_chart_by_an_equation():
    alg = fork_merge_algebra(QQ)
    q = alg.quiver
    P = projective_cover(alg, (1, 0, 0))
    f = alg.field
    sigma = next(
        s
        for s in skeleta_with_dims(P, (1, 1, 1))
        if skeleton_names(P, s) == {0: ["a", "c*a", "e1"]}
    )
    pres = chart_equations(P, sigma)
    assert len(pres.variables) == 1
    assert len(pres.equations) == 1
    with pytest.raises(EquationsViolated):
        coords_to_point(pres, [f.zero()])
    pt = coords_to_point(pres, [f.one()])
    assert pt.rows == ((f.zero(), f.one(), f.of_int(-1), f.zero()),)
    assert point_to_coords(P, sigma, pt, pres) == [f.one()]
    assert coker_rep(P, pt).d == (1, 1, 1)


def test_unsatisfiable_chart_has_constant_equation():
    q = make_quiver(1, [("x", 1, 1), ("y", 1, 1)])
    words = [("x", "y"), ("y", "x")]
    rels = monomials(q, words)
    rels.append(rel(q, (1, ["x", "x"]), (-1, ["y", "y"])))
    rels += monomials(q, [tuple(w) for w in all_paths_of_length(q, 3)])
    alg = build_algebra(q, rels, QQ, 3)
    P = projective_cover(alg, (1,))
    f = alg.field
    # {e1, x, x*x} forces y into the complement, but y*y = x*x survives in
    # the quotient; no coordinate choice satisfies the chart equations
    sigma = next(
        s
        for s in skeleta_with_dims(P, (3,))
        if skeleton_names(P, s) == {0: ["e1", "x", "x*x"]}
    )
    pres = chart_equations(P, sigma)
    assert pres.equations
    with pytest.raises(EquationsViolated):
        coords_to_point(pres, [f.zero()] * len(pres.variables))


# -- endomorphisms and orbits ----------------------------------------------------


def test_kronecker_orbits_are_points(kronecker):
    P = projective_cover(kronecker, (1, 0))
    f = kronecker.field
    endo = endo_space(P)
    assert [endo.describe(j) for j in range(len(endo.elems))] == ["z1 -> z1"]
    pres = chart_equations(P, skeleta_with_dims(P, (1, 1))[0])
    for k in (0, 1, 2, -1, 7):
        pt = coords_to_point(pres, [f.of_int(k)])
        od = orbit_dims(P, pt)
        assert (od.aut, od.unipotent, od.graded) == (0, 0, 0)
        assert endo_invariant(P, pt) == (True, None)


def test_bridge_orbit_dimensions(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    Cba = point_from_generators(P, [(rel(q, (1, ["b", "a"])), 0)])
    odb, odba = orbit_dims(P, Cb), orbit_dims(P, Cba)
    assert (odb.aut, odb.unipotent, odb.graded) == (1, 1, 0)
    assert (odba.aut, odba.unipotent, odba.graded) == (0, 0, 0)


def test_bridge_endo_witness(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    Cba = point_from_generators(P, [(rel(q, (1, ["b", "a"])), 0)])
    ok, witness = endo_invariant(P, Cb)
    assert ok is False
    assert witness == (0, 0, path_word(q, ["a"]))
    assert endo_invariant(P, Cba) == (True, None)


def test_apply_auto_moves_along_unipotent_direction(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    q = loop_bridge.quiver
    f = loop_bridge.field
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    endo = endo_space(P)
    assert [endo.describe(j) for j in range(len(endo.elems))] == [
        "z1 -> z1",
        "z1 -> a*z1",
    ]
    coeffs = identity_coords(endo)
    coeffs[endo.unipotent[0]] = f.one()
    moved = apply_auto(P, coeffs, Cb, endo)
    assert moved.rows == ((f.zero(), f.zero(), f.one(), f.one()),)
    with pytest.raises(ValueError, match="singular"):
        apply_auto(P, [f.zero()] * len(endo.elems), Cb, endo)


# -- moduli reports --------------------------------------------------------------


def test_kronecker_moduli_fine_by_socle(kronecker, kronecker_f2):
    for alg in (kronecker, kronecker_f2):
        verdict = moduli_report(alg, (1, 0), (1, 1), DEFAULT_LIMITS)
        assert verdict.kind == "Fine"
        assert verdict.exhaustive is True
        assert verdict.reason == (
            "top S1 meets the radical of P only in its socle "
            "(dim 0 = 0 at vertex 1), so every point is an isolated orbit"
        )


def test_bridge_moduli_no_coarse(loop_bridge):
    q = loop_bridge.quiver
    f = loop_bridge.field
    verdict = moduli_report(loop_bridge, (1, 0), (2, 1), DEFAULT_LIMITS)
    assert verdict.kind == "NoCoarse"
    assert verdict.reason == (
        "point on chart {z1, a*z1, b*a*z1} at (c1=0) is moved by the "
        "endomorphism z1 -> a*z1"
    )
    assert verdict.witness.rows == ((f.zero(), f.zero(), f.one(), f.zero()),)
    assert verdict.witness_endo == (0, 0, path_word(q, ["a"]))


def test_cycle_moduli_fine_with_big_socle(cycle_flag):
    P = projective_cover(cycle_flag, (1, 0, 0))
    assert len(skeleta_with_dims(P, (2, 3, 2))) == 24
    verdict = moduli_report(cycle_flag, (1, 0, 0), (2, 3, 2), DEFAULT_LIMITS)
    assert verdict.kind == "Fine"
    assert "dim 4 = 4 at vertex 1" in verdict.reason


def test_graded_fine_fallback_for_simple_top():
    alg = pair_of_loops()
    verdict = moduli_report(alg, (1,), (2,), DEFAULT_LIMITS)
    assert verdict.kind == "GradedFine"
    assert verdict.exhaustive is False


def test_unknown_when_sweep_incomplete_and_top_not_simple():
    alg = pair_of_loops(extra_vertex=True)
    verdict = moduli_report(alg, (1, 1), (2, 1), DEFAULT_LIMITS)
    assert verdict.kind == "Unknown"
    assert "not exhaustive" in verdict.reason


def test_pins_stay_off_after_a_sampled_chart(monkeypatch):
    # arrows a, b: 1 -> 2 and a loop c at 2 with c*a = c*c = 0; over a
    # budget of 3^5 tuples the stratum's second chart (6 variables) is
    # sampled, and a later chart of its layering (5 variables) is swept in
    # full, so it must yield the points whose first skeleton is the sampled
    # one
    q = make_quiver(2, [("a", 1, 2), ("b", 1, 2), ("c", 2, 2)])
    alg = build_algebra(q, monomials(q, [("c", "a"), ("c", "c")]), Field(3), 4)
    P = projective_cover(alg, (2, 1))
    limits = SearchLimits(sweep=3**5)
    charts = [chart_equations(P, s) for s in skeleta_with_dims(P, (2, 6))]
    swept = [grass._chart_sweepable(pres, limits) for pres in charts]
    assert swept[:2] == [True, False] and True in swept[2:]

    def triples(points):
        return [(pres.sigma, vals, C.rows) for pres, vals, C in points]

    got = triples(grass.stratum_points(charts, limits))
    expected = triples(plain_stratum_points(charts, limits))
    assert got == expected
    assert len(got) == 398
    # the sample of the sampled chart is drawn with limits.seed
    seeded = SearchLimits(sweep=3**5, seed=5)
    other = triples(grass.stratum_points(charts, seeded))
    assert other == triples(plain_stratum_points(charts, seeded)) != got

    verdict = moduli_report(alg, (2, 1), (2, 6), limits)
    monkeypatch.setattr(grass, "stratum_points", plain_stratum_points)
    oracle = moduli_report(alg, (2, 1), (2, 6), limits)
    assert verdict.kind == oracle.kind == "NoCoarse"
    assert verdict.reason == oracle.reason
    assert verdict.witness == oracle.witness
    assert verdict.witness_endo == oracle.witness_endo


# -- the three-generator worked example ------------------------------------------


def test_three_tops_point_has_expected_invariants():
    alg = two_loops_one_bridge_one_loop()
    P, C = three_tops_point(alg)
    assert P.dims == (45, 33)
    assert C.dim == 67
    assert C.dims == (6, 5)
    assert is_grass_point(P, C, (6, 5))
    M = coker_rep(P, C)
    assert radical_layering(alg, M) == ((3, 0), (2, 1), (1, 2), (0, 2))
    assert is_homogeneous_point(P, C) is False


def test_three_tops_point_has_exactly_two_skeleta():
    alg = two_loops_one_bridge_one_loop()
    P, C = three_tops_point(alg)
    found = sorted(
        (skeleton_names(P, s) for s in skeleta_of_point(P, C)),
        key=lambda d: sorted(d[0]),
    )
    assert found == [
        {
            0: ["al", "al*be", "be", "de*ga*be", "e1", "ga*al*be", "ga*be"],
            1: ["de*ga", "e1", "ga"],
            2: ["e1"],
        },
        {
            0: ["al", "be", "be*al", "de*ga*be", "e1", "ga*be", "ga*be*al"],
            1: ["de*ga", "e1", "ga"],
            2: ["e1"],
        },
    ]


def test_three_tops_point_skeleta_match_the_rank_filter_oracle():
    alg = two_loops_one_bridge_one_loop()
    P, C = three_tops_point(alg)
    assert skeleta_of_point(P, C) == skeleta_of_point_oracle(P, C)


def test_skeleta_of_point_on_an_inhomogeneous_ideal_match_the_rank_filter_oracle():
    # cba = cd: path lengths do not grade the radical of Lambda*e1, so no
    # cover with a generator at 1 is built; on the covers that are built,
    # every point spanned by radical units and sums of two of them at one
    # vertex has the oracle's skeleta
    alg = inhomogeneous_algebra()
    assert not alg.is_homogeneous_ideal()
    with pytest.raises(UnsupportedAlgebra):
        projective_cover(alg, (1, 0, 0, 0))
    f = alg.field
    checked = 0
    for top in [(0, 1, 1, 0), (0, 2, 0, 0)]:
        P = projective_cover(alg, top)
        rad = [b for b in P.belems if b[0].length > 0]
        vecs = [dense(f, {P.index[b]: f.one()}, P.total) for b in rad]
        for i, b in enumerate(rad):
            for b2 in rad[i + 1 :]:
                if b[0].end == b2[0].end:
                    vecs.append(dense(f, {P.index[b]: f.one(), P.index[b2]: f.one()}, P.total))
        for k in range(len(vecs) + 1):
            for gens in itertools.combinations(vecs, k):
                C = submodule_point(P, closure(P.rep, [sparse(f, g) for g in gens]).rows.values())
                found = skeleta_of_point(P, C)
                assert found and found == skeleta_of_point_oracle(P, C), (top, C.rows)
                checked += 1
    assert checked == 80


def test_skeleta_of_point_builds_only_the_skeleta_it_returns(monkeypatch):
    # the independence cut drops a step before its subtree is grown: of the
    # 1,620 skeleta with the point's layering only the 2 charts are built
    alg = two_loops_one_bridge_one_loop()
    P, C = three_tops_point(alg)
    built = []

    def counting(P, elems):
        built.append(elems)
        return skeleton(P, elems)

    skeleton = grass._skeleton
    monkeypatch.setattr(grass, "_skeleton", counting)
    found = skeleta_of_point(P, C)
    assert len(found) == 2
    assert len(built) == len(found)


# -- two-generator top with a crossing endomorphism -------------------------------


def test_crossed_point_is_moved_by_a_projection():
    alg = crossed_arrows()
    q = alg.quiver
    P = projective_cover(alg, (1, 1))
    assert P.dims == (4, 5)
    C = point_from_generators(
        P,
        [
            (rel(q, (1, ["a2"])), 0),
            (rel(q, (1, ["a1", "b"])), 1),
            [(rel(q, (1, ["a1"])), 0), (rel(q, (-1, ["a2", "b"])), 1)],
        ],
    )
    assert C.dim == 5
    assert C.dims == (2, 2)
    M = coker_rep(P, C)
    assert radical_layering(alg, M) == ((1, 1), (1, 0), (0, 1))
    ok, witness = endo_invariant(P, C)
    assert ok is False
    assert witness == (0, 0, path_word(q, [], start=1))


def test_homogeneous_points_detected(double_loop):
    q = double_loop.quiver
    P = projective_cover(double_loop, (2, 0))
    C = point_from_generators(
        P,
        [
            (rel(q, (1, ["a"]), (1, ["b"])), 1),
            (rel(q, (1, ["a", "w1"]), (2, ["a", "w2"])), 1),
            (rel(q, (1, ["b", "w3"]), (3, ["b", "w4"])), 1),
        ],
    )
    assert C.dim == 3
    assert C.dims == (10, 9)
    assert is_homogeneous_point(P, C) is True
