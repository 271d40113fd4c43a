"""Submodule Grassmannians: projective covers, skeleta, affine charts,
automorphism orbits, and fine-moduli reports, frozen against hand-checked
classification examples."""

from __future__ import annotations

import pytest

from quivermoduli import (
    EquationsViolated,
    Field,
    NotInvertible,
    NotOnChart,
    QQ,
    UnsupportedAlgebra,
    build_algebra,
    grass,
    make_quiver,
)
from quivermoduli.config import DEFAULT_LIMITS
from quivermoduli.grass import (
    TopSpec,
    apply_auto,
    chart_equations,
    coker_rep,
    coords_to_point,
    endo_invariant,
    endo_space,
    enumerate_skeleta,
    is_grass_point,
    is_homogeneous_point,
    make_skeleton,
    moduli_report,
    orbit_dims,
    point_from_generators,
    point_to_coords,
    projective_cover,
    skeleta_of_point,
    skeleta_with_dims,
    submodule_point,
)
from quivermoduli.reps import radical_layering

from conftest import all_paths_of_length, fork_merge_algebra, monomials, path_word, rel
from oracles import skeleta_of_point_oracle


def skeleton_names(sk):
    """Per-copy sorted path strings, the printable identity of a skeleton."""
    by = {}
    for p, copy in sk.elems:
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
    assert [P.describe(b) for b in P.belems] == ["z1", "a1*z1", "a2*z1"]
    assert P.top.simple and P.top.squarefree and P.top.total == 1
    assert str(P.top) == "S1"
    assert P.gens == (1,)


def test_top_spec_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        TopSpec((0, 0))
    with pytest.raises(ValueError):
        TopSpec((1, -1))


def test_cover_requires_length_graded_radical():
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)])
    alg = build_algebra(q, [rel(q, (1, ["c", "b", "a"]), (-1, ["c", "d"]))], QQ, 4)
    with pytest.raises(UnsupportedAlgebra):
        projective_cover(alg, (1, 0, 0, 0))


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
    raw = submodule_point(P, [[f.zero(), f.one(), f.zero(), f.zero()]])
    assert not is_grass_point(P, raw, raw.dims)


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
    assert [skeleton_names(s) for s in sks] == [
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
    assert [skeleton_names(s) for s in skeleta_of_point(P, Cb)] == [
        {0: ["a", "b*a", "e1"]}
    ]
    assert [skeleton_names(s) for s in skeleta_of_point(P, Cba)] == [
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
    assert pt.rows == ((f.zero(), f.one(), f.parse("-1/5")),)
    assert point_to_coords(P, sigma, pt, pres) == [f.of_int(5)]
    assert len(skeleta_of_point(P, pt)) == 2


def test_point_off_chart_is_rejected(kronecker):
    P = projective_cover(kronecker, (1, 0))
    f = kronecker.field
    sks = skeleta_with_dims(P, (1, 1))
    other = coords_to_point(chart_equations(P, sks[1]), [f.zero()])
    with pytest.raises(NotOnChart):
        point_to_coords(P, sks[0], other, chart_equations(P, sks[0]))


def test_bridge_stratum_is_line_plus_point(loop_bridge):
    P = projective_cover(loop_bridge, (1, 0))
    assert [P.describe(b) for b in P.belems] == ["z1", "a*z1", "b*z1", "b*a*z1"]
    charts = [
        (skeleton_names(s), len(chart_equations(P, s).variables))
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
        if skeleton_names(s) == {0: ["a", "c*a", "e1"]}
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
        if skeleton_names(s) == {0: ["e1", "x", "x*x"]}
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
    coeffs = endo.identity_coords()
    coeffs[endo.unipotent[0]] = f.one()
    moved = apply_auto(P, coeffs, Cb, endo)
    assert moved.rows == ((f.zero(), f.zero(), f.one(), f.one()),)
    with pytest.raises(NotInvertible):
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
        (skeleton_names(s) for s in skeleta_of_point(P, C)),
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


def test_skeleta_of_point_builds_only_the_skeleta_it_returns(monkeypatch):
    # the independence cut drops a step before its subtree is grown: of the
    # 1,620 skeleta with the point's layering only the 2 charts are built
    alg = two_loops_one_bridge_one_loop()
    P, C = three_tops_point(alg)
    built = []

    def counting(P, elems):
        built.append(elems)
        return make_skeleton(P, elems)

    monkeypatch.setattr(grass, "make_skeleton", counting)
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
