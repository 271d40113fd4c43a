"""Representations on vertex-graded coordinate spaces: validation, homs,
submodule sweeps, and local decompositions, checked against brute-force
subspace oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from quivermoduli import (
    Field,
    NotSubmodule,
    NotSumOfLocals,
    QQ,
    SearchTooLarge,
    Unknown,
    build_algebra,
    make_quiver,
)
from quivermoduli import polys, reps
from quivermoduli.config import SearchLimits
from quivermoduli.reps import (
    decompose_local,
    hom_dim,
    is_isomorphic,
    quotient_rep,
    radical_layering,
    rep_validate,
    simple_rep,
    sub_rep,
    submodule_spans,
    top_dims,
    zero_rep,
)
from quivermoduli.stability import Weight, stable_factors

from conftest import (
    cycle_flag_algebra,
    double_loop_algebra,
    fork_merge_algebra,
    inhomogeneous_algebra,
    kronecker_over,
    loop_bridge_over,
    rel,
    star3_over,
    two_loop_two_arrow_algebra,
)
from oracles import (
    GroupElement,
    base_change,
    block_sum_oracle,
    brute_force_submodule_dims,
    brute_force_submodule_spans,
    dense_projective_oracle,
    direct_sum,
    random_group_element,
    rep_of_matrices,
    rep_of_projective,
    space_key,
    submodule_dim_vectors,
)


def kron_point(alg, lam):
    """The (1,1) Kronecker module with a1 acting as 1 and a2 as lam."""
    f = alg.field
    return rep_of_matrices(alg, (1, 1), {"a1": [[f.one()]], "a2": [[lam]]})


def kron_pullback(alg):
    """z, z' at vertex 1 glued over one target: a1 z = y = a2 z'."""
    f = alg.field
    return rep_of_matrices(alg, (2, 1), {"a1": [[f.one(), f.zero()]], "a2": [[f.zero(), f.one()]]})


# -- construction and validation --------------------------------------------


def test_projective_rep_validates(cycle_flag):
    P = rep_of_projective(cycle_flag, 1)
    assert P.d == (5, 4, 4)
    assert rep_validate(cycle_flag, P) is True


def test_validate_flags_broken_relation(loop_bridge):
    f = loop_bridge.field
    bad = rep_of_matrices(
        loop_bridge,
        (1, 1),
        {"a": [[f.one()]], "b": [[f.one()]]},  # a^2 acts as 1, not 0
    )
    assert rep_validate(loop_bridge, bad) is False


FIXTURE_ALGEBRAS = {
    "kronecker/F2": kronecker_over(Field(2)),
    "loop bridge/F3": loop_bridge_over(Field(3)),
    "star3/Q": star3_over(QQ),
    "cycle flag/Q": cycle_flag_algebra(QQ),
    "fork merge/F3": fork_merge_algebra(Field(3)),
    "inhomogeneous/Q": inhomogeneous_algebra(),
    "double loop/F2": double_loop_algebra(Field(2)),
    "two loops two arrows/Q": two_loop_two_arrow_algebra(QQ),
}


@pytest.mark.parametrize("alg", FIXTURE_ALGEBRAS.values(), ids=FIXTURE_ALGEBRAS.keys())
def test_sparse_builders_match_the_dense_oracles(alg):
    # the builders write Maps directly; their dense views are the matrices
    # the dense routes fill in, and reading a view back in gives the Maps
    verts = alg.quiver.vertices
    projectives = [rep_of_projective(alg, v) for v in verts]
    for v, P in zip(verts, projectives):
        Q = dense_projective_oracle(alg, v)
        assert (P.d, P.mats) == (Q.d, Q.mats)
    # d = (0, 1, 2, ...) is zero at vertex 1
    pool = projectives + [simple_rep(alg, v) for v in verts] + [zero_rep(alg, tuple(range(len(verts))))]
    sums = []
    for A in pool:
        for B in pool[::2]:
            S, T = direct_sum(A, B), block_sum_oracle(A, B)
            assert (S.d, S.mats) == (T.d, T.mats)
            sums.append(S)
    for M in pool + sums:
        assert rep_of_matrices(alg, M.d, M.mats).arrows == M.arrows


def test_an_arrow_moves_global_basis_vectors(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    one = QQ.one()
    # basis order at vertex blocks: e1, a | b, b*a
    assert P.act("a", {0: one}) == {1: one}
    assert P.act("b", {0: one}) == {2: one}
    assert P.act("b", P.act("a", {0: one})) == {3: one}
    # a^2 = 0, and a vector at vertex 2 is not where a or b starts
    assert P.act("a", {1: one}) == {}
    assert P.act("a", {2: one}) == P.act("b", {3: one}) == {}
    two = QQ.of_int(2)
    assert P.act("b", {0: two, 1: -one}) == {2: two, 3: -one}


# -- layerings ---------------------------------------------------------------


def test_radical_layering_of_projectives(loop_bridge, cycle_flag):
    assert radical_layering(loop_bridge, rep_of_projective(loop_bridge, 1)) == (
        (1, 0),
        (1, 1),
        (0, 1),
    )
    assert radical_layering(cycle_flag, rep_of_projective(cycle_flag, 1)) == (
        (1, 0, 0),
        (0, 4, 0),
        (0, 0, 4),
        (4, 0, 0),
    )


def test_semisimple_layering_pads_with_zeros(loop_bridge):
    assert radical_layering(loop_bridge, zero_rep(loop_bridge, (2, 1))) == (
        (2, 1),
        (0, 0),
        (0, 0),
    )


def test_radical_layering_differs_from_length_buckets_when_inhomogeneous():
    alg = inhomogeneous_algebra()
    P = rep_of_projective(alg, 1)
    # the class of c*d = c*b*a sits in J^3 although its basis word has length 2
    assert radical_layering(alg, P) == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert alg.projective_layer_dims(1) == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))


def test_layering_is_additive_on_direct_sums(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    S = simple_rep(loop_bridge, 2)
    both = radical_layering(loop_bridge, direct_sum(P, S))
    single = radical_layering(loop_bridge, P)
    assert both == tuple(
        tuple(x + y for x, y in zip(row, srow))
        for row, srow in zip(single, radical_layering(loop_bridge, S))
    )


def test_top_dims(loop_bridge):
    assert top_dims(loop_bridge, rep_of_projective(loop_bridge, 1)) == (1, 0)
    assert top_dims(loop_bridge, zero_rep(loop_bridge, (2, 1))) == (2, 1)


# -- homomorphisms ------------------------------------------------------------


def test_hom_from_projective_counts_dimension(loop_bridge, kronecker):
    for alg in (loop_bridge, kronecker):
        mods = [
            rep_of_projective(alg, 1),
            rep_of_projective(alg, 2),
            direct_sum(rep_of_projective(alg, 1), simple_rep(alg, 2)),
        ]
        for M in mods:
            for i in alg.quiver.vertices:
                assert hom_dim(rep_of_projective(alg, i), M) == M.d[i - 1]


def test_endo_dim_of_loop_projective(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    assert hom_dim(P, P) == 2  # 1 and multiplication by the loop


# -- isomorphism --------------------------------------------------------------


def test_isomorphic_after_base_change_finite_field():
    alg = loop_bridge_over(Field(5))
    P = rep_of_projective(alg, 1)
    g = random_group_element(Field(5), P.d, random.Random(7))
    assert rep_validate(alg, base_change(P, g)) is True
    assert is_isomorphic(P, base_change(P, g)) is True


def test_isomorphic_after_base_change_rationals(kronecker):
    P = rep_of_projective(kronecker, 1)
    g = random_group_element(QQ, P.d, random.Random(11))
    assert is_isomorphic(P, base_change(P, g)) is True


def test_kronecker_points_pairwise_distinct(kronecker):
    pts = [kron_point(kronecker, QQ.of_int(k)) for k in (0, 1, 2)]
    for i, M in enumerate(pts):
        for j, N in enumerate(pts):
            assert is_isomorphic(M, N) is (i == j)


def test_dimension_vector_obstruction(kronecker):
    assert is_isomorphic(simple_rep(kronecker, 1), simple_rep(kronecker, 2)) is False


def test_hom_asymmetry_obstruction(kronecker):
    M0, M1 = kron_point(kronecker, QQ.zero()), kron_point(kronecker, QQ.one())
    M = direct_sum(M0, M1)
    N = direct_sum(M0, M0)
    assert is_isomorphic(M, N) is False


def test_local_pieces_decide_what_hom_dimensions_cannot(kronecker_f3):
    # the four (1,1) points over F3 are pairwise non-isomorphic, so these
    # sums have the same layering and hom dimensions both ways and in End
    f = kronecker_f3.field
    k0, k1, k2 = (kron_point(kronecker_f3, f.of_int(c)) for c in (0, 1, 2))
    kinf = rep_of_matrices(kronecker_f3, (1, 1), {"a1": [[f.zero()]], "a2": [[f.one()]]})
    M = direct_sum(direct_sum(k0, k1), k2)
    N = direct_sum(direct_sum(k0, k1), kinf)
    assert hom_dim(M, N) == hom_dim(N, M) == 2 and hom_dim(M, M) == hom_dim(N, N) == 3
    assert is_isomorphic(M, N) is False
    g = random_group_element(f, M.d, random.Random(2))
    assert is_isomorphic(base_change(M, g), direct_sum(k2, direct_sum(k1, k0))) is True


def test_a_sum_of_locals_is_not_isomorphic_to_a_module_that_is_not(kronecker_f2):
    # layering and hom dimensions agree; only the split route tells them apart
    M = rep_of_matrices(kronecker_f2, (2, 2), {"a1": [[0, 1], [0, 0]], "a2": [[1, 0], [1, 1]]})
    N = rep_of_matrices(kronecker_f2, (2, 2), {"a1": [[0, 0], [1, 0]], "a2": [[1, 0], [1, 1]]})
    assert decompose_local(kronecker_f2, M) is not NotSumOfLocals
    assert decompose_local(kronecker_f2, N) is NotSumOfLocals
    assert radical_layering(kronecker_f2, M) == radical_layering(kronecker_f2, N)
    assert hom_dim(M, N) == hom_dim(N, M) > 0 and hom_dim(M, M) == hom_dim(N, N)
    assert is_isomorphic(M, N) is False
    assert is_isomorphic(N, M) is False


def test_base_change_rejects_singular_and_misshapen(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    f = loop_bridge.field
    sing = GroupElement({1: [[f.zero(), f.zero()], [f.zero(), f.zero()]], 2: [[f.one(), f.zero()], [f.zero(), f.one()]]})
    with pytest.raises(ValueError, match="singular"):
        base_change(P, sing)
    with pytest.raises(ValueError, match="wrong shape"):
        base_change(P, GroupElement({1: [[f.one()]], 2: [[f.one()]]}))


# -- submodule sweeps ----------------------------------------------------------


def test_submodule_dims_match_brute_force_kronecker():
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2)])
    alg = build_algebra(q, [], Field(2), 2)
    P = rep_of_projective(alg, 1)
    assert submodule_dim_vectors(P) == brute_force_submodule_dims(P)
    assert submodule_dim_vectors(P) == {(0, 0), (0, 1), (0, 2), (1, 2)}


def test_submodule_dims_match_brute_force_loop_bridge():
    alg = loop_bridge_over(Field(3))
    P = rep_of_projective(alg, 1)
    assert submodule_dim_vectors(P) == brute_force_submodule_dims(P)


def test_submodule_dims_match_brute_force_glued():
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2)])
    alg = build_algebra(q, [], Field(3), 2)
    M = kron_pullback(alg)
    assert submodule_dim_vectors(M) == brute_force_submodule_dims(M)


def _diag3(*xs):
    return [[xs[i] if i == j else 0 for j in range(3)] for i in range(3)]


_G3 = GroupElement({1: [[1, 1, 0], [0, 1, 1], [1, 1, 1]], 2: [[0, 1, 1], [1, 0, 1], [1, 1, 1]]})


@pytest.mark.parametrize(
    "mats, count",
    [
        # the three points [1:0], [0:1], [1:1] of the Kronecker line over F2
        ({"a1": _diag3(1, 0, 1), "a2": _diag3(0, 1, 1)}, 50),
        # a1 = 1, a2 one Jordan block J_3(1)
        ({"a1": _diag3(1, 1, 1), "a2": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, 42),
    ],
    ids=["three points", "jordan block"],
)
def test_benchmark_shaped_lattices_match_the_oracle(kronecker_f2, mats, count):
    M = base_change(rep_of_matrices(kronecker_f2, (3, 3), mats), _G3)
    keys = [space_key(sp) for sp in submodule_spans(M)]
    assert len(keys) == len(set(keys)) == count
    assert set(keys) == brute_force_submodule_spans(M)


def test_vector_budget_refuses_before_any_closure(kronecker_f2, monkeypatch):
    def closure(*args):
        raise AssertionError("closure called over budget")

    monkeypatch.setattr(reps, "closure", closure)
    P = rep_of_projective(kronecker_f2, 1)  # |d| = 3
    with pytest.raises(SearchTooLarge, match=r"^would sweep 8 generator vectors \(budget 7\)$"):
        submodule_spans(P, SearchLimits(sweep=7))


def test_space_budget_caps_the_lattice_size(kronecker_f2):
    P = rep_of_projective(kronecker_f2, 1)  # 6 submodules, {0} and P included
    assert len(submodule_spans(P, SearchLimits(submodule_spaces=6))) == 6
    with pytest.raises(SearchTooLarge, match=r"^submodule count exceeds budget$"):
        submodule_spans(P, SearchLimits(submodule_spaces=5))


# -- the callers' side of Echelon's contract ------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_lattices_hand_elimination_no_zero(zero_free_rows, p):
    # the lattice-fq shapes, base-changed: three Kronecker points, whose sum
    # has three stable factors, and a Jordan block
    alg = kronecker_over(Field(p))
    points = base_change(rep_of_matrices(alg, (3, 3), {"a1": _diag3(1, 0, 1), "a2": _diag3(0, 1, 1)}), _G3)
    jordan = base_change(rep_of_matrices(alg, (3, 3), {"a1": _diag3(1, 1, 1), "a2": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}), _G3)
    assert submodule_spans(jordan)
    assert [g.d for g in stable_factors(points, Weight((-1, 1)))] == [(1, 1)] * 3
    assert zero_free_rows[alg.field] > 0


def test_rational_splits_hand_elimination_no_zero(zero_free_rows, kronecker, loop_bridge):
    k0, k1, k2 = (kron_point(kronecker, QQ.of_int(c)) for c in (0, 1, 2))
    M = direct_sum(direct_sum(k0, k1), k2)
    N = base_change(M, random_group_element(QQ, M.d, random.Random(3)))
    assert is_isomorphic(M, N) is True
    assert sorted(piece.d for piece in decompose_local(kronecker, N)) == [(1, 1)] * 3
    assert decompose_local(kronecker, kron_pullback(kronecker)) is NotSumOfLocals
    P = direct_sum(rep_of_projective(loop_bridge, 1), rep_of_projective(loop_bridge, 2))
    assert sorted(piece.d for piece in decompose_local(loop_bridge, P)) == [(0, 1), (2, 2)]
    assert zero_free_rows[QQ] > 0


# -- subquotients --------------------------------------------------------------


def test_sub_and_quotient_of_radical(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    f = QQ
    rad = [
        [f.zero(), f.one(), f.zero(), f.zero()],
        [f.zero(), f.zero(), f.one(), f.zero()],
        [f.zero(), f.zero(), f.zero(), f.one()],
    ]
    S = sub_rep(P, rad)
    Qt = quotient_rep(P, rad)
    assert S.d == (1, 2)
    assert Qt.d == (1, 0)
    assert rep_validate(loop_bridge, S) is True
    assert rep_validate(loop_bridge, Qt) is True
    assert radical_layering(loop_bridge, S) == ((1, 1), (0, 1), (0, 0))


def test_sub_rep_with_empty_target_block(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    f = QQ
    line = [[f.zero(), f.zero(), f.one(), f.zero()]]  # span of b
    S = sub_rep(P, line)
    assert S.d == (0, 1)
    assert rep_validate(loop_bridge, S) is True


def test_sub_rep_rejects_unstable_subspace(loop_bridge):
    P = rep_of_projective(loop_bridge, 1)
    f = QQ
    line = [[f.one(), f.zero(), f.zero(), f.zero()]]  # span of e1, not a submodule
    with pytest.raises(NotSubmodule):
        sub_rep(P, line)


def test_subquotients_reject_an_arrow_stable_subspace_that_is_not_graded():
    # S1 (+) S2 over 1 -> 2 with a = 0: the diagonal line is stable under
    # the arrow but not under the idempotents, so it is no submodule
    f = Field(3)
    q = make_quiver(2, [("a", 1, 2)])
    alg = build_algebra(q, [], f, 2)
    M = rep_of_matrices(alg, (1, 1), {"a": [[f.zero()]]})
    diagonal = [[f.one(), f.one()]]
    with pytest.raises(NotSubmodule, match="not graded"):
        sub_rep(M, diagonal)
    with pytest.raises(NotSubmodule, match="not graded"):
        quotient_rep(M, diagonal)


def test_validate_across_a_zero_dimensional_vertex():
    # b*a passes through vertex 2, where the module is zero: the relation
    # acts as the 1x1 zero matrix, with no width lost on the way
    q = make_quiver(3, [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, [rel(q, (1, ["b", "a"]))], Field(2), 3)
    assert rep_validate(alg, zero_rep(alg, (1, 0, 1))) is True


# -- local decomposition ---------------------------------------------------------


def test_decompose_certifies_local_over_finite_field():
    alg = loop_bridge_over(Field(2))
    P = rep_of_projective(alg, 1)
    out = decompose_local(alg, P)
    assert isinstance(out, list) and len(out) == 1
    assert out[0].d == P.d


def test_decompose_splits_projective_sum():
    alg = loop_bridge_over(Field(2))
    M = direct_sum(rep_of_projective(alg, 1), rep_of_projective(alg, 2))
    out = decompose_local(alg, M)
    assert isinstance(out, list)
    assert sorted(p.d for p in out) == [(0, 1), (2, 2)]


def test_decompose_splits_incomparable_kernels():
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2)])
    alg = build_algebra(q, [], Field(3), 2)
    M = direct_sum(kron_point(alg, alg.field.zero()), kron_point(alg, alg.field.one()))
    out = decompose_local(alg, M)
    assert isinstance(out, list)
    assert sorted(p.d for p in out) == [(1, 1), (1, 1)]


def test_indecomposable_nonlocal_is_flagged(kronecker):
    M = kron_pullback(kronecker)
    assert decompose_local(kronecker, M) is NotSumOfLocals


def kron_pair(alg, a2):
    """The (n,n) Kronecker module with a1 acting as the identity and a2 as a2."""
    f = alg.field
    n = len(a2)
    ident = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    return rep_of_matrices(alg, (n, n), {"a1": ident, "a2": [[f.of_int(c) for c in row] for row in a2]})


def companion(*coeffs):
    """Companion matrix of x^n + c_(n-1) x^(n-1) + ... + c_0, given c_0..c_(n-1)."""
    n = len(coeffs)
    return [[-coeffs[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]


def counted_splits(monkeypatch):
    """The vertex dims of M at each _split_once call, collected from here on."""
    calls = []
    real = reps._split_once

    def counting(M, blocks):
        calls.append(M.d)
        return real(M, blocks)

    monkeypatch.setattr(reps, "_split_once", counting)
    return calls


def test_rational_split_search_stays_honest(loop_bridge, kronecker, monkeypatch):
    # End(P1) = K[a]/(a^2) is local but two-dimensional: no split exists,
    # and its simple top shows it local
    P = rep_of_projective(loop_bridge, 1)
    out = decompose_local(loop_bridge, P)
    assert isinstance(out, list) and len(out) == 1
    assert out[0].d == P.d
    # End(M) = Q(i) acts on the top (2, 0) as a field: no endomorphism
    # outside J kills a top vector and no eigenvalue is rational, so M is
    # not a sum of locals
    M = kron_pair(kronecker, [[0, -1], [1, 0]])
    assert decompose_local(kronecker, M) is NotSumOfLocals
    # End(M) = Q(2^(1/4)), a field of degree 4: the same two steps certify
    # the verdict, with no split attempted
    calls = counted_splits(monkeypatch)
    M = kron_pair(kronecker, companion(-2, 0, 0, 0))
    assert decompose_local(kronecker, M) is NotSumOfLocals
    assert calls == []


def test_submodule_generators_meet_each_line_at_its_first_product_entry():
    # x and c*x generate the same cyclic submodule, and product order meets
    # x/c before x, so sweeping one vector per line keeps the first generator
    for f in (Field(2), Field(3)):
        for k in range(1, 5):
            lines = [
                list(c)
                for c in itertools.product(f.elements(), repeat=k)
                if any(c) and next(x for x in c if x) == 1
            ]
            assert list(reps._projective_coeffs(f, k)) == lines


def test_rational_certificate_comes_before_the_split_search(loop_bridge, kronecker, monkeypatch):
    calls = counted_splits(monkeypatch)
    # the simple top decides P1 of loop bridge before any split attempt
    P = rep_of_projective(loop_bridge, 1)
    assert [p.d for p in decompose_local(loop_bridge, P)] == [P.d]
    assert calls == []
    # End = Q(i) and End = Q(2^(1/4)) have no rational eigenvalue on the
    # top, so neither is split
    for a2 in ([[0, -1], [1, 0]], companion(-2, 0, 0, 0)):
        M = kron_pair(kronecker, a2)
        assert decompose_local(kronecker, M) is NotSumOfLocals
        assert calls == []


@pytest.mark.parametrize(
    "a2",
    [companion(-2, 0), companion(-2, 0, 0), companion(1, 0, 2, 0)],
    ids=["x^2-2", "x^3-2", "(x^2+1)^2"],
)
def test_rational_residue_field_certifies_without_a_split(kronecker, monkeypatch, a2):
    # End/J is Q(sqrt 2), Q(2^(1/3)) or, for the local End = Q[x]/((x^2+1)^2),
    # Q(i): no top vector is killed from outside J and no eigenvalue on the
    # top is rational, so the module is indecomposable with top (n, 0)
    calls = counted_splits(monkeypatch)
    M = kron_pair(kronecker, a2)
    assert decompose_local(kronecker, M) is NotSumOfLocals
    assert calls == []


@pytest.mark.parametrize("a2", [[[0, 1], [1, 0]], [[1, 0], [0, 1]]], ids=["QxQ", "M2(Q)"])
def test_rational_residue_root_splits_at_the_first_try(kronecker, monkeypatch, a2):
    # End/J = Q x Q (a2 swaps, eigenvalues 1 and -1): a basis element with
    # a rational eigenvalue on the top gives the one split needed; for
    # End/J = M_2(Q) (a2 = 1) an endomorphism killing a top vector does
    calls = counted_splits(monkeypatch)
    M = kron_pair(kronecker, a2)
    out = decompose_local(kronecker, M)
    assert [p.d for p in out] == [(1, 1), (1, 1)]
    assert calls == [(2, 2)]


def test_rational_top_map_grid_decides_without_random_tries(kronecker, monkeypatch):
    # with no random tries only the grid over the top maps can decide for
    # the Jordan module, which is not a sum of locals; S1^2 is decided by
    # its local pieces, and none of them needs a symbolic determinant
    dets = []
    real = polys.poly_det

    def counting(m):
        dets.append(len(m))
        return real(m)

    monkeypatch.setattr(polys, "poly_det", counting)
    no_tries = SearchLimits(iso_tries=0)
    M = kron_pair(kronecker, [[1, 1], [0, 1]])
    assert decompose_local(kronecker, M) is NotSumOfLocals
    g = random_group_element(QQ, M.d, random.Random(5))
    assert is_isomorphic(M, base_change(M, g), no_tries) is True
    assert is_isomorphic(M, kron_pair(kronecker, [[2, 1], [0, 2]]), no_tries) is False
    assert is_isomorphic(M, base_change(M, g), SearchLimits(iso_tries=0, iso_enum=1)) is Unknown
    # S1 (+) I2, I2 the injective at 2, is not a sum of locals either; its
    # top maps have rank one, so each needs the values 0 and 1 of its grid
    f = kronecker.field
    SI = rep_of_matrices(kronecker, (3, 1), {"a1": [[f.one(), f.zero(), f.zero()]], "a2": [[f.zero(), f.one(), f.zero()]]})
    assert decompose_local(kronecker, SI) is NotSumOfLocals
    assert is_isomorphic(SI, SI, no_tries) is True
    S = zero_rep(kronecker, (2, 0))
    assert is_isomorphic(S, S, no_tries) is True
    assert dets == []


def test_isomorphism_builds_each_endomorphism_space_once(kronecker, monkeypatch):
    # End(M) and End(N) serve both the dimension check and the first split
    calls = []
    real = reps._hom_maps

    def counting(M, N):
        calls.append((M, N))
        return real(M, N)

    monkeypatch.setattr(reps, "_hom_maps", counting)
    M = kron_pair(kronecker, [[0, 1], [1, 0]])
    N = base_change(M, random_group_element(kronecker.field, M.d, random.Random(3)))
    assert is_isomorphic(M, N) is True
    assert [sum(1 for a, b in calls if a is X and b is X) for X in (M, N)] == [1, 1]


def test_rational_trace_form_refutes_a_sum_of_locals(kronecker):
    # End(M) = K[x]/(x^2) with top (2, 0): no endomorphism splits M, and
    # failing steps 2 and 3 of the split route shows it is not a sum of locals
    M = kron_pair(kronecker, [[1, 1], [0, 1]])
    assert decompose_local(kronecker, M) is NotSumOfLocals
