"""Randomized invariants: chart points inherit their skeleton's layering,
skeleta and chart relations agree with brute-force and dense oracles,
submodule sweeps agree with an all-subspace oracle, top maps, Fitting
splits and one-parameter limits on sparse maps agree with the dense block
routes, layerings and verdicts survive base change, charts of squarefree
tops absorb automorphisms, the stratum sweep and the arrow matrices count
the same modules, also over random algebras, whose normal forms match the
all-products elimination, the block pieces of a point match its split
summands, the rational root search finds a root exactly when there is one,
and no sparse sum stores a zero."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_flag_algebra,
    double_loop_algebra,
    fork_merge_algebra,
    kronecker_over,
    loop_bridge_over,
    monomials,
    rel,
    star3_over,
    two_loop_two_arrow_algebra,
)
from oracles import (
    algebra_mul,
    all_products_algebra,
    apply_auto,
    arrow_images_span,
    base_change,
    belem_order,
    block_top_map_oracle,
    brute_force_skeleta,
    brute_force_submodule_dims,
    brute_force_submodule_spans,
    chain_oracle,
    closed_orbit_verdicts,
    dense_chart_residues,
    dense_hom_oracle,
    dense_limit_oracle,
    dense_relation_equations,
    direct_sum,
    enumerate_paths,
    fitting_split_oracle,
    homogeneous_ideal_oracle,
    iso_oracle,
    length_grading_oracle,
    initial,
    local_top_weight,
    naive_is_nilpotent,
    naive_mat_mul,
    naive_mat_vec,
    naive_orbit_dim,
    naive_rank,
    nf_path,
    normal_form,
    plain_stratum_points,
    point_to_coords,
    quotient_rep_oracle,
    radical_hom_dims_oracle,
    radical_layering_oracle,
    random_group_element,
    render_document,
    rep_of_matrices,
    rep_of_projective,
    skeleta_of_point_oracle,
    socle_dims_oracle,
    space_key,
    sub_rep_oracle,
    submodule_dim_vectors,
    sum_of_locals_oracle,
)
from test_degeneration import SWEEP_FQ_STRATA, sweep_fq_stratum
from quivermoduli import Element, Field, QQ, build_algebra, make_quiver
from quivermoduli.config import DEFAULT_LIMITS
from quivermoduli.degeneration import (
    DegenerationVerdict,
    _block_pieces,
    hom_order_leq,
    maximal_topdeg_candidates,
    no_proper_topstable_deg,
    one_param_limit,
)
from quivermoduli.dsl import doc_point, parse_input
from quivermoduli.errors import EquationsViolated, NotAdmissible, NotSumOfLocals, UnsupportedAlgebra
from quivermoduli.grass import (
    _chart_sweepable,
    _stab_residues,
    chart_equations,
    coker_rep,
    coords_to_point,
    endo_space,
    enumerate_skeleta,
    is_grass_point,
    make_skeleton,
    moduli_report,
    orbit_dims,
    point_from_generators,
    projective_cover,
    skeleta_of_point,
    skeleta_with_dims,
    stratum_points,
    submodule_point,
)
from quivermoduli import reps
from quivermoduli.linalg import Echelon, apply, combine, identity, kernel_basis, span_rref, sparse
from quivermoduli.polys import Poly, PolyRing
from quivermoduli.quiver import extend
from quivermoduli.reps import (
    _by_vertex,
    _graded_span,
    _split_once,
    _vertex_dims,
    decompose_local,
    hom_basis,
    hom_dim,
    is_isomorphic,
    quotient_rep,
    radical_layering,
    rep_validate,
    simple_rep,
    sub_rep,
    submodule_spans,
    top_dims,
)
from quivermoduli.stability import classify_stability


def _kronecker(field):
    q = make_quiver(2, [("a1", 1, 2), ("a2", 1, 2)])
    return build_algebra(q, [], field, 2)


CHART_CASES = [
    ("kronecker/F3", _kronecker(Field(3)), (1, 0), (1, 1)),
    ("loop bridge/Q", loop_bridge_over(QQ), (1, 0), (2, 1)),
    ("star3/Q", star3_over(QQ), (1, 0, 0), (1, 1, 1)),
    ("two loops two arrows/Q", two_loop_two_arrow_algebra(QQ), (1, 0), (2, 2)),
    ("double loop/F3", double_loop_algebra(Field(3)), (1, 0), (2, 1)),
]


def _sample_points(alg, top, d, rng, draws, attempts=None):
    """Random points per chart, as (skeleton, presentation, point) triples.

    Each chart gets `draws` blind draws, and draws off its equations are
    dropped; given `attempts`, each chart is drawn from until it has `draws`
    points or `attempts` draws are spent.
    """
    P = projective_cover(alg, top)
    out = []
    for sigma in skeleta_with_dims(P, d):
        pres = chart_equations(P, sigma)
        got = 0
        for _ in range(attempts or draws):
            if got == draws:
                break
            vals = [alg.field.random(rng, 3) for _ in pres.variables]
            try:
                C = coords_to_point(pres, vals)
            except EquationsViolated:
                continue
            out.append((P, sigma, pres, C))
            got += 1
    return out


def test_random_chart_points_inherit_the_skeleton_layering():
    rng = random.Random(0)
    seen = 0
    for name, alg, top, d in CHART_CASES:
        for P, sigma, pres, C in _sample_points(alg, top, d, rng, 8):
            seen += 1
            assert is_grass_point(P, C, d), name
            assert radical_layering(alg, coker_rep(P, C)) == sigma.layering, name
    assert seen >= 100


def test_chart_coordinates_round_trip():
    rng = random.Random(1)
    for name, alg, top, d in CHART_CASES:
        for P, sigma, pres, C in _sample_points(alg, top, d, rng, 3):
            back = point_to_coords(P, sigma, C, pres)
            assert coords_to_point(pres, back).rows == C.rows, name


def test_every_point_skeleton_is_an_enumerated_skeleton():
    rng = random.Random(2)
    for name, alg, top, d in CHART_CASES:
        for P, sigma, pres, C in _sample_points(alg, top, d, rng, 2):
            found = skeleta_of_point(P, C)
            assert sigma in found, name
            allowed = set(skeleta_with_dims(P, d))
            assert set(found) <= allowed, name


# ------------------------------------------- skeleton and relation oracles


def _covers_of_small_tops(field):
    """(name, cover) for every top of total at most 2 over the fixture
    algebras over one field."""
    algebras = [
        ("kronecker", _kronecker(field)),
        ("loop bridge", loop_bridge_over(field)),
        ("star3", star3_over(field)),
        ("cycle flag", cycle_flag_algebra(field)),
        ("double loop", double_loop_algebra(field)),
        ("two loops two arrows", two_loop_two_arrow_algebra(field)),
        ("fork merge", fork_merge_algebra(field)),
    ]
    return [
        (f"{name}/{field} {top}", projective_cover(alg, top))
        for name, alg in algebras
        for top in itertools.product(range(3), repeat=alg.quiver.n)
        if 1 <= sum(top) <= 2
    ]


SMALL_TOP_COVERS = _covers_of_small_tops(QQ)
SMALL_TOP_COVERS_ALL_FIELDS = (
    _covers_of_small_tops(Field(2)) + _covers_of_small_tops(Field(3)) + SMALL_TOP_COVERS
)


@st.composite
def skeleta_of_small_tops(draw, covers=SMALL_TOP_COVERS):
    """A cover from covers and any skeleton of it: each basis element,
    shortest first, may join once its parent path has."""
    name, P = draw(st.sampled_from(covers))
    have = {b for b in P.belems if b[0].length == 0}
    for p, r in sorted(P.belems, key=belem_order(P)):
        parent = (initial(p, p.length - 1, P.alg.quiver), r) if p.length else None
        if parent in have and draw(st.booleans()):
            have.add((p, r))
    return name, P, make_skeleton(P, have)


@given(case=skeleta_of_small_tops())
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chart_relations_match_the_dense_word_products(case):
    name, P, sigma = case
    try:
        pres = chart_equations(P, sigma)
    except UnsupportedAlgebra:
        # a residue that reduces through itself (the merge relation): no chart
        assume(False)
    expected = dense_relation_equations(pres)
    assert [e.terms for e in pres.equations] == [e.terms for e in expected], name


def test_sparse_residues_match_the_dense_chart_oracle():
    # every skeleton of every small-top cover with |P| <= 8, over F2, F3 and
    # Q: the sparse residues are the dense oracle's nonzero entries, the
    # equations and pinned coordinates agree, and the only charts refused
    # are the fork-merge ones whose residues reduce through themselves
    checked = 0
    refused = []
    for name, P in SMALL_TOP_COVERS_ALL_FIELDS:
        if P.total > 8:
            continue
        for d in itertools.product(*(range(m + 1) for m in P.dims)):
            for sigma in skeleta_with_dims(P, d):
                checked += 1
                try:
                    pres = chart_equations(P, sigma)
                except UnsupportedAlgebra:
                    refused.append((name, d))
                    with pytest.raises(UnsupportedAlgebra):
                        dense_chart_residues(P, sigma)
                    continue
                residues, equations, pinned = dense_chart_residues(P, sigma)
                assert list(pres.residues) == list(residues), (name, d)
                for b, row in pres.residues.items():
                    assert all(not e.is_zero() for e in row.values()), (name, d, b)
                    expected = {
                        b2: e.terms for b2, e in zip(sigma.elems, residues[b]) if not e.is_zero()
                    }
                    assert {b2: e.terms for b2, e in row.items()} == expected, (name, d, b)
                assert [e.terms for e in pres.equations] == [e.terms for e in equations], (name, d)
                assert list(pres.pinned) == pinned, (name, d)
    assert checked == 999
    # two charts each of d = (2,2,1) and (2,3,1) for top (2,0,0), per field
    fork = [f"fork merge/{f} (2, 0, 0)" for f in ("F2", "F3", "Q")]
    assert Counter(refused) == {(name, d): 2 for name in fork for d in ((2, 2, 1), (2, 3, 1))}


@st.composite
def chart_points_of_small_tops(draw):
    """A point at drawn coordinates on the chart of a skeleton drawn by
    skeleta_of_small_tops, over F2, F3 or Q."""
    name, P, sigma = draw(skeleta_of_small_tops(SMALL_TOP_COVERS_ALL_FIELDS))
    try:
        pres = chart_equations(P, sigma)
    except UnsupportedAlgebra:
        assume(False)  # the fork-merge charts that do not build yet
    f = P.alg.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    try:
        C = coords_to_point(pres, [draw(scalars) for _ in pres.variables])
    except EquationsViolated:
        assume(False)
    return name, P, sigma, C


@given(case=chart_points_of_small_tops())
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_skeleta_of_point_match_the_rank_filter_oracle(case):
    name, P, sigma, C = case
    found = skeleta_of_point(P, C)
    assert found == skeleta_of_point_oracle(P, C), name
    assert sigma in found, name


def test_skeleton_growers_match_the_brute_force_oracle():
    checked = 0
    for name, P in SMALL_TOP_COVERS:
        if len(P.belems) - P.top.total > 12:
            continue  # the oracle tests 2^(|P| - |top|) subsets
        n = P.alg.quiver.n
        by_dims: dict[tuple, list] = {}
        by_layering: dict[tuple, list] = {}
        for elems in brute_force_skeleta(P):
            rows = [[0] * n for _ in range(P.alg.loewy)]
            for i in elems:
                p = P.belems[i][0]
                rows[p.length][p.end - 1] += 1
            by_dims.setdefault(tuple(map(sum, zip(*rows))), []).append(elems)
            by_layering.setdefault(tuple(map(tuple, rows)), []).append(elems)
        for d in itertools.product(*(range(m + 1) for m in P.dims)):
            got = [s.elems for s in skeleta_with_dims(P, d)]
            assert got == by_dims.get(d, []), (name, d)
        for S, expected in by_layering.items():
            assert [s.elems for s in enumerate_skeleta(P, S)] == expected, (name, S)
            checked += len(expected)
    assert checked >= 1000


# ------------------------------------------------------------ stratum sweeps


@functools.cache
def _sweepable_strata():
    """(name, cover, charts) for every stratum of the F2 and F3 covers of
    small tops with |P| <= 8 whose charts fit the sweep budget. The
    fork-merge strata whose charts raise UnsupportedAlgebra are left out."""
    out = []
    for name, P in SMALL_TOP_COVERS_ALL_FIELDS:
        if not P.alg.field.is_finite or P.total > 8:
            continue
        for d in itertools.product(*(range(m + 1) for m in P.dims)):
            try:
                charts = [chart_equations(P, s) for s in skeleta_with_dims(P, d)]
            except UnsupportedAlgebra:
                continue
            if charts and all(_chart_sweepable(pres, DEFAULT_LIMITS) for pres in charts):
                out.append((f"{name} {d}", P, charts))
    return out


def _triples(points):
    return [(pres.sigma, vals, C.rows) for pres, vals, C in points]


def test_stratum_sweep_matches_the_plain_sweep_oracle():
    for name, P, charts in _sweepable_strata():
        got = stratum_points(charts, DEFAULT_LIMITS)
        expected = plain_stratum_points(charts, DEFAULT_LIMITS)
        assert _triples(got) == _triples(expected), name
    assert len(_sweepable_strata()) >= 250


def _submodules_in_the_radical(P):
    """{C <= JP : C a submodule} by dims of P/C, from the all-subspace
    oracle on JP as a module of its own. Its coordinates at a vertex v are
    those of the RREF rows of JP in the block of v (sub_rep), so a row lifts
    to P as the matching combination of those rows."""
    f = P.alg.field
    rad = arrow_images_span(P.rep, identity(f, P.total))
    JP = sub_rep(P.rep, rad)
    basis = [w for v in P.alg.quiver.vertices for w in rad if any(w[i] for i in P.rep.coords(v))]
    out: dict[tuple, set] = {}
    for rows in brute_force_submodule_spans(JP):
        lifted = []
        for row in rows:
            vec = [f.zero()] * P.total
            for c, w in zip(row, basis):
                vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, w)]
            lifted.append(sparse(f, vec))
        C = submodule_point(P, lifted)
        out.setdefault(C.dims, set()).add(C.rows)
    return out


def test_chart_points_are_the_submodules_in_the_radical():
    # an independent route to each stratum's point set: the union of its
    # chart points, every coordinate tuple tried, is every submodule C of P
    # inside JP with dim P/C = d, over F2 (|P| <= 7) and F3 (|P| <= 6)
    points = 0
    for name, P in SMALL_TOP_COVERS_ALL_FIELDS:
        f = P.alg.field
        if P.total > {2: 7, 3: 6}.get(f.p, 0):
            continue
        expected = _submodules_in_the_radical(P)
        for d in itertools.product(*(range(m + 1) for m in P.dims)):
            got = set()
            for sigma in skeleta_with_dims(P, d):
                pres = chart_equations(P, sigma)
                for vals in itertools.product(f.elements(), repeat=len(pres.variables)):
                    try:
                        got.add(coords_to_point(pres, list(vals)).rows)
                    except EquationsViolated:
                        continue
            assert got == expected.pop(d, set()), (name, d)
            points += len(got)
        assert not expected, name
    assert points >= 690


@st.composite
def bound_presentations(draw, fields=(Field(2), Field(3), QQ), several=True, mixed=False, shorter=False):
    """(quiver, relations, field, max_len) of a small KQ/I: 1 to 3
    vertices, 1 to 4 arrows between drawn vertices, a drawn set of paths of
    length 2 and 3 as monomial relations and, when several is True, at most
    one relation with two or three parallel terms of length 2, none of them
    a monomial relation; the window max_len is 3 or 4. When mixed is True,
    the terms are parallel paths of length 2 or 3, so they may mix lengths.
    When shorter is True, the relation with several terms is always p - q
    for parallel paths p of length 3 and q of length 2, drawn in place of
    the other one."""
    f = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 3))
    ends = st.integers(1, n)
    q = make_quiver(n, [(f"x{i}", draw(ends), draw(ends)) for i in range(draw(st.integers(1, 4)))])
    by_len = enumerate_paths(q, 3)
    paths = by_len[2] + by_len[3]
    parallel: dict[tuple[int, int], list] = {}
    for p in paths if mixed else by_len[2]:
        parallel.setdefault((p.start, p.end), []).append(p)
    groups = [g for g in parallel.values() if len(g) > 1]
    terms = []
    if shorter:
        pairs = [(p, r) for p in by_len[3] for r in by_len[2] if (p.start, p.end) == (r.start, r.end)]
        assume(pairs)
        terms = list(draw(st.sampled_from(pairs)))
    elif several and groups and draw(st.booleans()):
        terms = draw(st.lists(st.sampled_from(draw(st.sampled_from(groups))), min_size=2, max_size=3, unique=True))
    rels = [Element({p: f.one()}) for p in paths if p not in terms and draw(st.booleans())]
    if shorter:
        rels.append(Element({terms[0]: f.one(), terms[1]: f.neg(f.one())}))
    elif terms:
        coeffs = st.sampled_from([c for c in map(f.of_int, (1, 2, -1)) if not f.is_zero(c)])
        rels.append(Element({p: draw(coeffs) for p in terms}))
    return q, rels, f, draw(st.sampled_from((3, 4)))


@st.composite
def bound_algebras(draw, fields=(Field(2), Field(3), QQ), several=True, mixed=False, shorter=False):
    """An algebra of bound_presentations that build_algebra certifies."""
    try:
        return build_algebra(*draw(bound_presentations(fields, several, mixed, shorter)))
    except NotAdmissible:
        assume(False)


def _gl_order(q, n):
    return math.prod(q**n - q**i for i in range(n))


# arrow-matrix tuples the brute force may try per stratum
_REP_TUPLE_BUDGET = 4096


def _reps_with_top(alg, d, top):
    """|Rep^T_d(F_q)|: the tuples of arrow matrices of dimension vector d
    that satisfy the relations and give a module with top T, tried one by
    one; None past _REP_TUPLE_BUDGET tuples."""
    f = alg.field
    arrows = alg.quiver.arrows
    shapes = [(d[a.end - 1], d[a.start - 1]) for a in arrows]
    n = sum(r * c for r, c in shapes)
    if f.p**n > _REP_TUPLE_BUDGET:
        return None
    count = 0
    for entries in itertools.product(f.elements(), repeat=n):
        it = iter(entries)
        mats = {a.label: [[next(it) for _ in range(c)] for _ in range(r)] for a, (r, c) in zip(arrows, shapes)}
        M = rep_of_matrices(alg, d, mats)
        count += rep_validate(alg, M) and top_dims(alg, M) == top
    return count


def _count_both_sides(alg, top):
    """Check the count identity on every stratum of the cover with top T
    whose arrow-matrix tuples fit _REP_TUPLE_BUDGET, and count the strata
    checked by whether they have points.

    Aut(P) acts on GRASS^T_d and GL_d on Rep^T_d, with the isomorphism
    classes of modules with top T and dimension vector d as orbits on both
    sides. Stab(C) maps onto Aut(P/C) with kernel 1 + Hom(P, C) of q^h
    elements, h = sum_r dim e_{v_r} C, so summing orbit sizes gives
    |GRASS| q^h |GL_d| = |Aut P| |Rep^T_d|, where
    |Aut P| = q^dim Hom(P, JP) prod_v |GL_{t_v}|. The left side counts the
    sweep's points, the right side every arrow-matrix tuple."""
    q = alg.field.p
    checked = Counter()
    P = projective_cover(alg, top)
    aut = q ** len(P.endo.unipotent) * math.prod(_gl_order(q, t) for t in top)
    for d in itertools.product(*(range(t, m + 1) for t, m in zip(top, P.dims))):
        reps_count = _reps_with_top(alg, d, top)
        if reps_count is None:
            continue
        charts = [chart_equations(P, sigma) for sigma in skeleta_with_dims(P, d)]
        points = sum(1 for _ in stratum_points(charts, DEFAULT_LIMITS))
        h = sum(P.dims[v - 1] - d[v - 1] for v in P.gens)
        left = points * q**h * math.prod(_gl_order(q, x) for x in d)
        assert left == aut * reps_count, (alg.quiver, alg.relations, q, top, d, points, reps_count)
        checked[points > 0] += 1
    return checked


def test_both_sides_of_the_paper_count_the_same_modules():
    checked = Counter()
    for make in (kronecker_over, loop_bridge_over, two_loop_two_arrow_algebra):
        for q in (2, 3):
            alg = make(Field(q))
            for top in ((1, 0), (2, 0), (1, 1)):
                checked += _count_both_sides(alg, top)
    # 58 strata with points, 10 empty ones with d >= T
    assert checked == Counter({True: 58, False: 10})


@given(alg=bound_algebras(fields=(Field(2), Field(3)), several=False))
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_both_sides_count_the_same_modules_over_random_monomial_algebras(alg):
    # each top S_v, 2 S_v and, with two vertices or more, S_1 + S_2
    n = alg.quiver.n
    tops = [tuple(k * (i == v) for i in range(n)) for k in (1, 2) for v in range(n)]
    tops += [(1, 1) + (0,) * (n - 2)] if n > 1 else []
    checked = Counter()
    for top in tops:
        checked += _count_both_sides(alg, top)
    assert checked[True] > 0


def _closed(quiver, basis) -> bool:
    return all(initial(p, m, quiver) in basis for p in basis for m in range(p.length))


@given(case=st.one_of(bound_presentations(), bound_presentations(mixed=True), bound_presentations(shorter=True)))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_random_algebras_match_the_all_products_elimination(case):
    # the drawn relations are canonical, so the oracle reads them as drawn.
    # Mixed and shorter draws have relations whose terms differ in length;
    # for some of them no product that fits the window reaches a path of
    # the ideal, and the oracle refuses the window or keeps that path in a
    # basis that is not closed under initial subpaths
    quiver, rels, f, max_len = case
    basis, normal_forms, loewy = all_products_algebra(*case)
    try:
        alg = build_algebra(*case)
    except NotAdmissible:
        assert loewy is None
        return
    if loewy is not None and _closed(quiver, basis):
        assert (alg.basis, alg.loewy) == (basis, loewy)
        assert {p: nf_path(alg, p) for p in normal_forms} == normal_forms
        return
    # a new answer. The oracle's rows lie in I, so where its normal forms
    # at some window agree with every table entry a*b, each entry is
    # congruent to a*b modulo I and the basis spans KQ/I. Every relation is
    # zero as a product of the table's dense arrow matrices, so KQ/I acts on
    # the span of the basis, each basis path being the image of its start
    # idempotent: the basis is independent too, and the table is KQ/I. The
    # oracle may keep paths of I at the top of its window, so wider windows
    # reach the entries, whose length is at most the Loewy length
    entries = [extend(b, a) for b in alg.basis for a in quiver.arrows_out(b.end)]
    for wider in range(max_len, max_len + 4):
        forms = all_products_algebra(quiver, rels, f, wider)[1]
        if all(nf_path(alg, p) == forms[p] for p in entries):
            break
    else:
        raise AssertionError("no window up to max_len + 3 gives the oracle the table's entries")
    n = alg.dim
    mats = {a: [[x.get(i, {}).get(j, f.zero()) for i in range(n)] for j in range(n)] for a, x in alg.arrows.items()}
    for rel in alg.relations:
        total = [[f.zero()] * n for _ in range(n)]
        for w, c in rel.terms.items():
            m = functools.reduce(lambda m, label: naive_mat_mul(f, mats[label], m), w.arrows, identity(f, n))
            total = [[f.add(t, f.mul(c, y)) for t, y in zip(rt, rm)] for rt, rm in zip(total, m)]
        assert all(f.is_zero(t) for row in total for t in row), rel.format(f)
    # the Loewy length: the smallest m at which every product of m arrow
    # matrices is zero
    products, loewy = {tuple(map(tuple, identity(f, n)))}, 0
    while products and loewy <= max_len:
        products = {tuple(map(tuple, naive_mat_mul(f, mats[a], m))) for m in products for a in mats}
        products = {m for m in products if not all(f.is_zero(t) for row in m for t in row)}
        loewy += 1
    assert alg.loewy == loewy


@given(alg=bound_algebras(mixed=True))
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_the_length_certificate_matches_the_layering_comparison_on_random_algebras(alg):
    # a relation may mix terms of length 2 and 3, so some draws refuse
    for v in alg.quiver.vertices:
        assert alg.lengths_grade_radical(v) == length_grading_oracle(alg, v), (alg.relations, v)


@given(alg=bound_algebras(mixed=True))
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_the_graded_ideal_rule_matches_the_former_one_on_random_algebras(alg):
    assert alg.is_homogeneous_ideal() == homogeneous_ideal_oracle(alg), alg.relations


def test_the_length_certificate_meets_both_outcomes_on_shorter_terms():
    # a relation p - q with |q| < |p| rewrites p into a shorter path unless
    # the ideal kills both, so the draws reach the refusal as well
    outcomes = Counter()

    @given(alg=bound_algebras(shorter=True))
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def check(alg):
        for v in alg.quiver.vertices:
            graded = alg.lengths_grade_radical(v)
            assert graded == length_grading_oracle(alg, v), (alg.relations, v)
            outcomes[graded] += 1

    check()
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def test_pinned_coordinates_cut_out_the_first_skeleton_cell():
    # a chart point has no nonzero pinned coordinate exactly when the chart's
    # skeleton is the point's first one, found by the skeleton grower
    checked = 0
    for name, P, charts in _sweepable_strata():
        f = P.alg.field
        if not P.alg.is_monomial():
            assert all(pres.pinned == () for pres in charts), name
            continue
        for pres in charts:
            for _, vals, C in plain_stratum_points([pres], DEFAULT_LIMITS):
                in_cell = all(f.is_zero(vals[k]) for k in pres.pinned)
                assert in_cell == (skeleta_of_point(P, C)[0] == pres.sigma), name
                checked += 1
    assert checked >= 5000


# ---------------------------------------------------- submodule sweep oracle

# (arrows, vertices, zero relations, max_len); the window must reach past the
# longest nonzero path, so A3, with b*a nonzero, needs max_len 3
_SUB_SHAPES = {
    "kronecker": ([("a", 1, 2), ("b", 1, 2)], 2, (), 2),
    "a3 path": ([("a", 1, 2), ("b", 2, 3)], 3, (), 3),
    "nil loop": ([("t", 1, 1)], 1, (("t", "t"),), 2),
}


def _small_algebra(draw, fields):
    """One of the _SUB_SHAPES over one of the fields, and the cap on the
    dimension at a vertex of the modules drawn over it."""
    shape = draw(st.sampled_from(sorted(_SUB_SHAPES)))
    arrows, nverts, words, max_len = _SUB_SHAPES[shape]
    f = draw(st.sampled_from(fields))
    q = make_quiver(nverts, arrows)
    return build_algebra(q, monomials(q, words), f, max_len), 2 if words else 3


def _small_rep(draw, alg, cap, d=None):
    f = alg.field
    q = alg.quiver
    lo, hi = (0, f.p - 1) if f.is_finite else (-2, 2)
    if d is None:
        d = draw(
            st.lists(st.integers(0, cap), min_size=len(q.vertices), max_size=len(q.vertices)).filter(
                lambda xs: 1 <= sum(xs) <= 4
            )
        )
    mats = {}
    for a in q.arrows:
        rows, cols = d[a.end - 1], d[a.start - 1]
        mats[a.label] = [
            [f.of_int(draw(st.integers(lo, hi))) for _ in range(cols)]
            for _ in range(rows)
        ]
    M = rep_of_matrices(alg, tuple(d), mats)
    assume(rep_validate(alg, M))
    return M


@st.composite
def small_reps(draw, fields=(Field(2), Field(3))):
    return _small_rep(draw, *_small_algebra(draw, fields))


@st.composite
def small_sums(draw, fields=(Field(2), Field(3))):
    """A direct sum of one to three small modules over one algebra, under a
    random base change, with an End(M) small enough to sweep."""
    alg, cap = _small_algebra(draw, fields)
    M = _small_rep(draw, alg, cap)
    for _ in range(draw(st.integers(0, 2))):
        M = direct_sum(M, _small_rep(draw, alg, cap))
    assume(M.total <= 6 and alg.field.order ** hom_dim(M, M) <= 4096)
    seed = draw(st.integers(0, 2**16))
    return base_change(M, random_group_element(alg.field, M.d, random.Random(seed)))


@given(M=small_reps())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_submodule_sweep_matches_the_all_subspace_oracle(M):
    assert submodule_dim_vectors(M) == brute_force_submodule_dims(M)
    # dimension vectors alone would hide a missed submodule whose dims
    # match one that was found
    keys = [space_key(sp) for sp in submodule_spans(M)]
    assert len(keys) == len(set(keys))
    assert set(keys) == brute_force_submodule_spans(M)


@given(M=small_reps(fields=(Field(2), Field(3), QQ)), data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_vertex_dims_count_the_pivots_of_a_graded_subspace(M, data):
    f = M.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    vecs = []
    for v in M.alg.quiver.vertices:
        o = M.offset(v)
        for _ in range(data.draw(st.integers(0, M.dim_at(v) + 1))):
            w = [f.zero()] * M.total
            w[o : o + M.dim_at(v)] = [data.draw(scalars) for _ in range(M.dim_at(v))]
            vecs.append(w)
    space = span_rref(f, vecs)
    expected = tuple(naive_rank(f, [[w[i] for i in M.coords(v)] for w in space]) for v in M.alg.quiver.vertices)
    assert _vertex_dims(M, space) == expected


def _same_rep(A, B):
    return A.d == B.d and A.mats == B.mats


@given(M=small_reps())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_subquotients_match_the_dense_routes_on_every_submodule(M):
    for space in submodule_spans(M):
        assert _same_rep(sub_rep(M, space), sub_rep_oracle(M, space))
        assert _same_rep(quotient_rep(M, space), quotient_rep_oracle(M, space))


# --------------------------------------------------------- Hom space oracle


@st.composite
def hom_pairs(draw):
    """(M, N) over one small algebra and one of F2, F3 and Q, in either
    order: N is a second small module, M (+) another one, or a module that
    is zero at a drawn vertex."""
    alg, cap = _small_algebra(draw, (Field(2), Field(3), QQ))
    M = _small_rep(draw, alg, cap)
    kind = draw(st.sampled_from(("small", "sum", "zero at a vertex")))
    if kind == "small":
        N = _small_rep(draw, alg, cap)
    elif kind == "sum":
        N = direct_sum(M, _small_rep(draw, alg, cap))
    else:
        zero = draw(st.sampled_from(alg.quiver.vertices))
        N = _small_rep(draw, alg, cap, [0 if v == zero else draw(st.integers(0, cap)) for v in alg.quiver.vertices])
    return (N, M) if draw(st.booleans()) else (M, N)


@given(pair=hom_pairs())
@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_hom_spaces_match_the_dense_oracle(pair):
    # the intertwiner solve on arrow Maps spans Hom(M, N): as many
    # independent graded maps as the dense system's kernel, each commuting
    # with every arrow, and hom_basis writes exactly them out
    M, N = pair
    f = M.field
    maps = reps._hom_maps(M, N)
    assert hom_dim(M, N) == len(maps) == dense_hom_oracle(M, N)
    flat = [[x.get(j, {}).get(i, f.zero()) for j in range(M.total) for i in range(N.total)] for x in maps]
    assert naive_rank(f, flat) == len(maps)
    at_m = _by_vertex(M, range(M.total))
    at_n = _by_vertex(N, range(N.total))
    for x in maps:
        assert all(_zero_free(col) and col for col in x.values())
        assert all(i in at_n[v] for v, js in enumerate(at_m) for j in js for i in x.get(j, {}))
        for a in M.alg.quiver.arrows:
            for j in range(M.total):
                unit = {j: f.one()}
                assert apply(f, x, M.act(a.label, unit)) == N.act(a.label, apply(f, x, unit))
    assert hom_basis(M, N) == [_blocks_of(M, N, x) for x in maps]


# ----------------------------------------------------- Fitting split oracle


@given(M=small_reps(fields=(Field(2), Field(3), QQ)), data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_block_fitting_split_matches_the_global_oracle(M, data):
    f = M.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    basis = reps._hom_maps(M, M)
    units = {j: {j: f.one()} for j in range(M.total)}
    x = combine(f, [data.draw(scalars) for _ in basis] + [f.neg(data.draw(scalars))], basis + [units])
    split = _split_once(M, x)
    got = None if split is None else tuple(piece.rref(M.total) for piece in split)
    assert got == fitting_split_oracle(M, _blocks_of(M, M, x))
    for piece in split or ():
        assert _graded_span(M, piece) is piece  # a submodule, as _pieces reads it


def _blocks_of(M, N, x):
    """The dense vertex blocks of a Map x: M -> N."""
    zero = M.field.zero()
    return {
        v: [
            [x.get(M.offset(v) + t, {}).get(N.offset(v) + i, zero) for t in range(M.dim_at(v))]
            for i in range(N.dim_at(v))
        ]
        for v in M.alg.quiver.vertices
    }


def _top_coords(M):
    """Per vertex, the global coordinates of M off the pivots of the RREF
    of its radical: the names of the top basis vectors."""
    rad = Echelon.of(M.field, arrow_images_span(M, identity(M.field, M.total)))
    return {
        v: [i for i in range(M.offset(v), M.offset(v) + M.dim_at(v)) if i not in rad.rows]
        for v in M.alg.quiver.vertices
    }


@given(M=small_reps(fields=(Field(2), Field(3), QQ)))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_top_maps_match_the_block_oracle(M):
    # the oracle's block at v has a column per top coordinate of M at v and
    # a row per top coordinate of N at v; the Map has a column per top
    # coordinate with a nonzero image, and nothing else
    for N in (M, direct_sum(M, M)):
        cm, cn = _top_coords(M), _top_coords(N)
        for x, blocks in zip(reps._hom_maps(M, N), hom_basis(M, N)):
            expected = {}
            for v, blk in block_top_map_oracle(M, N, blocks).items():
                for c, j in enumerate(cm[v]):
                    if col := {i: row[c] for i, row in zip(cn[v], blk) if row[c] != 0}:
                        expected[j] = col
            assert reps._top_map(M, N, x) == expected


# ------------------------------------------ the split route over every field


def _local_pools(field):
    """(algebra, modules with a simple top): simples, indecomposable
    projectives and, for the Kronecker quiver, the (1,1) points."""
    kronecker = _kronecker(field)
    points = [
        rep_of_matrices(kronecker, (1, 1), {"a1": [[field.of_int(s)]], "a2": [[field.of_int(t)]]})
        for s, t in ((1, 0), (0, 1), (1, 1), (1, -2))
    ]
    pools = []
    for alg, extra in ((kronecker, points), (loop_bridge_over(field), []), (two_loop_two_arrow_algebra(field), [])):
        verts = alg.quiver.vertices
        pools.append((alg, [simple_rep(alg, v) for v in verts] + [rep_of_projective(alg, v) for v in verts] + extra))
    return pools


LOCAL_POOLS = [pool for field in (Field(2), Field(3), QQ) for pool in _local_pools(field)]


@st.composite
def sums_of_locals(draw, pools=LOCAL_POOLS):
    """(algebra, summands, their direct sum under a random base change)."""
    alg, pool = draw(st.sampled_from(pools))
    summands = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    assume(sum(sum(N.d) for N in summands) <= 9)
    M = summands[0]
    for N in summands[1:]:
        M = direct_sum(M, N)
    seed = draw(st.integers(0, 2**16))
    return alg, summands, base_change(M, random_group_element(alg.field, M.d, random.Random(seed)))


@given(case=sums_of_locals())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_the_trace_form_radical_is_a_nil_ideal(case):
    # on a sum of locals the radical of the form tr(pi(x) pi(y)), pi the
    # action on the top, is J in every characteristic: each x in the kernel
    # of its Gram matrix is nilpotent, and so is x*b for every endomorphism b
    _, _, M = case
    f = M.field
    basis = reps._hom_maps(M, M)
    tops = [reps._top_map(M, M, b) for b in basis]
    gram = [[reps._trace(f, a, b) for b in tops] for a in tops]
    for coeffs in kernel_basis(f, gram, len(basis)):
        x = _blocks_of(M, M, combine(f, coeffs, basis))
        for y in [x] + [{v: naive_mat_mul(f, x[v], b[v]) for v in x} for b in hom_basis(M, M)]:
            assert all(naive_is_nilpotent(f, blk) for blk in y.values())


@given(case=sums_of_locals())
@settings(
    max_examples=90,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_rational_decomposition_recovers_a_sum_of_locals(case):
    # every split the route tries on a sum of locals is proper, over Q as
    # over F2 and F3, so it needs one Fitting split per piece
    alg, summands, M = case
    calls = []

    def counting(M, blocks):
        calls.append(M.d)
        return _split_once(M, blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reps, "_split_once", counting)
        pieces = decompose_local(alg, M)
    assert sorted(p.d for p in pieces) == sorted(N.d for N in summands)
    assert len(calls) == len(summands) - 1


@given(M=small_sums())
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_decomposition_matches_the_endomorphism_sweep(M):
    pieces = decompose_local(M.alg, M)
    expected = sum_of_locals_oracle(M)
    if expected is None:
        assert pieces is NotSumOfLocals
    else:
        assert sorted(p.d for p in pieces) == expected


@given(case=sums_of_locals(pools=[pool for pool in LOCAL_POOLS if not pool[0].field.is_finite]))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_subquotients_match_the_dense_routes_on_the_split_pieces_over_q(case):
    # every space the split route cuts a sum of locals over Q into
    alg, summands, M = case
    assume(len(summands) >= 2)
    spans = []
    real = reps._sub

    def recording(N, span):
        spans.append((N, span))
        return real(N, span)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reps, "_sub", recording)
        decompose_local(alg, M)
    assert len(spans) == 2 * (len(summands) - 1)
    for N, span in spans:
        assert _graded_span(N, span) is span
        space = span.rref(N.total)
        assert _same_rep(sub_rep(N, space), sub_rep_oracle(N, space))
        assert _same_rep(quotient_rep(N, space), quotient_rep_oracle(N, space))


# ------------------------------------- isomorphism against the full blocks


@st.composite
def iso_pairs(draw, fields=(Field(2), Field(3), QQ)):
    """(M, N) with M.d == N.d. M is one module drawn as small_reps draws it,
    or a direct sum of up to three as in small_sums; N is M under a random
    base change, or a second draw of the same summand dimension vectors
    summed in the same order. Hom(M, N) is kept small enough for
    iso_oracle to sweep."""
    alg, cap = _small_algebra(draw, fields)
    parts = [_small_rep(draw, alg, cap) for _ in range(draw(st.integers(1, 3)))]
    M = functools.reduce(direct_sum, parts)
    assume(M.total <= 6)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        N = base_change(M, random_group_element(alg.field, M.d, random.Random(seed)))
    else:
        N = functools.reduce(direct_sum, [_small_rep(draw, alg, cap, p.d) for p in parts])
    k = hom_dim(M, N)
    assume(alg.field.order**k <= 1024 if alg.field.is_finite else k <= 8)
    return M, N


@given(pair=iso_pairs())
@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_isomorphism_matches_the_full_block_oracle(pair):
    # without random tries the grid alone must decide
    M, N = pair
    expected = iso_oracle(M, N)
    assert is_isomorphic(M, N) is expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reps, "ISO_TRIES", 0)
        assert is_isomorphic(M, N) is expected


def _jordan_pair(alg, *blocks):
    """The Kronecker module with a1 = 1 and a2 the direct sum of the Jordan
    blocks J_n(lam), given as (n, lam): not a sum of local modules as soon
    as some n >= 2."""
    f = alg.field
    size = sum(n for n, _ in blocks)
    a2 = [[f.zero()] * size for _ in range(size)]
    o = 0
    for n, lam in blocks:
        for i in range(n):
            a2[o + i][o + i] = f.of_int(lam)
            if i + 1 < n:
                a2[o + i][o + i + 1] = f.one()
        o += n
    ident = [[f.one() if i == j else f.zero() for j in range(size)] for i in range(size)]
    return rep_of_matrices(alg, (size, size), {"a1": ident, "a2": a2})


# (blocks of M, blocks of N), N = None for a base change of M
JORDAN_PAIRS = {
    "J2(1)+J2(0)": (((2, 1), (2, 0)), None),
    "J2(1)+J2(0) / J2(1)+J2(2)": (((2, 1), (2, 0)), ((2, 1), (2, 2))),
    "J3(1)+J3(1)": (((3, 1), (3, 1)), None),
    "J3+J2+J1": (((3, 0), (2, 0), (1, 0)), None),
    "J3+J3 / J3+J2+J1": (((3, 0), (3, 0)), ((3, 0), (2, 0), (1, 0))),
    "J2+J2 / J2+J1+J1": (((2, 0), (2, 0)), ((2, 0), (1, 0), (1, 0))),
}


def _jordan_cases():
    """Every pair over Q, and over F2 and F3 the pairs whose Hom(M, N)
    iso_oracle sweeps in at most 256 maps."""
    for field in (Field(2), Field(3), QQ):
        alg = _kronecker(field)
        for name, (mb, nb) in JORDAN_PAIRS.items():
            M = _jordan_pair(alg, *mb)
            if nb is None:
                N = base_change(M, random_group_element(field, M.d, random.Random(len(name))))
            else:
                N = _jordan_pair(alg, *nb)
            if not field.is_finite or field.order ** hom_dim(M, N) <= 256:
                yield pytest.param(M, N, id=f"{name}/{field}")


@pytest.mark.parametrize("M, N", _jordan_cases())
def test_isomorphism_of_jordan_modules_matches_the_full_block_oracle(M, N):
    assert decompose_local(M.alg, M) is NotSumOfLocals
    assert decompose_local(N.alg, N) is NotSumOfLocals
    assert is_isomorphic(M, N) is iso_oracle(M, N)


_SMALL_ROOTS = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})
# x^2 + 1, x^2 - 2, x^2 + x + 1 and x^3 - 2, low degree first: no rational root
_NO_ROOT = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1))


def _poly_mul(u, w):
    out = [Fraction(0)] * (len(u) + len(w) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(w):
            out[i + j] += x * y
    return out


@given(
    roots=st.lists(st.sampled_from(_SMALL_ROOTS), max_size=3),
    others=st.lists(st.sampled_from(_NO_ROOT), max_size=2),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_rational_root_is_a_root_and_none_only_without_one(roots, others):
    # repeated linear factors give double roots, which Sturm counts once
    assume(roots or others)
    mu = [Fraction(1)]
    for factor in [(-r, 1) for r in roots] + others:
        mu = _poly_mul(mu, [Fraction(c) for c in factor])
    got = reps._rational_root(mu)
    assert (got in roots) if roots else (got is None)


@given(M=small_reps(fields=(Field(2), Field(3), QQ)), data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_arrow_action_matches_the_dense_product(M, data):
    f = M.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    vec = [data.draw(scalars) for _ in range(M.total)]
    for a in M.alg.quiver.arrows:
        expected = [f.zero()] * M.total
        o = M.offset(a.end)
        for i, x in enumerate(naive_mat_vec(f, M.mats[a.label], [vec[i] for i in M.coords(a.start)])):
            expected[o + i] = x
        assert M.act(a.label, sparse(f, vec)) == sparse(f, expected)


# ------------------------------------------------- sparse sums store no zero


def _zero_free(row):
    return all(x != 0 for x in row.values())


@given(M=small_reps(fields=(Field(2), Field(3), QQ)), data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_arrow_images_and_residues_store_no_zero(M, data):
    f = M.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    vec, other = (sparse(f, [data.draw(scalars) for _ in range(M.total)]) for _ in range(2))
    images = [M.act(a.label, w) for a in M.alg.quiver.arrows for w in (vec, other)]
    assert all(map(_zero_free, images))
    span = Echelon(f, images + [vec])
    assert all(_zero_free(span.reduce(w)) for w in images + [vec, other])


def _fork_split_algebra(field):
    """Arrows u: 1 -> 2 and x, y: 2 -> 3 with x*u = y*u: the endomorphism
    z2 -> u*z1 of P1 + P2 maps both x*z2 and y*z2 onto x*u*z1."""
    q = make_quiver(3, [("u", 1, 2), ("x", 2, 3), ("y", 2, 3)])
    return build_algebra(q, [rel(q, (1, ["x", "u"]), (-1, ["y", "u"]))], field, 3)


# two-term relations on either side of a path, and a monomial one
_ZERO_FREE_ALGEBRAS = [
    make(f)
    for make in (fork_merge_algebra, _fork_split_algebra, loop_bridge_over)
    for f in (Field(2), Field(3), QQ)
]
_ZERO_FREE_COVERS = [
    projective_cover(alg, top)
    for alg in _ZERO_FREE_ALGEBRAS
    for top in itertools.product(range(3), repeat=alg.quiver.n)
    if 1 <= sum(top) <= 2
]


def test_endomorphism_images_store_no_zero():
    # a cancellation is a difference of two terms: of two basis vectors
    # under one basis endomorphism, or of two basis endomorphisms
    for P in _ZERO_FREE_COVERS:
        f, endo = P.alg.field, P.endo
        one, minus_one = f.one(), f.neg(f.one())
        for i, k in itertools.combinations(range(len(P.belems)), 2):
            for j in range(endo.dim):
                assert _zero_free(endo.apply(j, {i: one, k: minus_one}))
        for i, k in itertools.combinations(range(endo.dim), 2):
            coeffs = [one if j == i else minus_one if j == k else f.zero() for j in range(endo.dim)]
            for b in range(len(P.belems)):
                assert _zero_free(apply(f, combine(f, coeffs, endo.images), {b: one}))


@given(alg=st.sampled_from(_ZERO_FREE_ALGEBRAS), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_normal_forms_products_and_polynomials_store_no_zero(alg, data):
    f = alg.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    paths = [p for layer in enumerate_paths(alg.quiver, alg.max_len) for p in layer]

    def element():
        return Element({p: c for p in paths if (c := data.draw(scalars)) != 0})

    x, y = element(), element()
    assert _zero_free(normal_form(alg, x).terms)
    assert _zero_free(algebra_mul(alg, x, y).terms) and _zero_free(algebra_mul(alg, y, x).terms)
    ring = PolyRing(f, ["s", "t"])

    def poly():
        monos = itertools.product(range(3), repeat=2)
        return Poly(ring, {m: c for m in monos if (c := data.draw(scalars)) != 0})

    g, h = poly(), poly()
    assert all(_zero_free(e.terms) for e in (g + h, g - h, g * h, (g + h) * (g - h)))


# ------------------------------------------------------ base-change invariance


@given(M=small_reps(), seed=st.integers(0, 2**16))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_everything_in_sight_is_base_change_invariant(M, seed):
    g = random_group_element(M.field, M.d, random.Random(seed))
    N = base_change(M, g)
    assert is_isomorphic(M, N)
    assert radical_layering(M.alg, N) == radical_layering(M.alg, M)
    assert hom_dim(N, N) == hom_dim(M, M)
    assert submodule_dim_vectors(N) == submodule_dim_vectors(M)
    theta = local_top_weight(1, M.d)
    assert classify_stability(N, theta) == classify_stability(M, theta)


# ------------------------------------------------- charts of squarefree tops

SQUAREFREE_CASES = [
    ("loop bridge/Q", loop_bridge_over(QQ), (1, 0), (2, 1)),
    ("two loops two arrows/Q", two_loop_two_arrow_algebra(QQ), (1, 0), (2, 2)),
    ("star3/Q", star3_over(QQ), (1, 0, 0), (1, 1, 1)),
]


def test_charts_of_squarefree_tops_absorb_automorphisms():
    rng = random.Random(3)
    checked = 0
    for name, alg, top, d in SQUAREFREE_CASES:
        f = alg.field
        endo = None
        for P, sigma, pres, C in _sample_points(alg, top, d, rng, 3):
            if endo is None:
                endo = endo_space(P)
            before = {sk.elems for sk in skeleta_of_point(P, C)}
            for _ in range(3):
                coeffs = [f.random(rng, 2) for _ in range(endo.dim)]
                try:
                    moved = apply_auto(P, coeffs, C, endo)
                except ValueError:
                    continue
                assert {sk.elems for sk in skeleta_of_point(P, moved)} == before, name
                checked += 1
    assert checked >= 30


# ------------------------------------------------------- limits and verdicts


def test_one_param_limits_are_points_above_in_the_hom_order():
    rng = random.Random(4)
    cases = [
        ("loop bridge/Q", loop_bridge_over(QQ), (1, 0), (2, 1)),
        ("two loops two arrows/Q", two_loop_two_arrow_algebra(QQ), (1, 0), (2, 2)),
    ]
    checked = 0
    for name, alg, top, d in cases:
        f = alg.field
        endo = None
        # four two_loop charts carry c1 = 0, which blind draws rarely hit
        for P, sigma, pres, C in _sample_points(alg, top, d, rng, 3, attempts=50):
            if endo is None:
                endo = endo_space(P)
            coeffs = [f.zero()] * endo.dim
            for j in endo.unipotent:
                coeffs[j] = f.random(rng, 2)
            lim = one_param_limit(P, C, coeffs, endo)
            assert is_grass_point(P, lim, d), name
            assert one_param_limit(P, lim, coeffs, endo).rows == lim.rows, name
            assert hom_order_leq(coker_rep(P, C), coker_rep(P, lim)), name
            checked += 1
    assert checked >= 20


def test_degeneration_verdict_is_constant_on_orbits():
    rng = random.Random(5)
    alg = loop_bridge_over(QQ)
    q = alg.quiver
    P = projective_cover(alg, (1, 0))
    endo = endo_space(P)
    for labels in (["b"], ["b", "a"]):
        C = point_from_generators(P, [(rel(q, (1, labels)), 0)])
        verdict = no_proper_topstable_deg(alg, P, C)
        moves = 0
        while moves < 5:
            coeffs = [QQ.random(rng, 2) for _ in range(endo.dim)]
            try:
                moved = apply_auto(P, coeffs, C, endo)
            except ValueError:
                continue
            moves += 1
            assert no_proper_topstable_deg(alg, P, moved).holds == verdict.holds


# ------------------------------------------ hom dimensions and orbits from (P, C)


@functools.cache
def _verdict_charts():
    """(name, cover, chart) for strata with simple and non-simple tops over
    F2, F3 and Q."""
    cases = [
        ("kronecker/F2", _kronecker(Field(2)), (1, 0), (1, 1)),
        ("kronecker/F2", _kronecker(Field(2)), (2, 0), (2, 2)),
        ("kronecker/F3", _kronecker(Field(3)), (2, 0), (2, 3)),
        ("loop bridge/F3", loop_bridge_over(Field(3)), (1, 0), (2, 1)),
        ("loop bridge/F2", loop_bridge_over(Field(2)), (2, 0), (4, 1)),
        ("loop bridge/Q", loop_bridge_over(QQ), (1, 1), (2, 1)),
        ("loop bridge/Q", loop_bridge_over(QQ), (2, 0), (4, 2)),
        ("two loops two arrows/Q", two_loop_two_arrow_algebra(QQ), (1, 0), (2, 2)),
        ("double loop/F3", double_loop_algebra(Field(3)), (1, 0), (2, 1)),
    ]
    out = []
    for name, alg, top, d in cases:
        P = projective_cover(alg, top)
        out += [(f"{name} {top} {d}", P, chart_equations(P, s)) for s in skeleta_with_dims(P, d)]
    return out


@st.composite
def chart_points(draw):
    """A point of one of _verdict_charts() at drawn coordinates."""
    name, P, pres = draw(st.sampled_from(_verdict_charts()))
    f = P.alg.field
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    vals = [draw(scalars) for _ in pres.variables]
    try:
        C = coords_to_point(pres, vals)
    except EquationsViolated:
        assume(False)
    return name, P, C


@given(case=chart_points(), data=st.data())
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_one_param_limits_match_the_dense_oracle(case, data):
    _, P, C = case
    f = P.alg.field
    endo = P.endo
    scalars = st.sampled_from(f.elements()) if f.is_finite else st.integers(-2, 2).map(f.of_int)
    coeffs = [f.zero()] * endo.dim
    for j in endo.unipotent:
        coeffs[j] = data.draw(scalars)
    assert one_param_limit(P, C, coeffs, endo).rows == dense_limit_oracle(P, C, coeffs, endo.elems)


def _verdict_by_the_quotient_route(P, C):
    """The closed-orbit verdict from M = P/C itself: its local summands by
    decompose_local, condition (i) by presentation kernels (chain_oracle)
    and condition (ii) by solving for both Hom spaces."""
    alg = P.alg
    pieces = decompose_local(alg, coker_rep(P, C))
    if pieces is NotSumOfLocals:
        return DegenerationVerdict(False, "module is not a direct sum of local modules")
    kernel_dims, v = chain_oracle(alg, pieces)
    if v is not None:
        return DegenerationVerdict(
            False,
            f"presentation kernels at vertex {v} are not comparable: "
            f"no top-preserving epimorphism chains the summands",
            kernel_dims,
        )
    hp, hm = radical_hom_dims_oracle(P, C)
    if hp != hm:
        return DegenerationVerdict(
            False,
            f"radical receives {hp} independent homomorphisms from the cover "
            f"but only {hm} from the module",
            kernel_dims,
            (hp, hm),
        )
    return DegenerationVerdict(
        True,
        "local summands chain under top-preserving epimorphisms and the "
        "radical hom-dimensions agree",
        kernel_dims,
        (hp, hm),
    )


def _block_pieces_match_the_split_route(P, C):
    """For C in the generator blocks, its block pieces P_r/C_r are the
    local summands decompose_local finds on P/C, as a multiset up to
    isomorphism. Returns whether C lay in the blocks."""
    pieces = _block_pieces(P, C)
    if pieces is None:
        return False
    split = decompose_local(P.alg, coker_rep(P, C))
    assert split is not NotSumOfLocals
    left = list(split)
    for piece in pieces:
        same = [j for j, other in enumerate(left) if is_isomorphic(piece, other) is True]
        assert same
        del left[same[0]]
    assert not left
    return True


_CHART_POINT_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@given(case=chart_points())
@_CHART_POINT_SETTINGS
def test_verdict_hom_dims_match_the_quotient_route(case):
    name, P, C = case
    hp, hm = radical_hom_dims_oracle(P, C)
    # condition (ii) of the closed-orbit test: the unipotent orbit is a point
    assert hp - hm == orbit_dims(P, C).unipotent, name
    assert no_proper_topstable_deg(P.alg, P, C) == _verdict_by_the_quotient_route(P, C), name


@given(case=chart_points())
@_CHART_POINT_SETTINGS
def test_block_pieces_match_the_split_route_on_chart_points(case):
    name, P, C = case
    if not P.top.simple:
        _block_pieces_match_the_split_route(P, C)
    assert no_proper_topstable_deg(P.alg, P, C) == _verdict_by_the_quotient_route(P, C), name


def test_block_pieces_match_the_split_route_on_the_sweep_strata():
    # every point of the sweep-fq strata; the counts are of the points that
    # condition (ii) keeps, which a sweep-fq round hands to the verdict
    routes = Counter()
    for i, case in enumerate(SWEEP_FQ_STRATA):
        _, P, _, points = sweep_fq_stratum(i)
        endo = P.endo
        for C in points:
            assert no_proper_topstable_deg(P.alg, P, C) == _verdict_by_the_quotient_route(P, C), case
            if P.top.simple:
                continue
            route = "blocks" if _block_pieces_match_the_split_route(P, C) else "split"
            routes[route, not any(_stab_residues(P, C, endo, endo.unipotent))] += 1
    assert routes == Counter(
        {("blocks", True): 92, ("split", True): 122, ("blocks", False): 68, ("split", False): 12}
    )


@given(case=chart_points())
@_CHART_POINT_SETTINGS
def test_orbit_dims_match_the_dense_oracle(case):
    name, P, C = case
    endo = P.endo
    od = orbit_dims(P, C)
    for got, subset in (
        (od.aut, range(endo.dim)),
        (od.unipotent, endo.unipotent),
        (od.graded, endo.degree0),
    ):
        assert got == naive_orbit_dim(P, C, [endo.elems[j] for j in subset]), name


@given(case=chart_points())
@_CHART_POINT_SETTINGS
def test_cokernels_match_the_dense_quotient_and_layering(case):
    name, P, C = case
    M = coker_rep(P, C)
    assert _same_rep(M, quotient_rep_oracle(P.rep, [list(r) for r in C.rows])), name
    assert radical_layering(P.alg, M) == radical_layering_oracle(P.alg, M), name


def _all_chart_points(pres):
    """Every point of a chart over F_q; over Q, those at coordinates in
    {-1, 0, 1}."""
    f = pres.cover.alg.field
    scalars = f.elements() if f.is_finite else [f.of_int(k) for k in (-1, 0, 1)]
    points = []
    for vals in itertools.product(scalars, repeat=len(pres.variables)):
        try:
            points.append(coords_to_point(pres, list(vals)))
        except EquationsViolated:
            continue
    return points


def test_the_condition_ii_filter_keeps_what_the_full_verdicts_keep():
    # maximal_topdeg_candidates drops a point that Hom(P, JP) moves before
    # splitting it; the old sweep gave every point its full verdict
    cases = []
    for name, P, charts in _sweepable_strata():
        points = [C for _, _, C in stratum_points(charts, DEFAULT_LIMITS)]
        cases.append((name, P, charts[0].dims, points, True))
    cases += [(name, P, pres.dims, _all_chart_points(pres), False) for name, P, pres in _verdict_charts()]
    moved = Counter()
    for name, P, d, points, swept in cases:
        got = maximal_topdeg_candidates(P.alg, P, d, candidates=None if swept else points)
        verdicts = closed_orbit_verdicts(P, points)
        assert [(c.point, c.verdict) for c in got] == [(C, v) for C, v in verdicts if v.holds], name
        endo = P.endo
        for C, verdict in verdicts:
            if verdict.hom_dims is not None:
                hp, hm = verdict.hom_dims
                assert any(_stab_residues(P, C, endo, endo.unipotent)) == (hp != hm), name
                moved[hp != hm] += 1
    # (ii) is reached on 3,022 points: 1,167 are moved and 1,855 are not
    assert moved[True] >= 1000 and moved[False] >= 1500


def test_socle_verdict_matches_the_socle_dimensions():
    # for a simple top S_v, moduli_report's socle test must hold exactly
    # when e_v JP and e_v soc(JP) have the same dimension
    fine = []
    for field in (Field(2), Field(3), QQ):
        for alg in (
            _kronecker(field),
            loop_bridge_over(field),
            star3_over(field),
            cycle_flag_algebra(field),
            double_loop_algebra(field),
            two_loop_two_arrow_algebra(field),
        ):
            for v in alg.quiver.vertices:
                top = tuple(int(u == v) for u in alg.quiver.vertices)
                jp, soc = socle_dims_oracle(projective_cover(alg, top))
                reason = moduli_report(alg, top, 0).reason
                assert ("socle" in reason) == (jp[v - 1] == soc[v - 1]), (alg, v)
                if "socle" in reason:
                    assert f"(dim {jp[v - 1]} = {soc[v - 1]} at vertex {v})" in reason
                fine.append("socle" in reason)
    assert (len(fine), sum(fine)) == (42, 33)


# ------------------------------------------------------------- document texts

_LB_HEADER = (
    "quiver { vertices: 1 2; arrows: a: 1 -> 1, b: 1 -> 2; }\n"
    "algebra { field: Q; max_len: 3; relations: [1*a*a]; }\n"
    "top { mult: (1, 0); }\n"
)
_LB_PATHS = (("a", ["a"]), ("b", ["b"]), ("b*a", ["b", "a"]))


@given(coeffs=st.lists(st.integers(-5, 5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_document_points_agree_with_library_points(coeffs):
    assume(any(coeffs))
    parts = []
    for c, (text, _) in zip(coeffs, _LB_PATHS):
        if c == 0:
            continue
        if not parts:
            parts.append(f"{c}*{text}" if c > 0 else f"-{-c}*{text}")
        else:
            parts.append((" + " if c > 0 else " - ") + f"{abs(c)}*{text}")
    doc_text = _LB_HEADER + "point { generators: [(" + "".join(parts) + ").z1]; }\n"
    doc = parse_input(doc_text)
    assert parse_input(render_document(doc)) == doc

    alg = loop_bridge_over(QQ)
    P = projective_cover(alg, doc.top)
    fromdoc = doc_point(P, doc.points[0])
    gen = rel(alg.quiver, *[(c, labels) for c, (_, labels) in zip(coeffs, _LB_PATHS) if c])
    assert fromdoc.rows == point_from_generators(P, [(gen, 0)]).rows
