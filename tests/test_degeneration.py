"""Top-stable degenerations: the closed-orbit criterion, explicit
one-parameter limits, the hom order, and finite-field maximality sweeps."""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest

from quivermoduli import Element, Field, QQ, Unknown, degeneration, grass, reps
from quivermoduli.config import DEFAULT_LIMITS, SearchLimits
from quivermoduli.degeneration import (
    hom_order_leq,
    maximal_topdeg_candidates,
    no_proper_topstable_deg,
    one_param_limit,
)
from quivermoduli.errors import (
    DimensionMismatch,
    NotNilpotentDirection,
    NotSubmodule,
    SearchTooLarge,
    TopMismatch,
)
from quivermoduli.grass import (
    chart_equations,
    coker_rep,
    endo_space,
    is_grass_point,
    moduli_report,
    point_from_generators,
    projective_cover,
    skeleta_with_dims,
    stratum_points,
    submodule_point,
)
from quivermoduli.quiver import idempotent
from conftest import (
    double_loop_algebra,
    kronecker3_over,
    kronecker_over,
    loop_bridge_over,
    rel,
    star3_over,
    two_loop_two_arrow_algebra,
)
from oracles import rep_of_projective


def endo_index(endo, desc):
    for j in range(len(endo.elems)):
        if endo.describe(j) == desc:
            return j
    raise KeyError(desc)


def bridge_points(alg):
    """The cyclic cover at vertex 1 with the two radical points of the
    (2, 1) stratum: span(b) and span(b*a)."""
    q = alg.quiver
    P = projective_cover(alg, (1, 0))
    Cb = point_from_generators(P, [(rel(q, (1, ["b"])), 0)])
    Cba = point_from_generators(P, [(rel(q, (1, ["b", "a"])), 0)])
    return P, Cb, Cba


def direction(endo, desc):
    """Coefficient vector picking out a single named endomorphism."""
    coeffs = [0] * len(endo.elems)
    coeffs[endo_index(endo, desc)] = 1
    return coeffs


# -- the closed-orbit criterion ------------------------------------------------


def test_socle_point_admits_no_proper_degeneration(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    verdict = no_proper_topstable_deg(loop_bridge, P, Cba)
    assert verdict.holds is True
    assert bool(verdict)
    assert verdict.reason == (
        "local summands chain under top-preserving epimorphisms and the "
        "radical hom-dimensions agree"
    )
    assert verdict.hom_dims == (1, 1)
    assert verdict.kernel_dims == ((1, (1,)),)


def test_radical_hom_count_detects_a_degeneration(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    verdict = no_proper_topstable_deg(loop_bridge, P, Cb)
    assert verdict.holds is False
    assert not bool(verdict)
    assert verdict.reason == (
        "radical receives 1 independent homomorphisms from the cover "
        "but only 0 from the module"
    )
    assert verdict.hom_dims == (1, 0)


def test_incomparable_presentation_kernels(kronecker):
    q = kronecker.quiver
    P = projective_cover(kronecker, (2, 0))
    C = point_from_generators(
        P, [(rel(q, (1, ["a1"])), 0), (rel(q, (1, ["a2"])), 1)]
    )
    verdict = no_proper_topstable_deg(kronecker, P, C)
    assert verdict.holds is False
    assert verdict.reason == (
        "presentation kernels at vertex 1 are not comparable: "
        "no top-preserving epimorphism chains the summands"
    )


def _radical_reads(monkeypatch, alg, P, C):
    """Run the verdict on a kronecker point whose two pieces do not chain,
    and return, per piece whose top vertex the verdict read, the radicals
    handed out for it."""
    returned = {}
    real_radical, real_top = reps._radical, degeneration._top

    def recording(M):
        rad = real_radical(M)
        returned.setdefault(id(M), (M, []))[1].append(rad)
        return rad

    tops = []
    monkeypatch.setattr(reps, "_radical", recording)
    monkeypatch.setattr(degeneration, "_top", lambda piece: tops.append(piece) or real_top(piece))
    assert no_proper_topstable_deg(alg, P, C).holds is False
    assert len(tops) == 2
    return [returned[id(piece)][1] for piece in tops]


def test_a_non_simple_top_verdict_builds_one_radical_per_piece(monkeypatch, kronecker):
    # every reader of a piece's radical gets the same Echelon: the verdict
    # reads the piece's top vertex and top maps off one Echelon. The point
    # lies in the generator blocks, so its pieces come from them
    q = kronecker.quiver
    P = projective_cover(kronecker, (2, 0))
    C = point_from_generators(P, [(rel(q, (1, ["a1"])), 0), (rel(q, (1, ["a2"])), 1)])
    for rads in _radical_reads(monkeypatch, kronecker, P, C):
        assert all(rad is rads[0] for rad in rads)


def test_the_split_route_builds_one_radical_per_piece(monkeypatch, kronecker):
    # the automorphism z2 -> z2 + z1 of P moves span(a1*z1, a2*z2) off the
    # generator blocks, so the split route builds each piece's radical, and
    # the verdict reads the same Echelon again instead of building it
    q = kronecker.quiver
    P = projective_cover(kronecker, (2, 0))
    C = point_from_generators(
        P, [(rel(q, (1, ["a1"])), 0), [(rel(q, (1, ["a2"])), 1), (rel(q, (1, ["a2"])), 0)]]
    )
    for rads in _radical_reads(monkeypatch, kronecker, P, C):
        # asked by reps._pieces and degeneration._top, and by the top maps
        # when some map between the pieces exists
        assert len(rads) >= 2
        assert all(rad is rads[0] for rad in rads)


def test_quotient_must_share_the_cover_top(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    whole = point_from_generators(P, [(Element({idempotent(1): QQ.one()}), 0)])
    with pytest.raises(TopMismatch) as err:
        no_proper_topstable_deg(loop_bridge, P, whole)
    assert str(err.value) == "quotient has top (0, 0), cover was built for (1, 0)"


def test_simple_top_refuses_a_subspace_that_is_not_a_submodule(loop_bridge):
    # span(a*z1) misses b*a*z1, its image under b
    P = projective_cover(loop_bridge, (1, 0))
    a = next(b for b in P.belems if b[0].arrows == ("a",))
    C = submodule_point(P, [{P.index[a]: QQ.one()}])
    with pytest.raises(NotSubmodule) as err:
        no_proper_topstable_deg(loop_bridge, P, C)
    assert str(err.value) == "subspace is not stable under the arrow action"


def _moved(P, C):
    """Does some map P -> JP move C? Then condition (ii) would drop C."""
    endo = P.endo
    return any(grass._stab_residues(P, C, endo, endo.unipotent))


def test_the_sweep_refuses_a_candidate_that_is_not_a_submodule(loop_bridge):
    # condition (ii) goes first in the sweep, but after the refusals of the
    # verdict, with the verdict's messages; span(a*z1 + b*z1) is not even
    # graded, and z1 -> a*z1 moves it, so a filter run first would drop it
    P = projective_cover(loop_bridge, (1, 0))
    a, b = ({P.index[x]: QQ.one()} for x in P.belems if x[0].length == 1)
    mixed = submodule_point(P, [a | b])
    assert _moved(P, mixed)
    cases = [
        (submodule_point(P, [a]), "subspace is not stable under the arrow action"),
        (mixed, "subspace is not graded by the vertices"),
    ]
    for C, message in cases:
        for run in (
            lambda: no_proper_topstable_deg(loop_bridge, P, C),
            lambda: maximal_topdeg_candidates(loop_bridge, P, C.dims, candidates=[C]),
        ):
            with pytest.raises(NotSubmodule) as err:
                run()
            assert str(err.value) == message


def test_the_sweep_refuses_a_candidate_outside_the_radical(loop_bridge):
    e1 = Element({idempotent(1): QQ.one()})
    P = projective_cover(loop_bridge, (1, 0))
    whole = point_from_generators(P, [(e1, 0)])
    # z1 -> a*z2 moves the first copy Lambda*z1 of the cover of S1^2
    P2 = projective_cover(loop_bridge, (2, 0))
    first = point_from_generators(P2, [(e1, 0)])
    assert _moved(P2, first)
    cases = [
        (P, whole, "quotient has top (0, 0), cover was built for (1, 0)"),
        (P2, first, "quotient has top (1, 0), cover was built for (2, 0)"),
    ]
    for cover, C, message in cases:
        for run in (
            lambda: no_proper_topstable_deg(loop_bridge, cover, C),
            lambda: maximal_topdeg_candidates(loop_bridge, cover, C.dims, candidates=[C]),
        ):
            with pytest.raises(TopMismatch) as err:
                run()
            assert str(err.value) == message


def test_simple_top_verdict_builds_no_quotient(monkeypatch, loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    built = []
    monkeypatch.setattr(
        degeneration, "coker_rep", lambda P, C: built.append(C) or coker_rep(P, C)
    )
    assert no_proper_topstable_deg(loop_bridge, P, Cb).hom_dims == (1, 0)
    assert no_proper_topstable_deg(loop_bridge, P, Cba).hom_dims == (1, 1)
    assert built == []


@pytest.mark.parametrize(
    "alg, top, d",
    [(loop_bridge_over(Field(3)), (1, 0), (2, 1)), (kronecker_over(Field(2)), (2, 0), (2, 2))],
    ids=["loop bridge/F3", "kronecker/F2"],
)
def test_a_sweep_builds_the_endomorphisms_of_its_cover_once(monkeypatch, alg, top, d):
    # count the spaces endo_space builds, whichever binding of it is called
    built = []
    real = grass.EndoSpace

    def counting(P, *fields):
        built.append(P)
        return real(P, *fields)

    monkeypatch.setattr(grass, "EndoSpace", counting)
    P = projective_cover(alg, top)
    base = maximal_topdeg_candidates(alg, P, d)[0].point
    found = maximal_topdeg_candidates(alg, P, d, base=base)
    assert len(found) >= 1
    assert built == [P]


# -- one-parameter limits -----------------------------------------------------


def test_limit_along_a_radical_shift(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    endo = endo_space(P)
    lim = one_param_limit(P, Cb, direction(endo, "z1 -> a*z1"), endo)
    assert lim.rows == Cba.rows
    assert lim.dims == Cb.dims


def test_limit_is_idempotent(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    endo = endo_space(P)
    coeffs = direction(endo, "z1 -> a*z1")
    lim1 = one_param_limit(P, Cb, coeffs, endo)
    lim2 = one_param_limit(P, lim1, coeffs, endo)
    assert lim1.rows == lim2.rows


def test_stabilizing_direction_returns_the_same_point(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    endo = endo_space(P)
    lim = one_param_limit(P, Cba, direction(endo, "z1 -> a*z1"), endo)
    assert lim.rows == Cba.rows


def test_limit_directions_must_be_nilpotent(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    endo = endo_space(P)
    with pytest.raises(NotNilpotentDirection) as err:
        one_param_limit(P, Cb, direction(endo, "z1 -> z1"), endo)
    assert "degree-zero component z1 -> z1" in str(err.value)


def test_limit_coefficient_count(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    with pytest.raises(DimensionMismatch):
        one_param_limit(P, Cb, [1])


# -- the hom order ------------------------------------------------------------


def test_hom_order_along_the_limit(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    Mb = coker_rep(P, Cb)
    Mba = coker_rep(P, Cba)
    assert hom_order_leq(Mb, Mba) is True
    assert hom_order_leq(Mba, Mb) is False
    with pytest.raises(DimensionMismatch):
        hom_order_leq(Mb, rep_of_projective(loop_bridge, 1))


def test_the_hom_order_needs_no_projective_test_module():
    # dim Hom(Lambda*e_v, X) = dim e_v*X (Yoneda), the same for M and N of
    # one d, so the projectives the hom order once tested never decide it:
    # on the first points of each sweep-fq stratum, the default test list
    # (simples, M and N) answers as the list with the projectives does
    answers = Counter()
    for i in range(len(SWEEP_FQ_STRATA)):
        alg, P, _, points = sweep_fq_stratum(i)
        verts = alg.quiver.vertices
        projectives = [rep_of_projective(alg, v) for v in verts]
        mods = [coker_rep(P, C) for C in points[:6]]
        for M, N in itertools.product(mods, repeat=2):
            old = projectives + [reps.simple_rep(alg, v) for v in verts] + [M, N]
            assert hom_order_leq(M, N) == hom_order_leq(M, N, old), SWEEP_FQ_STRATA[i]
            answers[hom_order_leq(M, N)] += 1
        assert all(reps.hom_dim(X, M) == M.d[v - 1] for X, v in zip(projectives, verts) for M in mods)
    assert answers[True] and answers[False]


# -- finite-field sweeps ------------------------------------------------------


def test_sweep_finds_the_unique_maximal_point():
    alg = loop_bridge_over(Field(3))
    P, Cb, Cba = bridge_points(alg)
    cands = maximal_topdeg_candidates(alg, P, (2, 1), base=Cb)
    assert len(cands) == 1
    assert cands[0].point.rows == Cba.rows
    assert cands[0].verdict.holds is True
    assert cands[0].witness == "z1 -> a*z1"


def test_generic_stratum_has_only_maximal_points(kronecker_f3):
    P = projective_cover(kronecker_f3, (1, 0))
    cands = maximal_topdeg_candidates(kronecker_f3, P, (1, 1))
    assert len(cands) == 4
    assert all(c.verdict.holds is True for c in cands)
    assert len({c.point.rows for c in cands}) == 4


def test_sweep_refuses_an_over_budget_stratum_before_sweeping(monkeypatch):
    # the (2, 1) stratum has a chart without variables and one with a
    # variable; 3 tuples exceed a budget of 2, so nothing may be swept
    swept = []
    real = grass._chart_points

    def counting(pres, limits, rng, pin):
        swept.append(len(pres.variables))
        return real(pres, limits, rng, pin)

    monkeypatch.setattr(grass, "_chart_points", counting)
    alg = loop_bridge_over(Field(3))
    P = projective_cover(alg, (1, 0))
    with pytest.raises(SearchTooLarge) as err:
        maximal_topdeg_candidates(alg, P, (2, 1), limits=SearchLimits().with_sweep(2))
    assert str(err.value) == "chart with 1 variables exceeds the sweep budget 2"
    assert swept == []
    # the patched name is the one the sweep calls: within budget it is hit
    maximal_topdeg_candidates(alg, P, (2, 1))
    assert sorted(swept) == [0, 1]


def test_simple_top_needs_no_split_search(monkeypatch):
    # End(P/Cba) is two-dimensional, but with a simple top the verdict
    # needs no summand search at all
    alg = loop_bridge_over(Field(2))
    P, Cb, Cba = bridge_points(alg)
    expected = no_proper_topstable_deg(alg, P, Cba)
    searched = []
    real = degeneration.decompose_local

    def counting(alg, M, limits, seed):
        searched.append(M.d)
        return real(alg, M, limits, seed)

    monkeypatch.setattr(degeneration, "decompose_local", counting)
    verdict = no_proper_topstable_deg(alg, P, Cba)
    assert verdict.holds is not Unknown
    assert verdict == expected
    assert searched == []


def test_sweep_refuses_infinite_fields(loop_bridge):
    P, Cb, Cba = bridge_points(loop_bridge)
    with pytest.raises(SearchTooLarge) as err:
        maximal_topdeg_candidates(loop_bridge, P, (2, 1))
    assert "supply explicit candidate points" in str(err.value)


# -- a two-parameter family of maximal degenerations ----------------------------


def mixing_point(alg, P):
    """The point whose quotient mixes the two generator tops: C is spanned
    by (a + b) z2 together with the two fixed radical combinations."""
    q = alg.quiver
    return point_from_generators(
        P,
        [
            (rel(q, (1, ["a"]), (1, ["b"])), 1),
            (rel(q, (1, ["a", "w1"]), (2, ["a", "w2"])), 1),
            (rel(q, (1, ["b", "w3"]), (3, ["b", "w4"])), 1),
        ],
    )


def family_point(alg, P, c1, c2):
    """A member of the limit family: the mixed generator degenerates to
    c1 * a*w1 + c2 * b*w4 on the second copy."""
    q = alg.quiver
    return point_from_generators(
        P,
        [
            (rel(q, (1, ["a", "w1"]), (2, ["a", "w2"])), 1),
            (rel(q, (1, ["b", "w3"]), (3, ["b", "w4"])), 1),
            (rel(q, (c1, ["a", "w1"]), (c2, ["b", "w4"])), 1),
        ],
    )


def test_mixed_point_degenerates_but_family_points_do_not(double_loop):
    alg = double_loop
    P = projective_cover(alg, (2, 0))
    assert (P.total, sum(P.dims)) == (22, 22)
    C = mixing_point(alg, P)
    assert C.dim == 3
    assert C.dims == (10, 9)

    vC = no_proper_topstable_deg(alg, P, C)
    assert vC.holds is False
    assert vC.hom_dims == (16, 10)
    assert vC.reason == (
        "radical receives 16 independent homomorphisms from the cover "
        "but only 10 from the module"
    )

    onto_first = point_from_generators(
        P,
        [
            (
                rel(
                    alg.quiver,
                    (1, ["a", "w1"]),
                    (2, ["a", "w2"]),
                    (1, ["b", "w3"]),
                    (3, ["b", "w4"]),
                ),
                0,
            ),
            (rel(alg.quiver, (1, ["a", "w1"]), (2, ["a", "w2"])), 1),
            (rel(alg.quiver, (1, ["b", "w3"]), (3, ["b", "w4"])), 1),
        ],
    )
    for point in (family_point(alg, P, 1, 1), onto_first):
        v = no_proper_topstable_deg(alg, P, point)
        assert v.holds is True
        assert v.hom_dims == (16, 16)


def test_a_point_in_the_generator_blocks_solves_no_endomorphisms(monkeypatch, double_loop):
    # a point of the limit family lies in Lambda*z2, so its pieces are
    # Lambda*z1 and Lambda*z2/C: no split search and no End(M). The
    # automorphism z2 -> z2 + z1 of P moves it off the blocks, and that
    # point is split once
    alg = double_loop
    P = projective_cover(alg, (2, 0))
    q = alg.quiver
    gens = [
        rel(q, (1, ["a", "w1"]), (2, ["a", "w2"])),
        rel(q, (1, ["b", "w3"]), (3, ["b", "w4"])),
        rel(q, (1, ["a", "w1"]), (1, ["b", "w4"])),
    ]
    moved = point_from_generators(P, [[(x, 1), (x, 0)] for x in gens])
    split, endos = [], []
    real_split, real_hom = degeneration.decompose_local, reps._hom_maps

    def splitting(alg, M):
        split.append(M)
        return real_split(alg, M)

    def solving(M, N):
        if M is N:
            endos.append(M)
        return real_hom(M, N)

    monkeypatch.setattr(degeneration, "decompose_local", splitting)
    monkeypatch.setattr(reps, "_hom_maps", solving)
    for C, calls in ((family_point(alg, P, 1, 1), 0), (moved, 1)):
        split.clear()
        endos.clear()
        verdict = no_proper_topstable_deg(alg, P, C)
        assert verdict.holds is True
        assert verdict.kernel_dims == ((1, (0, 3)),)
        assert len(split) == calls
        assert len(endos) >= calls


def test_limits_of_the_mixed_point_land_on_the_family(double_loop):
    alg = double_loop
    P = projective_cover(alg, (2, 0))
    C = mixing_point(alg, P)
    endo = endo_space(P)
    for c1, c2 in [(1, 1), (2, 3), (5, -7)]:
        coeffs = [0] * len(endo.elems)
        coeffs[endo_index(endo, "z2 -> w1*z2")] = c1
        coeffs[endo_index(endo, "z2 -> w4*z2")] = c2
        lim = one_param_limit(P, C, coeffs, endo)
        assert lim.rows == family_point(alg, P, c1, c2).rows


def test_candidate_mode_keeps_only_certified_dominating_points(double_loop):
    alg = double_loop
    P = projective_cover(alg, (2, 0))
    C = mixing_point(alg, P)
    M = coker_rep(P, C)
    supplied = [C, family_point(alg, P, 1, 1), family_point(alg, P, 2, 3)]
    cands = maximal_topdeg_candidates(alg, P, (10, 9), M=M, candidates=supplied)
    assert [c.point.rows for c in cands] == [p.rows for p in supplied[1:]]
    assert all(c.verdict.holds is True for c in cands)


# -- swept points are certified by their chart equations ------------------------


# the strata of the sweep-fq benchmark workload (SWEEP_STRATA in
# perfbench/workloads.py), rebuilt from the fixture algebras; mixed_tops is
# the double loop: (algebra, field, top, d)
SWEEP_FQ_STRATA = (
    (double_loop_algebra, 2, (1, 0), (3, 2)),
    (double_loop_algebra, 2, (1, 1), (2, 2)),
    (double_loop_algebra, 2, (1, 0), (2, 2)),
    (kronecker_over, 3, (2, 0), (2, 2)),
    (kronecker_over, 2, (2, 0), (2, 3)),
    (kronecker3_over, 2, (1, 1), (1, 2)),
    (two_loop_two_arrow_algebra, 2, (1, 1), (3, 3)),
    (two_loop_two_arrow_algebra, 2, (1, 1), (2, 2)),
    (two_loop_two_arrow_algebra, 2, (1, 0), (3, 2)),
    (two_loop_two_arrow_algebra, 3, (1, 0), (2, 2)),
    (loop_bridge_over, 2, (2, 0), (3, 2)),
    (loop_bridge_over, 3, (1, 0), (2, 1)),
    (star3_over, 3, (1, 0, 0), (1, 1, 1)),
)


@functools.cache
def sweep_fq_stratum(i):
    """(algebra, cover, d, swept points) of SWEEP_FQ_STRATA[i]."""
    make, p, top, d = SWEEP_FQ_STRATA[i]
    alg = make(Field(p))
    P = projective_cover(alg, top)
    charts = [chart_equations(P, sigma) for sigma in skeleta_with_dims(P, d)]
    points = [C for _, _, C in stratum_points(charts, DEFAULT_LIMITS, random.Random(0))]
    return alg, P, d, points


def test_every_swept_point_of_the_benchmark_strata_is_a_grass_point():
    # the maximality sweep runs no refusal on a swept point: its chart
    # equations certify it as a submodule of JP with dimension vector d
    swept = 0
    for i, (make, p, top, d) in enumerate(SWEEP_FQ_STRATA):
        _, P, d, points = sweep_fq_stratum(i)
        assert points, (make.__name__, p, top, d)
        for C in points:
            assert is_grass_point(P, C, d), (make.__name__, p, top, d, C.rows)
        swept += len(points)
    # the points a sweep-fq round makes maxdeg-test verdicts on
    assert swept == 933


@pytest.mark.parametrize("i", [4, 9], ids=["kronecker/F2 (2,0)", "two loops/F3 (1,0)"])
def test_sweeps_hand_elimination_no_zero(zero_free_rows, i):
    # every Echelon.reduce of the maxdeg sweep and of the moduli report on
    # a sweep-fq stratum gets a row with no zero entry
    make, p, top, d = SWEEP_FQ_STRATA[i]
    alg = make(Field(p))
    assert maximal_topdeg_candidates(alg, projective_cover(alg, top), d)
    moduli_report(alg, top, d, DEFAULT_LIMITS)
    assert zero_free_rows[alg.field] > 0


@pytest.mark.parametrize(
    "i", [4, 7, 11], ids=["kronecker/F2 (2,0)", "two loops/F2 (1,1)", "loop bridge/F3 (1,0)"]
)
def test_a_swept_point_pays_for_its_certificate_once(monkeypatch, i):
    alg, P, d, points = sweep_fq_stratum(i)
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("_graded_span", "_require_top", "_stab_rank"):
        monkeypatch.setattr(degeneration, name, counting(name, getattr(degeneration, name)))
    swept = maximal_topdeg_candidates(alg, P, d)
    assert calls == Counter()
    given = maximal_topdeg_candidates(alg, P, d, candidates=points)
    # one guard per supplied point, and the rank of (ii) is known to be 0
    assert calls == Counter(_graded_span=len(points), _require_top=len(points))
    assert [(c.point, c.verdict, c.witness) for c in swept] == [
        (c.point, c.verdict, c.witness) for c in given
    ]
    assert 0 < len(swept) < len(points)
