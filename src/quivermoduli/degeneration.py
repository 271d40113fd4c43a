"""Top-stable degenerations of a module with fixed projective cover.

A degeneration of M that keeps the top fixed lives inside the same
Grassmannian of submodules of the cover P: it is the quotient at a point in
the closure of the orbit of C under the unipotent part of Aut(P).  This
module answers three questions about that picture.

* ``no_proper_topstable_deg`` decides whether the orbit of C is already
  closed, i.e. whether M = P/C admits no proper top-stable degeneration.
  The criterion is structural: M must split into local summands that form
  a chain under epimorphisms at each top vertex, decided on the tops, and
  the radical JM must receive exactly as many homomorphisms from M as from
  P.

* ``one_param_limit`` degenerates C explicitly along a one-parameter
  subgroup 1 + tau*h built from a nilpotent endomorphism h of P, returning
  the limit point as tau goes to infinity.

* ``maximal_topdeg_candidates`` sweeps a whole Grassmannian stratum over a
  finite field and keeps the points whose orbits are closed, optionally
  filtered against a start module by the hom-order.

All arithmetic is exact, and every closed-orbit verdict is decided: the
summand search behind it is exact over Q and over F_q alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .config import DEFAULT_LIMITS, SearchLimits
from .errors import (
    DimensionMismatch,
    NotNilpotentDirection,
    NotSubmodule,
    NotSumOfLocals,
    SearchTooLarge,
    TopMismatch,
)
from .fields import Scalar
from .grass import (
    EndoSpace,
    ProjectiveCover,
    SubmodulePoint,
    _chart_sweepable,
    _stab_rank,
    _stab_residues,
    chart_equations,
    coker_rep,
    in_radical,
    is_grass_point,
    skeleta_with_dims,
    stratum_points,
    submodule_point,
)
from .linalg import Echelon, SparseRow, apply, combine
from .reps import (
    Rep,
    _by_vertex,
    _graded_span,
    _on_basis,
    _quotient,
    _top_epi_exists,
    decompose_local,
    hom_dim,
    simple_rep,
    top_dims,
)


# -- closed-orbit test -------------------------------------------------------


@dataclass(frozen=True)
class DegenerationVerdict:
    """Outcome of the closed-orbit test, with the evidence that decided it.

    ``holds`` is True or False.  ``kernel_dims`` records, per top vertex
    v, dim Lambda e_v - dim L for its local summands L in chain order;
    ``hom_dims`` records (dim Hom(P, JM), dim Hom(M, JM)) when that
    comparison was reached.
    """

    holds: bool
    reason: str
    kernel_dims: tuple[tuple[int, tuple[int, ...]], ...] = ()
    hom_dims: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _top(piece: Rep) -> int:
    """The top vertex of a local module, read off its cached radical."""
    return top_dims(piece.alg, piece).index(1) + 1


def _require_top(P: ProjectiveCover, C: SubmodulePoint) -> None:
    """Refuse a submodule C outside JP: P/C then has a smaller top than
    the one the cover was built for."""
    if not in_radical(P, C):
        raise TopMismatch(
            f"quotient has top {top_dims(P.alg, coker_rep(P, C))}, "
            f"cover was built for {P.top.mult}"
        )


def no_proper_topstable_deg(
    alg: Algebra,
    P: ProjectiveCover,
    C: SubmodulePoint,
    limits: SearchLimits = DEFAULT_LIMITS,
    seed: int | None = None,
) -> DegenerationVerdict:
    """Decide whether M = P/C admits no proper top-stable degeneration.

    The orbit of C under the unipotent automorphisms of P is closed exactly
    when (i) M is a direct sum of local modules that, grouped by top vertex,
    are linearly ordered by top-preserving epimorphisms, decided on the
    tops (reps._top_map), and (ii) the radical JM satisfies
    dim Hom(P, JM) = dim Hom(M, JM), which holds exactly when every map in
    Hom(P, JP) maps C into C.

    With a simple top M is local and is its own summand, and it is never
    built: the cover map P -> M is onto, so the presentation kernel is C
    itself. When every row of C lies in one generator block Lambda z_r,
    the summands are the P_r/C_r (_block_pieces), and End(M) is not
    solved. Otherwise the summand search is decompose_local, which splits
    M along non-units read off the action of End(M) on the top M/JM, by
    one exact route over Q and F_q: it returns the local summands or
    proves that M is not a sum of local modules, so the verdict is always
    decided. The cover map Lambda e_v -> L of a summand L with top S_v is
    onto, so its kernel has dimension dim Lambda e_v - dim L.

    Both numbers of (ii) are read off (P, C). top(P/C) = P/(JP + C) is the
    top of P exactly when C lies in JP, and then JM = JP/C. Path lengths
    grade the radical of P, so Hom(P, JP) = (+)_r e_{v_r} JP has the basis
    ``endo.unipotent``.

    * By Yoneda, Hom(P, N) = (+)_r e_{v_r} N, so
      hp = dim Hom(P, JM) = |unipotent| - sum_r dim e_{v_r} C.
    * A map M -> JM is a map P -> JM that kills C. Each lifts through
      JP -> JM to some psi in Hom(P, JP), and it kills C exactly when
      psi(C) lies in C. The lifts of 0 are Hom(P, C), of dimension
      sum_r dim e_{v_r} C, and they all keep C inside C.
    * So hm = dim{psi : psi(C) in C} - sum_r dim e_{v_r} C = hp - rank,
      where rank is that of psi -> psi(C) mod C on Hom(P, JP): the
      dimension of the unipotent orbit of C, orbit_dims(P, C).unipotent.
      So hp = hm exactly when the rank is 0, that is, when Hom(P, JP)
      maps C into C.

    This function runs the refusals, in this order: C must be a submodule
    of P (NotSubmodule) inside JP (TopMismatch), with no quotient built.
    The verdict itself is _closed_orbit, which the maximality sweep calls
    on certified points; it reads P.alg, which alg must equal. The verdict
    is exact and searches nothing, so limits and seed are unused.
    """
    # the refusal coker_rep would give, without building the quotient
    _graded_span(P.rep, C.span)
    _require_top(P, C)
    return _closed_orbit(P, C)


def _block_pieces(P: ProjectiveCover, C: SubmodulePoint) -> list[Rep] | None:
    """The local summands P_r/C_r of M = P/C, one per generator z_r, when
    every row of C lies in one generator block Lambda z_r; None otherwise.

    The RREF of a sum over complementary coordinate blocks is the union of
    the blocks' RREFs, so C = (+)_r C_r with C_r = C meet Lambda z_r exactly
    when each stored row lies in one block. Then M = (+)_r P_r/C_r, each
    local with top S_{v_r} as C lies in JP, on the unit vectors of block r
    off C's pivots, read as in reps._quotient."""
    gen = [r for _, r in P.belems]
    if any(gen[k] != gen[p] for p, row in C.span.rows.items() for k in row):
        return None
    one = P.alg.field.one()
    return [
        _on_basis(
            P.rep,
            _by_vertex(P.rep, (i for i, s in enumerate(gen) if s == r and i not in C.span.rows)),
            lambda i: {i: one},
            C.span.reduce,
        )
        for r in range(len(P.gens))
    ]


def _closed_orbit(
    P: ProjectiveCover,
    C: SubmodulePoint,
    rank: int | None = None,
) -> DegenerationVerdict:
    """The verdict of no_proper_topstable_deg on a point C already known to
    be a submodule of JP, with no refusal checked again. rank is that of
    condition (ii), psi -> psi(C) mod C on Hom(P, JP), when the caller has
    already found it, and is computed (_stab_rank) otherwise. Condition (i)
    needs no summand for a simple top, takes the block pieces of a C in the
    generator blocks (_block_pieces), and builds and splits M = P/C
    (decompose_local) for the other points only."""
    if P.top.simple:
        kernel_dims = [(P.gens[0], (C.dim,))]
    else:
        pieces = _block_pieces(P, C) or decompose_local(P.alg, _quotient(P.rep, C.span))
        if pieces is NotSumOfLocals:
            return DegenerationVerdict(
                False, "module is not a direct sum of local modules"
            )
        by_vertex: dict[int, list[Rep]] = {}
        for piece in pieces:
            by_vertex.setdefault(_top(piece), []).append(piece)
        kernel_dims = []
        for v in sorted(by_vertex):
            group = sorted(by_vertex[v], key=lambda piece: -piece.total)
            cover = len(P.alg.basis_at(v))
            kernel_dims.append((v, tuple(cover - piece.total for piece in group)))
            for big, small in zip(group, group[1:]):
                if not _top_epi_exists(big, small):
                    return DegenerationVerdict(
                        False,
                        f"presentation kernels at vertex {v} are not comparable: "
                        f"no top-preserving epimorphism chains the summands",
                        tuple(kernel_dims),
                    )

    endo = P.endo
    hp = len(endo.unipotent) - sum(P.dims[v - 1] - C.dims[v - 1] for v in P.gens)
    if rank is None:
        rank = _stab_rank(P, C, endo, endo.unipotent)
    hm = hp - rank
    if hp != hm:
        return DegenerationVerdict(
            False,
            f"radical receives {hp} independent homomorphisms from the cover "
            f"but only {hm} from the module",
            tuple(kernel_dims),
            (hp, hm),
        )
    return DegenerationVerdict(
        True,
        "local summands chain under top-preserving epimorphisms and the "
        "radical hom-dimensions agree",
        tuple(kernel_dims),
        (hp, hm),
    )


# -- one-parameter limits ----------------------------------------------------


def one_param_limit(
    P: ProjectiveCover,
    C: SubmodulePoint,
    coeffs: list[Scalar],
    endo: EndoSpace | None = None,
) -> SubmodulePoint:
    """Limit of (1 + tau*h)(C) as tau grows without bound.

    ``coeffs`` expands the endomorphism h in ``endo.elems``; h must be
    nilpotent, i.e. supported on the radical-degree-raising part of End(P),
    otherwise NotNilpotentDirection is raised.  The result is a point of the
    same Grassmannian, found by clearing denominators in tau and saturating
    the row module at tau infinite.
    """
    if endo is None:
        endo = P.endo
    f = P.alg.field
    if len(coeffs) != len(endo.elems):
        raise DimensionMismatch(
            f"expected {len(endo.elems)} coefficients, got {len(coeffs)}"
        )
    coeffs = [f.of_int(c) if isinstance(c, int) else c for c in coeffs]
    for j in endo.degree0:
        if not f.is_zero(coeffs[j]):
            raise NotNilpotentDirection(
                f"direction has degree-zero component {endo.describe(j)}"
            )

    # Substituting s = 1/tau and scaling each row by s turns the moving
    # subspace span{r + tau*h(r)} into span{h(r) + s*r}; the limit is the
    # fibre at s = 0 of the saturated family.
    n = P.total
    h = combine(f, coeffs, endo.images)
    pairs = [(apply(f, h, C.span.rows[p]), C.span.rows[p]) for p in C.span.pivots()]
    while True:
        # h(r_i), tagged at n + i, enters one Echelon; the first that
        # reduces to tags alone carries the relation sum_i lam_i h(r_i) = 0
        # with lam_i = 1 at its own tag
        span = Echelon(f)
        for i, (a, _) in enumerate(pairs):
            lam = span.reduce({**a, n + i: f.one()})
            if min(lam) >= n:
                break
            span._place(lam)
        else:
            break
        combo: SparseRow = {}
        for i, y in lam.items():
            f.axpy(combo, y, pairs[i - n][1])
        pivot = max((i - n for i in lam if pairs[i - n][1]), default=None)
        if pivot is None or not combo:
            raise NotSubmodule("row family degenerated; C was not a point")
        pairs[pivot] = (combo, {})

    limit = submodule_point(P, [a for a, _ in pairs])
    if limit.dim != C.dim or not is_grass_point(P, limit, C.dims):
        raise NotSubmodule("limit rows do not span a submodule point")
    return limit


# -- hom-order and maximality sweeps -----------------------------------------


def hom_order_leq(M: Rep, N: Rep, tests: list[Rep] | None = None) -> bool:
    """Does dim Hom(X, M) <= dim Hom(X, N) hold for every test module X?

    Degeneration implies this order.  By default X ranges over the simples
    and M and N themselves: an indecomposable projective Lambda*e_v would
    add nothing, as dim Hom(Lambda*e_v, X) = dim e_v*X (Yoneda) and M and N
    share d.
    """
    if M.d != N.d:
        raise DimensionMismatch(f"dimension vectors differ: {M.d} vs {N.d}")
    if tests is None:
        tests = [simple_rep(M.alg, v) for v in M.alg.quiver.vertices] + [M, N]
    return all(hom_dim(x, M) <= hom_dim(x, N) for x in tests)


@dataclass(frozen=True)
class MaxDegCandidate:
    """A Grassmannian point with closed orbit, plus how it was certified.

    ``witness`` names the nilpotent direction whose one-parameter limit
    lands on this point from the supplied base point, when one was found.
    """

    point: SubmodulePoint
    verdict: DegenerationVerdict
    witness: str | None = None


def maximal_topdeg_candidates(
    alg: Algebra,
    P: ProjectiveCover,
    d: tuple[int, ...],
    M: Rep | None = None,
    candidates: list[SubmodulePoint] | None = None,
    base: SubmodulePoint | None = None,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> list[MaxDegCandidate]:
    """Points of the dimension-d stratum admitting no proper top-stable
    degeneration.

    Without an explicit candidate list the whole stratum is swept chart by
    chart, which requires a finite base field and charts within the sweep
    budget; the returned list is then exhaustive.  Passing ``M`` keeps only
    points whose quotient dominates M in the hom-order, and passing ``base``
    additionally searches single nilpotent directions for a one-parameter
    limit landing on each survivor.

    Only ``holds`` of each verdict is read, so condition (ii) goes first:
    it holds exactly when Hom(P, JP) maps C into C, and a point that some
    basis map of ``endo.unipotent`` moves is dropped before its quotient is
    split; the points left get the full verdict (_closed_orbit) with the
    rank of (ii) known to be 0. P/C is built only for the split route or
    the hom-order filter.

    Each point is certified once. Explicit ``candidates`` meet the refusals
    of no_proper_topstable_deg, with the same errors in the same order.
    Swept points are chart points, certified by their chart's equations
    (coords_to_point raises EquationsViolated off the chart), which cut the
    chart out of GRASS^T_d: each is a submodule of JP with dimension vector
    d. Swept points are read one at a time, so none outlives its verdict.
    """
    if candidates is None:
        f = alg.field
        if not f.is_finite:
            raise SearchTooLarge(
                "cannot sweep a stratum over an infinite field; "
                "supply explicit candidate points"
            )
        # refuse an over-budget stratum before sweeping any of its charts
        charts = [chart_equations(P, sigma) for sigma in skeleta_with_dims(P, tuple(d))]
        for pres in charts:
            if not _chart_sweepable(pres, limits):
                raise SearchTooLarge(
                    f"chart with {len(pres.variables)} variables exceeds "
                    f"the sweep budget {limits.sweep}"
                )
        points = (pt for _, _, pt in stratum_points(charts, limits))
    else:
        points = candidates

    endo = P.endo
    out = []
    for pt in points:
        if candidates is not None:
            _graded_span(P.rep, pt.span)
            _require_top(P, pt)
        if any(_stab_residues(P, pt, endo, endo.unipotent)):
            continue
        verdict = _closed_orbit(P, pt, rank=0)
        if verdict.holds is not True:
            continue
        if M is not None and not hom_order_leq(M, _quotient(P.rep, pt.span)):
            continue
        witness = None
        if base is not None and pt.rows != base.rows:
            for j in endo.unipotent:
                coeffs: list[Scalar] = [0] * len(endo.elems)
                coeffs[j] = 1
                lim = one_param_limit(P, base, coeffs, endo)
                if lim.rows == pt.rows:
                    witness = endo.describe(j)
                    break
        out.append(MaxDegCandidate(pt, verdict, witness))
    return out
