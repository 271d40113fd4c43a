"""Grassmannians of submodules with fixed top.

A semisimple top T pins a projective cover P = (+)_r Lambda*z_r; the variety
of interest is the set of submodules C <= JP with dim P/C = d, acted on by
Aut(P). Everything here is coordinatized by the positions of the path
basis p*z_r of P: points are RREF row spans, skeleta are subpath-closed
sets of positions, and each skeleton carries an affine chart whose
coordinates are the congruence coefficients of arrow-images off the
skeleton. (path, copy) pairs appear only at parse and print.

The chart machinery requires basis-path lengths to induce the radical
filtration of the projectives, which holds exactly when the reduction never
rewrites a path into shorter ones (Algebra.lengths_grade_radical);
projective_cover refuses otherwise. P is built once from its path basis
(reps._free_rep).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .algebra import Algebra
from .config import DEFAULT_LIMITS, SearchLimits
from .errors import EquationsViolated, IdealNotGraded, NotSubmodule, UnsupportedAlgebra
from .fields import Scalar
from .linalg import Echelon, Map, SparseRow, apply, fold
from .polys import Poly, PolyRing
from .quiver import PathWord, deglex_key, idempotent
from .reps import (
    Rep,
    SemisimpleSequence,
    _by_vertex,
    _free_rep,
    _graded_span,
    _quotient,
    closure,
    radical_layering,
)

@dataclass(frozen=True)
class TopSpec:
    """Multiplicities (t_1, ..., t_n) of the simples in a semisimple top."""

    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.mult):
            raise ValueError("top multiplicities must be non-negative")
        if not any(self.mult):
            raise ValueError("top must be nonzero")

    @property
    def total(self) -> int:
        return sum(self.mult)

    @property
    def squarefree(self) -> bool:
        return all(t <= 1 for t in self.mult)

    @property
    def simple(self) -> bool:
        return self.total == 1

    def __str__(self) -> str:
        parts = []
        for v, t in enumerate(self.mult, start=1):
            if t == 1:
                parts.append(f"S{v}")
            elif t > 1:
                parts.append(f"S{v}^{t}")
        return " + ".join(parts)


def top_spec(alg: Algebra, mult: tuple[int, ...] | list[int]) -> TopSpec:
    t = TopSpec(tuple(mult))
    if len(t.mult) != alg.quiver.n:
        raise ValueError("top multiplicity vector has wrong length")
    return t


def elem_name(p: PathWord, r: int) -> str:
    """The basis element p*z_r as printed."""
    return f"z{r + 1}" if p.length == 0 else f"{p}*z{r + 1}"


class ProjectiveCover:
    """P = (+)_r Lambda*z_r with z_r normed by the idempotent at gens[r].

    The coordinates are the positions 0..|P|-1 of the path basis, which
    comes with the Rep from one reps._free_rep call (vertex blocks, copies
    in order inside each block). belems[i] = (p, r) names the element
    p*z_r at position i, for parsing and printing; the rest reads the
    Rep's arrow Maps and three tables on positions, each Lambda's copied
    onto every z_r:
    * parent[i]: the position of p'*z_r for p = a*p', or -1 at a z_r;
    * ext[i]: arrow label a -> the position of a*p*z_r, when a*p is a basis
      path, in arrows_out order;
    * rank[i]: the place of p*z_r in the order (deglex p, r), alg.basis's.
    """

    __slots__ = ("alg", "top", "gens", "rep", "belems", "index", "parent", "ext", "rank", "_endo")

    def __init__(self, alg: Algebra, top: TopSpec):
        self.alg = alg
        self.top = top
        self.gens = tuple(v for v in alg.quiver.vertices for _ in range(top.mult[v - 1]))
        for v in sorted(set(self.gens)):
            if not alg.lengths_grade_radical(v):
                raise UnsupportedAlgebra(
                    f"path lengths do not grade the radical filtration of "
                    f"Lambda*e{v}; charts are unavailable for this algebra"
                )
        elems, self.rep = _free_rep(alg, self.gens)
        at = {b: k for k, b in enumerate(elems)}
        self.parent = tuple(at[alg.parent[i], r] if alg.parent[i] >= 0 else -1 for i, r in elems)
        self.ext = tuple({a: at[j, r] for a, j in alg.ext[i].items()} for i, r in elems)
        order = {b: k for k, b in enumerate(sorted(elems))}
        self.rank = tuple(order[b] for b in elems)
        self.belems = tuple((alg.basis[i], r) for i, r in elems)
        self.index = {b: i for i, b in enumerate(self.belems)}
        self._endo: EndoSpace | None = None

    @property
    def endo(self) -> EndoSpace:
        """The basis of End(P), built by endo_space on first use and kept
        as long as the cover, so that a sweep over one cover builds it once."""
        if self._endo is None:
            self._endo = endo_space(self)
        return self._endo

    @property
    def dims(self) -> tuple[int, ...]:
        return self.rep.d

    @property
    def total(self) -> int:
        return self.rep.total

    def describe(self, i: int) -> str:
        """The basis element at position i, as printed."""
        return elem_name(*self.belems[i])

    def __repr__(self) -> str:
        return f"ProjectiveCover(top={self.top}, dims={self.dims})"


def projective_cover(alg: Algebra, top: TopSpec | tuple[int, ...]) -> ProjectiveCover:
    return ProjectiveCover(alg, top_spec(alg, top.mult if isinstance(top, TopSpec) else top))


def _trim(rows: SemisimpleSequence) -> tuple[tuple[int, ...], ...]:
    out = list(rows)
    while out and not any(out[-1]):
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class SubmodulePoint:
    """A submodule C <= JP as an RREF row span, plus the dims of P/C.

    span is the Echelon of C that submodule_point builds. Every reading of
    C (its submodule check, quotient, stabiliser residues, skeleta) reduces
    against it and none inserts into it. It takes no part in equality,
    hashing or the printed form, which the rows already fix.
    """

    rows: tuple[tuple[Scalar, ...], ...]
    dims: tuple[int, ...]
    span: Echelon = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.rows)


def submodule_point(P: ProjectiveCover, vectors: Iterable[SparseRow]) -> SubmodulePoint:
    """The point spanned by the given sparse rows. P/C has at each vertex
    the coordinates that are not pivots of C."""
    span = Echelon(P.alg.field, vectors)
    dims = tuple(n - len(b) for n, b in zip(P.dims, _by_vertex(P.rep, span.rows)))
    return SubmodulePoint(tuple(map(tuple, span.rref(P.total))), dims, span)


def point_from_generators(P: ProjectiveCover, gens) -> SubmodulePoint:
    """The submodule generated by the given elements: their vertex
    components, closed under the arrows.

    Each generator is an (Element, copy) pair or a list of such pairs; lists
    are summed, so generators may mix copies (e.g. a1*z1 - a2*b*z2). Each
    path p of an element acts on z_r: the fold of z_r's position along p
    through P's arrow Maps. ValueError for a path that does not start at
    the vertex of z_r.
    """
    f = P.alg.field
    one = f.one()
    vecs = []
    for g in gens:
        v: SparseRow = {}
        for x, r in [g] if isinstance(g, tuple) else g:
            for p, c in x.terms.items():
                if p.start != P.gens[r]:
                    raise ValueError(f"element does not start at the vertex of z{r + 1}")
                f.axpy(v, c, fold(f, P.rep.arrows, {P.index[idempotent(p.start), r]: one}, p.arrows))
        vecs.append(v)
    return submodule_point(P, closure(P.rep, vecs).rows.values())


def in_radical(P: ProjectiveCover, C: SubmodulePoint) -> bool:
    """Does C lie in JP? Path lengths grade the radical, so JP is spanned by
    the basis elements other than the generators z_r: C lies in JP exactly
    when no stored RREF row of C has an entry at a z_r coordinate."""
    return not any(P.parent[j] < 0 for row in C.span.rows.values() for j in row)


def is_grass_point(
    P: ProjectiveCover, C: SubmodulePoint, d: tuple[int, ...]
) -> bool:
    """Is C a submodule of JP with dim P/C = d?"""
    if not in_radical(P, C):
        return False
    try:
        _graded_span(P.rep, C.span)
    except NotSubmodule:
        return False
    return C.dims == tuple(d)


def coker_rep(P: ProjectiveCover, C: SubmodulePoint) -> Rep:
    """M = P/C. Raises NotSubmodule (_graded_span)."""
    return _quotient(P.rep, _graded_span(P.rep, C.span))


@dataclass(frozen=True)
class Skeleton:
    """A subpath-closed set of basis elements p*z_r containing every z_r,
    as their positions in P, listed in P.rank order.

    The derived layering counts, per path length l and end vertex, how many
    members sit at that spot; on a chart every quotient has this radical
    layering. Like radical_layering it has one row per Loewy layer,
    l = 0..loewy-1, and keeps its trailing zero rows.
    """

    elems: tuple[int, ...]
    layering: SemisimpleSequence

    def __len__(self) -> int:
        return len(self.elems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(sum(row[i] for row in self.layering) for i in range(len(self.layering[0])))


def make_skeleton(P: ProjectiveCover, elems) -> Skeleton:
    """The skeleton on the given (path, copy) pairs. ValueError at the first
    pair in deglex order off the basis of P or without its initial subpath
    (read off P.parent), else at the first missing generator."""
    quiver = P.alg.quiver
    elems = sorted(set(elems), key=lambda b: (deglex_key(quiver, b[0]), b[1]))
    have = {P.index.get(b) for b in elems}
    for b in elems:
        if (i := P.index.get(b)) is None:
            raise ValueError(f"{elem_name(*b)} is not a basis element of P")
        if P.parent[i] >= 0 and P.parent[i] not in have:
            raise ValueError(f"skeleton is not closed under initial subpaths at {elem_name(*b)}")
    for i in range(P.total):
        if P.parent[i] < 0 and i not in have:
            raise ValueError(f"skeleton is missing the generator {P.describe(i)}")
    return _skeleton(P, [P.index[b] for b in elems])


def _skeleton(P: ProjectiveCover, elems: list[int]) -> Skeleton:
    """The skeleton on the given positions of P, which must form one."""
    rows = [[0] * P.alg.quiver.n for _ in range(P.alg.loewy)]
    for i in elems:
        p = P.belems[i][0]
        rows[p.length][p.end - 1] += 1
    return Skeleton(tuple(sorted(elems, key=P.rank.__getitem__)), tuple(tuple(r) for r in rows))


def _grow_skeleta(
    P: ProjectiveCover,
    d: tuple[int, ...],
    S: SemisimpleSequence | None = None,
    C: Echelon | None = None,
) -> list[Skeleton]:
    """All skeleta of P with per-vertex member counts d, in deglex order.

    Members are grown from the generators one path length at a time. With a
    layering S the grower picks exactly S[l][v] members of length l ending
    at v; otherwise it picks any count up to what is left of d.

    Given the span of a point C <= JP, only skeleta whose members are
    independent modulo C are grown. Each unit vector e_b is reduced modulo
    C once. A set of them is independent modulo C exactly when its
    residues are independent, since a vector of C that is zero at every
    pivot of C is zero. The residues of each step go into a copy of the
    parent's span of the residues of chosen, at most dim P/C rows, and a
    step with an insert that returns None is cut with everything below
    it. The cut is exact:
    * a set dependent modulo C stays dependent under any extension;
    * a leaf sigma has |sigma| = dim P/C, so it is independent modulo C
      exactly when P = C (+) span(sigma).
    The generators z_r start the span; they are independent modulo C
    because C lies in JP.
    """
    quiver = P.alg.quiver
    tops = P.top.mult
    if any(t > dv for t, dv in zip(tops, d)):
        return []
    zrow = [i for i, j in enumerate(P.parent) if j < 0]
    f = P.alg.field
    found: list[Skeleton] = []
    residues: dict[int, SparseRow] = {}

    def residue(i: int) -> SparseRow:
        """e_i modulo C, reduced once per basis element."""
        if i not in residues:
            residues[i] = C.reduce({i: f.one()})
        return residues[i]

    def grow(
        chosen: list[int], frontier: list[int], layer: int, left: tuple[int, ...], span: Echelon | None
    ) -> None:
        if span is not None:
            # span holds the residues of chosen minus frontier; the frontier's
            # residues join it
            span = span.copy()
            if any(span.insert(residue(i)) is None for i in frontier):
                return
        if not any(left):
            found.append(_skeleton(P, chosen))
            return
        cands: dict[int, list[int]] = {v: [] for v in quiver.vertices}
        for i in frontier:
            for j in P.ext[i].values():
                cands[P.belems[j][0].end].append(j)
        pools = []
        for v in quiver.vertices:
            cands[v].sort(key=P.rank.__getitem__)
            sizes = range(left[v - 1] + 1) if S is None else (S[layer][v - 1],)
            pools.append([c for k in sizes for c in itertools.combinations(cands[v], k)])
        for picks in itertools.product(*pools):
            step = [b for group in picks for b in group]
            if step:
                nxt = tuple(n - len(group) for n, group in zip(left, picks))
                grow(chosen + step, step, layer + 1, nxt, span)

    left = tuple(dv - t for dv, t in zip(d, tops))
    grow(list(zrow), list(zrow), 1, left, None if C is None else Echelon(f))
    found.sort(key=lambda s: tuple(P.rank[i] for i in s.elems))
    return found


def enumerate_skeleta(P: ProjectiveCover, S: SemisimpleSequence) -> list[Skeleton]:
    """All skeleta of P whose layering is S, in deglex order."""
    S = _trim(tuple(tuple(row) for row in S))
    if not S or S[0] != P.top.mult:
        return []
    return _grow_skeleta(P, tuple(map(sum, zip(*S))), S)


def skeleta_with_dims(P: ProjectiveCover, d: tuple[int, ...]) -> list[Skeleton]:
    """All skeleta of P with per-vertex member counts d, in deglex order."""
    return _grow_skeleta(P, d)


def skeleta_of_point(
    P: ProjectiveCover, C: SubmodulePoint, S: SemisimpleSequence | None = None
) -> list[Skeleton]:
    """The skeleta sigma with P = C (+) span(sigma) and matching layering,
    for a submodule C of P. S is the radical layering of P/C; a caller that
    already has it passes it in, else it is computed from the quotient."""
    if S is None:
        S = radical_layering(P.alg, coker_rep(P, C))
    if S[0] != P.top.mult:
        return []
    return _grow_skeleta(P, C.dims, S, C.span)


#: A residue over a skeleton: its nonzero entries, by member of the skeleton.
Residue = dict[int, Poly]


def _add_row(out: Residue, row: Residue, k: Poly) -> None:
    """out += k * row, entry by entry; entries that cancel stay as zeros."""
    for b, e in row.items():
        out[b] = out[b] + e * k if b in out else e * k


@dataclass(eq=False)
class ChartPresentation:
    """The affine chart of a skeleton: coordinates and defining equations.

    variables[k] = (arrow label, b, b') indexes the coefficient of b' in the
    congruence for the arrow-image of b, members b, b' of sigma given by
    their positions in P: the point's generator for that off-skeleton
    arrow-image is alpha*b - sum c_{b'} b'. residues maps the position of
    every basis element of P to its generic expansion over the skeleton, a
    sparse row with no zero entries, so points are recovered by evaluating
    the stored entries alone. For a monomial ideal, pinned lists
    the variables (a, b, b') with |b'| = |b| + 1 and b' after a*b in
    P.rank order: the points whose first skeleton is sigma are those
    where all of them vanish (see stratum_points). Otherwise it is empty.
    """

    cover: ProjectiveCover
    sigma: Skeleton
    ring: PolyRing
    variables: tuple[tuple[str, int, int], ...]
    equations: tuple[Poly, ...]
    residues: dict[int, Residue]
    pinned: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.sigma.dims


def chart_equations(P: ProjectiveCover, sigma: Skeleton) -> ChartPresentation:
    alg = P.alg
    f = alg.field
    paths = [p for p, _ in P.belems]
    sig_list = list(sigma.elems)
    sig_set = set(sig_list)

    variables: list[tuple[str, int, int]] = []
    var_of: dict[tuple[str, int], list[tuple[int, int]]] = {}
    monomial = alg.is_monomial()
    pinned: list[int] = []
    for b in sig_list:
        for label, j in P.ext[b].items():
            if j in sig_set:
                continue
            q = paths[j]
            entry = []
            for b2 in [t for t in sig_list if paths[t].end == q.end and paths[t].length >= q.length]:
                if monomial and paths[b2].length == q.length and P.rank[b2] > P.rank[j]:
                    pinned.append(len(variables))
                entry.append((b2, len(variables)))
                variables.append((label, b, b2))
            var_of[(label, b)] = entry

    ring = PolyRing(f, [f"c{k + 1}" for k in range(len(variables))])
    one = ring.one()
    rho_memo: dict[int, Residue] = {}
    busy: set[int] = set()

    def rho(b: int) -> Residue:
        """The generic expansion of b over sigma."""
        if b in sig_set:
            return {b: one}
        if b in rho_memo:
            return rho_memo[b]
        p = paths[b]
        parent = P.parent[b]
        label = p.last_arrow()
        if parent in sig_set:
            out = {b2: ring.var(k) for b2, k in var_of[(label, parent)]}
        elif not any(paths[b2].end == p.end and paths[b2].length >= p.length for b2 in sig_list):
            # the class of b lies in J^l(P/C)e_v, l = |b| and v its end, and
            # the members of sigma of length >= l at v are a basis of it
            out = {}
        else:
            if b in busy:
                raise UnsupportedAlgebra("cyclic reduction while expanding chart residues")
            busy.add(b)
            out = push(label, rho(parent))
            busy.discard(b)
        rho_memo[b] = out
        return out

    def push(label: str, row: Residue) -> Residue:
        """The arrow applied to a row over sigma, expanded over sigma again."""
        out: Residue = {}
        cols = P.rep.arrows[label]
        for b, coeff in row.items():
            for w, c in cols.get(b, {}).items():
                _add_row(out, rho(w), coeff.scale(c))
        return {b2: e for b2, e in out.items() if not e.is_zero()}

    residues = {b: rho(b) for b in sorted(range(P.total), key=lambda b: paths[b].length)}

    # one equation per nonzero entry of each relation's action on sigma,
    # relation by relation, column by column, deduplicated up to scalars;
    # each word acts by pushing the column through its arrows in turn, up to
    # the first empty row, which every later arrow would keep empty
    equations: list[Poly] = []
    seen = set()
    for rel in alg.relations:
        for b in sig_list:
            total: Residue = {}
            for p, c in rel.terms.items():
                row = {b: one}
                for label in p.arrows:
                    row = push(label, row)
                    if not row:
                        break
                _add_row(total, row, ring.const(c))
            for b2 in sig_list:
                e = total.get(b2)
                if e is None or e.is_zero():
                    continue
                key = e.monic_key()
                if key not in seen:
                    seen.add(key)
                    equations.append(e)

    return ChartPresentation(
        cover=P,
        sigma=sigma,
        ring=ring,
        variables=tuple(variables),
        equations=tuple(equations),
        residues=residues,
        pinned=tuple(pinned),
    )


def _canon_values(pres: ChartPresentation, values) -> list[Scalar]:
    f = pres.cover.alg.field
    vals = [f.of_int(v) if isinstance(v, int) else v for v in values]
    if len(vals) != len(pres.variables):
        raise ValueError(
            f"chart has {len(pres.variables)} coordinates, got {len(vals)}"
        )
    return vals


def coords_to_point(pres: ChartPresentation, values) -> SubmodulePoint:
    """The point of the chart with the given coordinate values."""
    P = pres.cover
    f = P.alg.field
    vals = _canon_values(pres, values)
    for eq in pres.equations:
        if not f.is_zero(eq.eval(vals)):
            raise EquationsViolated(f"chart equation {eq.format()} = 0 fails")
    sig_set = set(pres.sigma.elems)
    rows = []
    for b in range(P.total):
        if b in sig_set:
            continue
        # e_b minus its expansion over sigma, which does not contain b
        row = {b: f.one()}
        for b2, e in pres.residues[b].items():
            c = e.eval(vals)
            if not f.is_zero(c):
                row[b2] = f.neg(c)
        rows.append(row)
    return submodule_point(P, rows)


def describe_endo(elem: tuple[int, int, PathWord]) -> str:
    """The basis endomorphism (r, s, u) of P, which maps z_r to u*z_s."""
    r, s, u = elem
    return f"z{r + 1} -> {elem_name(u, s)}"


@dataclass(eq=False)
class EndoSpace:
    """Basis of End(P): elems[j] = (r, s, u) is the map z_r -> u*z_s, zero on
    the other generators. index[r, i] = j names it by r and the position i
    of u*z_s in P, so an image of z_r read off P's positions is looked up
    term by term. images[j] is its Map: the coordinate of each basis
    element p*z_r goes to the sparse row of its image p*u*z_s.
    unipotent/degree0 list the indices of the strictly-length-raising and
    the length-zero basis elements."""

    cover: ProjectiveCover
    elems: tuple[tuple[int, int, PathWord], ...]
    index: dict[tuple[int, int], int]
    images: list[Map]
    unipotent: tuple[int, ...]
    degree0: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.elems)

    def describe(self, j: int) -> str:
        return describe_endo(self.elems[j])

    def apply(self, j: int, vec: SparseRow) -> SparseRow:
        """The image of a sparse vector under the basis endomorphism j."""
        return apply(self.cover.alg.field, self.images[j], vec)


def endo_space(P: ProjectiveCover) -> EndoSpace:
    """The basis of End(P). The map z_r -> u*z_s sends p*z_r, for p = a*p',
    to a times the image of p'*z_r: one arrow action per basis element."""
    alg = P.alg
    elems: list[tuple[int, int, PathWord]] = []
    index: dict[tuple[int, int], int] = {}
    for r, vr in enumerate(P.gens):
        for s, vs in enumerate(P.gens):
            for u in alg.basis_at(vs):
                if u.end == vr:
                    index[r, P.index[u, s]] = len(elems)
                    elems.append((r, s, u))
    gens = [i for i, j in enumerate(P.parent) if j < 0]
    by_length = sorted(range(P.total), key=lambda i: P.belems[i][0].length)
    images = []
    for r, s, u in elems:
        img: Map = {gens[r]: {P.index[u, s]: alg.field.one()}}
        for i in by_length:
            p, r2 = P.belems[i]
            if r2 == r and p.length:
                img[i] = P.rep.act(p.last_arrow(), img[P.parent[i]])
        images.append({i: row for i, row in img.items() if row})
    unip = tuple(j for j, (_, _, u) in enumerate(elems) if u.length >= 1)
    deg0 = tuple(j for j, (_, _, u) in enumerate(elems) if u.length == 0)
    return EndoSpace(P, tuple(elems), index, images, unip, deg0)


@dataclass(frozen=True)
class OrbitDims:
    aut: int
    unipotent: int
    graded: int


def _stab_residues(
    P: ProjectiveCover, C: SubmodulePoint, endo: EndoSpace, subset: Iterable[int]
) -> Iterator[SparseRow]:
    """Per endo index in the subset, the residues modulo C of the images of
    the rows of C, stacked into one sparse row (row k of C fills the
    coordinates k*|P| to (k+1)*|P| - 1). The linear map coefficient ->
    stacked residue has kernel the endomorphisms in the span that keep C
    inside itself."""
    n = P.total
    span = C.span
    rows = list(span.rows.values())
    for j in subset:
        stacked: SparseRow = {}
        for k, row in enumerate(rows):
            for i, x in span.reduce(endo.apply(j, row)).items():
                stacked[k * n + i] = x
        yield stacked


def _stab_rank(
    P: ProjectiveCover, C: SubmodulePoint, endo: EndoSpace, subset: tuple[int, ...]
) -> int:
    """Orbit dimension of the subgroup spanned by the given endo indices:
    the rank of coefficient -> (residues of images of C mod C)."""
    return len(Echelon(P.alg.field, _stab_residues(P, C, endo, subset)))


def orbit_dims(P: ProjectiveCover, C: SubmodulePoint) -> OrbitDims:
    endo = P.endo
    f = P.alg.field
    residues = list(_stab_residues(P, C, endo, range(endo.dim)))

    def rank_of(subset: Iterable[int]) -> int:
        return len(Echelon(f, (residues[j] for j in subset)))

    return OrbitDims(
        aut=rank_of(range(endo.dim)),
        unipotent=rank_of(endo.unipotent),
        graded=rank_of(endo.degree0),
    )


def endo_invariant(
    P: ProjectiveCover, C: SubmodulePoint, endo: EndoSpace | None = None
) -> tuple[bool, tuple[int, int, PathWord] | None]:
    """Is C stable under every endomorphism of P? On failure the second
    component is a violating basis endomorphism (r, s, u): z_r -> u*z_s."""
    if endo is None:
        endo = P.endo
    for j, stacked in enumerate(_stab_residues(P, C, endo, range(endo.dim))):
        if stacked:
            return False, endo.elems[j]
    return True, None


def is_homogeneous_point(P: ProjectiveCover, C: SubmodulePoint) -> bool:
    """Is C spanned by path-length-homogeneous vectors? Requires the ideal
    itself to be length-graded (IdealNotGraded otherwise)."""
    if not P.alg.is_homogeneous_ideal():
        raise IdealNotGraded("the defining ideal is not length-graded")
    span = C.span
    lengths = sorted({p.length for p, _ in P.belems})
    for row in span.rows.values():
        for l in lengths:
            comp = {i: x for i, x in row.items() if P.belems[i][0].length == l}
            if not span.contains(comp):
                return False
    return True


@dataclass(frozen=True)
class ModuliVerdict:
    """Outcome of the fine-moduli decision for (top, dimension).

    kind is one of Fine, GradedFine, NoCoarse, Unknown; witness/witness_endo
    carry a non-invariant point and the endomorphism moving it when kind is
    NoCoarse; exhaustive records whether the sweep covered every point."""

    kind: str
    reason: str
    witness: SubmodulePoint | None = None
    witness_endo: tuple[int, int, PathWord] | None = None
    exhaustive: bool = False


def _chart_sweepable(pres: ChartPresentation, limits: SearchLimits) -> bool:
    """Whether _chart_points sweeps the chart exhaustively: it has no
    variables, or its q^N coordinate tuples fit limits.sweep."""
    f = pres.cover.alg.field
    nvars = len(pres.variables)
    return nvars == 0 or (f.is_finite and f.order**nvars <= limits.sweep)


def _chart_points(
    pres: ChartPresentation, limits: SearchLimits, rng: random.Random, pin: bool
) -> list[list[Scalar]]:
    """Equation-satisfying coordinate tuples of a chart: all of them when
    _chart_sweepable (only those with the pinned variables at zero, given
    pin), else a sample (zeros, units, then seeded randoms)."""
    f = pres.cover.alg.field
    nvars = len(pres.variables)

    def ok(vals: list[Scalar]) -> bool:
        return all(f.is_zero(eq.eval(vals)) for eq in pres.equations)

    if _chart_sweepable(pres, limits):
        pins = set(pres.pinned) if pin else set()
        ranges = [[f.zero()] if k in pins else f.elements() for k in range(nvars)]
        return [list(v) for v in itertools.product(*ranges) if ok(list(v))]
    cands = [[f.zero()] * nvars]
    for k in range(nvars):
        unit = [f.zero()] * nvars
        unit[k] = f.one()
        cands.append(unit)
    for _ in range(limits.iso_tries):
        cands.append([f.random(rng) for _ in range(nvars)])
    seen = set()
    pts = []
    for v in cands:
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        if ok(v):
            pts.append(v)
    return pts


def stratum_points(
    charts: Iterable[ChartPresentation], limits: SearchLimits, rng: random.Random
) -> Iterator[tuple[ChartPresentation, list[Scalar], SubmodulePoint]]:
    """Each distinct point of the charts once, as (chart, coordinates,
    point), at the first chart and coordinates that reach it.

    The charts must come as whole strata, each in skeleta_with_dims order.
    They are taken one at a time, so a caller that stops early leaves the
    later charts unbuilt and the rng unread.

    A point C lies on the chart of sigma exactly when sigma is a skeleton
    of M = P/C, so the first chart to reach C is that of its first
    skeleton. While every chart so far was swept in full, each chart is
    swept only over the cell of the points whose first skeleton it is,
    with pres.pinned held at zero. For a monomial ideal the pins cut out
    exactly that cell:
    * every skeleton of M has the radical layering of M and lists its
      members by length, so the first skeleton is first layer by layer;
    * layer l of a skeleton is a basis of J^l M / J^{l+1} M chosen among
      the arrow-extensions a*b of layer l - 1, which span it (a path off
      the path basis is zero in P), and every such basis extends to a
      skeleton; so the first skeleton is greedy: it takes an extension
      exactly when that is independent, in J^l M / J^{l+1} M, of the
      extensions before it in P.rank order;
    * on the chart of sigma an extension a*b off sigma is congruent,
      modulo C + J^{l+1} P, to the sum of c(a, b, b') b' over the members
      b' of length l; so sigma is greedy exactly when c(a, b, b') = 0
      whenever |b'| = |b| + 1 and b' comes after a*b.
    Zero is the first field element, so the cut sweep yields the points of
    the full one in the same order. After a sampled chart a later chart
    may be the first to reach a point that lies on the sampled one, so the
    pins stay off from then on. Points are still checked against those
    already yielded, which also covers non-monomial ideals, where nothing
    is pinned."""
    seen: set[tuple] = set()
    swept = True
    for pres in charts:
        swept = swept and _chart_sweepable(pres, limits)
        for vals in _chart_points(pres, limits, rng, swept):
            pt = coords_to_point(pres, vals)
            if pt.rows not in seen:
                seen.add(pt.rows)
                yield pres, vals, pt


def moduli_report(
    alg: Algebra,
    top: TopSpec | tuple[int, ...],
    d: tuple[int, ...] | int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> ModuliVerdict:
    """Decide whether the modules with top T and dimension (vector) d admit
    a fine moduli space, with certificates.

    Fine comes from either the socle criterion for a simple top (valid for
    every d at once) or an exhaustive endo-invariance sweep for a squarefree
    top; NoCoarse returns a witness point moved off itself by an
    endomorphism; GradedFine asserts a fine moduli space for the
    graded-submodule variety when the ideal is length-graded and the top is
    simple; everything else is Unknown.
    """
    P = projective_cover(alg, top)
    top = P.top
    if top.simple:
        # e_v JP lies in soc(JP) when no arrow out of v moves a basis path
        # of length >= 1 from v to v
        v = P.gens[0]
        one = alg.field.one()
        loops = [i for i, (p, _) in enumerate(P.belems) if p.length >= 1 and p.end == v]
        if not any(P.rep.act(a.label, {i: one}) for i in loops for a in alg.quiver.arrows_out(v)):
            return ModuliVerdict(
                kind="Fine",
                reason=(
                    f"top S{v} meets the radical of P only in its socle "
                    f"(dim {len(loops)} = {len(loops)} at vertex {v}), "
                    f"so every point is an isolated orbit"
                ),
                exhaustive=True,
            )
    rng = random.Random(limits.seed)
    if isinstance(d, int):
        dvecs = [
            dv
            for dv in itertools.product(*(range(m + 1) for m in P.dims))
            if sum(dv) == d
        ]
    else:
        dvecs = [tuple(d)]
    charts: list[ChartPresentation] = []

    def presentations() -> Iterator[ChartPresentation]:
        for dvec in dvecs:
            for sigma in skeleta_with_dims(P, dvec):
                charts.append(chart_equations(P, sigma))
                yield charts[-1]

    for pres, vals, C in stratum_points(presentations(), limits, rng):
        ok, g = endo_invariant(P, C)
        if not ok:
            labels = ", ".join(
                f"{name}={alg.field.format(v)}" for name, v in zip(pres.ring.names, vals)
            )
            where = "{" + ", ".join(P.describe(b) for b in pres.sigma.elems) + "}"
            return ModuliVerdict(
                kind="NoCoarse",
                reason=(
                    f"point on chart {where} at ({labels or 'origin'}) is moved "
                    f"by the endomorphism {describe_endo(g)}"
                ),
                witness=C,
                witness_endo=g,
                exhaustive=False,
            )
    swept_all = all(_chart_sweepable(pres, limits) for pres in charts)
    if top.squarefree and swept_all:
        return ModuliVerdict(
            kind="Fine",
            reason="every point of every chart is stable under End(P) "
            "(exhaustive sweep)",
            exhaustive=True,
        )
    if top.simple and alg.is_homogeneous_ideal():
        return ModuliVerdict(
            kind="GradedFine",
            reason="the ideal is length-graded and the top is simple, so the "
            "graded-point locus carries a fine moduli space",
            exhaustive=False,
        )
    return ModuliVerdict(
        kind="Unknown",
        reason=(
            "sampled points were all invariant but the sweep was not exhaustive"
            if charts and not swept_all
            else "no decision criterion applies"
        ),
        exhaustive=False,
    )
