"""Finite-dimensional path algebra quotients KQ/I, kept as their arrow table.

Lambda = KQ/I is its deglex path basis on integer positions (e_v at v - 1)
and one table, built once: for each arrow a, the linalg.Map sending basis
position b to the normal form of a*b. The normal form of any path is the
fold of the table along its arrows from its start idempotent (linalg.fold).

build_algebra grows the basis and the table outward from the idempotents,
one length at a time (Green's noncommutative Groebner reduction, 1999). The
candidates of length l are the paths a*b, b a basis path of length l - 1,
that have no one-term relation as a suffix; one that has lies in I, and so
does everything that extends it. When some relation has several terms,
every relation r is folded on every basis path b with |lead r| + |b| = l,
where lead r is the deglex-largest term of r. The fold runs through the
table built so far, and each candidate stands for itself. Each such row is
eliminated with the candidates in deglex-descending order, so a row's pivot
is its deglex-largest candidate. A candidate that is no pivot becomes a
basis path; a pivot's table entry is minus the rest of its row, whose
candidates are deglex-smaller and whose basis paths are shorter.

Every row, each candidate read as its own path, lies in I: each table
entry is congruent to its path modulo I, so the row is congruent to r*b.
A row that reduces to shorter basis paths alone is a combination w of
basis paths in I. w joins the relations and the table is built again (the
Groebner restart). As I lies in J^2, so does w: a restart never meets a
relation with a term of length < 2. The leading path of w was a basis
path; in every later build the row of w on its start idempotent makes it
a pivot when it is a candidate. So no two restarts find the same leading
path, and as these paths are shorter than max_len, the loop ends.

The table is then certified. A path whose fold is zero lies in I. If every
relation r folds to zero on every basis path, then so does every p*r*q, as
fold(p*r*q) = p*fold(r*fold(q)), so the table is exactly KQ/I. With
one-term relations only, every path folds to itself or to zero, and the
check is not needed. A nonzero fold is a combination of basis paths in I
and restarts the build as a row does (Bergman's diamond lemma, 1978).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAdmissible, SearchTooLarge
from .fields import Field
from .linalg import Echelon, Map, SparseRow, apply, fold
from .quiver import Element, PathWord, Quiver, deglex_key, extend, idempotent, validate_relation

PATH_BUDGET = 500_000


def relation_image(field: Field, maps: dict[str, Map], rel: Element, vec: SparseRow) -> SparseRow:
    """rel*vec on arrow Maps: the sum over the terms c*w of rel of c times
    the fold of vec along w."""
    out: SparseRow = {}
    for w, c in rel.terms.items():
        field.axpy(out, c, fold(field, maps, vec, w.arrows))
    return out


@dataclass(eq=False)
class Algebra:
    """KQ/I on its path basis and arrow table; build it with build_algebra.

    basis[i] is the basis path at position i, deglex ascending. arrows[a]
    sends position i to the normal form of a*basis[i], zero products left
    out. parent[i] is the position of the initial subpath of basis[i] (-1 at
    an idempotent), and ext[i] maps an arrow label a to the position of
    a*basis[i] when that is a basis path, in arrows_out order. relations
    are the relations as given, without those a Groebner restart adds.
    """

    quiver: Quiver
    field: Field
    relations: tuple[Element, ...]
    max_len: int
    basis: tuple[PathWord, ...]
    arrows: dict[str, Map]
    parent: tuple[int, ...]
    ext: tuple[dict[str, int], ...]
    loewy: int

    # -- structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_at(self, start: int) -> list[PathWord]:
        """Basis paths of the projective Lambda*e_start, deglex ascending."""
        return [p for p in self.basis if p.start == start]

    # -- derived invariants ----------------------------------------------

    def projective_layer_dims(self, v: int) -> tuple[tuple[int, ...], ...]:
        """Length layering of Lambda*e_v: row l counts the basis paths of
        length exactly l starting at v, bucketed by end vertex.  Trailing
        all-zero rows are dropped."""
        top = max(p.length for p in self.basis_at(v))
        layers = [[0] * self.quiver.n for _ in range(top + 1)]
        for p in self.basis_at(v):
            layers[p.length][p.end - 1] += 1
        return tuple(tuple(row) for row in layers)

    def lengths_grade_radical(self, v: int) -> bool:
        """True iff every table entry a*b, b a basis path from v, is
        supported on paths of length |b| + 1. Then, by induction on length,
        the normal form of every path from v keeps its length, so
        J^l*Lambda*e_v, spanned by the normal forms of the paths of length
        >= l from v, is the span B_l of the basis paths of length >= l from
        v, for every l, and projective_layer_dims is the radical layering
        of Lambda*e_v. Otherwise the path a*b, of length m, has a shorter
        basis path in its normal form, which lies in J^m*Lambda*e_v but not
        in B_m: the two layerings, trailing zero rows dropped, differ at m."""
        b = self.basis
        return all(
            b[j].length == b[i].length + 1 for x in self.arrows.values() for i in x if b[i].start == v for j in x[i]
        )

    def is_nakayama(self) -> bool:
        """True iff every indecomposable projective and injective is uniserial,
        which for a connected bound quiver algebra means in- and out-degree at
        most one at every vertex."""
        for v in self.quiver.vertices:
            if len(self.quiver.arrows_out(v)) > 1 or len(self.quiver.arrows_in(v)) > 1:
                return False
        return True

    def is_monomial(self) -> bool:
        """True iff the ideal is spanned by paths: every nonzero a*b is a
        basis path. Those are the entries of ext, so the table holds no
        other entry."""
        return sum(map(len, self.arrows.values())) == sum(map(len, self.ext))

    def is_homogeneous_ideal(self) -> bool:
        """True iff the relation ideal is generated by length-homogeneous
        elements, that is, graded by length: then every length component of
        p - nf(p) lies in I, so normal forms keep lengths, and conversely.
        That is length grading at every vertex."""
        return all(self.lengths_grade_radical(v) for v in self.quiver.vertices)

    def __repr__(self) -> str:
        return (
            f"Algebra(n={self.quiver.n}, arrows={len(self.quiver.arrows)}, "
            f"dim={self.dim}, loewy={self.loewy}, field={self.field})"
        )


def build_algebra(
    quiver: Quiver,
    relations: list[Element],
    field: Field,
    max_len: int,
) -> Algebra:
    """Construct KQ/I, certifying it and its Loewy length <= max_len.

    _arrow_table grows the basis and the table one length at a time, up to
    max_len; a relation among basis paths that its rows find joins the
    relations for a new build. When a relation has several terms, every
    relation is then folded on every basis path, and a nonzero fold joins
    the relations in the same way (the module docstring says why this is
    sound and ends). The Loewy length is the smallest m at which the forms
    of the length-m paths span zero, read off the certified table; a basis
    path of length max_len refuses before the certificate.

    Raises BadRelation for malformed generators, NotAdmissible when no
    m <= max_len has all length-m paths reducing to zero, and
    SearchTooLarge when the basis paths and the candidates of one length
    pass PATH_BUDGET.
    """
    canon: list[Element] = []
    for rel in relations:
        validate_relation(rel, field)
        terms = {}
        for p, c in rel.terms.items():
            c = field.of_int(c) if isinstance(c, int) else field.of_fraction(c)
            if not field.is_zero(c):
                terms[p] = c
        canon.append(Element(terms))
        validate_relation(canon[-1], field)
    relations = canon
    generators = list(relations)
    # with one-term relations only, every path folds to itself or to zero
    checked = relations if any(len(rel.terms) > 1 for rel in relations) else []
    one = field.one()
    while True:
        basis, arrows, parent, ext, w = _arrow_table(quiver, generators, field, max_len)
        # the certificate, unless a row found w or a basis path has length
        # max_len (then J^max_len is not zero)
        if w is None and basis[-1].length < max_len:
            folds = (relation_image(field, arrows, rel, {i: one}) for rel in checked for i in range(len(basis)))
            w = next(filter(None, folds), None)
        if w is None:
            break
        # w lies in I (the module docstring says why): a relation among basis paths
        generators.append(Element({basis[j]: c for j, c in w.items()}))
    # the Loewy length: the smallest m at which the forms of the paths of
    # length m span zero. When the ideal is graded by length, they span the
    # basis paths of length m (Algebra.lengths_grade_radical), and the
    # level loop, which runs apply and Echelon on every level, is skipped
    alg = Algebra(quiver, field, tuple(relations), max_len, basis, arrows, parent, ext, basis[-1].length + 1)
    if not alg.is_homogeneous_ideal():
        level, alg.loewy = Echelon(field, ({v: one} for v in range(quiver.n))), 0
        while level.rows and alg.loewy <= max_len:
            level = Echelon(field, (apply(field, x, row) for x in arrows.values() for row in level.rows.values()))
            alg.loewy += 1
    if alg.loewy > max_len:
        raise NotAdmissible(
            f"no m <= {max_len} has all length-m paths reducing to zero; "
            "the ideal may not be admissible or max_len is too small"
        )
    return alg


def _arrow_table(
    quiver: Quiver, relations: list[Element], field: Field, max_len: int
) -> tuple[tuple[PathWord, ...], dict[str, Map], tuple[int, ...], tuple[dict[str, int], ...], SparseRow | None]:
    """One outward pass (the module docstring): the basis, arrow Maps and
    parent and ext tables, not yet certified, and None; or, once a row
    leaves a combination w of basis paths alone, the table so far and w as
    a row on basis positions."""
    # A candidate's initial subpath is a basis path, so contains no one-term
    # relation: the candidate contains one iff one is a suffix of its word.
    tips = {next(iter(rel.terms)).arrows for rel in relations if len(rel.terms) == 1}
    tip_lens = {len(t) for t in tips}
    # once a relation has several terms, every relation r gives a row at
    # length |lead r| + |b| for each basis path b that ends at its start
    several = any(len(rel.terms) > 1 for rel in relations)
    leads = [(max(rel.lengths()), next(iter(rel.terms)).start, rel) for rel in relations if several]
    one = field.one()
    basis = [idempotent(v) for v in quiver.vertices]
    parent = [-1] * quiver.n
    ext: list[dict[str, int]] = [{} for _ in basis]
    arrows: dict[str, Map] = {a.label: {} for a in quiver.arrows}
    starts = [0, quiver.n]  # the basis paths of length l sit at starts[l]:starts[l + 1]
    for l in range(1, max_len + 1):
        grown = ((extend(basis[b], a), b) for b in range(starts[l - 1], starts[l]) for a in quiver.arrows_out(basis[b].end))
        cands = [(p, b) for p, b in grown if tips.isdisjoint(p.arrows[-k:] for k in tip_lens)]
        if not cands:
            break
        if starts[l] + len(cands) > PATH_BUDGET:
            raise SearchTooLarge(f"more than {PATH_BUDGET} paths of length <= {max_len}")
        cands.sort(key=lambda c: deglex_key(quiver, c[0]))
        # candidate k stands for itself at column -1 - k, so the pivot of a
        # row is its deglex-largest candidate
        for k, (p, b) in enumerate(cands):
            arrows[p.arrows[-1]][b] = {-1 - k: one}
        ideal = Echelon(field)
        folds = (
            relation_image(field, arrows, rel, {b: one})
            for lead, start, rel in leads if lead <= l
            for b in range(starts[l - lead], starts[l - lead + 1]) if basis[b].end == start
        )
        for row in folds:
            # a pivot at a basis column: the row left basis paths alone
            if (c := ideal.insert(row)) is not None and c >= 0:
                return tuple(basis), arrows, tuple(parent), tuple(ext), ideal.rows[c]
        # a candidate that is no pivot is a basis path; a pivot is minus the
        # rest of its row, whose candidates come earlier
        place = {}
        for k, (p, b) in enumerate(cands):
            a = p.arrows[-1]
            if (row := ideal.rows.get(-1 - k)) is None:
                place[-1 - k] = ext[b][a] = len(basis)
                arrows[a][b] = {len(basis): one}
                basis.append(p)
                parent.append(b)
                ext.append({})
            elif form := {place.get(j, j): field.neg(x) for j, x in row.items() if j != -1 - k}:
                arrows[a][b] = form
            else:
                del arrows[a][b]
        starts.append(len(basis))
    return tuple(basis), arrows, tuple(parent), tuple(ext), None
