"""Finite-dimensional path algebra quotients KQ/I, kept as their arrow table.

Lambda = KQ/I is its deglex path basis on integer positions (e_v at v - 1)
and one table, built once: for each arrow a, the linalg.Map sending basis
position b to the normal form of a*b. The normal form of any path is the
fold of the table along its arrows from its start idempotent (linalg.fold).

build_algebra grows the paths of the length window from the idempotents one
arrow at a time and cuts each path, and all that extends it, once a one-term
relation is a suffix of its arrow word: such a path lies in the ideal. Over
the tip-free paths left, the products p*r*q of the other relations that fit
the window are eliminated with pivots chosen deglex-descending (longer paths
first, then lexicographically larger in declaration order). The basis grows
outward: a path that is no pivot is a basis path when its initial subpath
is one. Each table entry comes from the window's rows.

The table is certified. The rows lie in I, so a path whose fold is zero
lies in I. If every relation r folds to zero on every basis path, then so
does every p*r*q, as fold(p*r*q) = p*fold(r*fold(q)), so the table is
exactly KQ/I. With one-term relations only, every path folds to itself or
to zero, and the check is not needed.

A nonzero fold w of r on a basis path b is a combination of basis paths
that lies in I: every table entry a*b' is congruent to a*b' modulo I (a
basis path is shorter than the Loewy length, so a*b' fits the window, and
a form differs from its path by rows), so w is congruent to r*b. w joins
the relations and the table is built again (the Groebner restart). w is
a row of the new build, so its deglex-largest path, a basis path before,
becomes a pivot, and the basis only shrinks: there are at most dim Lambda
restarts. As I lies in J^2, so does w: a restart never meets a relation
with a term of length < 2.
"""

from __future__ import annotations

import itertools
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
    """Construct KQ/I, certifying admissibility within the length window.

    A tip-free path, one that contains no one-term relation, gets its normal
    form in deglex order: a pivot is minus the rest of its fully reduced
    row, whose paths come earlier; a path whose initial subpath b is a basis
    path is one itself; any other path is its last arrow applied to the form
    of its initial subpath. The form of a*b, b a basis path, is the table
    entry. The Loewy length is the smallest m <= max_len at which every
    tip-free path has form zero. When a relation has several terms, every
    relation is folded on every basis path, and a nonzero fold joins the
    relations for a new build (the module docstring says why this is sound
    and ends).

    Raises BadRelation for malformed generators, NotAdmissible when no
    m <= max_len has all length-m paths reducing to zero, and
    SearchTooLarge when the walk passes PATH_BUDGET tip-free paths.
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
        basis, arrows, parent, ext, loewy = _arrow_table(quiver, generators, field, max_len)
        folds = (relation_image(field, arrows, rel, {i: one}) for rel in checked for i in range(len(basis)))
        w = next(filter(None, folds), None)
        if w is None:
            return Algebra(quiver, field, tuple(relations), max_len, basis, arrows, parent, ext, loewy)
        # w lies in I (the module docstring says why): a relation the window missed
        generators.append(Element({basis[j]: c for j, c in w.items()}))


def _arrow_table(
    quiver: Quiver, relations: list[Element], field: Field, max_len: int
) -> tuple[tuple[PathWord, ...], dict[str, Map], tuple[int, ...], tuple[dict[str, int], ...], int]:
    """The basis, arrow Maps, parent and ext tables and Loewy length that
    the window's rows give (build_algebra's docstring), not yet certified."""
    # Tip-free paths by length. A new path's prefix is tip-free, so it
    # contains a one-term relation iff one is a suffix of its arrow word.
    tips = {next(iter(rel.terms)).arrows for rel in relations if len(rel.terms) == 1}
    tip_lens = {len(t) for t in tips}
    by_len: list[list[PathWord]] = [[idempotent(v) for v in quiver.vertices]]
    total = quiver.n
    while len(by_len) <= max_len and by_len[-1]:
        grown = (extend(p, a) for p in by_len[-1] for a in quiver.arrows_out(p.end))
        nxt = [q for q in grown if tips.isdisjoint(q.arrows[-k:] for k in tip_lens)]
        total += len(nxt)
        if total > PATH_BUDGET:
            raise SearchTooLarge(f"more than {PATH_BUDGET} paths of length <= {max_len}")
        by_len.append(nxt)
    all_paths = [p for lst in by_len for p in lst]
    all_paths.sort(key=lambda p: deglex_key(quiver, p))
    # a path is its start and arrow word
    rank_of = {(p.start, p.arrows): i for i, p in enumerate(all_paths)}

    # Span of the rest of the ideal on the tip-free paths: all products
    # p*r*q whose every term still fits, as sparse rows. Columns run in
    # reverse rank order, so the pivot of a row (its smallest column) is
    # its deglex-largest path. A term that is not tip-free is a unit
    # column and drops out; so does every product through a p or q that
    # is not tip-free.
    top = len(all_paths) - 1
    rows: list[SparseRow] = []
    for rel in relations:
        if len(rel.terms) == 1:
            continue
        room = max_len - max(rel.lengths())
        r_start = next(iter(rel.terms)).start
        r_end = next(iter(rel.terms)).end
        rights = [q for lst in by_len[: room + 1] for q in lst if q.end == r_start]
        # left paths grouped by length: a right path q leaves room for the
        # groups of length <= room - |q|
        lefts = [[p for p in lst if p.start == r_end] for lst in by_len[: room + 1]]
        for q in rights:
            for p in itertools.chain.from_iterable(lefts[: room - q.length + 1]):
                # distinct terms w give distinct paths p*w*q: nothing adds up
                pwq = ((rank_of.get((q.start, q.arrows + w.arrows + p.arrows)), c) for w, c in rel.terms.items())
                rows.append({top - k: c for k, c in pwq if k is not None})
    ideal = Echelon(field, rows)

    # the outward basis and the table, in deglex order (build_algebra says how)
    one = field.one()
    basis: list[PathWord] = []
    parent: list[int] = []
    ext: list[dict[str, int]] = []
    arrows: dict[str, Map] = {a.label: {} for a in quiver.arrows}
    place = [-1] * len(all_paths)  # rank -> basis position, -1 off the basis
    forms: list[SparseRow] = []
    for k, p in enumerate(all_paths):
        # the initial subpath; an idempotent finds itself, not yet placed
        b = place[j := rank_of[p.start, p.arrows[:-1]]]
        if (row := ideal.rows.get(top - k)) is not None:
            form: SparseRow = {}
            for c, x in row.items():
                if c != top - k:
                    field.axpy(form, field.neg(x), forms[top - c])
        elif b >= 0 or not p.length:
            place[k] = len(basis)
            form = {len(basis): one}
            if b >= 0:
                ext[b][p.arrows[-1]] = len(basis)
            basis.append(p)
            parent.append(b)
            ext.append({})
        else:
            form = apply(field, arrows[p.arrows[-1]], forms[j])
        if b >= 0 and form:
            arrows[p.arrows[-1]][b] = form
        forms.append(form)

    alive = {p.length for p, form in zip(all_paths, forms) if form}
    loewy = next((m for m in range(1, len(by_len)) if m not in alive), None)
    if loewy is None:
        raise NotAdmissible(
            f"no m <= {max_len} has all length-m paths reducing to zero; "
            "the ideal may not be admissible or max_len is too small"
        )
    return tuple(basis), arrows, tuple(parent), tuple(ext), loewy
