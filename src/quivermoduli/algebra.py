"""Finite-dimensional path algebra quotients KQ/I with exact normal forms.

build_algebra reads off the span of all bounded-length products p*r*q of the
relation generators, with pivots chosen deglex-descending (longer paths first,
then lexicographically larger in declaration order). The surviving paths form
the monomial basis; every eliminated path gets a fully reduced normal form.
A product of a one-term relation is a single path, so the monomial part of the
ideal needs no elimination; only the products of relations with several terms,
with those paths dropped, go through an Echelon.

Admissibility is certified inside the length window: the Loewy length is the
smallest m such that every path of length m reduces to zero, and products of
relations are only used when all their terms fit under max_len, so every
zero reduction is an honest ideal-membership certificate.
"""

from __future__ import annotations

import itertools

from .errors import NotAdmissible, SearchTooLarge
from .fields import Field, Scalar
from .linalg import Echelon, SparseRow
from .quiver import (
    Element,
    PathWord,
    Quiver,
    compose,
    deglex_key,
    extend,
    idempotent,
    validate_relation,
)

PATH_BUDGET = 500_000


def enumerate_paths(quiver: Quiver, max_len: int) -> list[list[PathWord]]:
    """Paths grouped by length, 0..max_len; SearchTooLarge past PATH_BUDGET."""
    by_len: list[list[PathWord]] = [[idempotent(v) for v in quiver.vertices]]
    total = quiver.n
    for _ in range(max_len):
        nxt: list[PathWord] = []
        for p in by_len[-1]:
            for a in quiver.arrows_out(p.end):
                q = extend(p, a)
                if q is not None:
                    nxt.append(q)
        total += len(nxt)
        if total > PATH_BUDGET:
            raise SearchTooLarge(f"more than {PATH_BUDGET} paths of length <= {max_len}")
        by_len.append(nxt)
    return by_len


class Algebra:
    """KQ/I with a fixed monomial basis and reduction table. Construct via
    build_algebra, not directly."""

    def __init__(
        self,
        quiver: Quiver,
        field: Field,
        relations: tuple[Element, ...],
        max_len: int,
        basis: tuple[PathWord, ...],
        nf_table: dict[PathWord, dict[PathWord, Scalar]],
        loewy: int,
    ):
        self.quiver = quiver
        self.field = field
        self.relations = relations
        self.max_len = max_len
        self.basis = basis
        self.basis_index = {p: i for i, p in enumerate(basis)}
        self._nf_table = nf_table
        self.loewy = loewy

    # -- structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_at(self, start: int) -> list[PathWord]:
        """Basis paths of the projective Lambda*e_start, deglex ascending."""
        return [p for p in self.basis if p.start == start]

    # -- normal forms -----------------------------------------------------

    def nf_path(self, p: PathWord) -> dict[PathWord, Scalar]:
        """Normal form of a single path as a basis-supported coefficient dict."""
        if p in self.basis_index:
            return {p: self.field.one()}
        if p.length >= self.loewy:
            return {}
        hit = self._nf_table.get(p)
        if hit is None:
            raise KeyError(f"path {p} not covered by the reduction table")
        return hit

    def normal_form(self, x: Element) -> Element:
        f = self.field
        out = Element()
        for p, c in x.terms.items():
            f.axpy(out.terms, c, self.nf_path(p))
        return out

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
        """True iff no non-basis path starting at v has a strictly shorter
        path in its normal form. Then J^l*Lambda*e_v, spanned by the normal
        forms of the paths of length >= l from v, is the span B_l of the
        basis paths of length >= l from v, for every l, so
        projective_layer_dims is the radical layering of Lambda*e_v.
        Otherwise a path of length m has a shorter basis path in its normal
        form, which lies in J^m*Lambda*e_v but not in B_m: the two
        layerings, trailing zero rows dropped, differ at m."""
        return not any(q.length < p.length for p, nf in self._nf_table.items() if p.start == v for q in nf)

    def is_nakayama(self) -> bool:
        """True iff every indecomposable projective and injective is uniserial,
        which for a connected bound quiver algebra means in- and out-degree at
        most one at every vertex."""
        for v in self.quiver.vertices:
            if len(self.quiver.arrows_out(v)) > 1 or len(self.quiver.arrows_in(v)) > 1:
                return False
        return True

    def is_monomial(self) -> bool:
        """True iff the ideal is spanned by paths: every path outside the
        basis reduces to zero."""
        return not any(self._nf_table.values())

    def is_homogeneous_ideal(self) -> bool:
        """True iff the relation ideal is generated by length-homogeneous
        elements: every length component of every generator must itself reduce
        to zero."""
        for rel in self.relations:
            by_len: dict[int, Element] = {}
            for p, c in rel.terms.items():
                by_len.setdefault(p.length, Element()).terms[p] = c
            if len(by_len) == 1:
                continue
            for part in by_len.values():
                if not self.normal_form(part).is_zero():
                    return False
        return True

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

    The paths p*w*q of one-term relations are the unit rows of the ideal's
    RREF. The products of the other relations, with those paths dropped,
    are the only rows eliminated; the RREF of a space is unique, so the
    basis and normal forms are those of eliminating every product.

    Raises BadRelation for malformed generators and NotAdmissible when no
    m <= max_len has all length-m paths reducing to zero.
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

    by_len = enumerate_paths(quiver, max_len)
    all_paths = [p for lst in by_len for p in lst]
    all_paths.sort(key=lambda p: deglex_key(quiver, p))
    rank_of = {p: i for i, p in enumerate(all_paths)}
    path_of = {i: p for p, i in rank_of.items()}

    # Span of the ideal inside the length window: all products p*r*q whose
    # every term still fits, as sparse rows. Columns run in reverse rank
    # order, so the pivot of a row (its smallest column) is its
    # deglex-largest path. A one-term product is a unit row (a tip, in
    # Green's terms); the RREF of the span is those and the rest's RREF.
    top = len(all_paths) - 1
    units: set[int] = set()
    mixed: list[SparseRow] = []
    for rel in relations:
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
                row = {top - rank_of[compose(quiver, p, compose(quiver, w, q))]: c for w, c in rel.terms.items()}
                if len(row) == 1:
                    units.update(row)
                else:
                    mixed.append(row)
    ideal = Echelon(field, ({k: c for k, c in row.items() if k not in units} for row in mixed))
    rows = {c: {} for c in units} | ideal.rows

    # The pivot paths are eliminated and the rest form the basis. A fully
    # reduced row is supported on its pivot and basis paths, so it is the
    # normal form of its pivot path: the pivot equals minus the rest.
    pivots = {top - c for c in rows}
    basis = tuple(path_of[i] for i in range(len(all_paths)) if i not in pivots)
    nf_table = {
        path_of[top - c]: {path_of[top - k]: field.neg(v) for k, v in rows[c].items() if k != c}
        for c in sorted(rows, reverse=True)
    }

    # Loewy certificate: smallest m with every length-m path reducing to zero.
    # Every pivot path has a normal form in the table.
    loewy = next(
        (m for m in range(1, max_len + 1) if all(rank_of[p] in pivots and not nf_table[p] for p in by_len[m])),
        None,
    )
    if loewy is None:
        raise NotAdmissible(
            f"no m <= {max_len} has all length-m paths reducing to zero; "
            "the ideal may not be admissible or max_len is too small"
        )

    # Inside the certified window the basis must be closed under initial
    # subpaths; deglex multiplicativity guarantees it, so just double-check.
    bset = set(basis)
    for p in basis:
        for m in range(p.length):
            if p.initial(m, quiver) not in bset:
                raise NotAdmissible("internal: basis not closed under initial subpaths")

    return Algebra(quiver, field, tuple(relations), max_len, basis, nf_table, loewy)
