"""Finite-dimensional path algebra quotients KQ/I with exact normal forms.

build_algebra grows the paths of the length window from the idempotents one
arrow at a time and cuts each path, and all that extends it, once a one-term
relation is a suffix of its arrow word: such a path lies in the ideal. Over
the tip-free paths left, the products p*r*q of the other relations are
eliminated with pivots chosen deglex-descending (longer paths first, then
lexicographically larger in declaration order). The surviving paths form the
monomial basis; every eliminated path gets a fully reduced normal form.

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
        """Normal form of a single path as a basis-supported coefficient dict.
        A path shorter than the Loewy length and off the basis and the table
        of tip-free paths contains a one-term relation, so it is zero."""
        if p in self.basis_index:
            return {p: self.field.one()}
        if p.length >= self.loewy:
            return {}
        return self._nf_table.get(p, {})

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
        basis reduces to zero. Those off the table contain a one-term
        relation and do."""
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

    The walk visits the tip-free paths of length <= max_len, those that
    contain no one-term relation; a path that does is a unit row of the
    ideal's RREF and is cut with its extensions. The products of the other
    relations over the tip-free paths, with every term that leaves them
    dropped, are the only rows eliminated; the RREF of a space is unique,
    so the basis and normal forms are those of eliminating every product
    over the whole window. The table holds the tip-free paths off the basis.

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
    rank_of = {p: i for i, p in enumerate(all_paths)}

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
                pwq = ((rank_of.get(compose(quiver, p, compose(quiver, w, q))), c) for w, c in rel.terms.items())
                rows.append({top - k: c for k, c in pwq if k is not None})
    ideal = Echelon(field, rows)

    # The pivot paths are eliminated and the rest form the basis. A fully
    # reduced row is supported on its pivot and basis paths, so it is the
    # normal form of its pivot path: the pivot equals minus the rest.
    nf_table = {
        all_paths[top - c]: {all_paths[top - k]: field.neg(v) for k, v in ideal.rows[c].items() if k != c}
        for c in sorted(ideal.rows, reverse=True)
    }
    basis = tuple(p for p in all_paths if p not in nf_table)

    # Loewy certificate: smallest m with every length-m path reducing to
    # zero. Every tip-free length-m path must be a pivot with normal form
    # zero; past the last layer of the walk there are none.
    loewy = next(
        (m for m in range(1, len(by_len)) if all(p in nf_table and not nf_table[p] for p in by_len[m])),
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
