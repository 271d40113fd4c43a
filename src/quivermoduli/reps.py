"""Modules as arrow-matrix tuples: validation, layerings, Hom spaces,
isomorphism testing, submodule enumeration, and local decompositions.

A Rep assigns to each arrow a d_end x d_start matrix. Vectors of the module
live in the flattened space K^|d| with vertex blocks in vertex order; every
submodule is graded by vertices (idempotents act), so per-vertex dimensions
of subspaces are read off the pivots of their RREF bases. Rep.act and
Rep.project, the arrow and idempotent actions, take and return them as
sparse rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .config import DEFAULT_LIMITS, SearchLimits
from .errors import (
    FieldNotFinite,
    NotInvertible,
    NotSubmodule,
    NotSumOfLocals,
    SearchTooLarge,
    ShapeMismatch,
    Unknown,
)
from .fields import Field, Scalar
from .linalg import (
    Echelon,
    Matrix,
    SparseRow,
    Vector,
    identity,
    is_invertible,
    inverse,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    rank,
    solve,
    space_key,
    span_rref,
    sparse,
    sparse_kernel_basis,
    transpose,
    zeros,
)
from .quiver import Element, PathWord, idempotent

SemisimpleSequence = tuple[tuple[int, ...], ...]


class Rep:
    __slots__ = ("alg", "d", "mats", "_arrows")

    def __init__(self, alg: Algebra, d: tuple[int, ...], mats: dict[str, Matrix]):
        self.alg = alg
        self.d = tuple(d)
        self.mats = {k: [row[:] for row in m] for k, m in mats.items()}
        # label -> (start offset, end offset, sparse columns), built by act
        self._arrows: dict[str, tuple[int, int, list[list[tuple[int, Scalar]]]]] | None = None

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def total(self) -> int:
        return sum(self.d)

    def offset(self, v: int) -> int:
        return sum(self.d[: v - 1])

    def block(self, vec: Vector, v: int) -> Vector:
        o = self.offset(v)
        return vec[o : o + self.d[v - 1]]

    def dim_at(self, v: int) -> int:
        return self.d[v - 1]

    def project(self, vec: SparseRow, v: int) -> SparseRow:
        """The component e_v * vec of a sparse global vector at vertex v."""
        o = self.offset(v)
        return {j: x for j, x in vec.items() if o <= j < o + self.d[v - 1]}

    def act(self, label: str, vec: SparseRow) -> SparseRow:
        """The image of a sparse global vector under one arrow.

        Each arrow matrix is read once, on the first call, into its nonzero
        entries per column, so an entry of vec costs one pass over the
        nonzero entries of its column.
        """
        f = self.field
        if self._arrows is None:
            self._arrows = {
                a.label: (
                    self.offset(a.start),
                    self.offset(a.end),
                    [
                        [(i, row[j]) for i, row in enumerate(self.mats[a.label]) if not f.is_zero(row[j])]
                        for j in range(self.dim_at(a.start))
                    ],
                )
                for a in self.alg.quiver.arrows
            }
        start, end, cols = self._arrows[label]
        zero = f.zero()
        out: SparseRow = {}
        for j, y in vec.items():
            if start <= j < start + len(cols):
                for i, x in cols[j - start]:
                    out[end + i] = f.add(out.get(end + i, zero), f.mul(x, y))
        return {k: x for k, x in out.items() if not f.is_zero(x)}

    def __repr__(self) -> str:
        return f"Rep(d={self.d}, field={self.field})"


@dataclass
class GroupElement:
    blocks: dict[int, Matrix]


def zero_rep(alg: Algebra, d: tuple[int, ...]) -> Rep:
    mats = {}
    for a in alg.quiver.arrows:
        mats[a.label] = zeros(alg.field, d[a.end - 1], d[a.start - 1])
    return Rep(alg, d, mats)


def simple_rep(alg: Algebra, v: int) -> Rep:
    d = tuple(1 if i == v else 0 for i in alg.quiver.vertices)
    return zero_rep(alg, d)


def rep_of_projective(alg: Algebra, v: int) -> Rep:
    """The left module Lambda*e_v on its path basis."""
    cols = alg.basis_at(v)
    col_index = {p: i for i, p in enumerate(cols)}
    d = tuple(sum(1 for p in cols if p.end == j) for j in alg.quiver.vertices)
    # local index of each basis path inside its vertex block
    local = {}
    counters = {j: 0 for j in alg.quiver.vertices}
    for p in cols:
        local[p] = counters[p.end]
        counters[p.end] += 1
    f = alg.field
    mats = {}
    for a in alg.quiver.arrows:
        m = zeros(f, d[a.end - 1], d[a.start - 1])
        for p in cols:
            if p.end != a.start:
                continue
            for b, c in alg.arrow_act(a.label, p).items():
                m[local[b]][local[p]] = c
        mats[a.label] = m
    return Rep(alg, d, mats)


def direct_sum(M: Rep, N: Rep) -> Rep:
    f = M.field
    d = tuple(x + y for x, y in zip(M.d, N.d))
    mats = {}
    for a in M.alg.quiver.arrows:
        am, an = M.mats[a.label], N.mats[a.label]
        rm, cm = M.dim_at(a.end), M.dim_at(a.start)
        rn, cn = N.dim_at(a.end), N.dim_at(a.start)
        m = zeros(f, rm + rn, cm + cn)
        for i in range(rm):
            for j in range(cm):
                m[i][j] = am[i][j]
        for i in range(rn):
            for j in range(cn):
                m[rm + i][cm + j] = an[i][j]
        mats[a.label] = m
    return Rep(M.alg, d, mats)


def path_matrix(M: Rep, p: PathWord) -> Matrix:
    """Evaluation of a path on M: a d_end x d_start matrix."""
    f = M.field
    if p.length == 0:
        return identity(f, M.dim_at(p.start))
    m = None
    for lbl in p.arrows:
        step = M.mats[lbl]
        m = step if m is None else mat_mul(f, step, m)
    return m


def element_matrix(M: Rep, x: Element) -> Matrix:
    """Evaluation of a parallel linear combination of paths."""
    f = M.field
    terms = list(x.terms.items())
    s, e = terms[0][0].start, terms[0][0].end
    out = zeros(f, M.dim_at(e), M.dim_at(s))
    for p, c in terms:
        pm = path_matrix(M, p)
        for i in range(len(out)):
            for j in range(len(out[0]) if out else 0):
                out[i][j] = f.add(out[i][j], f.mul(c, pm[i][j]))
    return out


def global_matrix(M: Rep, x: Element) -> Matrix:
    """Action of any algebra element on the flattened space K^|d|."""
    f = M.field
    n = M.total
    out = zeros(f, n, n)
    for p, c in x.terms.items():
        pm = path_matrix(M, p)
        ro, co = M.offset(p.end), M.offset(p.start)
        for i in range(M.dim_at(p.end)):
            for j in range(M.dim_at(p.start)):
                out[ro + i][co + j] = f.add(out[ro + i][co + j], f.mul(c, pm[i][j]))
    return out


def rep_validate(alg: Algebra, M: Rep) -> bool:
    for a in alg.quiver.arrows:
        m = M.mats.get(a.label)
        if m is None:
            raise ShapeMismatch(f"missing matrix for arrow {a.label}")
        r, c = M.dim_at(a.end), M.dim_at(a.start)
        if len(m) != r or any(len(row) != c for row in m):
            raise ShapeMismatch(
                f"arrow {a.label}: expected {r}x{c}, got {len(m)}x{len(m[0]) if m else 0}"
            )
    f = alg.field
    for rel in alg.relations:
        mat = element_matrix(M, rel)
        if any(not f.is_zero(x) for row in mat for x in row):
            return False
    return True


def base_change(M: Rep, g: GroupElement) -> Rep:
    f = M.field
    for v in M.alg.quiver.vertices:
        blk = g.blocks.get(v)
        if blk is None or len(blk) != M.dim_at(v) or any(len(r) != M.dim_at(v) for r in blk):
            raise ShapeMismatch(f"group element block at vertex {v} has wrong shape")
    inv = {}
    for v in M.alg.quiver.vertices:
        if M.dim_at(v) == 0:
            inv[v] = []
            continue
        try:
            inv[v] = inverse(f, g.blocks[v])
        except NotInvertible:
            raise NotInvertible(f"group element block at vertex {v} is singular") from None
    mats = {}
    for a in M.alg.quiver.arrows:
        mats[a.label] = mat_mul(f, mat_mul(f, g.blocks[a.end], M.mats[a.label]), inv[a.start])
    return Rep(M.alg, M.d, mats)


def random_group_element(field: Field, d: tuple[int, ...], rng: random.Random) -> GroupElement:
    blocks = {}
    for v, n in enumerate(d, start=1):
        while True:
            m = [[field.random(rng) for _ in range(n)] for _ in range(n)]
            if n == 0 or is_invertible(field, m):
                blocks[v] = m
                break
    return GroupElement(blocks)


def arrow_images_span(M: Rep, space: list[Vector]) -> list[Vector]:
    """RREF span of the arrow images of the given global vectors."""
    f = M.field
    rows = [sparse(f, w) for w in space]
    return Echelon(f, (M.act(a.label, w) for w in rows for a in M.alg.quiver.arrows)).rref(M.total)


def closure(M: Rep, vecs: list[Vector]) -> list[Vector]:
    """RREF basis of the submodule generated by the given global vectors:
    the span of their vertex components, closed under the arrows."""
    f = M.field
    span = Echelon(f)
    queue: list[SparseRow] = []

    def push(w: SparseRow) -> None:
        if span.insert(w) is not None:
            queue.append(w)

    for v in vecs:
        for vert in M.alg.quiver.vertices:
            push(M.project(sparse(f, v), vert))
    while queue:
        w = queue.pop()
        for a in M.alg.quiver.arrows:
            push(M.act(a.label, w))
    return span.rref(M.total)


def _vertex_dims(M: Rep, space: list[Vector]) -> tuple[int, ...]:
    """Dimension vector of a vertex-graded subspace of M.

    ``space`` must be the RREF basis of a subspace U = (+)_v e_v*U. Each
    such row then lies in one vertex block, so dim e_v*U is the number of
    rows whose pivot lies in the block of v.
    """
    f = M.field
    ends = list(itertools.accumulate(M.d))
    dims = [0] * len(M.d)
    for w in space:
        pivot = next(i for i, x in enumerate(w) if not f.is_zero(x))
        dims[bisect.bisect_right(ends, pivot)] += 1
    return tuple(dims)


def radical_layering(alg: Algebra, M: Rep) -> SemisimpleSequence:
    """Per-layer dimension vectors of J^l M / J^{l+1} M, l = 0..loewy-1."""
    f = alg.field
    n = M.total
    current = span_rref(f, identity(f, n)) if n else []
    prev = _vertex_dims(M, current)
    rows = []
    for _ in range(alg.loewy):
        nxt = arrow_images_span(M, current)
        nd = _vertex_dims(M, nxt)
        rows.append(tuple(x - y for x, y in zip(prev, nd)))
        current, prev = nxt, nd
    return tuple(rows)


def top_dims(alg: Algebra, M: Rep) -> tuple[int, ...]:
    """Dimension vector of the top M/JM."""
    jm = arrow_images_span(M, identity(M.field, M.total))
    return tuple(d - j for d, j in zip(M.d, _vertex_dims(M, jm)))


def hom_basis(M: Rep, N: Rep) -> list[dict[int, Matrix]]:
    """Basis of the intertwiner space {f_i} with f_end x^M_a = x^N_a f_start."""
    f = M.field
    verts = list(M.alg.quiver.vertices)
    voff = {}
    total = 0
    for v in verts:
        voff[v] = total
        total += N.dim_at(v) * M.dim_at(v)

    def var(v: int, a: int, b: int) -> int:
        return voff[v] + a * M.dim_at(v) + b

    rows = []
    for arr in M.alg.quiver.arrows:
        s, e = arr.start, arr.end
        xm, xn = M.mats[arr.label], N.mats[arr.label]
        for a in range(N.dim_at(e)):
            for b in range(M.dim_at(s)):
                row: dict[int, Scalar] = {}
                for k in range(M.dim_at(e)):
                    c = xm[k][b]
                    if not f.is_zero(c):
                        idx = var(e, a, k)
                        nv = f.add(row.get(idx, f.zero()), c)
                        if f.is_zero(nv):
                            row.pop(idx, None)
                        else:
                            row[idx] = nv
                for k in range(N.dim_at(s)):
                    c = xn[a][k]
                    if not f.is_zero(c):
                        idx = var(s, k, b)
                        nv = f.sub(row.get(idx, f.zero()), c)
                        if f.is_zero(nv):
                            row.pop(idx, None)
                        else:
                            row[idx] = nv
                if row:
                    rows.append(row)
    ker = sparse_kernel_basis(f, rows, total)
    out = []
    for vec in ker:
        blocks = {}
        for v in verts:
            r, c = N.dim_at(v), M.dim_at(v)
            blocks[v] = [[vec[voff[v] + i * c + j] for j in range(c)] for i in range(r)]
        out.append(blocks)
    return out


def hom_dim(M: Rep, N: Rep) -> int:
    return len(hom_basis(M, N))


def hom_global_matrix(M: Rep, N: Rep, blocks: dict[int, Matrix]) -> Matrix:
    """Flattened N.total x M.total matrix of a hom given by vertex blocks."""
    f = M.field
    out = zeros(f, N.total, M.total)
    for v in M.alg.quiver.vertices:
        ro, co = N.offset(v), M.offset(v)
        blk = blocks[v]
        for i in range(N.dim_at(v)):
            for j in range(M.dim_at(v)):
                out[ro + i][co + j] = blk[i][j]
    return out


def _blocks_invertible(M: Rep, blocks: dict[int, Matrix]) -> bool:
    f = M.field
    for v in M.alg.quiver.vertices:
        n = M.dim_at(v)
        if n and not is_invertible(f, blocks[v]):
            return False
    return True


def _combine_blocks(M: Rep, N: Rep, basis: list[dict[int, Matrix]], coeffs: list[Scalar]) -> dict[int, Matrix]:
    f = M.field
    out = {}
    for v in M.alg.quiver.vertices:
        r, c = N.dim_at(v), M.dim_at(v)
        blk = zeros(f, r, c)
        for t, h in zip(coeffs, basis):
            if f.is_zero(t):
                continue
            hb = h[v]
            for i in range(r):
                for j in range(c):
                    blk[i][j] = f.add(blk[i][j], f.mul(t, hb[i][j]))
        out[v] = blk
    return out


def is_isomorphic(M: Rep, N: Rep, limits: SearchLimits = DEFAULT_LIMITS, seed: int | None = None):
    """True / False / Unknown. Exact wherever a witness or an obstruction
    exists; Unknown only when the randomized search is inconclusive and the
    symbolic fallback exceeds the configured size."""
    if M.d != N.d:
        return False
    if M.total == 0:
        return True
    if radical_layering(M.alg, M) != radical_layering(M.alg, N):
        return False
    basis = hom_basis(M, N)
    k = len(basis)
    if k != hom_dim(N, M) or hom_dim(M, M) != hom_dim(N, N):
        return False
    if k == 0:
        return False
    f = M.field

    def check(coeffs: list[Scalar]):
        blocks = _combine_blocks(M, N, basis, coeffs)
        return blocks if _blocks_invertible(M, blocks) else None

    if f.is_finite:
        q = f.order
        if q**k <= limits.iso_enum:
            for coeffs in itertools.product(f.elements(), repeat=k):
                if any(not f.is_zero(c) for c in coeffs) and check(list(coeffs)):
                    return True
            return False
        rng = random.Random(limits.seed if seed is None else seed)
        for _ in range(limits.iso_tries):
            if check([f.random(rng) for _ in range(k)]):
                return True
        return Unknown

    # Rationals: deterministic small tries first.
    for i in range(k):
        coeffs = [f.one() if j == i else f.zero() for j in range(k)]
        if check(coeffs):
            return True
    rng = random.Random(limits.seed if seed is None else seed)
    for _ in range(limits.iso_tries):
        if check([f.of_int(rng.randint(-3, 3)) for _ in range(k)]):
            return True
    # Symbolic fallback: a generic combination is invertible iff every
    # vertex-block generic determinant is a nonzero polynomial.
    if k <= limits.sym_vars and max(M.d) <= limits.sym_dim:
        from .polys import PolyRing, poly_det

        ring = PolyRing(f, [f"t{i}" for i in range(k)])
        for v in M.alg.quiver.vertices:
            n = M.dim_at(v)
            if n == 0:
                continue
            generic = [
                [
                    sum(
                        (ring.var(t).scale(basis[t][v][i][j]) for t in range(k)),
                        ring.zero(),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            if poly_det(generic).is_zero():
                return False
        # All generic determinants nonzero, so their product is a nonzero
        # polynomial of degree <= sum d_v = n in each variable. It cannot
        # vanish on all of {-b..b}^k once 2b + 1 > n (Combinatorial
        # Nullstellensatz), so the boxes up to b = ceil(n/2) find a witness.
        for bound in range(1, (M.total + 1) // 2 + 1):
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
                if check([f.of_int(c) for c in coeffs]):
                    return True
        raise AssertionError("nonzero generic determinant without an invertible integer point")
    return Unknown


# -- submodule enumeration (finite fields) -----------------------------------


def submodule_spans(M: Rep, limits: SearchLimits = DEFAULT_LIMITS) -> list[list[Vector]]:
    """All submodules as RREF row lists.

    Idempotents act, so every submodule U is the sum of its vertex parts
    e_v U, hence the sum of the cyclic submodules of its vertex-homogeneous
    vectors. Only those vectors are closed, one per line: sum over v of
    (q^d_v - 1)/(q - 1) calls to closure instead of (q^|d| - 1)/(q - 1).
    The lattice then grows from {0} one distinct cyclic submodule C at a
    time: every U found so far also yields U + C, which is U's echelon form
    with C's rows inserted, unless U already holds C's generator. After the
    last C it holds every sum of cyclics, i.e. every submodule. The
    submodule_vectors budget caps q^|d|, not the number of vectors closed.
    """
    f = M.field
    if not f.is_finite:
        raise FieldNotFinite("submodule enumeration requires a finite field")
    n = M.total
    q = f.order
    if q**n > limits.submodule_vectors:
        raise SearchTooLarge(f"would sweep {q**n} generator vectors (budget {limits.submodule_vectors})")
    cyclics: dict[tuple, tuple[SparseRow, list[SparseRow]]] = {}
    for v in M.alg.quiver.vertices:
        o = M.offset(v)
        for coeffs in _projective_coeffs(f, M.dim_at(v)):
            vec = [f.zero()] * n
            vec[o : o + len(coeffs)] = coeffs
            sp = closure(M, [vec])
            cyclics.setdefault(space_key(sp), (sparse(f, vec), [sparse(f, r) for r in sp]))
    # an RREF is unique, so its (pivot, column, entry) triples name the space
    seen = {frozenset()}
    lattice = [Echelon(f)]
    for gen, rows in cyclics.values():
        for span in lattice[:]:
            if span.contains(gen):
                continue
            total = span.copy()
            for row in rows:
                total.insert(row)
            key = frozenset((p, c, x) for p, r in total.rows.items() for c, x in r.items())
            if key not in seen:
                seen.add(key)
                lattice.append(total)
                if len(seen) > limits.submodule_spaces:
                    raise SearchTooLarge("submodule count exceeds budget")
    return [span.rref(n) for span in lattice]


def submodule_dim_vectors(M: Rep, limits: SearchLimits = DEFAULT_LIMITS) -> set[tuple[int, ...]]:
    return {_vertex_dims(M, sp) for sp in submodule_spans(M, limits)}


def is_arrow_stable(M: Rep, space: list[Vector]) -> bool:
    f = M.field
    rows = [sparse(f, w) for w in space]
    span = Echelon(f, rows)
    return all(span.contains(M.act(a.label, w)) for w in rows for a in M.alg.quiver.arrows)


# -- annihilators -------------------------------------------------------------


def ideal_span(alg: Algebra, gens: list[Element]) -> list[Element]:
    """A basis of the two-sided ideal generated by gens, as normal-formed
    elements: the generators closed under arrow and idempotent actions."""
    f = alg.field
    span = Echelon(f)
    queue: list[Element] = []

    def push(x: Element) -> None:
        x = alg.normal_form(x)
        if span.insert({alg.basis_index[p]: c for p, c in x.terms.items()}) is not None:
            queue.append(x)

    for g in gens:
        push(g)
    multipliers = [Element.from_path(idempotent(v), f.one()) for v in alg.quiver.vertices]
    for a in alg.quiver.arrows:
        multipliers.append(Element.from_path(PathWord(a.start, (a.label,), a.end), f.one()))
    while queue:
        x = queue.pop()
        for m in multipliers:
            push(alg.mul(m, x))
            push(alg.mul(x, m))
    return [
        Element({alg.basis[i]: c for i, c in span.rows[p].items()}) for p in span.pivots()
    ]


def annihilator_dim(alg: Algebra, M: Rep, ideal_gens: list[Element]) -> int:
    """dim {m in M : l.m = 0 for all l in the two-sided ideal <ideal_gens>}."""
    f = alg.field
    span = ideal_span(alg, ideal_gens)
    if not span:
        return M.total
    stacked: list[Vector] = []
    for el in span:
        stacked.extend(global_matrix(M, el))
    return M.total - rank(f, stacked)


# -- subquotients -------------------------------------------------------------


def _graded_basis(M: Rep, space: list[Vector]) -> dict[int, list[Vector]]:
    """Per-vertex bases (block coordinates) of a vertex-graded subspace."""
    f = M.field
    out = {}
    for v in M.alg.quiver.vertices:
        o, n = M.offset(v), M.dim_at(v)
        proj = [w[o : o + n] for w in space]
        out[v] = span_rref(f, proj) if n else []
    return out


def sub_rep(M: Rep, space: list[Vector]) -> Rep:
    """The submodule on the given arrow-stable graded subspace, as a Rep on
    per-vertex RREF bases. Raises NotSubmodule when not arrow-stable."""
    f = M.field
    if not is_arrow_stable(M, space):
        raise NotSubmodule("subspace is not stable under the arrow action")
    bases = _graded_basis(M, space)
    d = tuple(len(bases[v]) for v in M.alg.quiver.vertices)
    mats = {}
    for a in M.alg.quiver.arrows:
        cols = []
        for w in bases[a.start]:
            img = mat_vec(f, M.mats[a.label], w)
            if not bases[a.end]:
                if any(not f.is_zero(x) for x in img):
                    raise NotSubmodule("arrow image leaves the subspace")
                cols.append([])
                continue
            sol = solve(f, transpose(bases[a.end]), img)
            if sol is None:
                raise NotSubmodule("arrow image leaves the subspace")
            cols.append(sol)
        mats[a.label] = [list(row) for row in zip(*cols)] if cols and bases[a.end] else zeros(f, d[a.end - 1], d[a.start - 1])
    return Rep(M.alg, d, mats)


def quotient_rep(M: Rep, space: list[Vector]) -> Rep:
    """M / (arrow-stable graded subspace), on coset bases of non-pivot
    coordinates per vertex block."""
    f = M.field
    if not is_arrow_stable(M, space):
        raise NotSubmodule("subspace is not stable under the arrow action")
    bases = _graded_basis(M, space)
    spans = {v: Echelon.of(f, bases[v]) for v in bases}
    keep = {v: [i for i in range(M.dim_at(v)) if i not in spans[v].rows] for v in bases}
    d = tuple(len(keep[v]) for v in M.alg.quiver.vertices)

    def project(v: int, blockvec: Vector) -> Vector:
        res = spans[v].reduce(sparse(f, blockvec))
        return [res.get(i, f.zero()) for i in keep[v]]

    mats = {}
    for a in M.alg.quiver.arrows:
        cols = []
        for i in keep[a.start]:
            img = [row[i] for row in M.mats[a.label]]
            cols.append(project(a.end, img))
        mats[a.label] = [list(row) for row in zip(*cols)] if cols and d[a.end - 1] else zeros(f, d[a.end - 1], d[a.start - 1])
    return Rep(M.alg, d, mats)


# -- local decomposition ------------------------------------------------------


def _column_space(f: Field, m: Matrix) -> list[Vector]:
    return span_rref(f, [list(col) for col in zip(*m)]) if m and m[0] else []


def _projective_coeffs(f: Field, k: int):
    """Coefficient vectors in K^k whose first nonzero entry is 1, in the
    order itertools.product(f.elements(), repeat=k) meets them."""
    zero, one = f.zero(), f.one()
    for lead in reversed(range(k)):
        for tail in itertools.product(f.elements(), repeat=k - 1 - lead):
            yield [zero] * lead + [one] + list(tail)


def _trace(f: Field, a: dict[int, Matrix], b: dict[int, Matrix]) -> Scalar:
    """tr(ab) of two endomorphisms. Both are block-diagonal by vertex, so
    tr(ab) is sum_v sum_ij a_v[i][j] * b_v[j][i] and needs no global matrix."""
    acc = f.zero()
    for v, av in a.items():
        bv = b[v]
        for i, row in enumerate(av):
            for j, x in enumerate(row):
                if not f.is_zero(x) and not f.is_zero(bv[j][i]):
                    acc = f.add(acc, f.mul(x, bv[j][i]))
    return acc


def _trace_gram(M: Rep, basis: list[dict[int, Matrix]]) -> Matrix:
    """Gram matrix of the trace form tr(ab) on End(M) in the given basis."""
    f = M.field
    k = len(basis)
    gram = [[f.zero()] * k for _ in range(k)]
    for s in range(k):
        for t in range(s, k):
            gram[s][t] = gram[t][s] = _trace(f, basis[s], basis[t])
    return gram


def _residue_minpoly(M: Rep, b: dict[int, Matrix], basis: list[dict[int, Matrix]], r: int) -> list[Scalar]:
    """Minimal polynomial of b in End(M)/J, monic, low degree first.

    Over Q an endomorphism x lies in J exactly when its trace vector
    (tr(x b_t))_t vanishes (see _indecomposables), so a polynomial in b lies
    in J exactly when the same combination of the trace vectors of
    1, b, b^2, ... is zero. Each power enters one Echelon as its trace
    vector followed by a tag column of its own; the first power whose trace
    part reduces to zero carries the relation in its tags. The trace
    vectors span an r-dimensional space, r = dim End/J, so at most r + 1
    powers are taken.
    """
    f = M.field
    k = len(basis)
    span = Echelon(f)
    power = {v: identity(f, M.dim_at(v)) for v in M.alg.quiver.vertices if M.dim_at(v)}
    for i in range(r + 1):
        row = {t: x for t, bt in enumerate(basis) if not f.is_zero(x := _trace(f, power, bt))}
        row[k + i] = f.one()
        p = span.insert(row)
        if p >= k:
            rel = span.rows[p]
            lead = f.inv(rel[k + i])
            return [f.mul(lead, rel.get(k + j, f.zero())) for j in range(i + 1)]
        power = {v: mat_mul(f, m, b[v]) for v, m in power.items()}
    raise AssertionError("more than dim End/J independent trace vectors")


def _rational_root(mu: list[Fraction]) -> Fraction | None:
    """A rational root of a monic polynomial (coefficients low degree first),
    or None when it has none. Exact, with no floating point.

    Degree 2 reads the root off the discriminant when it is a square.
    Otherwise, with the coefficients scaled to integers a_0..a_m, a root p/q
    in lowest terms has q | a_m and lies strictly inside Cauchy's bound B.
    Sturm's sequence counts the distinct real roots in (lo, hi] when neither
    end is a root, and bisection of (-B, B] stops once an interval holding
    one root is narrower than 1/a_m^2. Two fractions with denominators at
    most a_m lie at least that far apart, so the fraction with denominator
    at most a_m nearest the midpoint is the only candidate in it.
    """
    if len(mu) == 3:
        disc = mu[1] * mu[1] - 4 * mu[0]
        if disc < 0:
            return None
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num != disc.numerator or den * den != disc.denominator:
            return None
        return (Fraction(num, den) - mu[1]) / 2

    def value(poly: list[Fraction], x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def remainder(u: list[Fraction], w: list[Fraction]) -> list[Fraction]:
        u = u[:]
        while len(u) >= len(w):
            c, s = u[-1] / w[-1], len(u) - len(w)
            for i, x in enumerate(w):
                u[s + i] -= c * x
            while u and u[-1] == 0:
                u.pop()
        return u

    chain = [mu, [i * c for i, c in enumerate(mu)][1:]]
    while rem := remainder(chain[-2], chain[-1]):
        chain.append([-c for c in rem])

    def variations(x: Fraction) -> int:
        signs = [s > 0 for s in (value(p, x) for p in chain) if s != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    den = math.lcm(*(c.denominator for c in mu))
    bound = 1 + max(abs(c) for c in mu[:-1])
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        mid = (lo + hi) / 2
        if vlo - vhi == 1 and (hi - lo) * den * den < 1:
            mid = mid.limit_denominator(den)
            if value(mu, mid) == 0:
                return mid
            continue
        if value(mu, mid) == 0:
            return mid
        vmid = variations(mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return None


def _split_nonunit(M: Rep, x: dict[int, Matrix], basis: list[dict[int, Matrix]]):
    """A proper Fitting split of M from a non-unit x of End(M) outside J.

    J is the radical of the trace form, so tr(x b) != 0 for some basis
    element b. Then x b is not nilpotent, having a nonzero trace, and not a
    unit, since x is not, so its Fitting split is proper.
    """
    f = M.field
    b = next(b for b in basis if not f.is_zero(_trace(f, x, b)))
    hit = _split_once(M, {v: mat_mul(f, x[v], b[v]) for v in x if M.dim_at(v)})
    if hit is None:
        raise AssertionError("a non-unit with nonzero trace has no proper Fitting split")
    return hit


def _top_nonunit(M: Rep, basis: list[dict[int, Matrix]], gram: Matrix) -> dict[int, Matrix] | None:
    """A non-unit x of End(M) outside J, or None.

    If w lies outside JM and x(w) lies in JM, then x kills the image of w
    in the top M/JM, so x is not a unit. The unit vectors off the pivots of
    JM span a complement of JM; for each such w the x with x(w) in JM form
    a linear space, and one of its basis vectors c lies outside J exactly
    when c.G, its trace vector, is not zero. This finds x whenever End/J
    has a zero divisor that kills one of those vectors in the top: for a
    sum of local modules, whenever two summands are isomorphic or have
    different tops, where a single basis element need not have a rational
    eigenvalue.
    """
    f = M.field
    k = len(basis)
    radical = Echelon(f, (M.act(a.label, {i: f.one()}) for i in range(M.total) for a in M.alg.quiver.arrows))
    for v in M.alg.quiver.vertices:
        o = M.offset(v)
        for i in range(M.dim_at(v)):
            if o + i in radical.rows:
                continue
            # x(w) mod JM for each basis element, as equations on coefficients
            eqs: dict[int, SparseRow] = {}
            for s, b in enumerate(basis):
                col = {o + j: row[i] for j, row in enumerate(b[v]) if not f.is_zero(row[i])}
                for j, y in radical.reduce(col).items():
                    eqs.setdefault(j, {})[s] = y
            for c in sparse_kernel_basis(f, list(eqs.values()), k):
                if any(sum(f.mul(c[s], gram[s][t]) for s in range(k)) for t in range(k)):
                    return _combine_blocks(M, M, basis, c)
    return None


def _shift(M: Rep, blocks: dict[int, Matrix], c: Scalar) -> dict[int, Matrix]:
    """The endomorphism blocks - c * identity."""
    f = M.field
    return {
        v: [[f.sub(x, c) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(blk)]
        for v, blk in blocks.items()
    }


def _split_once(M: Rep, blocks: dict[int, Matrix]):
    """Fitting split along an endomorphism: (ker f^n, im f^n) when proper.

    f is graded, so ker f^n and im f^n are the sums over vertices v of
    ker f_v^(d_v) and im f_v^(d_v): a d_v x d_v block reaches its Fitting
    exponent by d_v. Both spaces come back as global RREF row lists; the
    per-vertex RREF bases, embedded in vertex order, already are one.
    """
    f = M.field
    n = M.total
    powers = {v: mat_pow(f, blocks[v], M.dim_at(v)) for v in M.alg.quiver.vertices if M.dim_at(v)}
    r = sum(rank(f, p) for p in powers.values())
    if r == 0 or r == n:
        return None

    def embed(v: int, rows: list[Vector]) -> list[Vector]:
        o = M.offset(v)
        out = []
        for row in rows:
            w = [f.zero()] * n
            w[o : o + len(row)] = row
            out.append(w)
        return out

    ker: list[Vector] = []
    img: list[Vector] = []
    for v, p in powers.items():
        ker += embed(v, span_rref(f, kernel_basis(f, p, M.dim_at(v))))
        img += embed(v, _column_space(f, p))
    return ker, img


def _indecomposables(M: Rep, limits: SearchLimits, seed: int):
    """Split M into indecomposables; None when inconclusive.

    A split is a Fitting split (ker f^n, im f^n) of some endomorphism f and
    is exact; _split_once computes it per vertex block. It is proper exactly
    when f is neither invertible nor nilpotent.

    * Over Q, the residue route reads End/J off the trace form tr(ab) on
      End(M). In characteristic zero its radical is J (Dickson), so x lies
      in J exactly when its trace vector (tr(x b_t))_t is zero; row s of
      the Gram matrix is the trace vector of b_s, and its rank r is
      dim End/J. Rank 1 means End/J = K: End(M) is local and M is returned
      whole. Otherwise each basis element b outside J gets its minimal
      polynomial mu modulo J from the trace vectors of its powers
      (_residue_minpoly). A rational root c of mu makes b - c a non-unit
      outside J, and one Fitting split along it is proper
      (_split_nonunit). If deg mu = r and mu has no rational root with
      deg mu <= 3, mu is irreducible and End/J = Q[b] = Q[x]/(mu) is a
      field: End(M) is local, and M is returned whole (the field
      certificate). When no basis element decides, a non-unit outside J is
      sought among the endomorphisms that kill a vector of the top
      (_top_nonunit), which covers matrix factors of End/J whose basis
      elements have no rational eigenvalue.
    * Over a finite field with q^dim End <= limits.endo_enum, End(M) is
      swept exhaustively, one endomorphism per line (f and c*f have the
      same Fitting split). When nothing splits, every endomorphism is
      invertible or nilpotent, so End(M) is local.
    * Otherwise, over Q when the residue route finds neither a split nor a
      certificate, unit, random and shifted endomorphisms are tried, which
      is sound but incomplete.

    The answer is None when the search finds no split and no certificate
    applies: over a larger finite field, or over Q when the residue route
    neither splits M nor certifies End/J a field.
    """
    if M.total == 0:
        return []
    f = M.field
    basis = hom_basis(M, M)
    k = len(basis)
    if k == 1:
        return [M]

    def recurse(space_pair):
        ker, img = space_pair
        left = _indecomposables(sub_rep(M, ker), limits, seed)
        if left is None:
            return None
        right = _indecomposables(sub_rep(M, img), limits, seed)
        if right is None:
            return None
        return left + right

    if not f.is_finite:
        gram = _trace_gram(M, basis)
        r = rank(f, gram)
        if r == 1:
            return [M]
        for b, trace_row in zip(basis, gram):
            if not any(trace_row):
                continue  # b lies in J
            mu = _residue_minpoly(M, b, basis, r)
            m = len(mu) - 1
            if m == 1:
                continue  # b is a scalar modulo J
            c = _rational_root(mu)
            if c is not None:
                # b - c is not a unit, as mu(c) = 0, and not in J, as m > 1
                return recurse(_split_nonunit(M, _shift(M, b, c), basis))
            if m == r and m <= 3:
                return [M]  # End/J = Q[b] = Q[x]/(mu) is a field
        x = _top_nonunit(M, basis, gram)
        if x is not None:
            return recurse(_split_nonunit(M, x, basis))

    if f.is_finite and f.order**k <= limits.endo_enum:
        for coeffs in _projective_coeffs(f, k):
            blocks = _combine_blocks(M, M, basis, coeffs)
            hit = _split_once(M, blocks)
            if hit is not None:
                return recurse(hit)
        # every endomorphism is invertible or nilpotent: End is local
        return [M]

    # randomized + shifted attempts, sound but incomplete
    rng = random.Random(seed)
    shifts = f.elements() if f.is_finite else [f.of_int(c) for c in (0, 1, -1, 2, -2, 3)]
    candidates: list[list[Scalar]] = []
    for i in range(k):
        candidates.append([f.one() if j == i else f.zero() for j in range(k)])
    for _ in range(limits.split_tries):
        candidates.append([f.random(rng) for _ in range(k)])
    for coeffs in candidates:
        blocks = _combine_blocks(M, M, basis, coeffs)
        for c in shifts:
            hit = _split_once(M, _shift(M, blocks, c))
            if hit is not None:
                return recurse(hit)
    return None


def decompose_local(alg: Algebra, M: Rep, limits: SearchLimits = DEFAULT_LIMITS, seed: int | None = None):
    """list of local summands | NotSumOfLocals | Unknown.

    The summands come from _indecomposables. Over Q each piece goes the
    residue route: End/J is read off the trace form; Gram rank 1, or a
    basis element generating End/J as a field of degree <= 3, certifies the
    piece local, and a rational root of a basis element's minimal
    polynomial modulo J, or an endomorphism killing a vector of the top,
    gives one proper Fitting split, taken per vertex block with exponent
    d_v. Only when none applies does the shifted-endomorphism search run.
    Over a small F_q the search sweeps End(M) up to scalars and certifies a
    piece with no split. Unknown means no certificate applied: over Q, the
    residue route and the search neither split nor certified some piece.
    """
    pieces = _indecomposables(M, limits, limits.seed if seed is None else seed)
    if pieces is None:
        return Unknown
    for piece in pieces:
        if sum(top_dims(alg, piece)) != 1:
            return NotSumOfLocals
    return pieces
