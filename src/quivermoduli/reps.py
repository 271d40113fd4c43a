"""Modules as tuples of arrow maps: validation, layerings, Hom spaces,
submodule enumeration, local decompositions, and isomorphism testing by
those decompositions and the top maps.

A Rep is its arrow Maps: each arrow a: s -> e is a linalg.Map from the
global coordinates of the block of s to those of the block of e, where
vectors of the module live in the flattened space K^|d| with vertex blocks
in vertex order. Every builder, the document reader included, writes the
Maps directly; dense d_end x d_start matrices are only written out, on
request (Rep.mats). A path acts by linalg.fold along the arrow Maps, and a
relation by the sum of its terms' folds. Every submodule is graded by
vertices (idempotents act), so per-vertex dimensions of subspaces are read
off the pivots of their RREF bases. Rep.act and Rep.project, the arrow and
idempotent actions, take and return sparse rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections.abc import Callable, Iterable
from fractions import Fraction

from .algebra import Algebra, relation_image
from .config import DEFAULT_LIMITS, SearchLimits
from .errors import (
    FieldNotFinite,
    NotSubmodule,
    NotSumOfLocals,
    SearchTooLarge,
    Unknown,
)
from .fields import Field, Scalar
from .linalg import (
    Echelon,
    Map,
    Matrix,
    SparseRow,
    Vector,
    apply,
    combine,
    compose,
    sparse_kernel_basis,
)

SemisimpleSequence = tuple[tuple[int, ...], ...]


class Rep:
    """The module of dimension vector d whose arrow a acts by the Map
    arrows[a], given for every arrow of the quiver; every column of it lies
    in the block of a's start and every image in the block of its end. The
    constructor takes the Maps as they are and checks nothing."""

    __slots__ = ("alg", "d", "arrows", "_radical")

    def __init__(self, alg: Algebra, d: tuple[int, ...], arrows: dict[str, Map]):
        self.alg = alg
        self.d = tuple(d)
        self.arrows = arrows
        # JM as an Echelon, built by _radical
        self._radical: Echelon | None = None

    @property
    def mats(self) -> dict[str, Matrix]:
        """The arrow matrices written out dense: label -> d_end x d_start."""
        return {
            a.label: _matrix(self.field, self.arrows[a.label], self.coords(a.end), self.coords(a.start))
            for a in self.alg.quiver.arrows
        }

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def total(self) -> int:
        return sum(self.d)

    def offset(self, v: int) -> int:
        return sum(self.d[: v - 1])

    def dim_at(self, v: int) -> int:
        return self.d[v - 1]

    def coords(self, v: int) -> range:
        """The global coordinates of the block of v."""
        return range(self.offset(v), self.offset(v) + self.d[v - 1])

    def project(self, vec: SparseRow, v: int) -> SparseRow:
        """The component e_v * vec of a sparse global vector at vertex v."""
        o = self.offset(v)
        return {j: x for j, x in vec.items() if o <= j < o + self.d[v - 1]}

    def act(self, label: str, vec: SparseRow) -> SparseRow:
        """The image of a sparse global vector under one arrow: an entry of
        vec costs one pass over the nonzero entries of its column."""
        return apply(self.field, self.arrows[label], vec)

    def __repr__(self) -> str:
        return f"Rep(d={self.d}, field={self.field})"


def _matrix(f: Field, x: Map, rows: range, cols: range) -> Matrix:
    """The dense block of a Map on the given global rows and columns."""
    zero = f.zero()
    return [[x.get(j, {}).get(i, zero) for j in cols] for i in rows]


def zero_rep(alg: Algebra, d: tuple[int, ...]) -> Rep:
    return Rep(alg, d, {a.label: {} for a in alg.quiver.arrows})


def simple_rep(alg: Algebra, v: int) -> Rep:
    d = tuple(1 if i == v else 0 for i in alg.quiver.vertices)
    return zero_rep(alg, d)


def _free_rep(alg: Algebra, gens: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], Rep]:
    """The basis elements b*z_r of (+)_r Lambda*e_{gens[r]}, as pairs (i, r)
    with i the position of b in alg.basis, and its Rep: vertex blocks in
    order, copies in order inside a block, and inside copy r the basis paths
    from gens[r] that end at the block's vertex, in basis order. Each arrow
    acts on copy r by Lambda's Map."""
    blocks = [
        [(i, r) for r, g in enumerate(gens) for i, p in enumerate(alg.basis) if p.start == g and p.end == v]
        for v in alg.quiver.vertices
    ]
    index = {b: k for k, b in enumerate(itertools.chain.from_iterable(blocks))}
    arrows = {
        label: {k: {index[j, r]: c for j, c in x[i].items()} for (i, r), k in index.items() if i in x}
        for label, x in alg.arrows.items()
    }
    return tuple(index), Rep(alg, tuple(map(len, blocks)), arrows)


def rep_validate(alg: Algebra, M: Rep) -> bool:
    """Does M satisfy the relations? Each relation acts on every basis
    vector of M through M's arrow Maps (algebra.relation_image); its paths
    have length >= 2, so each folds to zero from a vector off its start."""
    one = alg.field.one()
    return not any(relation_image(alg.field, M.arrows, rel, {j: one}) for rel in alg.relations for j in range(M.total))


def closure(M: Rep, vecs: Iterable[SparseRow]) -> Echelon:
    """The submodule generated by the given sparse global vectors, as its
    Echelon: the span of their vertex components, closed under the arrows."""
    span = Echelon(M.field)
    queue: list[SparseRow] = []

    def push(w: SparseRow) -> None:
        if span.insert(w) is not None:
            queue.append(w)

    for v in vecs:
        for vert in M.alg.quiver.vertices:
            push(M.project(v, vert))
    while queue:
        w = queue.pop()
        for a in M.alg.quiver.arrows:
            push(M.act(a.label, w))
    return span


def _by_vertex(M: Rep, coords: Iterable[int]) -> list[list[int]]:
    """Global coordinates of M sorted into their vertex blocks: entry v - 1
    lists, in ascending order, those that lie in the block of v."""
    ends = list(itertools.accumulate(M.d))
    out: list[list[int]] = [[] for _ in M.d]
    for i in sorted(coords):
        out[bisect.bisect_right(ends, i)].append(i)
    return out


def _vertex_dims(M: Rep, space: list[Vector]) -> tuple[int, ...]:
    """Dimension vector of a vertex-graded subspace of M.

    ``space`` must be the RREF basis of a subspace U = (+)_v e_v*U. Each
    such row then lies in one vertex block, so dim e_v*U is the number of
    rows whose pivot lies in the block of v.
    """
    pivots = (next(i for i, x in enumerate(w) if x) for w in space)
    return tuple(map(len, _by_vertex(M, pivots)))


def _graded_span(M: Rep, span: Echelon) -> Echelon:
    """The span U, given as its Echelon, which must be a submodule of M.

    The RREF of a vertex-graded U is the union of the RREFs of its vertex
    parts e_v*U, and it is unique, so U is graded exactly when each stored
    row lies in one vertex block; it is a submodule when, besides, every
    arrow image of a stored row reduces to zero. Raises NotSubmodule
    otherwise and returns U unchanged. Every subquotient of M is read off
    the pivots of U.
    """
    ends = list(itertools.accumulate(M.d))
    if any(bisect.bisect_right(ends, p) != bisect.bisect_right(ends, max(r)) for p, r in span.rows.items()):
        raise NotSubmodule("subspace is not graded by the vertices")
    if any(span.reduce(M.act(a.label, w)) for w in span.rows.values() for a in M.alg.quiver.arrows):
        raise NotSubmodule("subspace is not stable under the arrow action")
    return span


def radical_layering(alg: Algebra, M: Rep) -> SemisimpleSequence:
    """Per-layer dimension vectors of J^l M / J^{l+1} M, l = 0..loewy-1.

    J^{l+1} M is spanned by the arrow images of the rows of J^l M, starting
    from the cached radical JM (_radical), and each J^l M is graded, so its
    dimension vector counts its pivots per vertex block.
    """
    span, prev, rows = _radical(M), M.d, []
    for _ in range(alg.loewy):
        dims = tuple(map(len, _by_vertex(M, span.rows)))
        rows.append(tuple(x - y for x, y in zip(prev, dims)))
        prev = dims
        span = Echelon(alg.field, (M.act(a.label, w) for w in span.rows.values() for a in M.alg.quiver.arrows))
    return tuple(rows)


def top_dims(alg: Algebra, M: Rep) -> tuple[int, ...]:
    """Dimension vector of the top M/JM: per vertex, the basis vectors that
    are not pivots of the cached radical (_radical)."""
    return tuple(n - len(b) for n, b in zip(M.d, _by_vertex(M, _radical(M).rows)))


def hom_basis(M: Rep, N: Rep) -> list[dict[int, Matrix]]:
    """Basis of the intertwiner space {f_v} with f_end x^M_a = x^N_a f_start,
    as dense vertex blocks: the maps of _hom_maps written out."""
    verts = M.alg.quiver.vertices
    return [{v: _matrix(M.field, x, N.coords(v), M.coords(v)) for v in verts} for x in _hom_maps(M, N)]


def hom_dim(M: Rep, N: Rep) -> int:
    return len(_hom_maps(M, N))


def _hom_maps(M: Rep, N: Rep) -> list[Map]:
    """A basis of Hom(M, N) as Maps in global coordinates.

    The unknowns are the entries (i, j) of the vertex blocks f_v: M_v -> N_v,
    i global in N and j in M, vertex by vertex and row by row. Each arrow
    a: s -> e gives one equation f_e x^M_a = x^N_a f_s per entry of the
    N_e x M_s block, read off the sparse columns of M.arrows and N.arrows,
    and each kernel vector goes straight into a Map.
    """
    f = M.field
    unknown: dict[tuple[int, int], int] = {}
    for v in M.alg.quiver.vertices:
        for i in N.coords(v):
            for j in M.coords(v):
                unknown[i, j] = len(unknown)
    minus_one = f.neg(f.one())
    rows: list[SparseRow] = []
    for arr in M.alg.quiver.arrows:
        eqs: dict[tuple[int, int], SparseRow] = {}
        # (f_e x^M_a)[i][j] = sum over k of f_e[i][k] x^M_a[k][j]
        for j, col in M.arrows[arr.label].items():
            for k, y in col.items():
                for i in N.coords(arr.end):
                    eqs.setdefault((i, j), {})[unknown[i, k]] = y
        # (x^N_a f_s)[i][j] = sum over k of x^N_a[i][k] f_s[k][j]
        for k, col in N.arrows[arr.label].items():
            for i, y in col.items():
                for j in M.coords(arr.start):
                    f.axpy(eqs.setdefault((i, j), {}), minus_one, {unknown[k, j]: y})
        rows += eqs.values()
    out = []
    for vec in sparse_kernel_basis(f, rows, len(unknown)):
        x: Map = {}
        for (i, j), y in zip(unknown, vec):
            if not f.is_zero(y):
                x.setdefault(j, {})[i] = y
        out.append(x)
    return out


ISO_TRIES = 64  # seeded random top maps is_isomorphic tries before its grid
ISO_ENUM = 4096  # max points of the grid of top maps is_isomorphic walks


def is_isomorphic(M: Rep, N: Rep, limits: SearchLimits = DEFAULT_LIMITS, seed: int | None = None):
    """True / False / Unknown, by one route over every field.

    After the cheap obstructions (d, radical layering, hom dimensions),
    Krull-Schmidt: if M or N is a sum of local modules (_pieces), both must
    be, with pieces of equal d matched by _top_epi_exists. Otherwise
    Nakayama: x is an isomorphism exactly when its top map (_top_map) is,
    so only a basis b_1..b_k of the top maps is searched, by ISO_TRIES
    random tries (seeded by seed, else limits.seed), then on the grid
    S_1 x ... x S_k, S_j the first min(q, r_j + 1) scalars, r_j the rank
    of b_j. The product of the top determinants of sum t_j b_j has degree
    <= r_j in t_j, so when it is a nonzero polynomial it is nonzero on the
    grid (Combinatorial Nullstellensatz); if q <= r_j, S_j is all of K.
    Unknown only when the grid has more than ISO_ENUM points.
    """
    if M.d != N.d:
        return False
    if M.total == 0:
        return True
    if radical_layering(M.alg, M) != radical_layering(M.alg, N):
        return False
    basis = _hom_maps(M, N)
    k = len(basis)
    if k == 0 or k != hom_dim(N, M):
        return False
    end_m, end_n = _hom_maps(M, M), _hom_maps(N, N)
    if len(end_m) != len(end_n):
        return False
    pm, pn = _pieces(M, end_m), _pieces(N, end_n)
    if (pm is None) != (pn is None):
        return False
    if pm is not None:
        for a in pm:
            hit = next((i for i, b in enumerate(pn) if a.d == b.d and _top_epi_exists(a, b)), None)
            if hit is None:
                return False
            pn.pop(hit)
        return True

    f = M.field
    n = M.total
    span = Echelon(f)
    tops = [
        t
        for t in (_top_map(M, N, b) for b in basis)
        if span.insert({j * n + i: y for j, col in t.items() for i, y in col.items()}) is not None
    ]
    top = n - len(_radical(M))  # dim M/JM

    def invertible(coeffs) -> bool:
        return len(Echelon(f, combine(f, coeffs, tops).values())) == top

    rng = random.Random(limits.seed if seed is None else seed)
    if any(invertible([f.random(rng) for _ in tops]) for _ in range(ISO_TRIES)):
        return True
    sizes = [len(Echelon(f, t.values())) + 1 for t in tops]
    grid = [[f.of_int(c) for c in range(min(f.order, s) if f.is_finite else s)] for s in sizes]
    if math.prod(len(s) for s in grid) > ISO_ENUM:
        return Unknown
    return any(invertible(c) for c in itertools.product(*grid))


def _top_epi_exists(a: Rep, b: Rep) -> bool:
    """Is there an epimorphism a -> b between local modules with the same
    top? A map a -> b is onto exactly when its top map is nonzero."""
    return any(_top_map(a, b, x) for x in _hom_maps(a, b))


# -- submodule enumeration (finite fields) -----------------------------------


def _projective_coeffs(f: Field, k: int):
    """Coefficient vectors in K^k whose first nonzero entry is 1, in the
    order itertools.product(f.elements(), repeat=k) meets them."""
    zero, one = f.zero(), f.one()
    for lead in reversed(range(k)):
        for tail in itertools.product(f.elements(), repeat=k - 1 - lead):
            yield [zero] * lead + [one] + list(tail)


SUBMODULE_SPACES = 1 << 15  # max distinct submodules submodule_spans tracks


def submodule_spans(M: Rep, limits: SearchLimits = DEFAULT_LIMITS) -> list[list[Vector]]:
    """All submodules as RREF row lists.

    Idempotents act, so every submodule U is the sum of its vertex parts
    e_v U, hence the sum of the cyclic submodules of its vertex-homogeneous
    vectors. Only those vectors are closed, one per line: sum over v of
    (q^d_v - 1)/(q - 1) calls to closure instead of (q^|d| - 1)/(q - 1).
    The lattice then grows from {0} one distinct cyclic submodule C at a
    time: every U found so far also yields U + C, unless U already holds
    C's generator g. Its echelon form is U's with the residue of g modulo U
    placed and C's rows inserted; g is reduced once. After the last C the
    lattice holds every sum of cyclics, i.e. every submodule. limits.sweep
    caps q^|d|, not the vectors closed, and SUBMODULE_SPACES the lattice.
    """
    f = M.field
    if not f.is_finite:
        raise FieldNotFinite("submodule enumeration requires a finite field")
    n = M.total
    q = f.order
    if q**n > limits.sweep:
        raise SearchTooLarge(f"would sweep {q**n} generator vectors (budget {limits.sweep})")
    cyclics: dict[frozenset, tuple[SparseRow, Echelon]] = {}
    for v in M.alg.quiver.vertices:
        o = M.offset(v)
        for coeffs in _projective_coeffs(f, M.dim_at(v)):
            gen = {o + i: c for i, c in enumerate(coeffs) if not f.is_zero(c)}
            sp = closure(M, [gen])
            cyclics.setdefault(sp.key(), (gen, sp))
    seen = {frozenset()}
    lattice = [Echelon(f)]
    for gen, cyclic in cyclics.values():
        for span in lattice[:]:
            res = span.reduce(gen)
            if not res:
                continue
            total = span.copy()
            total._place(res)
            for row in cyclic.rows.values():
                total.insert(row)
            key = total.key()
            if key not in seen:
                seen.add(key)
                lattice.append(total)
                if len(seen) > SUBMODULE_SPACES:
                    raise SearchTooLarge("submodule count exceeds budget")
    return [span.rref(n) for span in lattice]


# -- subquotients -------------------------------------------------------------


def _on_basis(
    M: Rep,
    names: list[list[int]],
    vector: Callable[[int], SparseRow],
    coords: Callable[[SparseRow], SparseRow],
) -> Rep:
    """The Rep on per-vertex bases of a subquotient of M. Each basis vector
    is named by one global coordinate i, names[v - 1] lists those at v, and
    vector(i) is its representative in M; the coordinates of a class are the
    entries of coords(representative) at the names. A name's global
    coordinate in the subquotient is its place in the concatenated lists."""
    index = {i: t for t, i in enumerate(itertools.chain.from_iterable(names))}
    arrows = {}
    for a in M.alg.quiver.arrows:
        arrows[a.label] = {
            index[i]: col
            for i in names[a.start - 1]
            if (col := {index[k]: y for k, y in coords(M.act(a.label, vector(i))).items() if k in index})
        }
    return Rep(M.alg, tuple(map(len, names)), arrows)


def sub_rep(M: Rep, space: list[Vector]) -> Rep:
    """The submodule U spanned by the given vectors, on the RREF basis of
    each e_v*U. A basis vector is named by its pivot, and a vector of U has
    its coordinates at the pivots. Raises NotSubmodule (_graded_span)."""
    return _sub(M, _graded_span(M, Echelon.of(M.field, space)))


def _sub(M: Rep, span: Echelon) -> Rep:
    """The submodule U with the given Echelon, on its rows as in sub_rep;
    U must already be known to be a submodule, as the Fitting pieces are."""
    return _on_basis(M, _by_vertex(M, span.rows), lambda p: span.rows[p], lambda w: w)


def quotient_rep(M: Rep, space: list[Vector]) -> Rep:
    """M / U for the submodule U spanned by the given vectors (_quotient).
    Raises NotSubmodule (_graded_span)."""
    return _quotient(M, _graded_span(M, Echelon.of(M.field, space)))


def _quotient(M: Rep, span: Echelon) -> Rep:
    """M / U for the submodule U with the given Echelon, on the classes of
    the unit vectors off U's pivots; a class has its coordinates at those
    positions of its residue modulo U, as in _top_map.

    U must already be known to be a submodule: the public callers,
    quotient_rep and grass.coker_rep, check it with _graded_span first, and
    the maximality sweep passes the span of a chart point, which its chart
    equations certify."""
    one = M.field.one()
    keep = _by_vertex(M, (i for i in range(M.total) if i not in span.rows))
    return _on_basis(M, keep, lambda i: {i: one}, span.reduce)


# -- local decomposition ------------------------------------------------------


def _trace(f: Field, a: Map, b: Map) -> Scalar:
    """tr(ab) of two endomorphisms: sum over j and i of b[j][i] * a[i][j],
    with no product map formed."""
    acc = f.zero()
    for j, col in b.items():
        for i, y in col.items():
            x = a.get(i, {}).get(j)
            if x is not None:
                acc = f.add(acc, f.mul(x, y))
    return acc


def _rational_root(mu: list[Fraction]) -> Fraction | None:
    """A rational root of a monic polynomial (coefficients low degree first),
    or None when it has none. Exact, with no floating point.

    With the coefficients scaled to integers a_0..a_m, a root p/q
    in lowest terms has q | a_m and lies strictly inside Cauchy's bound B.
    Sturm's sequence counts the distinct real roots in (lo, hi] when neither
    end is a root, and bisection of (-B, B] stops once an interval holding
    one root is narrower than 1/a_m^2. Two fractions with denominators at
    most a_m lie at least that far apart, so the fraction with denominator
    at most a_m nearest the midpoint is the only candidate in it.
    """
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


def _split_once(M: Rep, x: Map) -> tuple[Echelon, Echelon] | None:
    """Fitting split along an endomorphism: (ker x^k, im x^k) when proper.

    x is graded, so with k = max_v d_v every vertex block x_v has reached
    its Fitting exponent by x^k. Row j = (x^k e_j, e_j), with e_j tagged at
    n + j, enters one Echelon. The rows with a tag for pivot are the RREF
    of ker x^k, read at their tags; the others, tags dropped, are the RREF
    of im x^k. Both come back as Echelons.
    """
    f = M.field
    n, k = M.total, max(M.d)
    span = Echelon(f)
    for j in range(n):
        w = {j: f.one()}
        for _ in range(k):
            w = apply(f, x, w)
        span.insert({**w, n + j: f.one()})
    ker, img = Echelon(f), Echelon(f)
    img.rows = {p: {i: y for i, y in r.items() if i < n} for p, r in span.rows.items() if p < n}
    ker.rows = {p - n: {i - n: y for i, y in r.items()} for p, r in span.rows.items() if p >= n}
    if not img.rows or len(img) == n:
        return None
    return ker, img


def _radical(M: Rep) -> Echelon:
    """JM, the span of the arrow images of the basis of M.

    It is built on the first call and kept on M, so top_dims, the split
    route and the top maps (_top_map) share one; callers only reduce
    against it and never insert into it.
    """
    if M._radical is None:
        f = M.field
        M._radical = Echelon(f, (M.act(a.label, {i: f.one()}) for i in range(M.total) for a in M.alg.quiver.arrows))
    return M._radical


def _top_map(M: Rep, N: Rep, x: Map) -> Map:
    """pi(x): M/JM -> N/JN, the map a homomorphism x: M -> N induces on
    the tops.

    A top basis is the unit vectors off the pivots of the radical, each
    named by its global coordinate. The residue of a vector modulo JN is
    zero at every pivot, and its entries off the pivots are the coordinates
    of its class in the top.
    """
    rad_m, rad_n = _radical(M), _radical(N)
    return {j: res for j, col in x.items() if j not in rad_m.rows and (res := rad_n.reduce(col))}


def _minimal_polynomial(f: Field, a: Map, units: Map) -> list[Scalar]:
    """Minimal polynomial of an endomorphism a of the space whose identity
    Map is units, monic, low degree first.

    The powers 1, a, a^2, ... enter one Echelon flattened, each followed by
    a tag column of its own. The first power whose residue is zero off the
    tags carries the relation in its tags.
    """
    m = max(units) + 1
    n = m * m
    span = Echelon(f)
    power = units
    for i in itertools.count():
        row = {j * m + k: y for j, col in power.items() for k, y in col.items()}
        row[n + i] = f.one()
        p = span.insert(row)
        if p >= n:
            rel = span.rows[p]
            lead = f.inv(rel[n + i])
            return [f.mul(lead, rel.get(n + j, f.zero())) for j in range(i + 1)]
        power = compose(f, power, a)


def _root(f: Field, mu: list[Scalar]) -> Scalar | None:
    """A root in K of a monic polynomial (low degree first), or None: the
    first of the q elements of F_q that is one, or _rational_root over Q.
    This is the only place where the split route asks for its field."""
    if not f.is_finite:
        return _rational_root(mu)
    for c in f.elements():
        acc = f.zero()
        for m in reversed(mu):
            acc = f.add(f.mul(acc, c), m)
        if f.is_zero(acc):
            return c
    return None


def _nonunit(M: Rep, basis: list[Map]) -> Map | None:
    """Steps 2 and 3 of _pieces: an endomorphism whose Fitting split is
    proper whenever M is a sum of local modules, or None."""
    f = M.field
    one = f.one()
    ident = {j: {j: one} for j in range(M.total)}
    units = {j: col for j, col in ident.items() if j not in _radical(M).rows}  # 1 on M/JM
    tops = [_top_map(M, M, b) for b in basis]
    # step 2: the x_c with pi(x_c) w = 0, for w the first top vector
    eqs: dict[int, SparseRow] = {}
    for s, t in enumerate(tops):
        for i, y in t.get(min(units), {}).items():
            eqs.setdefault(i, {})[s] = y
    for c in sparse_kernel_basis(f, list(eqs.values()), len(basis)):
        xt = combine(f, c, tops)
        for b, bt in zip(basis, tops):
            if not f.is_zero(_trace(f, xt, bt)):
                return compose(f, combine(f, c, basis), b)
    # step 3: B = K^t, and the first non-scalar pi(b) has an eigenvalue
    for b, bt in zip(basis, tops):
        mu = _minimal_polynomial(f, bt, units)
        if len(mu) > 2:
            c = _root(f, mu)
            return None if c is None else combine(f, (one, f.neg(c)), (b, ident))
    return None


def _pieces(M: Rep, basis: list[Map] | None = None) -> list[Rep] | None:
    """The local summands of M, or None when M is not a direct sum of local
    modules. The route is the same over Q and over F_q. basis is End(M) as
    Maps, solved on M's arrow Maps (_hom_maps), when the caller has it.

    * The top action. Every endomorphism keeps JM, so
      pi: End(M) -> End_K(M/JM) is an algebra map; B is its image. In the
      top basis of unit vectors off the pivots of JM's Echelon, pi(b) is a
      Map on the top coordinates (_top_map(M, M, b)), so _trace, combine
      and _minimal_polynomial work on it as on any Map.
    * Proper splits. A Fitting split (ker x^n, im x^n) is proper exactly
      when x is neither a unit nor nilpotent. If pi(x) is singular, x is
      not a unit. If tr pi(x) != 0, x is not nilpotent, in any
      characteristic.
    * The form replaces Dickson. Let M = (+)_j L_j^(n_j), with the L_j
      local and pairwise non-isomorphic. Then End(L_j)/J = K and
      B/rad B = prod_j M_(n_j)(K), and the top has each natural
      M_(n_j)(K)-module exactly once as a composition factor. So the
      radical of the form tr(pi(x) pi(y)) on End(M) is J, in every
      characteristic. B itself need not be semisimple: for P1 (+) S1 the
      map P1 -> S1 lies in J and acts on the top as a nonzero nilpotent.
    * The steps, with w the first top vector:
      1. If dim M/JM = 1, M is local, and End(M) is not built.
      2. Solve pi(x_c) w = 0 for c. A solution c and an index s with
         (c G)_s = tr(pi(x_c) pi(b_s)) != 0, G the Gram matrix of the
         form, give x_c b_s, which splits M. For a sum of locals this step
         fails only when every n_j = 1, rad B = 0 and w has no zero
         coordinate in an adapted basis. If some n_j >= 2, an A_j kills
         w_j; if w_j = 0, e_j does; if rad B holds E_(j'j), then
         e_j' - (w_j'/w_j) E_(j'j) does.
      3. Otherwise B = K^t is reduced. The first b with non-scalar pi(b)
         has an eigenvalue c in K (_root), and b - c splits M.
      4. If no step splits M, M is not a sum of locals. Otherwise both
         pieces are decomposed in turn, and by Krull-Schmidt M is a sum
         of locals exactly when both pieces are.
    """
    if M.total == 0:
        return []
    if M.total - len(_radical(M)) == 1:
        return [M]
    x = _nonunit(M, _hom_maps(M, M) if basis is None else basis)
    split = None if x is None else _split_once(M, x)
    if split is None:
        return None
    left = _pieces(_sub(M, split[0]))
    right = None if left is None else _pieces(_sub(M, split[1]))
    return None if right is None else left + right


def decompose_local(alg: Algebra, M: Rep, limits: SearchLimits = DEFAULT_LIMITS, seed: int | None = None):
    """list of local summands | NotSumOfLocals.

    The summands come from _pieces, which splits M along non-units read off
    the action of End(M) on the top M/JM, by the same route over Q and
    F_q. Each summand has a simple top by construction, and NotSumOfLocals
    is a proof, never a search running out. alg, limits and seed are unused.
    """
    pieces = _pieces(M)
    return NotSumOfLocals if pieces is None else pieces
