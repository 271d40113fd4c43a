"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately naive: plain walks on the quiver, exhaustive
subspace sweeps, brute-force skeleton counting. The point is that none of it
shares code with the package internals.

The last section holds what the tests need and no command does: builders
of test inputs (paths from labels, modules from dense matrices, the
projectives, direct sums, base changes, weights, document text), path
arithmetic the package runs on positions instead (initial subpaths, normal
forms keyed by path), and the inverse routes the properties check the
package against (the coordinates of a point on a chart, the automorphisms
of the cover).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from quivermoduli.degeneration import no_proper_topstable_deg
from quivermoduli.errors import EquationsViolated, NotSubmodule, UnsupportedAlgebra
from quivermoduli.fields import Field
from quivermoduli.grass import (
    _chart_points,
    _chart_sweepable,
    chart_equations,
    coker_rep,
    coords_to_point,
    enumerate_skeleta,
    submodule_point,
)
from quivermoduli.linalg import Echelon, apply, combine, dense, fold, identity, kernel_basis, solve, span_rref, sparse, zeros
from quivermoduli.polys import PolyRing, poly_det
from quivermoduli.quiver import Arrow, Element, PathWord, Quiver, deglex_key, extend, idempotent
from quivermoduli.reps import Rep, _free_rep, _vertex_dims, hom_basis, hom_dim, radical_layering, sub_rep, submodule_spans
from quivermoduli.stability import Weight


# -- textbook linear algebra, sharing nothing with quivermoduli.linalg ---------


def naive_rank(field: Field, rows) -> int:
    """Rank by column-by-column Gaussian elimination on a dense copy."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                c = field.mul(m[i][col], inv)
                m[i] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_in_span(field: Field, rows, v) -> bool:
    """Is v in the span of the (independent) rows?"""
    return naive_rank(field, list(rows) + [v]) == naive_rank(field, rows)


def naive_mat_vec(field: Field, a, v):
    out = []
    for row in a:
        s = field.zero()
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def naive_mat_mul(field: Field, a, b):
    """a @ b, each entry summed in the field (so reduced mod p over F_p)."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0]) if b else 0):
            s = field.zero()
            for t, x in enumerate(row):
                s = field.add(s, field.mul(x, b[t][j]))
            out[-1].append(s)
    return out


def naive_is_nilpotent(field: Field, a) -> bool:
    """Is a^n = 0 for the n x n matrix a? Each unit vector is multiplied by a
    n times."""
    n = len(a)
    for i in range(n):
        v = [field.one() if j == i else field.zero() for j in range(n)]
        for _ in range(n):
            v = naive_mat_vec(field, a, v)
        if any(x != 0 for x in v):
            return False
    return True


def leibniz_det(field: Field, a):
    """Sum over all permutations of signed products of entries."""
    n = len(a)
    total = field.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = field.one()
        for i in range(n):
            term = field.mul(term, a[i][perm[i]])
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def span_by_enumeration(field: Field, rows, ncols: int) -> set[tuple]:
    """Every vector of the span over a finite field: all combinations."""
    out = set()
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        v = [field.zero()] * ncols
        for c, row in zip(coeffs, rows):
            v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


def count_walks(arrows: list[tuple[str, int, int]], start: int, length: int) -> list[tuple[str, ...]]:
    """All label sequences (application order) of walks of given length."""
    if length == 0:
        return [()]
    walks = [((), start)]
    for _ in range(length):
        nxt = []
        for labels, at in walks:
            for lbl, s, e in arrows:
                if s == at:
                    nxt.append((labels + (lbl,), e))
        walks = nxt
    return [w[0] for w in walks]


def walk_end(arrows: list[tuple[str, int, int]], start: int, labels: tuple[str, ...]) -> int:
    at = start
    lookup = {lbl: (s, e) for lbl, s, e in arrows}
    for lbl in labels:
        s, e = lookup[lbl]
        assert s == at
        at = e
    return at


def compose(quiver: Quiver, later: PathWord, earlier: PathWord) -> PathWord | None:
    """The product later*earlier ("first earlier, then later"), or None."""
    if earlier.end != later.start:
        return None
    return PathWord(earlier.start, earlier.arrows + later.arrows, later.end)


def enumerate_paths(quiver, max_len: int) -> list[list[PathWord]]:
    """Every path of the window grouped by length, 0..max_len."""
    by_len = [[idempotent(v) for v in quiver.vertices]]
    for _ in range(max_len):
        by_len.append([extend(p, a) for p in by_len[-1] for a in quiver.arrows_out(p.end)])
    return by_len


def all_products_algebra(quiver, relations, field: Field, max_len: int):
    """(basis, normal form of every path of the window, Loewy length or
    None) of KQ/I by eliminating every bounded-length product p*r*q of the
    relations, one term or several, in one Echelon, with columns in reverse
    deglex rank. relations must have canonical coefficients, as
    Algebra.relations does."""
    by_len = enumerate_paths(quiver, max_len)
    all_paths = sorted((p for lst in by_len for p in lst), key=lambda p: deglex_key(quiver, p))
    rank_of = {p: i for i, p in enumerate(all_paths)}
    top = len(all_paths) - 1
    ideal = Echelon(field)
    for rel in relations:
        lmax = max(rel.lengths())
        r_start = next(iter(rel.terms)).start
        r_end = next(iter(rel.terms)).end
        short = [q for lst in by_len[: max_len - lmax + 1] for q in lst]
        for q in (q for q in short if q.end == r_start):
            for p in (p for p in short if p.start == r_end):
                if p.length + lmax + q.length <= max_len:
                    ideal.insert(
                        {top - rank_of[compose(quiver, p, compose(quiver, w, q))]: c for w, c in rel.terms.items()}
                    )
    pivots = {top - c for c in ideal.rows}
    basis = tuple(p for i, p in enumerate(all_paths) if i not in pivots)
    normal_forms = {p: {p: field.one()} for p in basis} | {
        all_paths[top - c]: {all_paths[top - k]: field.neg(v) for k, v in row.items() if k != c}
        for c, row in ideal.rows.items()
    }
    loewy = next(
        (m for m in range(1, max_len + 1) if all(p not in basis and not normal_forms[p] for p in by_len[m])),
        None,
    )
    return basis, normal_forms, loewy


def all_rref_matrices(field: Field, ncols: int):
    """Every RREF matrix with ncols columns over a finite field: one
    representative per subspace of K^ncols."""
    elements = field.elements()
    for r in range(ncols + 1):
        for pivots in itertools.combinations(range(ncols), r):
            free_positions = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, ncols)
                if j not in pivots
            ]
            for values in itertools.product(elements, repeat=len(free_positions)):
                rows = [[field.zero()] * ncols for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one()
                for (i, j), val in zip(free_positions, values):
                    rows[i][j] = val
                yield rows


def brute_force_submodule_spans(M) -> set[tuple]:
    """All-subspace sweep: the RREF rows, as a tuple of tuples, of every
    subspace stable under the arrows and the vertex idempotents."""
    f = M.field
    n = M.total

    def embed(vert, block):
        v = [f.zero()] * n
        o = M.offset(vert)
        for i, x in enumerate(block):
            v[o + i] = x
        return v

    mats = M.mats
    out = set()
    for rows in all_rref_matrices(f, n):
        arrow_images = (
            embed(a.end, naive_mat_vec(f, mats[a.label], [w[i] for i in M.coords(a.start)]))
            for w in rows
            for a in M.alg.quiver.arrows
        )
        # idempotent stability: every vertex component must stay inside too
        components = (embed(vert, [w[i] for i in M.coords(vert)]) for w in rows for vert in M.alg.quiver.vertices)
        if all(naive_in_span(f, rows, v) for v in itertools.chain(arrow_images, components)):
            out.add(tuple(tuple(r) for r in rows))
    return out


def brute_force_submodule_dims(M) -> set[tuple[int, ...]]:
    """Dimension vector of every subspace found by brute_force_submodule_spans."""
    f = M.field
    out = set()
    for rows in brute_force_submodule_spans(M):
        dims = []
        for vert in M.alg.quiver.vertices:
            proj = [[w[i] for i in M.coords(vert)] for w in rows]
            dims.append(naive_rank(f, proj) if proj and M.dim_at(vert) else 0)
        out.add(tuple(dims))
    return out


# -- subquotients by the dense routes ---------------------------------------------


def arrow_images_span(M, space):
    """RREF span of the arrow images of the given global vectors."""
    f = M.field
    rows = [sparse(f, w) for w in space]
    return Echelon(f, (M.act(a.label, w) for w in rows for a in M.alg.quiver.arrows)).rref(M.total)


def graded_basis_oracle(M, space):
    """Per-vertex RREF bases, in block coordinates, of the projections of a
    vertex-graded subspace to the vertex blocks."""
    f = M.field
    return {v: span_rref(f, [[w[i] for i in M.coords(v)] for w in space]) if M.dim_at(v) else [] for v in M.alg.quiver.vertices}


def sub_rep_oracle(M, space):
    """The submodule on a graded, arrow-stable subspace, on the per-vertex
    bases of graded_basis_oracle: each arrow image is a dense block product,
    and its coordinates come from one linear solve against the basis."""
    f = M.field
    bases = graded_basis_oracle(M, space)
    d = tuple(len(bases[v]) for v in M.alg.quiver.vertices)
    arrows, mats = M.mats, {}
    for a in M.alg.quiver.arrows:
        cols = []
        for w in bases[a.start]:
            img = naive_mat_vec(f, arrows[a.label], w)
            cols.append(solve(f, transpose(bases[a.end]), img) if bases[a.end] else [])
        mats[a.label] = [list(row) for row in zip(*cols)] if cols and bases[a.end] else zeros(f, d[a.end - 1], d[a.start - 1])
    return rep_of_matrices(M.alg, d, mats)


def quotient_rep_oracle(M, space):
    """M modulo a graded, arrow-stable subspace, vertex by vertex: the classes
    of the block unit vectors off the pivots of each per-vertex basis, with a
    class's coordinates read off its residue modulo that basis."""
    f = M.field
    bases = graded_basis_oracle(M, space)
    spans = {v: Echelon.of(f, bases[v]) for v in bases}
    keep = {v: [i for i in range(M.dim_at(v)) if i not in spans[v].rows] for v in bases}
    d = tuple(len(keep[v]) for v in M.alg.quiver.vertices)
    arrows, mats = M.mats, {}
    for a in M.alg.quiver.arrows:
        cols = []
        for i in keep[a.start]:
            res = spans[a.end].reduce(sparse(f, [row[i] for row in arrows[a.label]]))
            cols.append([res.get(k, f.zero()) for k in keep[a.end]])
        mats[a.label] = [list(row) for row in zip(*cols)] if cols and d[a.end - 1] else zeros(f, d[a.end - 1], d[a.start - 1])
    return rep_of_matrices(M.alg, d, mats)


def dense_projective_oracle(alg, v):
    """Lambda e_v on its path basis from dense zero matrices: the entry of
    arrow a at (b, p) is the coefficient of b in a*p, each path placed in
    the block of its end vertex in basis order."""
    f = alg.field
    cols = alg.basis_at(v)
    d = tuple(sum(1 for p in cols if p.end == j) for j in alg.quiver.vertices)
    local, counters = {}, {j: 0 for j in alg.quiver.vertices}
    for p in cols:
        local[p] = counters[p.end]
        counters[p.end] += 1
    mats = {}
    for a in alg.quiver.arrows:
        m = zeros(f, d[a.end - 1], d[a.start - 1])
        for p in cols:
            if p.end == a.start:
                for b, c in nf_path(alg, extend(p, a)).items():
                    m[local[b]][local[p]] = c
        mats[a.label] = m
    return rep_of_matrices(alg, d, mats)


def length_grading_oracle(alg, v) -> bool:
    """The cover's former certificate that path lengths grade the radical
    of Lambda*e_v: its length buckets (projective_layer_dims) equal its
    radical layering, trailing zero rows dropped. The layering is read off
    dense RREF spans of the dense projective."""

    def trim(rows):
        rows = list(rows)
        while rows and not any(rows[-1]):
            rows.pop()
        return rows

    layering = radical_layering_oracle(alg, dense_projective_oracle(alg, v))
    return trim(alg.projective_layer_dims(v)) == trim(layering)


def homogeneous_ideal_oracle(alg) -> bool:
    """The former graded-ideal rule: the ideal is generated by
    length-homogeneous elements when every length component of every
    relation reduces to zero on its own."""
    for rel in alg.relations:
        by_len: dict[int, Element] = {}
        for p, c in rel.terms.items():
            by_len.setdefault(p.length, Element()).terms[p] = c
        if len(by_len) > 1 and any(not normal_form(alg, part).is_zero() for part in by_len.values()):
            return False
    return True


def direct_sum_cover_oracle(alg, gens):
    """The cover's former construction: the basis elements p*z_r, vertex
    block by vertex block and copy by copy, and the chain of direct_sum
    calls over the dense projectives Lambda*e_{gens[r]}, whose layout they
    must match."""
    belems = [
        (p, r) for v in alg.quiver.vertices for r, g in enumerate(gens) for p in alg.basis_at(g) if p.end == v
    ]
    return belems, functools.reduce(direct_sum, [dense_projective_oracle(alg, v) for v in gens])


def block_sum_oracle(M, N):
    """M (+) N with block-diagonal arrow matrices: M's block above and left
    of N's at every vertex."""
    f = M.field
    d = tuple(x + y for x, y in zip(M.d, N.d))
    am, an = M.mats, N.mats
    mats = {}
    for a in M.alg.quiver.arrows:
        rm, cm = M.dim_at(a.end), M.dim_at(a.start)
        rn, cn = N.dim_at(a.end), N.dim_at(a.start)
        m = zeros(f, rm + rn, cm + cn)
        for i in range(rm):
            for j in range(cm):
                m[i][j] = am[a.label][i][j]
        for i in range(rn):
            for j in range(cn):
                m[rm + i][cm + j] = an[a.label][i][j]
        mats[a.label] = m
    return rep_of_matrices(M.alg, d, mats)


def dense_hom_oracle(M, N) -> int:
    """dim Hom(M, N) as the kernel dimension of the dense system
    f_e X^M_a = X^N_a f_s, one equation per arrow a: s -> e and entry of
    its d^N_e x d^M_s block. The unknowns are the entries of the vertex
    blocks f_v, vertex by vertex and column by column, and the rank is
    naive_rank's."""
    f = M.field
    xm, xn = M.mats, N.mats
    unknown, n = {}, 0
    for v in M.alg.quiver.vertices:
        for j in range(M.dim_at(v)):
            for i in range(N.dim_at(v)):
                unknown[v, i, j] = n
                n += 1
    rows = []
    for a in M.alg.quiver.arrows:
        s, e = a.start, a.end
        for i in range(N.dim_at(e)):
            for j in range(M.dim_at(s)):
                row = [f.zero()] * n
                for k in range(M.dim_at(e)):
                    row[unknown[e, i, k]] = f.add(row[unknown[e, i, k]], xm[a.label][k][j])
                for k in range(N.dim_at(s)):
                    row[unknown[s, k, j]] = f.add(row[unknown[s, k, j]], f.neg(xn[a.label][i][k]))
                rows.append(row)
    return n - naive_rank(f, rows)


def radical_layering_oracle(alg, M):
    """Per-layer dimension vectors of J^l M / J^(l+1) M from dense RREF
    spans: J^(l+1) M is arrow_images_span of J^l M, starting from M."""
    f = alg.field
    current = span_rref(f, identity(f, M.total)) if M.total else []
    prev = _vertex_dims(M, current)
    rows = []
    for _ in range(alg.loewy):
        nxt = arrow_images_span(M, current)
        nd = _vertex_dims(M, nxt)
        rows.append(tuple(x - y for x, y in zip(prev, nd)))
        current, prev = nxt, nd
    return tuple(rows)


def socle_dims_oracle(P):
    """Dimension vectors of JP and of soc(JP) inside P: soc(JP) is the
    kernel of the stacked arrow matrices on the RREF basis of JP."""
    f = P.alg.field
    jp = span_rref(f, [dense(f, {P.index[b]: f.one()}, P.total) for b in P.belems if b[0].length >= 1])
    n = len(jp)
    rows = []
    for a in P.alg.quiver.arrows:
        imgs = [dense(f, P.rep.act(a.label, sparse(f, w)), P.total) for w in jp]
        rows.extend([imgs[j][i] for j in range(n)] for i in range(P.total))
    ker = kernel_basis(f, rows, ncols=n) if rows else []
    soc = []
    for k in ker:
        v = [f.zero()] * P.total
        for j in range(n):
            for i in range(P.total):
                v[i] = f.add(v[i], f.mul(k[j], jp[j][i]))
        soc.append(v)
    return _vertex_dims(P.rep, jp), _vertex_dims(P.rep, span_rref(f, soc))


def block_top_map_oracle(M, N, x):
    """pi(x): M/JM -> N/JN per vertex, from the dense vertex blocks of a
    homomorphism x. The top basis is the unit vectors off the pivots of the
    RREF of the radical (arrow_images_span), and a class has its
    coordinates at those positions of its residue modulo JN. JN is graded,
    so the residue of a column of x_v stays in the block of v."""
    f = M.field
    rad_m = Echelon.of(f, arrow_images_span(M, identity(f, M.total)))
    rad_n = Echelon.of(f, arrow_images_span(N, identity(f, N.total)))
    out = {}
    for v in M.alg.quiver.vertices:
        om, on = M.offset(v), N.offset(v)
        cols = [
            rad_n.reduce({on + i: row[t] for i, row in enumerate(x[v]) if row[t] != 0})
            for t in range(M.dim_at(v))
            if om + t not in rad_m.rows
        ]
        out[v] = [[col.get(on + i, f.zero()) for col in cols] for i in range(N.dim_at(v)) if on + i not in rad_n.rows]
    return out


def fitting_split_oracle(M, blocks):
    """Fitting split of a graded endomorphism read off its global matrix:
    F^n by n plain multiplications, then (ker F^n, im F^n) as RREF row
    lists, or None when F^n is zero or invertible."""
    f = M.field
    n = M.total
    F = [[f.zero()] * n for _ in range(n)]
    for vert in M.alg.quiver.vertices:
        o, k = M.offset(vert), M.dim_at(vert)
        for i in range(k):
            for j in range(k):
                F[o + i][o + j] = blocks[vert][i][j]
    Fn = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    for _ in range(n):
        prod = [[f.zero()] * n for _ in range(n)]
        for i in range(n):
            for t in range(n):
                for j in range(n):
                    prod[i][j] = f.add(prod[i][j], f.mul(Fn[i][t], F[t][j]))
        Fn = prod
    img = span_rref(f, [list(col) for col in zip(*Fn)])
    if not img or len(img) == n:
        return None
    return span_rref(f, kernel_basis(f, Fn, n)), img


def sum_of_locals_oracle(M):
    """Sorted dimension vectors of the local summands of M over F_q, or None
    when M is not a direct sum of local modules, by sweeping all of End(M).

    The first endomorphism in product order with a proper Fitting split
    (fitting_split_oracle) splits M, and both pieces are swept in turn.
    When none has one, every endomorphism is a unit or nilpotent, so End(M)
    is local and M indecomposable: M is local exactly when its top is
    one-dimensional.
    """
    f = M.field
    basis = hom_basis(M, M)
    for coeffs in itertools.product(f.elements(), repeat=len(basis)):
        blocks = {
            v: [
                [f.of_int(sum(c * b[v][i][j] for c, b in zip(coeffs, basis))) for j in range(M.dim_at(v))]
                for i in range(M.dim_at(v))
            ]
            for v in M.alg.quiver.vertices
        }
        split = fitting_split_oracle(M, blocks)
        if split is not None:
            left, right = (sum_of_locals_oracle(sub_rep(M, space)) for space in split)
            return None if left is None or right is None else sorted(left + right)
    top = M.total - len(arrow_images_span(M, identity(f, M.total)))
    return [M.d] if top == 1 else None


def presentation_kernel_oracle(alg, v, piece, gen):
    """Kernel of the cover map Lambda e_v -> piece that sends e_v to gen, as
    RREF rows over the coordinates of alg.basis_at(v), so that kernels of
    pieces with the same top vertex are directly comparable. Each path p
    goes to p * gen, by plain matrix products along p."""
    f = alg.field
    paths = alg.basis_at(v)
    mats = piece.mats
    cols = []
    for p in paths:
        block = [gen[i] for i in piece.coords(p.start)]  # a length-0 path is e_start
        for label in p.arrows:
            block = naive_mat_vec(f, mats[label], block)
        col = [f.zero()] * piece.total
        col[piece.offset(p.end) : piece.offset(p.end) + len(block)] = block
        cols.append(col)
    rows = [list(r) for r in zip(*cols)] if cols else []
    return span_rref(f, kernel_basis(f, rows, ncols=len(paths)))


def chain_oracle(alg, pieces):
    """Condition (i) of the closed-orbit test by presentation kernels, for
    local modules: (kernel_dims, v), with the kernel dimensions per top
    vertex in chain order as far as they were reached, and v the first top
    vertex whose pieces do not chain, or None.

    Each piece is generated by its first unit vector outside its radical.
    At a vertex the pieces are sorted by decreasing dimension, and two
    consecutive pieces chain when the kernel of the bigger lies in that of
    the smaller, or else when some basis map of Hom(big, small) carries the
    generator of big outside the radical of small."""
    f = alg.field
    by_vertex = {}
    for piece in pieces:
        units = identity(f, piece.total)
        rad = arrow_images_span(piece, units)
        i = next(i for i, u in enumerate(units) if not naive_in_span(f, rad, u))
        v = next(v for v in alg.quiver.vertices if i < piece.offset(v) + piece.dim_at(v))
        by_vertex.setdefault(v, []).append((piece, i - piece.offset(v), units[i], rad))
    kernel_dims = []
    for v in sorted(by_vertex):
        group = sorted(by_vertex[v], key=lambda t: -t[0].total)
        kernels = [presentation_kernel_oracle(alg, v, piece, gen) for piece, _, gen, _ in group]
        kernel_dims.append((v, tuple(len(k) for k in kernels)))
        for (big, j, _, _), (small, _, _, rad), kb, ks in zip(group, group[1:], kernels, kernels[1:]):
            if all(naive_in_span(f, ks, row) for row in kb):
                continue
            # the image of the generator, column j of the block at v
            o = small.offset(v)
            images = (
                [f.zero()] * o + [row[j] for row in blocks[v]] + [f.zero()] * (small.total - o - small.dim_at(v))
                for blocks in hom_basis(big, small)
            )
            if all(naive_in_span(f, rad, w) for w in images):
                return tuple(kernel_dims), v
    return tuple(kernel_dims), None


def iso_oracle(M, N) -> bool:
    """Is some map M -> N an isomorphism, tested on its full vertex blocks?

    Over F_q every map of Hom(M, N) is enumerated, and its blocks' determinants
    are taken by leibniz_det. Over Q some map is invertible exactly when, for
    every vertex, the determinant of the generic block, a polynomial in the
    coefficients on a hom basis (polys.poly_det), is nonzero: their product
    is then a nonzero polynomial, and Q is infinite."""
    if M.d != N.d:
        return False
    f = M.field
    basis = hom_basis(M, N)
    verts = [v for v in M.alg.quiver.vertices if M.dim_at(v)]
    if f.is_finite:

        def block(coeffs, v):
            n = M.dim_at(v)
            return [
                [f.of_int(sum(c * b[v][i][j] for c, b in zip(coeffs, basis))) for j in range(n)]
                for i in range(n)
            ]

        return any(
            all(leibniz_det(f, block(coeffs, v)) != 0 for v in verts)
            for coeffs in itertools.product(f.elements(), repeat=len(basis))
        )
    ring = PolyRing(f, [f"t{i}" for i in range(len(basis))])
    for v in verts:
        n = M.dim_at(v)
        generic = [
            [sum((ring.var(t).scale(b[v][i][j]) for t, b in enumerate(basis)), ring.zero()) for j in range(n)]
            for i in range(n)
        ]
        if poly_det(generic).is_zero():
            return False
    return True


# -- orbits and hom dimensions of Grassmannian points ---------------------------


def radical_hom_dims_oracle(P, C) -> tuple[int, int]:
    """(dim Hom(P, JM), dim Hom(M, JM)) for M = P/C by the direct route:
    build M, its radical JM as a submodule, and solve for both Hom spaces."""
    M = coker_rep(P, C)
    JM = sub_rep(M, arrow_images_span(M, identity(M.field, M.total)))
    return hom_dim(P.rep, JM), hom_dim(M, JM)


def dense_endo_matrix(P, elem):
    """The matrix of the basis endomorphism (r, s, u) of P, z_r -> u*z_s:
    its column at p*z_r holds the normal form of the path "first u, then p"
    on copy s, and every other column is zero."""
    r, s, u = elem
    f = P.alg.field
    m = [[f.zero()] * P.total for _ in range(P.total)]
    for (p, r2), col in P.index.items():
        if r2 != r:
            continue
        word = PathWord(u.start, u.arrows + p.arrows, p.end)
        for w, c in nf_path(P.alg, word).items():
            m[P.index[(w, s)]][col] = c
    return m


def dense_limit_oracle(P, C, coeffs, elems):
    """RREF rows of the limit of (1 + tau*h)(C) as tau grows, for h the sum
    of coeffs[j] times the basis endomorphism elems[j] (dense_endo_matrix),
    by dense elimination on the pairs (h(r), r) over the rows r of C: while
    the h-parts are dependent, the first relation of the kernel basis of
    their transpose replaces its last pair with a nonzero r-part by
    (sum of lam_i r_i, 0)."""
    f = P.alg.field
    h = [[f.zero()] * P.total for _ in range(P.total)]
    for c, elem in zip(coeffs, elems):
        for i, row in enumerate(dense_endo_matrix(P, elem)):
            h[i] = [f.add(x, f.mul(c, y)) for x, y in zip(h[i], row)]
    pairs = [(naive_mat_vec(f, h, list(r)), list(r)) for r in C.rows]
    zero = [f.zero()] * P.total
    while True:
        deps = kernel_basis(f, transpose([a for a, _ in pairs]), ncols=len(pairs))
        if not deps:
            break
        a = deps[0]
        combo = list(zero)
        support = [i for i, x in enumerate(a) if x != 0]
        for i in support:
            for k in range(P.total):
                combo[k] = f.add(combo[k], f.mul(a[i], pairs[i][1][k]))
        pivot = next((i for i in reversed(support) if any(x != 0 for x in pairs[i][1])), None)
        if pivot is None or all(x == 0 for x in combo):
            raise NotSubmodule("row family degenerated; C was not a point")
        pairs[pivot] = (combo, list(zero))
    return tuple(map(tuple, span_rref(f, [a for a, _ in pairs])))


def naive_orbit_dim(P, C, elems) -> int:
    """Rank of psi -> (psi(c_1), ..., psi(c_m)) mod C^m on the span of the
    given basis endomorphisms, for the rows c_k of C: the rank of the
    stacked images together with m copies of C, less m * dim C."""
    f = P.alg.field
    n, m = P.total, C.dim
    stacked = []
    for elem in elems:
        a = dense_endo_matrix(P, elem)
        stacked.append([x for row in C.rows for x in naive_mat_vec(f, a, row)])
    for k in range(m):
        for row in C.rows:
            v = [f.zero()] * (n * m)
            v[k * n : (k + 1) * n] = row
            stacked.append(v)
    return naive_rank(f, stacked) - m * m


# -- skeleta and chart equations -----------------------------------------------


def belem_order(P):
    """The order (deglex path, copy) on the (path, copy) pairs of P."""
    return lambda b: (deglex_key(P.alg.quiver, b[0]), b[1])


def brute_force_skeleta(P) -> list[tuple]:
    """Every subpath-closed subset of P.belems containing the generators,
    found by testing every subset of the other basis elements. Each is the
    tuple of the positions in P of its members in belem_order; the list is
    in deglex order of the tuples of members."""
    quiver = P.alg.quiver
    key = belem_order(P)
    gens = [b for b in P.belems if b[0].length == 0]
    rest = [b for b in P.belems if b not in gens]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            have = set(gens) | set(extra)
            if all((initial(p, p.length - 1, quiver), r) in have for p, r in extra):
                out.append(tuple(sorted(have, key=key)))
    out.sort(key=lambda s: tuple(key(b) for b in s))
    return [tuple(P.index[b] for b in s) for s in out]


def skeleta_of_point_oracle(P, C) -> list:
    """The skeleta sigma with P = C (+) span(sigma), by the rank filter:
    every skeleton with the layering of P/C, kept when the residues of its
    members modulo C have full rank. C.rows is in RREF, so the residue of
    the unit vector at column j is that vector minus the row with pivot j,
    or the vector itself when no row has its pivot there; residues vanish
    at the pivots, so the rank is taken on the other columns."""
    f = P.alg.field
    pivot_rows = {next(j for j, x in enumerate(row) if x != 0): row for row in C.rows}
    free = [j for j in range(P.total) if j not in pivot_rows]

    def residue(j):
        row = pivot_rows.get(j)
        if row is None:
            return [f.one() if k == j else f.zero() for k in free]
        return [f.neg(row[k]) for k in free]

    S = radical_layering(P.alg, coker_rep(P, C))
    return [
        sig
        for sig in enumerate_skeleta(P, S)
        if naive_rank(f, [residue(b) for b in sig.elems]) == len(sig)
    ]


def dense_chart_residues(P, sigma):
    """(residues, equations, pinned) of the chart of sigma, built the dense
    way: every residue is a list with one Poly per member of sigma, and two
    mutually recursive expanders act on them. rho(b) expands a basis
    element over sigma; column(a, b) is the generic action of the arrow a
    on a member b of sigma, and apply_column pushes a whole residue through
    a. Each keeps its own memo and cycle guard, and a cycle raises
    UnsupportedAlgebra. The variables are numbered as in chart_equations.
    The oracle works on (path, copy) pairs; the residues it returns are
    keyed by position in P."""
    alg = P.alg
    quiver = alg.quiver
    key = belem_order(P)
    sig_list = [P.belems[i] for i in sigma.elems]
    sig_pos = {b: i for i, b in enumerate(sig_list)}

    nvars = 0
    var_of = {}
    pinned = []
    for b in sig_list:
        p, r = b
        for a in quiver.arrows_out(p.end):
            q = PathWord(p.start, p.arrows + (a.label,), a.end)
            if q not in alg.basis or (q, r) in sig_pos:
                continue
            entry = []
            for b2 in sig_list:
                if b2[0].end != a.end or b2[0].length < q.length:
                    continue
                if alg.is_monomial() and b2[0].length == q.length and key(b2) > key((q, r)):
                    pinned.append(nvars)
                entry.append((b2, nvars))
                nvars += 1
            var_of[(a.label, b)] = entry
    ring = PolyRing(alg.field, [f"c{k + 1}" for k in range(nvars)])

    def unit_vec(b):
        vec = [ring.zero() for _ in sig_list]
        vec[sig_pos[b]] = ring.one()
        return vec

    col_memo = {}
    rho_memo = {}
    busy = set()

    def rho(b):
        if b in sig_pos:
            return unit_vec(b)
        if b in rho_memo:
            return rho_memo[b]
        p, r = b
        if not any(b2[0].end == p.end and b2[0].length >= p.length for b2 in sig_list):
            rho_memo[b] = [ring.zero() for _ in sig_list]
            return rho_memo[b]
        key = ("rho", b)
        if key in busy:
            raise UnsupportedAlgebra("cyclic reduction while expanding chart residues")
        busy.add(key)
        parent = (initial(p, p.length - 1, quiver), r)
        label = p.last_arrow()
        if parent in sig_pos:
            out = column(label, parent)
        else:
            out = apply_column(label, rho(parent))
        busy.discard(key)
        rho_memo[b] = out
        return out

    def column(label, b):
        key = (label, b)
        if key in col_memo:
            return col_memo[key]
        guard = ("col", label, b)
        if guard in busy:
            raise UnsupportedAlgebra("cyclic reduction while expanding chart residues")
        busy.add(guard)
        p, r = b
        a = arrow(quiver, label)
        q = PathWord(p.start, p.arrows + (label,), a.end)
        out = [ring.zero() for _ in sig_list]
        if q in alg.basis:
            if (q, r) in sig_pos:
                out[sig_pos[(q, r)]] = ring.one()
            else:
                for b2, k in var_of[(label, b)]:
                    out[sig_pos[b2]] = out[sig_pos[b2]] + ring.var(k)
        else:
            for w, c in nf_path(alg, q).items():
                for i, entry in enumerate(rho((w, r))):
                    out[i] = out[i] + entry.scale(c)
        busy.discard(guard)
        col_memo[key] = out
        return out

    def apply_column(label, vec):
        out = [ring.zero() for _ in sig_list]
        start = arrow(quiver, label).start
        for j, coeff in enumerate(vec):
            if coeff.is_zero() or sig_list[j][0].end != start:
                continue
            for i, entry in enumerate(column(label, sig_list[j])):
                if not entry.is_zero():
                    out[i] = out[i] + entry * coeff
        return out

    residues = {P.index[b]: rho(b) for b in sorted(P.belems, key=lambda t: t[0].length)}
    equations = []
    seen = set()
    for rel in alg.relations:
        for b in sig_list:
            total = [ring.zero() for _ in sig_list]
            for p, c in rel.terms.items():
                vec = unit_vec(b)
                for label in p.arrows:
                    vec = apply_column(label, vec)
                for i, entry in enumerate(vec):
                    total[i] = total[i] + entry.scale(c)
            for e in total:
                if not e.is_zero() and e.monic_key() not in seen:
                    seen.add(e.monic_key())
                    equations.append(e)
    return residues, equations, pinned


def dense_relation_equations(pres) -> list:
    """Chart equations from dense products of polynomial matrices.

    The matrix of each arrow on the skeleton is read off pres.residues: its
    column at b is the residue of the arrow-image of b, through the normal
    form when that image is not a basis path, with each sparse entry in the
    row of its member's position in sigma. Each relation is the sum of
    the products along its words, the empty word being the identity; every
    nonzero entry, relation by relation, column by column and row by row,
    is an equation unless a scalar multiple came before."""
    P = pres.cover
    alg = P.alg
    ring = pres.ring
    n = len(pres.sigma)

    def zero_matrix():
        return [[ring.zero() for _ in range(n)] for _ in range(n)]

    pos = {b: i for i, b in enumerate(pres.sigma.elems)}
    mats = {}
    for a in alg.quiver.arrows:
        m = zero_matrix()
        for j, b in enumerate(pres.sigma.elems):
            p, r = P.belems[b]
            if p.end != a.start:
                continue
            q = PathWord(p.start, p.arrows + (a.label,), a.end)
            for w, c in nf_path(alg, q).items():
                for b2, entry in pres.residues[P.index[(w, r)]].items():
                    i = pos[b2]
                    m[i][j] = m[i][j] + entry.scale(c)
        mats[a.label] = m

    def word_matrix(word):
        m = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
        for label in word.arrows:
            step = mats[label]
            prod = zero_matrix()
            for i in range(n):
                for k in range(n):
                    if step[i][k].is_zero():
                        continue
                    for j in range(n):
                        prod[i][j] = prod[i][j] + step[i][k] * m[k][j]
            m = prod
        return m

    equations = []
    seen = set()
    for rel in alg.relations:
        total = zero_matrix()
        for word, c in rel.terms.items():
            m = word_matrix(word)
            for i in range(n):
                for j in range(n):
                    total[i][j] = total[i][j] + m[i][j].scale(c)
        for j in range(n):
            for i in range(n):
                e = total[i][j]
                if not e.is_zero() and e.monic_key() not in seen:
                    seen.add(e.monic_key())
                    equations.append(e)
    return equations


# -- stratum sweeps --------------------------------------------------------------


def plain_stratum_points(charts, limits):
    """Each distinct point of the charts once, as (chart, coordinates,
    point), at the first chart and coordinates that reach it: every
    coordinate tuple of a sweepable chart is tried, tuples off the
    equations are dropped by coords_to_point, and repeats by a seen-set.
    A chart over the sweep budget gets the same seeded sample as in
    grass.stratum_points."""
    rng = random.Random(limits.seed)
    seen = set()
    for pres in charts:
        f = pres.cover.alg.field
        if _chart_sweepable(pres, limits):
            scalars = f.elements() if pres.variables else []
            tuples = itertools.product(scalars, repeat=len(pres.variables))
        else:
            tuples = _chart_points(pres, limits, rng, False)
        for vals in tuples:
            try:
                pt = coords_to_point(pres, list(vals))
            except EquationsViolated:
                continue
            if pt.rows not in seen:
                seen.add(pt.rows)
                yield pres, list(vals), pt


# -- closed-orbit sweeps ---------------------------------------------------------


def closed_orbit_verdicts(P, points) -> list:
    """The maximality sweep as it was before condition (ii) went first:
    (point, verdict) for every point, each with the full verdict of
    no_proper_topstable_deg. The sweep keeps the points whose verdict holds."""
    return [(C, no_proper_topstable_deg(P.alg, P, C)) for C in points]


# -- helpers no command needs: test inputs and inverse routes -------------------


def path_from_labels(quiver, labels_rtl) -> PathWord:
    """Build a path from labels written right-to-left (as in "b*a": first a).

    Raises ValueError when consecutive arrows do not compose.
    """
    seq = list(labels_rtl)[::-1]  # application order
    if not seq:
        raise ValueError("empty label list; use idempotent(v) for e_v")
    first = arrow(quiver, seq[0])
    p = PathWord(first.start, (first.label,), first.end)
    for lbl in seq[1:]:
        a = arrow(quiver, lbl)
        q = extend(p, a)
        if q is None:
            raise ValueError(f"arrows do not compose: {a.label} after {p}")
        p = q
    return p


def arrow(quiver, label) -> Arrow:
    """The arrow of the quiver with the given label."""
    return next(a for a in quiver.arrows if a.label == label)


def initial(p: PathWord, m: int, quiver) -> PathWord:
    """The initial subpath of p made of its first m arrows applied."""
    if not 0 <= m <= p.length:
        raise ValueError("bad subpath length")
    if m == 0:
        return idempotent(p.start)
    return PathWord(p.start, p.arrows[:m], arrow(quiver, p.arrows[m - 1]).end)


def nf_path(alg, p: PathWord) -> dict[PathWord, object]:
    """The normal form of a path of any length, deglex ascending: the fold
    of the arrow table of alg along its arrows from e_start."""
    v = fold(alg.field, alg.arrows, {p.start - 1: alg.field.one()}, p.arrows)
    return {alg.basis[i]: v[i] for i in sorted(v)}


def normal_form(alg, x: Element) -> Element:
    """The normal form of an element, term by term (nf_path)."""
    out = Element()
    for p, c in x.terms.items():
        alg.field.axpy(out.terms, c, nf_path(alg, p))
    return out


def rep_of_projective(alg, v: int) -> Rep:
    """The left module Lambda*e_v on its path basis: the cover of the
    simple top at v (reps._free_rep)."""
    return _free_rep(alg, (v,))[1]


def rep_of_matrices(alg, d, mats) -> Rep:
    """The module with the given d_end x d_start arrow matrices, one for
    every arrow, each read into a Map column by column. ValueError for a
    missing or misshapen matrix."""
    f = alg.field
    offset = [sum(d[:i]) for i in range(len(d))]
    arrows = {}
    for a in alg.quiver.arrows:
        m = mats.get(a.label)
        r, c = d[a.end - 1], d[a.start - 1]
        if m is None or len(m) != r or any(len(row) != c for row in m):
            raise ValueError(f"arrow {a.label}: no {r}x{c} matrix")
        row0, col0 = offset[a.end - 1], offset[a.start - 1]
        arrows[a.label] = {
            col0 + t: col for t in range(c) if (col := {row0 + i: x[t] for i, x in enumerate(m) if not f.is_zero(x[t])})
        }
    return Rep(alg, d, arrows)


def transpose(a):
    return [list(col) for col in zip(*a)]


def space_key(rows) -> tuple:
    """Hashable canonical form of an RREF row list."""
    return tuple(tuple(r) for r in rows)


def algebra_mul(alg, later, earlier):
    """The product later*earlier ("first earlier, then later") in the
    algebra, normal formed."""
    f = alg.field
    out = Element()
    for p, cp in later.terms.items():
        for q, cq in earlier.terms.items():
            pq = compose(alg.quiver, p, q)
            if pq is not None:
                f.axpy(out.terms, f.mul(cp, cq), nf_path(alg, pq))
    return out


def direct_sum(M, N):
    """M (+) N, with the block of M before that of N at every vertex."""
    d = tuple(x + y for x, y in zip(M.d, N.d))

    def shifted(x, col0, row0):
        return {col0 + j: {row0 + i: y for i, y in col.items()} for j, col in x.items()}

    arrows = {}
    for a in M.alg.quiver.arrows:
        s, e = a.start, a.end
        x = shifted(M.arrows[a.label], N.offset(s), N.offset(e))
        x.update(shifted(N.arrows[a.label], M.offset(s) + M.dim_at(s), M.offset(e) + M.dim_at(e)))
        arrows[a.label] = x
    return Rep(M.alg, d, arrows)


@dataclass
class GroupElement:
    """An element of GL_d: one square block per vertex."""

    blocks: dict


def random_group_element(field: Field, d, rng) -> GroupElement:
    """Each block drawn entry by entry, again until it is invertible."""
    blocks = {}
    for v, n in enumerate(d, start=1):
        while True:
            m = [[field.random(rng) for _ in range(n)] for _ in range(n)]
            if naive_rank(field, m) == n:
                blocks[v] = m
                break
    return GroupElement(blocks)


def base_change(M, g: GroupElement):
    """g.M, with arrow matrices g_e x_a g_s^-1. A row r of a new matrix
    solves r g_s = the row of g_e x_a, so no inverse is formed. ValueError
    for a misshapen or singular block."""
    f = M.field
    for v in M.alg.quiver.vertices:
        blk, n = g.blocks.get(v), M.dim_at(v)
        if blk is None or len(blk) != n or any(len(r) != n for r in blk):
            raise ValueError(f"group element block at vertex {v} has wrong shape")
        if naive_rank(f, blk) < n:
            raise ValueError(f"group element block at vertex {v} is singular")
    mats = M.mats
    for a in M.alg.quiver.arrows:
        if M.dim_at(a.start) and M.dim_at(a.end):
            right = transpose(g.blocks[a.start])
            mats[a.label] = [solve(f, right, row) for row in naive_mat_mul(f, g.blocks[a.end], mats[a.label])]
    return rep_of_matrices(M.alg, M.d, mats)


def submodule_dim_vectors(M) -> set[tuple[int, ...]]:
    return {_vertex_dims(M, sp) for sp in submodule_spans(M)}


def local_top_weight(i: int, d) -> Weight:
    """The weight vanishing on d that rewards every vertex except i.

    theta(j) = 1 for j != i and theta(i) = -sum of the other coordinates,
    so theta(d) = 0 whenever d_i = 1. Local modules with top S_i and
    dimension vector d are exactly the stable ones for this weight.
    """
    rest = sum(x for j, x in enumerate(d, start=1) if j != i)
    return Weight(tuple(-rest if j == i else 1 for j in range(1, len(d) + 1)))


def identity_coords(endo) -> list:
    """The End(P) coordinates of the identity: 1 on the torus (the
    length-zero maps z_r -> z_r), else 0."""
    f = endo.cover.alg.field
    torus = [j for j in endo.degree0 if endo.elems[j][0] == endo.elems[j][1]]
    return [f.one() if j in torus else f.zero() for j in range(endo.dim)]


def apply_auto(P, coeffs, C, endo=None):
    """The image of a point under the automorphism of P with the given
    End(P) coordinates. ValueError unless the degree-0 block at every
    vertex, over the generators there, is invertible."""
    if endo is None:
        endo = P.endo
    f = P.alg.field
    coeffs = [f.of_int(c) if isinstance(c, int) else c for c in coeffs]
    if len(coeffs) != endo.dim:
        raise ValueError(f"End(P) has dimension {endo.dim}, got {len(coeffs)}")
    for v in sorted(set(P.gens)):
        copies = [r for r, gv in enumerate(P.gens) if gv == v]
        blk = [[f.zero()] * len(copies) for _ in copies]
        for j in endo.degree0:
            r, s, _ = endo.elems[j]
            if P.gens[r] == v:
                blk[copies.index(s)][copies.index(r)] = coeffs[j]
        if naive_rank(f, blk) < len(copies):
            raise ValueError(f"degree-0 block at vertex {v} is singular")
    h = combine(f, coeffs, endo.images)
    return submodule_point(P, [apply(f, h, row) for row in C.span.rows.values()])


def point_to_coords(P, sigma, C, pres=None) -> list:
    """The coordinates of C on the chart of sigma, the inverse of
    coords_to_point. ValueError when C is not on the chart.

    sigma's columns go last, so P = C (+) span(sigma) exactly when C's
    pivots are the first dim C columns; the residue modulo C of an
    arrow-image off sigma then lies in span(sigma), and its entries fill
    the image's coordinate slots in pres.variables.
    """
    if pres is None:
        pres = chart_equations(P, sigma)
    alg = P.alg
    f = alg.field
    n = C.dim
    if n + len(sigma) != P.total:
        raise ValueError("dim C + |sigma| != dim P")
    sig_cols = list(sigma.elems)
    order = [i for i in range(P.total) if i not in sig_cols] + sig_cols
    col = {i: k for k, i in enumerate(order)}
    span = Echelon(f, ({col[i]: x for i, x in enumerate(row) if not f.is_zero(x)} for row in C.rows))
    if span.pivots() != list(range(n)):
        raise ValueError("P is not the direct sum of C and the span of sigma")
    slots: dict = {}
    for k, (label, b, b2) in enumerate(pres.variables):
        slots.setdefault((label, b), {})[b2] = k
    values = [f.zero()] * len(pres.variables)
    for b in sigma.elems:
        p, r = P.belems[b]
        for a in alg.quiver.arrows_out(p.end):
            q = extend(p, a)
            if q not in alg.basis or P.index[(q, r)] in sig_cols:
                continue
            allowed = slots.get((a.label, b), {})
            res = span.reduce({col[P.index[(q, r)]]: f.one()})
            for i, b2 in enumerate(sigma.elems):
                c = res.get(n + i)
                if c is None:
                    continue
                if b2 not in allowed:
                    raise ValueError(
                        f"residue of {P.describe(P.index[(q, r)])} meets {P.describe(b2)}, "
                        f"which the layering of sigma forbids"
                    )
                values[allowed[b2]] = c
    return values


def _render_lincomb(terms) -> str:
    parts = []
    for k, t in enumerate(terms):
        c = t.coeff
        if k == 0:
            parts.append(f"{c}*{t.ref}")
        elif c < 0:
            parts.append(f" - {-c}*{t.ref}")
        else:
            parts.append(f" + {c}*{t.ref}")
    return "".join(parts)


def _render_generator(gen) -> str:
    return " + ".join(f"({_render_lincomb(p.terms)}).z{p.copy}" for p in gen)


def _render_tuple(t) -> str:
    return "(" + ", ".join(str(x) for x in t) + ")"


def render_document(doc) -> str:
    """The canonical text of a parsed document: parsing it gives the
    document back."""
    out = ["quiver {", "  vertices: " + " ".join(str(v) for v in doc.vertices) + ";"]
    if doc.arrows:
        decls = ", ".join(f"{lbl}: {s} -> {e}" for lbl, s, e in doc.arrows)
        out.append(f"  arrows: {decls};")
    out += ["}", "algebra {", f"  field: {doc.field};", f"  max_len: {doc.max_len};"]
    if doc.relations:
        rels = ", ".join(_render_lincomb(r) for r in doc.relations)
        out.append(f"  relations: [{rels}];")
    out.append("}")
    if doc.module is not None:
        out += ["module {", f"  d: {_render_tuple(doc.module.d)};"]
        for lbl, rows in doc.module.mats:
            matrix = "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in rows) + "]"
            out.append(f"  {lbl}: {matrix};")
        out.append("}")
    for block in doc.points:
        gens = ", ".join(_render_generator(g) for g in block)
        out += ["point {", f"  generators: [{gens}];", "}"]
    if doc.weight is not None:
        out.append(f"weight {{ theta: {_render_tuple(doc.weight)}; }}")
    if doc.top is not None:
        out.append(f"top {{ mult: {_render_tuple(doc.top)}; }}")
    if doc.d is not None:
        out.append(f"dimvec {{ d: {_render_tuple(doc.d)}; }}")
    if doc.layering is not None:
        rows = ", ".join(_render_tuple(r) for r in doc.layering)
        out.append(f"layering {{ layers: [{rows}]; }}")
    if doc.skeleton is not None:
        elems = ", ".join(f"{e.ref}.z{e.copy}" for e in doc.skeleton)
        out.append(f"skeleton {{ elems: [{elems}]; }}")
    if doc.direction is not None:
        out.append("direction {")
        out += [f"  z{r}: {_render_generator(gen)};" for r, gen in doc.direction]
        out.append("}")
    return "\n".join(out) + "\n"
