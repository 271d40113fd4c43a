"""Exact linear algebra over Q and F_p, with no floating point anywhere.

Sparse rows are dicts from column index to a nonzero scalar. A linear map
is a Map: each source coordinate goes to the sparse image of its unit
vector, zero columns left out; apply, fold, compose and combine build on
Field.axpy. A module, Lambda and the cover P all hold their arrows as Maps
on integer positions, and fold is the one way a path acts on them: the
vector pushed along the arrow Maps of the path's labels. Every elimination
goes through one kernel, Echelon: a row space kept in fully reduced echelon
form under incremental insertion. Dense matrices (lists of row lists)
remain only at the edges: arrow matrices written out (Rep.mats,
hom_basis), points as RREF rows (SubmodulePoint.rows), and the dense views
of Echelon below (rref, kernels, solve). Only this module multiplies dense
matrices.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DimensionMismatch
from .fields import Field, Scalar

Matrix = list[list[Scalar]]
Vector = list[Scalar]
SparseRow = dict[int, Scalar]
Map = dict[int, SparseRow]


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    z = field.zero()
    return [[z] * cols for _ in range(rows)]


def identity(field: Field, n: int) -> Matrix:
    m = zeros(field, n, n)
    one = field.one()
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b.

    A matrix with no rows records no width, so b = [] is read as 0 x 0 and
    a product with inner dimension 0 comes back m x 0: a 1 x 0 matrix times
    a 0 x 1 one gives [[]], not the 1 x 1 zero matrix. Products through a
    zero-dimensional vertex go through Rep.act, which needs no widths.
    """
    if a and len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0]) if b else 0}")
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(field, rows, cols)
    for i in range(rows):
        ra = a[i]
        oi = out[i]
        for k in range(inner):
            c = ra[k]
            if field.is_zero(c):
                continue
            rb = b[k]
            for j in range(cols):
                if not field.is_zero(rb[j]):
                    oi[j] = field.add(oi[j], field.mul(c, rb[j]))
    return out


def mat_pow(field: Field, a: Matrix, k: int) -> Matrix:
    n = len(a)
    out = identity(field, n)
    base = [row[:] for row in a]
    while k > 0:
        if k & 1:
            out = mat_mul(field, out, base)
        k >>= 1
        if k:
            base = mat_mul(field, base, base)
    return out


# -- sparse maps -----------------------------------------------------------------


def apply(field: Field, x: Map, vec: SparseRow) -> SparseRow:
    """The image x(vec) of a sparse vector."""
    out: SparseRow = {}
    for j, y in vec.items():
        col = x.get(j)
        if col is not None:
            field.axpy(out, y, col)
    return out


def fold(field: Field, maps: dict[str, Map], vec: SparseRow, labels: Iterable[str]) -> SparseRow:
    """vec pushed along the Maps of the labels, first label first: the
    action of the path with that arrow word. An arrow's Map has columns only
    at its start vertex, so a path of length >= 1 folds to zero from a
    vector supported off its start."""
    for label in labels:
        vec = apply(field, maps[label], vec)
    return vec


def compose(field: Field, x: Map, y: Map) -> Map:
    """The map x o y: first y, then x."""
    return {j: img for j, col in y.items() if (img := apply(field, x, col))}


def combine(field: Field, coeffs: Iterable[Scalar], maps: Iterable[Map]) -> Map:
    """The map sum_i coeffs[i] * maps[i]."""
    out: Map = {}
    for c, x in zip(coeffs, maps):
        if not field.is_zero(c):
            for j, col in x.items():
                field.axpy(out.setdefault(j, {}), c, col)
    return {j: col for j, col in out.items() if col}


# -- the elimination kernel ----------------------------------------------------


def sparse(field: Field, v: Vector) -> SparseRow:
    """The nonzero entries of a dense vector; over F_p each is reduced to its
    residue in [1, p), so a row read in names its space as any other does."""
    p = field.p
    if p is None:
        return {j: x for j, x in enumerate(v) if x != 0}
    return {j: r for j, x in enumerate(v) if (r := x % p)}


def dense(field: Field, row: SparseRow, ncols: int) -> Vector:
    out = [field.zero()] * ncols
    for j, x in row.items():
        out[j] = x
    return out


class Echelon:
    """A row space in fully reduced echelon form, grown one row at a time.

    Stored rows are sparse and keyed by their pivot, the smallest column of
    the row, where the entry is 1; no stored row has a nonzero entry at any
    other row's pivot. A space has exactly one such form for a fixed column
    order, so the stored rows are its RREF whatever order rows arrive in.

    A row handed to reduce or insert must store no zero and, over F_p, only
    residues in [1, p), as every row built by Field.axpy or linalg.sparse
    does; reduce copies it as it is.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: Iterable[SparseRow] = ()):
        self.field = field
        self.rows: dict[int, SparseRow] = {}
        for row in rows:
            self.insert(row)

    @classmethod
    def of(cls, field: Field, vectors: Iterable[Vector]) -> Echelon:
        """The span of dense vectors."""
        return cls(field, (sparse(field, v) for v in vectors))

    def __len__(self) -> int:
        return len(self.rows)

    def copy(self) -> Echelon:
        """An independent copy: inserting into it leaves this space alone."""
        out = Echelon(self.field)
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out

    def reduce(self, row: SparseRow) -> SparseRow:
        """Residue of a row modulo the space: a new row, zero at every pivot."""
        axpy, rows = self.field.axpy, self.rows
        out = dict(row)
        for c in [c for c in out if c in rows]:
            # pivot rows are zero at every other pivot, so one pass suffices
            axpy(out, -out[c], rows[c])
        return out

    def contains(self, row: SparseRow) -> bool:
        return not self.reduce(row)

    def insert(self, row: SparseRow) -> int | None:
        """Add a row to the space; its new pivot, or None if it was inside."""
        return self._place(self.reduce(row))

    def _place(self, res: SparseRow) -> int | None:
        """Store a residue: scale its lead to 1, clear its pivot elsewhere."""
        if not res:
            return None
        f = self.field
        axpy = f.axpy
        p = min(res)
        lead = res[p]
        if lead != 1:
            res, scaled = {}, res
            axpy(res, f.inv(lead), scaled)
        for r in self.rows.values():
            c = r.get(p)
            if c is not None:
                axpy(r, -c, res)
        self.rows[p] = res
        return p

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def key(self) -> frozenset:
        """The stored rows as (pivot, column, entry) triples: the RREF of a
        space is unique, so they name it."""
        return frozenset((p, c, x) for p, r in self.rows.items() for c, x in r.items())

    def rref(self, ncols: int) -> list[Vector]:
        """The stored rows as dense vectors, in pivot order."""
        return [dense(self.field, self.rows[p], ncols) for p in self.pivots()]

    def kernel(self, ncols: int) -> list[Vector]:
        """Basis of {x : r . x = 0 for every stored row r}, one vector per
        free column in ascending order, with 1 at that column."""
        f = self.field
        basis = []
        for free in range(ncols):
            if free in self.rows:
                continue
            v = [f.zero()] * ncols
            v[free] = f.one()
            for p, row in self.rows.items():
                c = row.get(free)
                if c is not None:
                    v[p] = f.neg(c)
            basis.append(v)
        return basis


# -- dense views ------------------------------------------------------------------


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows_without_zero_rows, pivot_cols)."""
    ech = Echelon.of(field, a)
    return ech.rref(len(a[0]) if a else 0), ech.pivots()


def kernel_basis(field: Field, a: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {x : a @ x = 0}."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    return Echelon.of(field, a).kernel(ncols)


def sparse_kernel_basis(field: Field, rows: list[SparseRow], ncols: int) -> list[Vector]:
    """Basis of {x in K^ncols : r . x = 0 for every sparse row r}."""
    return Echelon(field, rows).kernel(ncols)


def solve(field: Field, a: Matrix, b: Vector) -> Vector | None:
    """One solution of a @ x = b, or None when inconsistent."""
    ncols = len(a[0]) if a else 0
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(field, aug)
    for prow, pcol in zip(red, pivots):
        if pcol == ncols:
            return None
    x = [field.zero()] * ncols
    for prow, pcol in zip(red, pivots):
        x[pcol] = prow[ncols]
    return x


# -- row spaces as canonical objects ----------------------------------------


def span_rref(field: Field, vectors: list[Vector]) -> list[Vector]:
    """RREF basis of the span; [] for the zero space."""
    if not vectors:
        return []
    red, _ = rref(field, vectors)
    return red


def reduce_mod(field: Field, rref_rows: list[Vector], v: Vector) -> Vector:
    """Residue of v after eliminating the pivots of an RREF row list."""
    return dense(field, Echelon.of(field, rref_rows).reduce(sparse(field, v)), len(v))
