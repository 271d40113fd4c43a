"""Exact linear algebra over Q and F_p.

Dense matrices are lists of row lists; vectors are lists. Sparse rows are
dicts mapping column index to a nonzero scalar. Everything is computed with
exact field arithmetic, no floating point anywhere.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NotInvertible
from .fields import Field, Scalar

Matrix = list[list[Scalar]]
Vector = list[Scalar]
SparseRow = dict[int, Scalar]


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    z = field.zero()
    return [[z] * cols for _ in range(rows)]


def identity(field: Field, n: int) -> Matrix:
    m = zeros(field, n, n)
    one = field.one()
    for i in range(n):
        m[i][i] = one
    return m


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
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


def mat_vec(field: Field, a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matrix/vector shape mismatch")
    out = []
    for row in a:
        s = field.zero()
        for x, y in zip(row, v):
            if not field.is_zero(x) and not field.is_zero(y):
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def mat_pow(field: Field, a: Matrix, k: int) -> Matrix:
    n = len(a)
    out = identity(field, n)
    base = mat_copy(a)
    while k > 0:
        if k & 1:
            out = mat_mul(field, out, base)
        k >>= 1
        if k:
            base = mat_mul(field, base, base)
    return out


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def is_zero_vec(field: Field, v: Vector) -> bool:
    return all(field.is_zero(x) for x in v)


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows_without_zero_rows, pivot_cols)."""
    rows = [row[:] for row in a if not all(field.is_zero(x) for x in row)]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    out: list[Vector] = []
    for row in rows:
        for pcol, prow in zip(pivots, out):
            c = row[pcol]
            if not field.is_zero(c):
                for j in range(ncols):
                    if not field.is_zero(prow[j]):
                        row[j] = field.sub(row[j], field.mul(c, prow[j]))
        lead = next((j for j in range(ncols) if not field.is_zero(row[j])), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(inv, x) for x in row]
        for pcol, prow in zip(pivots, out):
            c = prow[lead]
            if not field.is_zero(c):
                for j in range(ncols):
                    if not field.is_zero(row[j]):
                        prow[j] = field.sub(prow[j], field.mul(c, row[j]))
        out.append(row)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], sorted(pivots)


def rank(field: Field, a: Matrix) -> int:
    return len(rref(field, a)[1])


def kernel_basis(field: Field, a: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {x : a @ x = 0}."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    red, pivots = rref(field, a)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for prow, pcol in zip(red, pivots):
            v[pcol] = field.neg(prow[f])
        basis.append(v)
    return basis


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


def inverse(field: Field, a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("inverse of non-square matrix")
    ident = identity(field, n)
    aug = [row[:] + ident[i] for i, row in enumerate(a)]
    red, pivots = rref(field, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in red[:n]]


def det(field: Field, a: Matrix) -> Scalar:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant of non-square matrix")
    m = mat_copy(a)
    d = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if not field.is_zero(m[r][col])), None)
        if piv is None:
            return field.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = field.neg(d)
        d = field.mul(d, m[col][col])
        inv = field.inv(m[col][col])
        for r in range(col + 1, n):
            c = field.mul(inv, m[r][col])
            if field.is_zero(c):
                continue
            for j in range(col, n):
                m[r][j] = field.sub(m[r][j], field.mul(c, m[col][j]))
    return d


def is_invertible(field: Field, a: Matrix) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and not field.is_zero(det(field, a))


# -- row spaces as canonical objects ----------------------------------------

SpaceKey = tuple[tuple[Scalar, ...], ...]


def span_rref(field: Field, vectors: list[Vector]) -> list[Vector]:
    """RREF basis of the span; [] for the zero space."""
    if not vectors:
        return []
    red, _ = rref(field, vectors)
    return red


def space_key(rows: list[Vector]) -> SpaceKey:
    """Hashable canonical form of an RREF row list."""
    return tuple(tuple(r) for r in rows)


def in_span(field: Field, rref_rows: list[Vector], v: Vector) -> bool:
    return is_zero_vec(field, reduce_mod(field, rref_rows, v))


def reduce_mod(field: Field, rref_rows: list[Vector], v: Vector) -> Vector:
    """Residue of v after eliminating the pivots of an RREF row list."""
    out = v[:]
    for row in rref_rows:
        lead = next((j for j, x in enumerate(row) if not field.is_zero(x)), None)
        if lead is None:
            continue
        c = out[lead]
        if not field.is_zero(c):
            for j in range(len(out)):
                if not field.is_zero(row[j]):
                    out[j] = field.sub(out[j], field.mul(c, row[j]))
    return out


def space_contains(field: Field, outer_rref: list[Vector], inner_rref: list[Vector]) -> bool:
    return all(in_span(field, outer_rref, v) for v in inner_rref)


# -- sparse elimination ------------------------------------------------------


def sparse_row_reduce(field: Field, pivots: dict[int, SparseRow], row: SparseRow) -> int | None:
    """Insert a sparse row into an eliminated set keyed by pivot column
    (the smallest column of the stored row). Returns the new pivot or None."""
    row = dict(row)
    while row:
        c = min(row)
        if c in pivots:
            coeff = row.pop(c)
            for k, v in pivots[c].items():
                if k == c:
                    continue
                nv = field.sub(row.get(k, field.zero()), field.mul(coeff, v))
                if field.is_zero(nv):
                    row.pop(k, None)
                else:
                    row[k] = nv
        else:
            inv = field.inv(row[c])
            pivots[c] = {k: field.mul(inv, v) for k, v in row.items()}
            return c
    return None


def sparse_kernel_basis(field: Field, rows: list[SparseRow], ncols: int) -> list[Vector]:
    """Basis of {x in K^ncols : r . x = 0 for every sparse row r}."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        sparse_row_reduce(field, pivots, row)
    # Back-substitute so every stored row is supported on its pivot and free
    # columns only; process pivots from the largest down.
    order = sorted(pivots, reverse=True)
    for c in order:
        row = pivots[c]
        changed = True
        while changed:
            changed = False
            for k in sorted(k for k in row if k != c and k in pivots):
                coeff = row.pop(k)
                for kk, vv in pivots[k].items():
                    if kk == k:
                        continue
                    nv = field.sub(row.get(kk, field.zero()), field.mul(coeff, vv))
                    if field.is_zero(nv):
                        row.pop(kk, None)
                    else:
                        row[kk] = nv
                changed = True
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for c, row in pivots.items():
            coeff = row.get(f)
            if coeff is not None:
                v[c] = field.neg(coeff)
        basis.append(v)
    return basis
