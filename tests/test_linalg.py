"""The elimination kernel against textbook oracles over F2, F3, F5, F7 and Q.

Every property compares quivermoduli.linalg with code in tests/oracles.py
that shares nothing with it: column-by-column Gaussian elimination, spans
enumerated element by element, and the Leibniz expansion of det (against
polys.poly_det, the one determinant left in the package). The sparse
accumulation Field.axpy, one kernel per field, is checked against a plain
dense sum, and the Map arithmetic (apply, compose, combine) against plain
matrix products.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.errors import DimensionMismatch
from quivermoduli.fields import QQ, Field
from quivermoduli.quiver import PathWord
from quivermoduli.polys import PolyRing, poly_det
from quivermoduli.linalg import (
    Echelon,
    apply,
    combine,
    compose,
    kernel_basis,
    mat_mul,
    rref,
    solve,
    span_rref,
    sparse,
    sparse_kernel_basis,
)

from oracles import leibniz_det, naive_mat_mul, naive_mat_vec, naive_rank, span_by_enumeration

FIELDS = (Field(2), Field(3), Field(5), Field(7), QQ)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def matrices(draw, square: bool = False):
    """(field, matrix) with at most 4 rows and 1..4 columns; rational
    entries have numerators in [-3, 3] and denominators 1..3."""
    f = draw(st.sampled_from(FIELDS))
    if square:
        nrows = ncols = draw(st.integers(1, 4))
    else:
        nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    if f.is_finite:
        entry = st.sampled_from(f.elements())
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    # sparse matrices hit the pivot bookkeeping hardest: zero half the time
    entry = st.one_of(st.just(f.zero()), entry)
    a = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return f, a, ncols


def _lead(row):
    return next(j for j, x in enumerate(row) if x != 0)


@given(m=matrices())
@PROPERTY
def test_span_rref_is_a_reduced_echelon_basis_of_the_same_span(m):
    f, a, ncols = m
    red = span_rref(f, a)
    if f.is_finite:
        assert span_by_enumeration(f, red, ncols) == span_by_enumeration(f, a, ncols)
    else:
        rank = naive_rank(f, a)
        assert naive_rank(f, red) == rank == naive_rank(f, a + red)
    assert len(red) == naive_rank(f, a)
    leads = [_lead(row) for row in red]
    assert leads == sorted(set(leads))
    for row, p in zip(red, leads):
        assert row[p] == f.one()
        assert all(other[p] == 0 for other in red if other is not row)


def test_dense_rows_over_f3_are_read_as_residues():
    f = Field(3)
    assert rref(f, [[1, -1]]) == ([[1, 2]], [0])
    assert rref(f, [[4, 1]]) == rref(f, [[-2, 7]]) == ([[1, 1]], [0])
    assert Echelon.of(f, [[1, -1]]).key() == Echelon.of(f, [[1, 2]]).key() == Echelon.of(f, [[4, -4]]).key()
    assert len(Echelon.of(f, [[3, -6], [0, 0]])) == 0
    assert sparse(f, [3, -1, 4, 0]) == {1: 2, 2: 1}


@given(m=matrices(), data=st.data())
@PROPERTY
def test_any_integer_lift_over_f_p_names_the_same_space(m, data):
    # the dense entry points read a matrix through linalg.sparse, which
    # reduces each entry, so every value they return lies in [0, p)
    f, a, ncols = m
    if not f.is_finite:
        return
    lift = [[x + f.p * data.draw(st.integers(-2, 2)) for x in row] for row in a]
    assert rref(f, lift) == rref(f, a)
    assert Echelon.of(f, lift).key() == Echelon.of(f, a).key()
    assert kernel_basis(f, lift, ncols) == kernel_basis(f, a, ncols)
    b = [f.of_int(i) for i in range(len(a))]
    x = solve(f, lift, [y - f.p for y in b])
    assert x == solve(f, a, b)
    assert all(0 <= y < f.p for v in rref(f, lift)[0] + kernel_basis(f, lift, ncols) + [x or []] for y in v)


@given(m=matrices())
@PROPERTY
def test_kernels_are_annihilated_and_have_dimension_n_minus_rank(m):
    f, a, ncols = m
    rows = [{j: x for j, x in enumerate(row) if x != 0} for row in a]
    for ker in (kernel_basis(f, a, ncols), sparse_kernel_basis(f, rows, ncols)):
        assert len(ker) == ncols - naive_rank(f, a)
        assert naive_rank(f, ker) == len(ker)
        for x in ker:
            assert all(y == 0 for y in naive_mat_vec(f, a, x))


@given(m=matrices(), data=st.data())
@PROPERTY
def test_solve_answers_none_exactly_when_the_system_is_inconsistent(m, data):
    f, a, ncols = m
    b = [data.draw(st.sampled_from(row + [f.zero(), f.one()])) for row in a]
    x = solve(f, a, b)
    if not a:
        # a dense matrix with no rows carries no width: the empty solution
        assert x == []
        return
    augmented = [row + [bv] for row, bv in zip(a, b)]
    if x is None:
        assert naive_rank(f, augmented) > naive_rank(f, a)
    else:
        assert len(x) == ncols
        assert naive_mat_vec(f, a, x) == b


@given(m=matrices(square=True))
@PROPERTY
def test_solve_inverts_exactly_the_full_rank_square_matrices(m):
    # the columns x_j of a @ x_j = e_j make an inverse, and some e_j has no
    # solution when a is singular
    f, a, n = m
    unit = [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]
    cols = [solve(f, a, e) for e in unit]
    if naive_rank(f, a) < n:
        assert None in cols
        return
    assert [naive_mat_vec(f, a, x) for x in cols] == unit


@given(m=matrices(square=True))
@PROPERTY
def test_poly_det_of_the_generic_matrix_evaluates_to_the_leibniz_expansion(m):
    f, a, n = m
    ring = PolyRing(f, [f"x{i}{j}" for i in range(n) for j in range(n)])
    generic = [[ring.var(n * i + j) for j in range(n)] for i in range(n)]
    assert poly_det(generic).eval([x for row in a for x in row]) == leibniz_det(f, a)


@given(m=matrices(square=True))
@PROPERTY
def test_poly_det_of_constant_entries_is_the_leibniz_expansion(m):
    # zero entries are skipped by the expansion; the constant ring has the
    # one monomial ()
    f, a, _ = m
    ring = PolyRing(f, [])
    det = poly_det([[ring.const(x) for x in row] for row in a])
    expected = leibniz_det(f, a)
    assert det.terms == ({} if expected == 0 else {(): expected})


# sparse rows may be keyed by column indices, paths or monomials
AXPY_KEYS = {
    "int": list(range(5)),
    "path": [
        PathWord(1, (), 1),
        PathWord(1, ("a",), 2),
        PathWord(1, ("b",), 2),
        PathWord(2, ("c",), 3),
        PathWord(1, ("a", "c"), 3),
    ],
    "monomial": [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)],
}


@st.composite
def axpy_cases(draw, fields=FIELDS):
    """(field, keys, out, c, row): out has no zero entry, row may have some."""
    f = draw(st.sampled_from(fields))
    keys = AXPY_KEYS[draw(st.sampled_from(sorted(AXPY_KEYS)))]
    if f.is_finite:
        scalar = st.sampled_from(f.elements())
    else:
        scalar = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    out = {k: x for k, x in draw(st.dictionaries(st.sampled_from(keys), scalar)).items() if x != 0}
    return f, keys, out, draw(scalar), draw(st.dictionaries(st.sampled_from(keys), scalar))


def _dense_axpy(f, keys, out, c, row):
    """out + c * row by plain arithmetic on dense vectors over keys, then
    the nonzero entries."""
    vals = [out.get(k, 0) + c * row.get(k, 0) for k in keys]
    if f.is_finite:
        vals = [v % f.p for v in vals]
    return {k: v for k, v in zip(keys, vals) if v != 0}


@given(case=axpy_cases())
@PROPERTY
def test_axpy_is_the_dense_sum_without_its_zeros(case):
    f, keys, out, c, row = case
    expected = _dense_axpy(f, keys, out, c, row)
    f.axpy(out, c, row)
    assert out == expected


def test_a_field_is_named_by_p_alone():
    # each Field binds its own kernel, outside equality, hash and repr
    for p in (2, 3, 5, 7, None):
        a, b = Field(p), Field(p)
        assert a == b and hash(a) == hash(b) == hash((p,))
        assert repr(a) == f"Field(p={p})"
    assert [str(Field(p)) for p in (2, 7, None)] == ["F2", "F7", "Q"]
    assert len({Field(2), Field(3), QQ, Field(2)}) == 3


@given(case=axpy_cases(fields=tuple(f for f in FIELDS if f.is_finite)))
@PROPERTY
def test_axpy_over_f_p_reads_any_representative_of_c(case):
    # Echelon passes -x, not its residue in [0, p), to the kernel
    f, keys, out, c, row = case
    sums = []
    for rep in (c, c - f.p, c + f.p):
        acc = dict(out)
        f.axpy(acc, rep, row)
        assert all(type(x) is int and 0 < x < f.p for x in acc.values())
        sums.append(acc)
    assert sums[0] == sums[1] == sums[2] == _dense_axpy(f, keys, out, c, row)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_axpy_pops_a_cancelled_entry_and_skips_a_zero_entry(f):
    one = f.one()
    a, b = PathWord(1, ("a",), 2), PathWord(1, ("b",), 2)
    out = {a: one, b: one}
    f.axpy(out, f.neg(one), {a: one, 7: f.zero()})
    assert out == {b: one}
    f.axpy(out, one, {b: f.zero(), (1, 0): f.zero()})
    assert out == {b: one}
    f.axpy(out, f.zero(), {b: one, a: one})
    assert out == {b: one}


def test_mat_mul_refuses_a_row_of_width_two_times_no_rows():
    # [] is 0 x 0, so the inner dimensions 2 and 0 disagree
    with pytest.raises(DimensionMismatch):
        mat_mul(Field(2), [[1, 1]], [])


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_mat_mul_through_a_zero_dimension_keeps_the_rows(f):
    # m x 0 times 0 x 0 is m x 0
    assert mat_mul(f, [[], [], []], []) == [[], [], []]
    assert mat_mul(f, [], []) == []


# -- sparse maps -------------------------------------------------------------------


@st.composite
def map_cases(draw):
    """(field, a, b, c, d, v): dense matrices a (m x k), b (k x n) and c
    (m x k), scalars d = (d_a, d_c) and a vector v of length k, with zero
    half the time."""
    f = draw(st.sampled_from(FIELDS))
    if f.is_finite:
        entry = st.sampled_from(f.elements())
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    entry = st.one_of(st.just(f.zero()), entry)
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return f, matrix(m, k), matrix(k, n), matrix(m, k), (draw(entry), draw(entry)), [draw(entry) for _ in range(k)]


def _as_map(f, a, ncols):
    """A dense matrix as a Map: column j -> its nonzero entries."""
    return {j: col for j in range(ncols) if (col := sparse(f, [row[j] for row in a]))}


@given(case=map_cases())
@PROPERTY
def test_apply_is_the_dense_product_with_a_vector(case):
    f, a, _, _, _, v = case
    assert apply(f, _as_map(f, a, len(v)), sparse(f, v)) == sparse(f, naive_mat_vec(f, a, v))


@given(case=map_cases())
@PROPERTY
def test_compose_is_the_dense_product_of_two_matrices(case):
    f, a, b, _, _, v = case
    n = len(b[0]) if b else 0
    expected = _as_map(f, naive_mat_mul(f, a, b), n) if a else {}
    assert compose(f, _as_map(f, a, len(v)), _as_map(f, b, n)) == expected


@given(case=map_cases())
@PROPERTY
def test_combine_is_the_entrywise_dense_sum(case):
    f, a, _, c, (da, dc), v = case
    total = [[f.add(f.mul(da, x), f.mul(dc, y)) for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
    k = len(v)
    assert combine(f, (da, dc), (_as_map(f, a, k), _as_map(f, c, k))) == _as_map(f, total, k)
