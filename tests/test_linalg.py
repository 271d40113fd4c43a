"""The elimination kernel against textbook oracles over F2, F3 and Q.

Every property compares quivermoduli.linalg with code in tests/oracles.py
that shares nothing with it: column-by-column Gaussian elimination, spans
enumerated element by element, and the Leibniz expansion of det.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.errors import DimensionMismatch, NotInvertible
from quivermoduli.fields import QQ, Field
from quivermoduli.linalg import (
    det,
    inverse,
    is_invertible,
    kernel_basis,
    mat_mul,
    span_rref,
    sparse_kernel_basis,
)

from oracles import leibniz_det, naive_mat_vec, naive_rank, span_by_enumeration

FIELDS = (Field(2), Field(3), QQ)
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


@given(m=matrices(square=True))
@PROPERTY
def test_det_agrees_with_the_leibniz_expansion(m):
    f, a, _ = m
    assert det(f, a) == leibniz_det(f, a)


@given(m=matrices(square=True))
@PROPERTY
def test_inverse_times_matrix_is_the_identity(m):
    f, a, n = m
    if not is_invertible(f, a):
        assert naive_rank(f, a) < n
        with pytest.raises(NotInvertible):
            inverse(f, a)
        return
    inv = inverse(f, a)
    prod = [naive_mat_vec(f, inv, [a[i][j] for i in range(n)]) for j in range(n)]
    assert prod == [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]


def test_mat_mul_refuses_a_row_of_width_two_times_no_rows():
    # [] is 0 x 0, so the inner dimensions 2 and 0 disagree
    with pytest.raises(DimensionMismatch):
        mat_mul(Field(2), [[1, 1]], [])


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_mat_mul_through_a_zero_dimension_keeps_the_rows(f):
    # m x 0 times 0 x 0 is m x 0: base_change at a zero vertex relies on it
    assert mat_mul(f, [[], [], []], []) == [[], [], []]
    assert mat_mul(f, [], []) == []
