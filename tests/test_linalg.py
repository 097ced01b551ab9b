import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configcohom import SparseExactMatrix, kernel_dim, make_cpm, rank
from configcohom.homology import complex_data
from oracles import dense_rank, kernel_basis


def test_constructor_validates():
    with pytest.raises(ValueError):
        SparseExactMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])  # duplicate
    with pytest.raises(ValueError):
        SparseExactMatrix(2, 2, [(2, 0, 1)])  # out of range
    with pytest.raises(ValueError):
        SparseExactMatrix(2, 2, [(0, 0, 0)])  # explicit zero
    with pytest.raises(AttributeError):
        SparseExactMatrix(1, 1, []).n_rows = 5
    # the column constructor: offsets, rows 0..1, values per column
    A = SparseExactMatrix.from_columns(2, [0, 1, 3], [1, 0, 1], [2, -1, Fraction(1, 2)])
    assert A.entries == ((0, 1, -1), (1, 0, 2), (1, 1, Fraction(1, 2)))
    with pytest.raises(ValueError):
        SparseExactMatrix.from_columns(2, [0, 1, 2], [0, 2], [1, 1])  # out of range
    with pytest.raises(ValueError):
        SparseExactMatrix.from_columns(2, [0, 1, 2], [0, -1], [1, 1])  # negative row
    with pytest.raises(ValueError):
        SparseExactMatrix.from_columns(2, [0, 1, 2], [0, 1], [1, 0])  # explicit zero
    with pytest.raises(TypeError):
        SparseExactMatrix.from_columns(2, [0, 1, 2], [0, 1], [1, "1"])  # not a number
    with pytest.raises(ValueError):
        SparseExactMatrix.from_columns(2, [0, 2, 1], [0, 1], [1, 1])  # offsets


def test_rank_examples():
    assert rank(SparseExactMatrix.zero(3, 4)) == 0
    eye = SparseExactMatrix(3, 3, [(i, i, 1) for i in range(3)])
    assert rank(eye) == 3
    row = SparseExactMatrix.from_dense([[0, 1, 2]])
    assert rank(row) == 1
    assert kernel_dim(row) == 2
    # proportional rows collapse
    A = SparseExactMatrix.from_dense([[1, 2], [2, 4], [0, 1]])
    assert rank(A) == 2
    # fractional entries: the first is singular, the second is not
    B = SparseExactMatrix.from_dense([[Fraction(1, 2), Fraction(1, 3)],
                                      [Fraction(3, 2), 1]])
    assert rank(B) == 1
    C = SparseExactMatrix.from_dense([[Fraction(1, 2), Fraction(1, 3)],
                                      [Fraction(1, 5), 1]])
    assert rank(C) == 2


def test_matmul_and_transpose():
    A = SparseExactMatrix.from_dense([[1, 2], [0, 1]])
    B = SparseExactMatrix.from_dense([[1, 0], [3, 1]])
    assert (A @ B).to_dense() == [[Fraction(7), Fraction(2)],
                                  [Fraction(3), Fraction(1)]]
    assert A.transpose().to_dense() == [[Fraction(1), Fraction(0)],
                                        [Fraction(2), Fraction(1)]]
    with pytest.raises(ValueError):
        A @ SparseExactMatrix.zero(3, 3)


def test_int_entries_stay_int():
    A = SparseExactMatrix.from_dense([[1, 2], [0, -1]])
    assert all(type(q) is int for _, _, q in A.entries)
    assert all(type(q) is int for _, _, q in (A @ A).entries)
    assert all(type(x) is Fraction for row in A.to_dense() for x in row)
    B = SparseExactMatrix(1, 2, [(0, 1, Fraction(1, 2))])
    assert B.entries == ((0, 1, Fraction(1, 2)),)
    assert rank(B) == 1


def test_kernel_basis_exact_on_int_block():
    # the CP^4, k = 10 reduced block out of (e + 1, weight 1), e = 60
    _, blocks, _ = complex_data(make_cpm(4), 10, "reduced")
    A = blocks[(61, 1)].matrix
    assert all(type(q) is int for _, _, q in A.entries)
    basis = kernel_basis(A)
    assert len(basis) == 2
    assert all(type(x) is Fraction for vec in basis for x in vec)
    for vec in basis:
        for row in A.to_dense():
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_kernel_basis_spans_kernel():
    A = SparseExactMatrix.from_dense([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = kernel_basis(A)
    assert len(basis) == kernel_dim(A) == 1
    dense = A.to_dense()
    for vec in basis:
        for row in dense:
            assert sum(a * x for a, x in zip(row, vec)) == 0


dense_entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def dense_matrices(draw, max_dim=6):
    n_rows = draw(st.integers(min_value=0, max_value=max_dim))
    n_cols = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[draw(dense_entries) for _ in range(n_cols)] for _ in range(n_rows)]
    return rows, n_cols


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
def test_rank_agrees_with_dense_oracle(data):
    rows, n_cols = data
    A = SparseExactMatrix.from_dense(rows, n_cols)
    assert rank(A) == dense_rank(rows)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation_and_scaling(data, rng):
    rows, n_cols = data
    base = rank(SparseExactMatrix.from_dense(rows, n_cols))
    # permute rows and columns
    perm_rows = rows[:]
    rng.shuffle(perm_rows)
    cols = list(range(n_cols))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in perm_rows]
    assert rank(SparseExactMatrix.from_dense(shuffled, n_cols)) == base
    # scale each row by a nonzero rational
    scales = [Fraction(rng.choice([1, 2, 3, -1, -5]),
                       rng.choice([1, 2, 7])) for _ in rows]
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert rank(SparseExactMatrix.from_dense(scaled, n_cols)) == base


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_rank_of_transpose(data):
    rows, n_cols = data
    A = SparseExactMatrix.from_dense(rows, n_cols)
    assert rank(A) == rank(A.transpose())


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_kernel_dim_consistent_with_kernel_basis(data):
    rows, n_cols = data
    A = SparseExactMatrix.from_dense(rows, n_cols)
    basis = kernel_basis(A)
    assert len(basis) == kernel_dim(A)
    dense = A.to_dense()
    for vec in basis:
        for row in dense:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    # the basis really is independent: stack it and take the rank
    if basis:
        K = SparseExactMatrix.from_dense([list(v) for v in basis], n_cols)
        assert rank(K) == len(basis)


def test_rank_deterministic_repeat():
    rng = random.Random(7)
    rows = [[rng.choice([0, 0, 0, 1, 2, -1]) for _ in range(12)]
            for _ in range(9)]
    A = SparseExactMatrix.from_dense(rows, 12)
    first = rank(A)
    assert all(rank(A) == first for _ in range(5))
