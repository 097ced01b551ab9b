import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configcohom import SparseExactMatrix, kernel_dim, make_cpm, rank
from configcohom import linalg
from configcohom.linalg import pivots
from configcohom.cecomplex import build_generators
from configcohom.homology import _build, complex_data
from oracles import dense_rank, kernel_basis


def transpose(A):
    """A^T: row c is column c of A."""
    dense = A.to_dense()
    return SparseExactMatrix.from_dense(
        [[row[c] for row in dense] for c in range(A.n_cols)], A.n_rows)


def zero(n_rows, n_cols):
    """The zero matrix, straight from its column arrays."""
    return SparseExactMatrix(n_rows, [0] * (n_cols + 1), (), ())


def scaled_to_ints(row):
    """A row of Fractions times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def test_constructor_validates():
    # the column arrays: offsets, rows 0..1, values per column
    A = SparseExactMatrix(2, [0, 1, 3], [1, 0, 1], [2, -1, 3])
    assert A.entries == ((0, 1, -1), (1, 0, 2), (1, 1, 3))
    assert (A.n_rows, A.n_cols, A.nnz) == (2, 2, 3)
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 2, 1], [0, 1], [1, 1])  # offsets out of order
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 1, 3], [0, 1], [1, 1])  # offsets past the entries
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [1, 1, 2], [0, 1], [1, 1])  # offsets not from 0
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 1, 2], [0, 1], [1])  # a row without a value
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 1, 2], [0, 2], [1, 1])  # out of range
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 1, 2], [0, -1], [1, 1])  # negative row
    with pytest.raises(TypeError):
        SparseExactMatrix(2, [0, 1, 2], [0, 1.0], [1, 1])  # not an int row
    with pytest.raises(TypeError):
        SparseExactMatrix(2, [0, 1, 2], [0, True], [1, 1])  # a bool row
    with pytest.raises(TypeError):
        SparseExactMatrix(1, [0, 1.0], [0], [1])  # not an int offset
    with pytest.raises(TypeError):
        SparseExactMatrix(2, [0, True, 2], [0, 1], [1, 1])  # a bool offset
    with pytest.raises(ValueError):
        SparseExactMatrix(2, [0, 1, 2], [0, 1], [1, 0])  # explicit zero
    with pytest.raises(TypeError):
        SparseExactMatrix(2, [0, 1, 2], [0, 1], [1, "1"])  # not a number
    with pytest.raises(TypeError):
        SparseExactMatrix(2.0, [0, 1], [1], [1])  # not an int row count
    with pytest.raises(TypeError):
        SparseExactMatrix(True, [0, 1], [0], [1])  # a bool row count
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        SparseExactMatrix(-1, [0], [], [])  # a negative row count
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        SparseExactMatrix(2, [], [], [])  # no offsets, so -1 columns
    with pytest.raises(AttributeError):
        zero(1, 1).n_rows = 5


def test_from_dense_refuses_ragged_rows():
    for rows, n_cols in (([[1, 2], [3]], None), ([[1, 2]], 3)):
        with pytest.raises(ValueError, match="ragged rows"):
            SparseExactMatrix.from_dense(rows, n_cols)


def test_rank_examples():
    assert rank(zero(3, 4)) == 0
    eye = SparseExactMatrix(3, [0, 1, 2, 3], [0, 1, 2], [1, 1, 1])
    assert rank(eye) == 3
    row = SparseExactMatrix.from_dense([[0, 1, 2]])
    assert rank(row) == 1
    assert kernel_dim(row) == 2
    # proportional rows collapse
    A = SparseExactMatrix.from_dense([[1, 2], [2, 4], [0, 1]])
    assert rank(A) == 2
    # [[1/2, 1/3], [3/2, 1]] and [[1/2, 1/3], [1/5, 1]] with each row
    # scaled to integers: the first is singular, the second is not
    B = SparseExactMatrix.from_dense([[3, 2], [3, 2]])
    assert rank(B) == 1
    C = SparseExactMatrix.from_dense([[15, 10], [1, 5]])
    assert rank(C) == 2


def test_matmul_and_transpose():
    A = SparseExactMatrix.from_dense([[1, 2], [0, 1]])
    B = SparseExactMatrix.from_dense([[1, 0], [3, 1]])
    assert (A @ B).to_dense() == [[7, 2], [3, 1]]
    At = transpose(A)
    assert At.to_dense() == [[1, 0], [2, 1]]
    assert (A @ At).to_dense() == [[5, 2], [2, 1]]
    with pytest.raises(ValueError):
        A @ zero(3, 3)
    with pytest.raises(ValueError):
        A.kills(zero(3, 3), [0])


@st.composite
def product_with_columns(draw, max_dim=6):
    """A pair of composable int matrices and a set of columns of the second."""
    n_rows, n_mid, n_cols = (draw(st.integers(0, max_dim)) for _ in range(3))
    A = SparseExactMatrix.from_dense(
        [[draw(st.integers(-2, 2)) for _ in range(n_mid)] for _ in range(n_rows)], n_mid)
    B = SparseExactMatrix.from_dense(
        [[draw(st.integers(-2, 2)) for _ in range(n_cols)] for _ in range(n_mid)], n_cols)
    cols = draw(st.sets(st.integers(0, n_cols - 1))) if n_cols else set()
    return A, B, cols


@settings(max_examples=150, deadline=None)
@given(product_with_columns())
def test_kills_is_the_product_restricted_to_columns(data):
    A, B, cols = data
    product = (A @ B).to_dense()
    assert A.kills(B, cols) == all(row[c] == 0 for row in product for c in cols)


def test_kills_stops_at_the_first_nonzero_column(monkeypatch):
    # A @ B is non-zero in column 0 and zero in the other 49, which
    # cancel: the test reads one column and stores no product matrix
    A = SparseExactMatrix.from_dense([[1, 1]])
    B = SparseExactMatrix.from_dense([[1] + [1] * 49, [0] + [-1] * 49])
    assert A.kills(B, range(1, 50))
    read = []
    columns = SparseExactMatrix._product_columns

    def spy(self, other, cols):
        for acc in columns(self, other, cols):
            read.append(acc)
            yield acc

    monkeypatch.setattr(SparseExactMatrix, "_product_columns", spy)
    monkeypatch.setattr(SparseExactMatrix, "__init__", None)  # no matrix is built
    assert not A.kills(B, range(50))
    assert read == [{0: 1}]


def test_int_entries_stay_int():
    A = SparseExactMatrix.from_dense([[1, 2], [0, -1]])
    assert all(type(q) is int for _, _, q in A.entries)
    assert all(type(q) is int for _, _, q in (A @ A).entries)
    assert all(type(x) is int for row in A.to_dense() for x in row)
    # the constructor refuses any other value, an integral one included
    for bad in (Fraction(1, 2), Fraction(2), 2.0, True):
        with pytest.raises(TypeError):
            SparseExactMatrix(1, [0, 0, 1], [0], [bad])
        with pytest.raises(TypeError):
            SparseExactMatrix.from_dense([[0, bad]])
    # a zero of another type is not silently dropped
    for bad in (Fraction(0), 0.0, False):
        with pytest.raises(TypeError):
            SparseExactMatrix.from_dense([[1, bad]])


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


dense_entries = st.integers(min_value=-4, max_value=4)


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
    # scale each row by a nonzero int
    scales = [rng.choice([1, 2, 3, 7, -1, -5]) for _ in rows]
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert rank(SparseExactMatrix.from_dense(scaled, n_cols)) == base


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_rank_of_transpose(data):
    rows, n_cols = data
    A = SparseExactMatrix.from_dense(rows, n_cols)
    assert rank(A) == rank(transpose(A))


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
    # the basis really is independent: stack it, each vector scaled to
    # integers, and take the rank
    if basis:
        K = SparseExactMatrix.from_dense([scaled_to_ints(v) for v in basis], n_cols)
        assert rank(K) == len(basis)


def test_rank_deterministic_repeat():
    rng = random.Random(7)
    rows = [[rng.choice([0, 0, 0, 1, 2, -1]) for _ in range(12)]
            for _ in range(9)]
    A = SparseExactMatrix.from_dense(rows, 12)
    first = rank(A)
    assert all(rank(A) == first for _ in range(5))


nonzero_ints = st.integers(min_value=-3, max_value=3).filter(bool)


@st.composite
def sparse_matrices(draw, max_dim=8):
    """A sparse int matrix drawn as its column arrays, rows in any order."""
    n_rows = draw(st.integers(min_value=0, max_value=max_dim))
    n_cols = draw(st.integers(min_value=0, max_value=max_dim))
    col_start, row_index, values = [0], [], []
    for _ in range(n_cols):
        rows = draw(st.lists(st.integers(0, n_rows - 1), unique=True)) if n_rows else []
        row_index += rows
        values += [draw(nonzero_ints) for _ in rows]
        col_start.append(len(row_index))
    return SparseExactMatrix(n_rows, col_start, row_index, values)


@st.composite
def sparse_with_skip(draw, max_dim=8):
    """A sparse int matrix and a random set of columns to skip."""
    A = draw(sparse_matrices(max_dim))
    skip = draw(st.sets(st.integers(0, A.n_cols - 1))) if A.n_cols else set()
    return A, skip


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_column_arrays_round_trip_through_dense(A):
    B = SparseExactMatrix.from_dense(A.to_dense(), A.n_cols)
    assert (B.n_rows, B.n_cols, B.entries) == (A.n_rows, A.n_cols, A.entries)
    assert rank(A) == dense_rank(A.to_dense())


def check_pivots(A, skip):
    """The pivots contract against the dense oracle; returns the rows."""
    Y, X = pivots(A, skip)
    dense = A.to_dense()
    kept = [c for c in range(A.n_cols) if c not in skip]

    def rank_of(rows, cols):
        return dense_rank([[dense[r][c] for c in cols] for r in rows])

    everything = range(A.n_rows)
    assert Y <= set(everything)
    assert X <= set(kept)  # no skipped column is a pivot
    assert len(Y) == len(X)
    assert rank_of(sorted(Y), sorted(X)) == len(X)  # A[Y, X] is invertible
    # the pivot columns span the kept ones
    assert rank_of(everything, sorted(X)) == rank_of(everything, kept) == len(X)
    assert rank(A) == len(pivots(A)[0]) == dense_rank(dense)
    return Y


@settings(max_examples=150, deadline=None)
@given(sparse_with_skip())
def test_pivots_contract(data):
    check_pivots(*data)


def stage_two_sizes(monkeypatch):
    """The list that records, per `pivots` call from now on, how many
    columns are left to fraction-free elimination after peeling (the
    size of the one heap it builds with heapify)."""
    sizes = []
    heapify = linalg.heapq.heapify

    def spy(heap):
        sizes.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(linalg.heapq, "heapify", spy)
    return sizes


def eliminated_columns(monkeypatch, A, skip=()):
    """Pivot rows of A and the number of columns left after peeling."""
    sizes = stage_two_sizes(monkeypatch)
    Y = check_pivots(A, skip)
    monkeypatch.undo()
    return Y, sizes[0]


def test_pivot_rows_peels_a_triangular_matrix(monkeypatch):
    # row i is held by columns i..4: row 4 by column 4 alone, then row 3
    # by column 3 alone once column 4 is peeled, and so on
    A = SparseExactMatrix.from_dense([[1, 2, -1, 3, 1],
                                      [0, 2, 1, 1, 1],
                                      [0, 0, 3, 2, 1],
                                      [0, 0, 0, -1, 2],
                                      [0, 0, 0, 0, 5]])
    assert eliminated_columns(monkeypatch, A) == ({0, 1, 2, 3, 4}, 0)
    # skipping column 4 leaves row 4 empty and the rest peeling
    assert eliminated_columns(monkeypatch, A, {4}) == ({0, 1, 2, 3}, 0)
    # rows 0 and 1 are both held by column 0 alone: the lowest is peeled
    B = SparseExactMatrix.from_dense([[1], [1]])
    assert eliminated_columns(monkeypatch, B) == ({0}, 0)


def test_pivot_rows_without_structural_pivots(monkeypatch):
    # every row is held by at least two columns: all are eliminated
    A = SparseExactMatrix.from_dense([[1, 2, 3],
                                      [4, 5, 6],
                                      [7, 8, 10],
                                      [1, 1, 0]])
    Y, left = eliminated_columns(monkeypatch, A)
    assert len(Y) == 3 and left == 3
    B = SparseExactMatrix.from_dense([[1, 2, 3], [2, 4, 6], [1, 2, 2]])
    Y, left = eliminated_columns(monkeypatch, B)
    assert len(Y) == 2 and left == 3


def test_pivot_rows_peels_then_eliminates(monkeypatch):
    # row 1 is held by column 1 alone; once it is peeled, row 0 is held
    # by column 0 alone; columns 2..4 are left, of rank 2 (3 = 2 * 2)
    A = SparseExactMatrix.from_dense([[1, 1, 0, 0, 0],
                                      [0, 2, 0, 0, 0],
                                      [1, 0, 1, 2, 1],
                                      [0, 0, 1, 2, -1]])
    Y, left = eliminated_columns(monkeypatch, A)
    assert Y == {0, 1, 2, 3} and left == 3
    # with column 4 skipped, what is left has rank 1
    Y, left = eliminated_columns(monkeypatch, A, {4})
    assert {0, 1} < Y and len(Y) == 3 and left == 2


def test_peel_order_leaves_the_next_block_peelable(monkeypatch):
    # peeling the lowest singleton row first picks pivot rows that, as
    # the next block's skip set, leave it mostly peelable: on CP^4 at
    # k = 10, 379 (full) and 220 (reduced) columns reach elimination in
    # the whole build, where popping the last singleton row found left
    # 641 and 429
    G = build_generators(make_cpm(4))
    sizes = stage_two_sizes(monkeypatch)
    for mode, most in (("full", 379), ("reduced", 220)):
        sizes.clear()
        _build(G, 10, mode)
        assert sum(sizes) <= most, mode
