"""Exact sparse linear algebra over the integers.

The differential blocks produced by the complex are sparse integer
matrices (the complex clears denominators per build; entries are
small, mostly 1 and 2), and all we ever need from them is rank and
kernel dimension.  Entries are Python ints and nothing else.  That
loses nothing: a minor of an integer matrix is non-zero in Z exactly
when it is non-zero in Q, so its rank over Z equals its rank over Q,
and a rational matrix has the rank of the integer matrix made by
scaling each row by the lcm of its denominators.

Columns are the one representation, and the one way in.  A matrix is
stored in compressed sparse column form: column start offsets, row
indices and values, the form assembly writes (one column per source
monomial), and its one constructor takes exactly these arrays;
`from_dense` writes them from a list of rows.  The (row, col, value)
triples in `entries` are derived from them on demand.  A product
composes columns: column c of A @ B is the sum over r of
B[r, c] * A[:, r], accumulated in a dict keyed by row.  The same loop
answers whether A @ B vanishes on a set of columns of B (`kills`),
stopping at the first column that does not and storing no product;
the d o d = 0 check asks exactly that, on the pivot columns of B.

Elimination runs over columns too (rank A = rank A^T), in two stages.
First the structural pivots are peeled: a row held by exactly one live
column pairs with that column as a pivot, without arithmetic, and the
column is removed, which may leave further rows held by one column.  A
count of the live columns holding each row, and the XOR of their
indices (which is the column itself when the count is 1), find these
in O(nnz).  Then the columns left are eliminated fraction-free: the
pivot column is cross-multiplied into the others and each result is
re-normalized by its content (gcd), so entries stay small integers and
no fraction or floating point is ever involved.  Pivots there are
chosen sparsity-first (the column with fewest entries, ties to the
lowest column index, then that column's least-used row, Markowitz
style), so repeated runs take identical paths.  A heap of live columns
by length and a row -> columns index make each step touch only the
columns that hold the pivot row.  `pivots` returns both sides of the
elimination, the pivot rows and the pivot columns.
"""

import heapq
from math import gcd
from operator import le


class SparseExactMatrix:
    """Immutable compressed-sparse-column matrix with integer entries.

    SparseExactMatrix(n_rows, col_start, row_index, values): column c
    holds the rows row_index[col_start[c]:col_start[c + 1]] with the
    matching values, and col_start has one offset per column plus the
    end.  Every value is a non-zero int (not a bool); the rank over Z
    is the rank over Q.  The constructor checks, in O(nnz), the
    offsets, the row bounds, that n_rows, rows and values are ints and
    that no value is zero.  Rows may come in any order within a column
    but must not repeat, which is not checked (a scan per column would
    cost more than it guards): every caller meets it by construction,
    since assembly's rows come from a one-to-one code -> row map, a
    product's from the keys of a dict and from_dense's from the
    distinct positions of a column.
    """

    __slots__ = ("n_rows", "n_cols", "col_start", "row_index", "values")

    def __init__(self, n_rows, col_start, row_index, values):
        n_cols = len(col_start) - 1
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimensions")
        if (col_start[0] != 0 or col_start[-1] != len(row_index)
                or len(values) != len(row_index)
                or not all(map(le, col_start, col_start[1:]))):
            raise ValueError("column offsets do not partition the entries")
        if type(n_rows) is not int or not set(map(type, row_index)) <= {int}:
            raise TypeError("n_rows and row indices must be ints")
        if row_index and (min(row_index) < 0 or max(row_index) >= n_rows):
            raise ValueError("row index outside a matrix with %d rows" % n_rows)
        if not set(map(type, values)) <= {int}:
            raise TypeError("values must be ints")
        if 0 in values:
            raise ValueError("explicit zero stored")
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "col_start", tuple(col_start))
        object.__setattr__(self, "row_index", tuple(row_index))
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError("SparseExactMatrix is immutable")

    @classmethod
    def from_dense(cls, rows, n_cols=None):
        """Build from a list of lists; zeros are dropped."""
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ValueError("ragged rows")
        col_start, row_index, values = [0], [], []
        for c in range(n_cols):
            for r, row in enumerate(rows):
                q = row[c]
                if q or type(q) is not int:  # a zero of another type fails the type check
                    row_index.append(r)
                    values.append(q)
            col_start.append(len(row_index))
        return cls(len(rows), col_start, row_index, values)

    @property
    def nnz(self):
        return len(self.values)

    def is_zero(self):
        return not self.values

    def columns(self):
        """Each column as a (row indices, values) pair of tuples."""
        s, rows, vals = self.col_start, self.row_index, self.values
        return [(rows[a:b], vals[a:b]) for a, b in zip(s, s[1:])]

    @property
    def entries(self):
        """(row, col, value) triples sorted by (row, col)."""
        out = [(r, c, q) for c, (rows, vals) in enumerate(self.columns())
               for r, q in zip(rows, vals)]
        out.sort()
        return tuple(out)

    def to_dense(self):
        """List of rows of ints."""
        dense = [[0] * self.n_cols for _ in range(self.n_rows)]
        for c, (rows, vals) in enumerate(self.columns()):
            for r, q in zip(rows, vals):
                dense[r][c] = q
        return dense

    def _product_columns(self, other, cols):
        """Column c of self @ other for each c in cols, as a row -> value dict.

        The dict keeps the zeros that cancellation leaves.  Both the
        product and the zero test below run this one loop.
        """
        if self.n_cols != other.n_rows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.n_rows, self.n_cols, other.n_rows, other.n_cols)
            )
        # walks the flat arrays by index: slicing out every column costs
        # more than the product when columns hold a few entries
        a_start, a_rows, a_vals = self.col_start, self.row_index, self.values
        b_start, b_rows, b_vals = other.col_start, other.row_index, other.values
        for c in cols:
            acc = {}
            for t in range(b_start[c], b_start[c + 1]):
                k, b = b_rows[t], b_vals[t]
                for u in range(a_start[k], a_start[k + 1]):
                    r = a_rows[u]
                    acc[r] = acc.get(r, 0) + a_vals[u] * b
            yield acc

    def __matmul__(self, other):
        """Matrix product self @ other (self applied after other)."""
        starts, rows, vals = [0], [], []
        for acc in self._product_columns(other, range(other.n_cols)):
            for r, q in acc.items():
                if q:
                    rows.append(r)
                    vals.append(q)
            starts.append(len(rows))
        return SparseExactMatrix(self.n_rows, starts, rows, vals)

    def kills(self, other, cols):
        """Whether self @ other is zero on the given columns of other.

        Stops at the first non-zero column and builds no product matrix.
        """
        return not any(any(acc.values())
                       for acc in self._product_columns(other, cols))

    def __repr__(self):
        return "SparseExactMatrix(%d, %d, nnz=%d)" % (self.n_rows, self.n_cols, self.nnz)


def pivots(A, skip=()):
    """Pivot rows Y and pivot columns X of a fraction-free elimination of A.

    Columns whose index is in skip are left out, so X and skip share no
    column.  |Y| = |X| = rank of the columns kept, the square submatrix
    A[Y, X] is invertible, and the columns X span the kept ones.

    Why, for the two stages (module docstring): each peeled row was
    held by no other live column when it was peeled, so A[Y_peel,
    X_peel] is triangular in peel order with a non-zero diagonal, and
    every column left is zero on Y_peel.  Hence rank A = |X_peel| +
    rank(columns left).  In the elimination of those, each pivot
    column, as reduced, is the original plus a combination of earlier
    pivot columns, has a non-zero entry in its own pivot row and none
    in the earlier ones, so A[Y_elim, X_elim] is invertible too, and a
    column that reduces to zero is a combination of pivot columns.
    A[Y, X] is block triangular with these two blocks on its diagonal.
    """
    start, row_index = A.col_start, A.row_index
    # count[r]: live columns holding row r; holder[r]: the XOR of their
    # indices, which is the one column itself when count[r] == 1
    count = [0] * A.n_rows
    holder = [0] * A.n_rows
    live = []
    for c in range(A.n_cols):
        a, b = start[c], start[c + 1]
        if a == b or c in skip:
            continue
        live.append(c)
        for r in row_index[a:b]:
            count[r] += 1
            holder[r] ^= c
    prows, pcols = set(), set()
    stack = [r for r, n in enumerate(count) if n == 1]
    while stack:
        r = stack.pop()
        if count[r] != 1:
            continue  # its one column was peeled through another row
        c = holder[r]
        prows.add(r)
        pcols.add(c)
        for q in row_index[start[c]:start[c + 1]]:
            count[q] -= 1
            holder[q] ^= c
            if count[q] == 1:
                stack.append(q)
    rest = [c for c in live if c not in pcols]
    cols = [None] * A.n_cols
    row_cols = {}
    for c in rest:
        a, b = start[c], start[c + 1]
        rows, vals = row_index[a:b], A.values[a:b]
        g = gcd(*vals)
        cols[c] = dict(zip(rows, [v // g for v in vals] if g != 1 else vals))
        for r in rows:
            row_cols.setdefault(r, set()).add(c)
    # (length, index) of every live column; entries whose column has
    # died or changed length since are stale and skipped when popped
    heap = [(len(cols[j]), j) for j in rest]
    heapq.heapify(heap)
    # rows not yet pivot rows; fill-in stays inside row_cols, so once
    # every row is a pivot row each column left reduces to zero
    rows_left = len(row_cols)
    while heap and rows_left:
        n, pj = heapq.heappop(heap)
        pcol = cols[pj]
        if pcol is None or len(pcol) != n:
            continue
        # Markowitz-flavored pivot: the shortest column (the heap breaks
        # ties on column index), then its least-used row, ties broken on
        # row index, so the path is deterministic.
        pr = min(pcol, key=lambda r: (len(row_cols[r]), r))
        p = pcol[pr]
        cols[pj] = None
        prows.add(pr)
        pcols.add(pj)
        rows_left -= 1
        for r in pcol:
            row_cols[r].discard(pj)
        for j in tuple(row_cols[pr]):
            col = cols[j]
            a = col[pr]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            if mp != 1:
                for r in col:
                    col[r] *= mp
            for r, v in pcol.items():
                old = col.get(r)
                new = (old or 0) - ma * v
                if new:
                    if old is None:
                        row_cols[r].add(j)
                    col[r] = new
                else:
                    del col[r]
                    row_cols[r].discard(j)
            if col:
                g = gcd(*col.values())
                if g != 1:
                    for r in col:
                        col[r] //= g
                heapq.heappush(heap, (len(col), j))
            else:
                cols[j] = None
    return prows, pcols


def rank(A):
    """Rank of A, by fraction-free sparse Gaussian elimination."""
    return len(pivots(A)[0])


def kernel_dim(A):
    """dim ker A = n_cols - rank A."""
    return A.n_cols - rank(A)
