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

Elimination runs over columns too (rank A = rank A^T): `pivots` walks
the columns from the highest down and reduces each, fraction-free,
against the pivot that owns its lowest row, until it is zero or owns a
row of its own.  Each reduced column is divided by its content (gcd),
so entries stay small integers, and no fraction or floating point is
ever involved.  It returns both sides, the pivot rows and the pivot
columns: a caller that chains blocks (homology's chain pruning) skips
the pivot rows as columns of the next block.
"""

from itertools import chain
from math import gcd
from operator import le


class SparseExactMatrix:
    """Immutable compressed-sparse-column matrix with integer entries.

    SparseExactMatrix(n_rows, col_start, row_index, values): column c
    holds the rows row_index[col_start[c]:col_start[c + 1]] with the
    matching values, and col_start has one offset per column plus the
    end.  Every value is a non-zero int (not a bool); the rank over Z
    is the rank over Q.  The constructor checks, in O(nnz), the
    offsets, the row bounds, that n_rows, offsets, rows and values are
    ints and that no value is zero.  Rows may come in any order within a column
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
        if type(n_rows) is not int or not set(map(type, chain(col_start, row_index))) <= {int}:
            raise TypeError("n_rows, column offsets and row indices must be ints")
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


def _column(A, c):
    """Column c of A as a row -> value dict, divided by its content (gcd)."""
    a, b = A.col_start[c], A.col_start[c + 1]
    vals = A.values[a:b]
    g = gcd(*vals)
    return dict(zip(A.row_index[a:b], [v // g for v in vals] if g != 1 else vals))


def pivots(A, skip=()):
    """Pivot rows Y and pivot columns X of a column reduction of A.

    Columns whose index is in skip are left out, so X and skip share no
    column.  |Y| = |X| = rank of the columns kept, the square submatrix
    A[Y, X] is invertible, and the columns X span the kept ones.

    The kept columns are walked from the highest index down.  A column
    whose lowest row no pivot owns yet becomes a pivot and owns it, held
    as its index until a column is first reduced against it; any other
    is reduced fraction-free against the owner of its lowest row until
    it is zero or owns a row.  Why the contract holds: a pivot column x
    as reduced, R[:, x], is a non-zero multiple of A[:, x] plus a
    combination of earlier pivots as reduced, so R[:, X] = A[:, X] T
    with T triangular in the order found and a non-zero diagonal.  The
    pivots own distinct lowest rows, so R[Y, X] (each column at its own
    row, Y sorted) is triangular with a non-zero diagonal, and
    A[Y, X] = R[Y, X] T^-1 is invertible.  A column that reduces to
    zero is, times a non-zero int, a combination of R[:, X], so X spans
    the kept columns, and |X| is their rank.  Of the orders measured,
    walking down and pivoting on the lowest row left the fewest columns
    to reduce over a chained build, where Y is the next block's skip set.
    """
    start, row_index = A.col_start, A.row_index
    owner = {}  # pivot row -> the pivot column whose lowest row it is
    reduced = {}  # pivot column -> its reduced column, once one was used
    for c in range(A.n_cols - 1, -1, -1):
        a, b = start[c], start[c + 1]
        if a == b or c in skip:
            continue
        # assembly writes rows in term order, not sorted
        low = min(row_index[a:b])
        j = owner.get(low)
        if j is None:
            owner[low] = c
            continue
        col = _column(A, c)
        while j is not None:
            piv = reduced.get(j)
            if piv is None:
                piv = reduced[j] = _column(A, j)
            # mp * col - mq * piv clears row low, and every other row of
            # both is higher, so col's lowest row climbs; g takes p's
            # sign, so mp > 0 and mp = 1 scales nothing
            p, q = piv[low], col[low]
            g = gcd(p, q) if p > 0 else -gcd(p, q)
            mp, mq = p // g, q // g
            if mp != 1:
                for r in col:
                    col[r] *= mp
            for r, v in piv.items():
                new = col.get(r, 0) - mq * v
                if new:
                    col[r] = new
                else:
                    del col[r]
            if not col:
                break
            g = gcd(*col.values())
            if g != 1:
                for r in col:
                    col[r] //= g
            low = min(col)
            j = owner.get(low)
        else:  # col reached a row no pivot owns
            owner[low] = c
            reduced[c] = col
    return set(owner), set(owner.values())


def rank(A):
    """Rank of A, by fraction-free column reduction."""
    return len(pivots(A)[0])


def kernel_dim(A):
    """dim ker A = n_cols - rank A."""
    return A.n_cols - rank(A)
