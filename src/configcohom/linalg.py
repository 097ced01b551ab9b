"""Exact sparse linear algebra over the rationals.

The differential blocks produced by the complex are sparse integer
matrices (the complex clears denominators once per ring; entries are
small, mostly 1 and 2), and all we ever need from them is rank, kernel
dimension, and occasionally an explicit kernel basis for diagnostics.
Entries are Python ints, or Fractions where a caller passes them.
Rank is computed by fraction-free elimination on integer rows
(denominators cleared row by row): the pivot row is cross-multiplied
into the others and each result is re-normalized by its content (gcd),
so entries stay small and no floating point is ever involved.  Pivots
are chosen sparsity-first (fewest entries in the pivot row, ties to
the lowest row index, then the pivot row's least-used column, Markowitz
style), so repeated runs take identical paths.  A heap of live rows by
length and a column -> rows index make each step touch only the rows
that hold the pivot column.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


class SparseExactMatrix:
    """Immutable coordinate-format matrix with exact rational entries.

    entries is a tuple of (row, col, value) with no duplicates and no
    explicit zeros, sorted by (row, col); int values stay ints, any
    other value is stored as a Fraction.
    """

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows, n_cols, entries):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimensions")
        clean = []
        for r, c, q in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError("entry (%r, %r) outside a %dx%d matrix" % (r, c, n_rows, n_cols))
            if type(q) is not int:
                q = Fraction(q)
            if q == 0:
                raise ValueError("explicit zero stored at (%d, %d)" % (r, c))
            clean.append((r, c, q))
        clean.sort()
        for (r, c, _), (r2, c2, _) in zip(clean, clean[1:]):
            if r == r2 and c == c2:
                raise ValueError("duplicate entry at (%d, %d)" % (r, c))
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("SparseExactMatrix is immutable")

    @classmethod
    def from_dense(cls, rows, n_cols=None):
        """Build from a list of lists; zeros are dropped."""
        n_rows = len(rows)
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        entries = []
        for r, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for c, q in enumerate(row):
                if q:
                    entries.append((r, c, q))
        return cls(n_rows, n_cols, entries)

    @classmethod
    def zero(cls, n_rows, n_cols):
        return cls(n_rows, n_cols, ())

    @property
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def to_dense(self):
        """List of rows of Fractions, whatever the stored entry type."""
        rows = [[Fraction(0)] * self.n_cols for _ in range(self.n_rows)]
        for r, c, q in self.entries:
            rows[r][c] = Fraction(q)
        return rows

    def transpose(self):
        return SparseExactMatrix(
            self.n_cols, self.n_rows, [(c, r, q) for r, c, q in self.entries]
        )

    def __matmul__(self, other):
        """Matrix product self @ other (self applied after other)."""
        if self.n_cols != other.n_rows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.n_rows, self.n_cols, other.n_rows, other.n_cols)
            )
        by_col = {}
        for r, c, q in self.entries:
            by_col.setdefault(c, []).append((r, q))
        acc = {}
        for k, c, a in other.entries:
            for r, b in by_col.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + b * a
        entries = [(r, c, q) for (r, c), q in acc.items() if q]
        return SparseExactMatrix(self.n_rows, other.n_cols, entries)

    def __eq__(self, other):
        if not isinstance(other, SparseExactMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.entries))

    def __repr__(self):
        return "SparseExactMatrix(%d, %d, nnz=%d)" % (self.n_rows, self.n_cols, self.nnz)


def _integer_rows(A):
    """Rows of A as dicts col -> int, denominators cleared, content 1."""
    rows = {}
    for r, c, q in A.entries:
        rows.setdefault(r, {})[c] = q
    all_ints = all(type(q) is int for _, _, q in A.entries)
    out = []
    for row in rows.values():  # entries are sorted, so rows are too
        if not all_ints:
            den = lcm(*(q.denominator for q in row.values()))
            row = {c: int(q * den) for c, q in row.items()}
        g = gcd(*row.values())
        out.append({c: v // g for c, v in row.items()} if g != 1 else row)
    return out


def rank(A):
    """Rank of A, by fraction-free sparse Gaussian elimination."""
    rows = _integer_rows(A)
    col_rows = {}
    for j, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(j)
    # (length, index) of every live row; entries whose row has died or
    # changed length since are stale and skipped when popped
    heap = [(len(row), j) for j, row in enumerate(rows)]
    heapq.heapify(heap)
    rnk = 0
    while heap:
        n, pi = heapq.heappop(heap)
        prow = rows[pi]
        if prow is None or len(prow) != n:
            continue
        # Markowitz-flavored pivot: the shortest row (the heap breaks
        # ties on row index), then its least-used column, ties broken on
        # column index, so the path is deterministic.
        pc = min(prow, key=lambda c: (len(col_rows[c]), c))
        p = prow[pc]
        rows[pi] = None
        rnk += 1
        for c in prow:
            col_rows[c].discard(pi)
        for j in tuple(col_rows[pc]):
            row = rows[j]
            a = row[pc]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            if mp != 1:
                for c in row:
                    row[c] *= mp
            for c, v in prow.items():
                old = row.get(c)
                new = (old or 0) - ma * v
                if new:
                    if old is None:
                        col_rows[c].add(j)
                    row[c] = new
                else:
                    del row[c]
                    col_rows[c].discard(j)
            if row:
                g = gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
                heapq.heappush(heap, (len(row), j))
            else:
                rows[j] = None
    return rnk


def kernel_dim(A):
    """dim ker A = n_cols - rank A."""
    return A.n_cols - rank(A)


def kernel_basis(A):
    """Explicit kernel basis via dense reduced row echelon form.

    Returns a list of length-n_cols tuples of Fractions, one per free
    column in ascending column order.  Dense is fine here: this is a
    diagnostic used on small blocks, never on the hot path.
    """
    m = A.to_dense()
    n_rows, n_cols = A.n_rows, A.n_cols
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for rr in range(r, n_rows):
            if m[rr][c]:
                pr = rr
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for rr in range(n_rows):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free]
        basis.append(tuple(vec))
    return basis
