"""Betti numbers of configuration spaces from the bigraded complex.

Because the differential is bihomogeneous — degree +1, weight -1 — the
cohomology splits over weights, and each (degree, weight) slice
contributes

    dim slice - rank(block out of it) - rank(block into it)

to the Betti number of its degree.  Each call builds the complex of its
(k, mode) in this order: basis (enumerated directly in either mode, so
no build reads another), blocks, then pruned ranks with the exact
d o d = 0 check of every consecutive pair, and the Betti table.
Nothing is kept between calls, so a repeated call builds again.

Chain pruning.  The check makes the ranks cheaper.  Blocks are ranked
in increasing (degree, weight), so along each chain degree + weight = s
the block S -> T into a slice comes before the block T -> U out of it.
Elimination of d_ST returns its pivot rows Y (in T) and pivot columns
X (in S) with d_ST[Y, X] invertible.  Then

    d_TU d_ST = 0   restricted to the columns X gives
    d_TU[:, Y] d_ST[Y, X] = -d_TU[:, T - Y] d_ST[T - Y, X],  so
    d_TU[:, Y] = -d_TU[:, T - Y] d_ST[T - Y, X] d_ST[Y, X]^-1,

the columns Y of d_TU lie in the span of its other columns, and
rank(d_TU) = rank(d_TU[:, T - Y]): the columns Y are skipped.  The
pivots of that pruned elimination are pivots of d_TU itself, so the
next block along the chain is pruned the same way.  In the vanishing
ranges most of what is left has full column rank.  The argument uses
d o d = 0 on the columns X alone.

Checking on pivot columns.  So d o d = 0 is checked on exactly those
columns: right after d_ST is ranked, d_TU d_ST[:, X] = 0 is tested,
and only then are the rows Y handed on as d_TU's skip set.  The check
loses nothing, by induction along the chain.  The first block has no
skip set, so its pivot columns span all of its columns.  Once
d_TU d_ST[:, X] = 0 has passed, the skipped columns Y of d_TU lie in
the span of its kept ones, which its pivot columns X' span; so X'
spans d_TU's whole column space, and d_UV d_TU = 0 holds exactly when
d_UV d_TU[:, X'] = 0 does.  A pair that fails raises AssemblyError
before the block out of its target is ranked.
"""

from collections import namedtuple

from .cecomplex import AssemblyError, assemble_blocks, build_generators, enumerate_basis
from .linalg import pivots


class BettiTable(namedtuple("BettiTable", "k ring mode dims euler")):
    """Betti numbers of C_k(M) for one k.

    dims maps every degree from 0 up to the chain-level top degree to
    dim H^i (zeros included); euler is the alternating sum.
    """
    __slots__ = ()

    def dim(self, i):
        return self.dims.get(i, 0)

    def top_degree(self):
        return max(self.dims) if self.dims else 0

    def to_json_dict(self, indexing="cohomological"):
        return {
            "ring": self.ring,
            "k": self.k,
            "mode": self.mode,
            "degree_indexing": indexing,
            "dims": [[i, self.dims[i]] for i in sorted(self.dims)],
            "euler": self.euler,
        }


class ConsistencyReport(namedtuple(
        "ConsistencyReport", "k ring ok first_mismatch full reduced")):
    """Full-vs-reduced comparison for one (ring, k)."""
    __slots__ = ()


class _Complex(namedtuple("_Complex", "basis blocks ranks table")):
    """Everything one build of (k, mode) computes, all of it checked."""
    __slots__ = ()


def _build(G, k, mode, least=0):
    """Basis, blocks, pruned ranks with the d o d check, and Betti table,
    of the slices of degree >= least - 1 (the table from least on, its
    euler partial).  d raises degree, so every block that a degree >=
    least reads is built and checked: the window loses nothing above."""
    basis = enumerate_basis(G, k, mode)
    basis = basis._replace(slices={s: mons for s, mons in basis.slices.items()
                                   if s[0] >= least - 1})
    blocks = {b.source: b for b in assemble_blocks(G, basis)}
    # chain pruning (module docstring): the columns of a block that are
    # pivot rows of the block into its source are not eliminated, and
    # d o d = 0 is checked on the pivot columns, before the next block
    # trusts it
    ranks, into = {}, {}
    for src, b in sorted(blocks.items()):
        rows, cols = pivots(b.matrix, into.pop(src, ()))
        ranks[src] = len(rows)
        nxt = blocks.get(b.target)
        if nxt is not None:
            if not nxt.matrix.kills(b.matrix, cols):
                raise AssemblyError(
                    "d o d != 0 out of slice %r (k=%d, %s)" % (src, k, mode))
            into[b.target] = rows

    dims = {}  # degree least - 1 has no rank in, so the table leaves it out
    for (i, w), mons in basis.slices.items():
        contribution = len(mons) - ranks.get((i, w), 0) - ranks.get((i - 1, w + 1), 0)
        if contribution < 0:
            raise AssemblyError(
                "negative slice contribution at %r (k=%d, %s)" % ((i, w), k, mode))
        dims[i] = dims.get(i, 0) + contribution
    table = {i: dims.get(i, 0) for i in range(least, basis.top_degree() + 1)}
    euler = sum(d if i % 2 == 0 else -d for i, d in table.items())
    return _Complex(basis, blocks, ranks,
                    BettiTable(k=k, ring=G.label, mode=mode, dims=table, euler=euler))


def complex_data(R, k, mode="full"):
    """Basis, blocks-by-source-slice, and ranks-by-source-slice.

    Each call builds and checks the complex afresh, raising
    AssemblyError if consecutive blocks do not compose to zero.
    """
    return _build(build_generators(R), k, mode)[:3]


def betti(R, k, mode="full"):
    """Betti table of C_k(M) for the manifold presented by R.

    Either mode works for every ring and every k: the reduced complex
    is the quotient by the acyclic ideal (v_top^2, w_top), which is
    empty below k = 2, so there the two complexes are the same.  Each
    call validates R and builds the complex; hold the table to reuse it.
    """
    return _build(build_generators(R), k, mode).table


def _full_vs_reduced(G, k):
    """Full table, reduced build, and the first degree where their tables
    differ or None; the full build is dropped before the reduced one."""
    full = _build(G, k, "full").table
    reduced = _build(G, k, "reduced")
    degrees = sorted(set(full.dims) | set(reduced.table.dims))
    return full, reduced, next((i for i in degrees if full.dim(i) != reduced.table.dim(i)), None)


def consistency_report(R, k):
    """Compare full and reduced tables degree by degree.

    Both builds share one generator set, so R is validated once.
    """
    full, reduced, first = _full_vs_reduced(build_generators(R), k)
    return ConsistencyReport(k=k, ring=R.label, ok=first is None, first_mismatch=first,
                             full=full, reduced=reduced.table)
