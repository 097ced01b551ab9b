"""Betti numbers of configuration spaces from the bigraded complex.

Because the differential is bihomogeneous — degree +1, weight -1 — the
cohomology splits over weights, and each (degree, weight) slice
contributes

    dim slice - rank(block out of it) - rank(block into it)

to the Betti number of its degree.  Bases, blocks, ranks and tables
are cached per (k, mode) on the ring's generator set; a reduced basis
is cut from the cached full one when there is one, so a run that
computes both modes enumerates each k once.  d o d = 0 is re-verified
on the assembled matrices once per (k, mode) before any rank is
computed.

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
ranges most of what is left has full column rank.  The
argument holds only because the exact d o d = 0 check has passed
first; complex_data raises AssemblyError before computing any rank
when it fails.
"""

from dataclasses import dataclass

from .cecomplex import AssemblyError, assemble_blocks, enumerate_basis, reduce_complex
from .generators import build_generators
from .linalg import pivot_rows


@dataclass
class BettiTable:
    """Betti numbers of C_k(M) for one k.

    dims maps every degree from 0 up to the chain-level top degree to
    dim H^i (zeros included); euler is the alternating sum.
    """
    k: int
    ring: str
    mode: str
    dims: dict
    euler: int

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


@dataclass
class ConsistencyReport:
    """Full-vs-reduced comparison for one (ring, k)."""
    k: int
    ring: str
    ok: bool
    first_mismatch: object
    full: BettiTable
    reduced: BettiTable
    chain_euler_full: int
    chain_euler_reduced: int


def _mode_basis(G, k, mode):
    if mode == "full":
        return enumerate_basis(G, k)
    if mode == "reduced":
        full = G._basis_cache.get((k, "full"))
        return reduce_complex(G, full if full is not None else enumerate_basis(G, k))
    raise ValueError("mode must be 'full' or 'reduced', got %r" % (mode,))


def complex_data(R, k, mode="full"):
    """Basis, blocks-by-source-slice, and ranks-by-source-slice.

    Everything is cached on the generator set; the first call for a
    given (k, mode) also verifies that consecutive blocks compose to
    zero and raises AssemblyError if they do not.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be a non-negative integer, got %r" % (k,))
    G = build_generators(R)
    key = (k, mode)
    if key not in G._basis_cache:
        G._basis_cache[key] = _mode_basis(G, k, mode)
    basis = G._basis_cache[key]
    if key not in G._block_cache:
        blocks = assemble_blocks(G, basis)
        G._block_cache[key] = {b.source: b for b in blocks}
    blocks = G._block_cache[key]
    if key not in G._squared_checked:
        for b in blocks.values():
            nxt = blocks.get(b.target)
            if nxt is not None and not (nxt.matrix @ b.matrix).is_zero():
                raise AssemblyError(
                    "d o d != 0 out of slice %r (k=%d, %s)" % (b.source, k, mode))
        G._squared_checked.add(key)
    if key not in G._rank_cache:
        # chain pruning (module docstring): the columns of a block that
        # are pivot rows of the block into its source are not eliminated
        ranks, into = {}, {}
        for src, b in sorted(blocks.items()):
            into[b.target] = pivots = pivot_rows(b.matrix, into.pop(src, ()))
            ranks[src] = len(pivots)
        G._rank_cache[key] = ranks
    return basis, blocks, G._rank_cache[key]


def betti(R, k, mode="full"):
    """Betti table of C_k(M) for the manifold presented by R.

    Reduced mode is only available for the built-in CP^m rings and for
    k >= 2 (below that the reduction ideal is empty and the quotient
    statement is about nothing).
    """
    if mode == "reduced":
        if R.cpm is None:
            raise ValueError("reduced mode requires a built-in CP^m ring")
        if k < 2:
            raise ValueError("reduced mode requires k >= 2")
    G = build_generators(R)
    cache_key = (k, mode)
    cached = G._betti_cache.get(cache_key)
    if cached is not None:
        return cached
    basis, _, ranks = complex_data(R, k, mode)

    dims = {}
    for (i, w), mons in basis.slices.items():
        out_rank = ranks.get((i, w), 0)
        in_rank = ranks.get((i - 1, w + 1), 0)
        contribution = len(mons) - out_rank - in_rank
        if contribution < 0:
            raise AssemblyError(
                "negative slice contribution at %r (k=%d, %s)" % ((i, w), k, mode))
        dims[i] = dims.get(i, 0) + contribution

    top = max((i for i, _ in basis.slices), default=0)
    table = {i: dims.get(i, 0) for i in range(top + 1)}
    euler = sum(d if i % 2 == 0 else -d for i, d in table.items())
    result = BettiTable(k=k, ring=R.label, mode=mode, dims=table, euler=euler)
    G._betti_cache[cache_key] = result
    return result


def consistency_report(R, k):
    """Compare full and reduced tables degree by degree.

    Also reports the chain-level Euler characteristics of both
    complexes, which must agree with each other and with the tables.
    """
    full = betti(R, k, "full")
    reduced = betti(R, k, "reduced")
    top = max(full.top_degree(), reduced.top_degree())
    first = None
    for i in range(top + 1):
        if full.dim(i) != reduced.dim(i):
            first = i
            break
    basis_f, _, _ = complex_data(R, k, "full")
    basis_r, _, _ = complex_data(R, k, "reduced")

    def chain_euler(basis):
        return sum(
            len(mons) if i % 2 == 0 else -len(mons)
            for (i, _), mons in basis.slices.items()
        )

    return ConsistencyReport(
        k=k, ring=R.label, ok=first is None, first_mismatch=first,
        full=full, reduced=reduced,
        chain_euler_full=chain_euler(basis_f),
        chain_euler_reduced=chain_euler(basis_r),
    )
