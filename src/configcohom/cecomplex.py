"""The bigraded complex computing H^*(C_k(M); Q).

For k points the complex is

    sum over w = 0..floor(k/2) of  Sym^{k-2w}(V) (x) Sym^w(W),

graded by cohomological degree i and weight w, with the differential
sending weight w to weight w-1 and raising degree by one.  Monomials
are words in the generators; the graded-symmetric algebra means even
generators commute, odd generators anticommute and square to zero.

Codes.  enumerate_basis lists each (degree, weight) slice once, in
canonical order, and gives every monomial its mixed-radix code: the
exponents (V-slots, then W-slots) as digits in base k + 1.  The code
is the monomial's hash and the differential's coordinate, so a term of
d is one int add and one dict lookup.

Signs.  Every monomial is stored in canonical order (V-factors first,
then W-factors, each block sorted by generator position) with
coefficient +1.  The differential is the Leibniz sum over the
W-factors; replacing one factor w_t by a term v_a v_b of d(w_t) gives
a word that is re-sorted to canonical order.  The terms of d(w_t) are
made canonical when the kernel's tables are built: v_b v_a with a < b
is rewritten as (-1)^(|a||b|) v_a v_b, and equal pairs are merged (zero
sums dropped), so every term has a <= b, its own target, and no sign
from the order of v_a and v_b.  Two signs are left, read off prefix
parity counts of the odd factors, without building the word:

  * Koszul sign (sliding d past the factors left of w_t): the number
    of odd V-factors plus the number of odd W-factors before w_t;
  * normalization sign (moving v_a, then v_b, back into the V-block):
    for each odd one among them, the odd W-factors before w_t plus the
    odd V-factors of larger index.

A word dies when an odd generator repeats.  An even W-generator with
exponent e contributes e equal terms.  Coefficients are cleared of
denominators once per ring: blocks hold D * d as Python ints, where D
is the lcm of the denominators of the boundary table (1 for every
built-in CP^m), so ranks and the d o d = 0 check are exact integer
computations.

For the built-in CP^m rings there is a reduction: the ideal generated
by (v_top^2, w_top) — top meaning the degree-2m V-generator and the
degree-(4m-1) W-generator — is a subcomplex, acyclic for k >= 2 via the
explicit homotopy  h(v_top^2 A + B w_top) = w_top A,  so the quotient
complex (monomials with v_top-exponent <= 1 and no w_top) has the same
cohomology.  homotopy_check verifies (dh + hd) = id on the ideal
exactly; reduce_complex builds the quotient basis.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm


class AssemblyError(RuntimeError):
    """Internal consistency failure while assembling differential blocks."""


class Monomial:
    """Canonical monomial: exponent tuples over the V- and W-generators.

    degree, weight (total W-exponent) and v_length (total V-exponent)
    are precomputed.  code is the mixed-radix code of the exponents
    (V-slots, then W-slots, as digits in base k + 1 with
    k = v_length + 2 * weight), assigned once when the monomial is
    enumerated or made; it is the hash, and the differential works on
    it directly.  Identity is by exponents alone.
    """

    __slots__ = ("v_exps", "w_exps", "degree", "weight", "v_length", "code")

    def __init__(self, v_exps, w_exps, degree, weight, v_length, code):
        self.v_exps = v_exps
        self.w_exps = w_exps
        self.degree = degree
        self.weight = weight
        self.v_length = v_length
        self.code = code

    def __eq__(self, other):
        return self.v_exps == other.v_exps and self.w_exps == other.w_exps

    def __hash__(self):
        return self.code

    def key(self):
        """Canonical sort key within a (degree, weight) slice."""
        return (self.v_exps, self.w_exps)

    def label(self, G):
        """Human-readable form, e.g. 'v2^2 v4 w7'."""
        parts = []
        for gens, exps in ((G.v_gens, self.v_exps), (G.w_gens, self.w_exps)):
            for g, e in zip(gens, exps):
                if e == 1:
                    parts.append(g.name)
                elif e > 1:
                    parts.append("%s^%d" % (g.name, e))
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return "Monomial(v=%r, w=%r)" % (self.v_exps, self.w_exps)


def make_monomial(G, v_exps, w_exps):
    v_exps = tuple(v_exps)
    w_exps = tuple(w_exps)
    degree = sum(e * d for e, d in zip(v_exps, G.v_degrees)) \
        + sum(e * d for e, d in zip(w_exps, G.w_degrees))
    weight = sum(w_exps)
    v_length = sum(v_exps)
    radix = v_length + 2 * weight + 1
    code = 0
    for e in reversed(v_exps + w_exps):
        code = code * radix + e
    return Monomial(v_exps, w_exps, degree, weight, v_length, code)


@dataclass
class BigradedBasis:
    """Monomial bases of all (degree, weight) slices for one k.

    slices maps (degree, weight) to a tuple of Monomials in canonical
    order; empty slices are absent.  mode is "full" or "reduced".
    """
    k: int
    mode: str
    slices: dict

    def slice(self, degree, weight):
        return self.slices.get((degree, weight), ())

    def total_dimension(self):
        return sum(len(mons) for mons in self.slices.values())

    def top_degree(self):
        return max((i for i, _ in self.slices), default=0)

    def degree_dimensions(self):
        """Total dimension per degree, summed over weights."""
        out = {}
        for (i, _), mons in self.slices.items():
            out[i] = out.get(i, 0) + len(mons)
        return out


@dataclass
class DifferentialBlock:
    """One matrix of the differential, from slice source to slice target.

    Columns index the source slice, rows the target slice, both in
    canonical monomial order.  matrix holds scale * d with int entries,
    scale being the ring's denominator D.
    """
    source: tuple
    target: tuple
    matrix: object
    scale: int = 1


def _sym_count(parities, total):
    """Closed-form count of the tuples _coded_exponents lists for total."""
    odd = sum(1 for p in parities if p)
    even = len(parities) - odd
    count = 0
    for j in range(min(odd, total) + 1):
        rest = total - j
        if even == 0:
            count += comb(odd, j) if rest == 0 else 0
        else:
            count += comb(odd, j) * comb(rest + even - 1, even - 1)
    return count


def count_monomials(G, k):
    """Total number of monomials in the full complex for k points."""
    return sum(
        _sym_count(G.v_parities, k - 2 * w) * _sym_count(G.w_parities, w)
        for w in range(k // 2 + 1)
    )


def _coded_exponents(parities, degrees, powers, totals):
    """Graded-symmetric exponent tuples by length, in lexicographic order.

    parities flags which generators are odd (exponent at most 1).  Maps
    each length in totals to a list of (exponents, degree, partial
    code), degree and code summed over these generators only.  The
    lists are built from the last generator backwards, so every tail is
    shared by all the prefixes that extend it.
    """
    top = max(totals)
    tails = {0: [((), 0, 0)]}
    for i in reversed(range(len(parities))):
        cap = 1 if parities[i] else top
        d, p = degrees[i], powers[i]
        tails = {r: [((e,) + exps, deg + e * d, code + e * p)
                     for e in range(min(cap, r) + 1)
                     for exps, deg, code in tails.get(r - e, ())]
                 for r in (totals if i == 0 else range(top + 1))}
    return tails


def enumerate_basis(G, k):
    """Canonical monomial basis of the full complex, sliced by (i, w).

    Each slice comes out in canonical order without sorting: V-parts
    run in lexicographic order and, for each, the W-parts in
    lexicographic order, which is Monomial.key order.  The exponent
    lists, with degrees and partial codes, are built once per k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n_v = len(G.v_gens)
    powers = [(k + 1) ** j for j in range(n_v + len(G.w_gens))]
    weights = range(k // 2 + 1)
    v_lists = _coded_exponents(G.v_parities, G.v_degrees, powers[:n_v],
                               [k - 2 * w for w in weights])
    w_lists = _coded_exponents(G.w_parities, G.w_degrees, powers[n_v:], weights)
    slices = {}
    for w in weights:
        vlen = k - 2 * w
        w_part = w_lists[w]
        by_degree = defaultdict(list)
        for ve, vdeg, vcode in v_lists[vlen]:
            for we, wdeg, wcode in w_part:
                deg = vdeg + wdeg
                by_degree[deg].append(Monomial(ve, we, deg, w, vlen, vcode + wcode))
        for deg, mons in by_degree.items():
            slices[(deg, w)] = tuple(mons)
    return BigradedBasis(k=k, mode="full", slices=slices)


class _Differential:
    """D * d on the exponent vectors of monomials of k points.

    Monomials carry their mixed-radix code in base k + 1
    (Monomial.code), so the target of a term is the source code plus a
    fixed delta.  tables[t] holds one tuple per distinct target
    coeff * v_a v_b (a <= b) of d(w_t):

        (dead, shift_a, shift_b, D * coeff, delta)

    dead masks the odd ones of v_a, v_b (the word dies when the source
    already holds one); shift_x is x + 1 for odd v_x, else 0, so that
    vmask >> shift_x keeps the odd V-factors of larger index.
    """

    def __init__(self, G, k):
        self.scale = lcm(*(q.denominator for terms in G.boundary_on_w
                           for _, q in terms))
        self.radix = k + 1
        self.n_v = len(G.v_gens)
        self.powers = tuple(self.radix ** j
                            for j in range(self.n_v + len(G.w_gens)))
        self.odd_v = tuple(a for a, p in enumerate(G.v_parities) if p)
        self.w_parities = G.w_parities
        par = G.v_parities
        tables = []
        for t, terms in enumerate(G.boundary_on_w):
            # v_b v_a = (-1)^(|a||b|) v_a v_b: one merged term per pair
            merged = {}
            for (a, b), q in terms:
                if a > b:
                    a, b = b, a
                    if par[a] and par[b]:
                        q = -q
                merged[a, b] = merged.get((a, b), 0) + q
            table = []
            for (a, b), q in merged.items():
                if not q or (a == b and par[a]):
                    continue  # a zero sum, or v_a^2 = 0 for odd v_a
                table.append((
                    (par[a] << a) | (par[b] << b),
                    a + 1 if par[a] else 0,
                    b + 1 if par[b] else 0,
                    int(q * self.scale),
                    self.powers[a] + self.powers[b] - self.powers[self.n_v + t],
                ))
            tables.append(tuple(table))
        self.tables = tuple(tables)

    def monomial(self, G, code):
        """The Monomial with the given code."""
        exps = []
        for _ in self.powers:
            code, e = divmod(code, self.radix)
            exps.append(e)
        return make_monomial(G, exps[:self.n_v], exps[self.n_v:])

    def apply(self, mon):
        """D * d(mon) as a list of (target code, non-zero int), codes distinct."""
        code = mon.code
        vmask = 0
        for a in self.odd_v:
            if mon.v_exps[a]:
                vmask |= 1 << a
        odd_v = vmask.bit_count()
        odd_w = 0  # odd W-factors before the current one
        out = []
        add = out.append
        for t, e in enumerate(mon.w_exps):
            if not e:
                continue
            koszul = odd_v + odd_w
            for dead, shift_a, shift_b, q, delta in self.tables[t]:
                if vmask & dead:
                    continue
                s = koszul
                if shift_a:
                    s += odd_w + (vmask >> shift_a).bit_count()
                if shift_b:
                    s += odd_w + (vmask >> shift_b).bit_count()
                add((code + delta, -e * q if s & 1 else e * q))
            odd_w += self.w_parities[t]  # odd exponents are at most 1
        return out


def differential_of_monomial(G, mon):
    """d(mon) as a sorted list of (Monomial, Fraction) with exact signs.

    V-factors are cycles; each W-factor is replaced in turn by its
    quadratic boundary, with the Koszul and normalization signs of the
    module docstring.
    """
    d = _Differential(G, mon.v_length + 2 * mon.weight)
    return _terms(G, d, mon)


def _terms(G, d, mon):
    """differential_of_monomial through an already built kernel d."""
    terms = [(d.monomial(G, code), Fraction(q, d.scale)) for code, q in d.apply(mon)]
    terms.sort(key=lambda t: t[0].key())
    return terms


def _top_indices(G):
    """Positions of the degree-2m V-generator and degree-(4m-1) W-generator."""
    if G.cpm is None:
        raise ValueError("reduction is only defined for the built-in CP^m rings")
    m = G.cpm
    v_top = G.v_degrees.index(2 * m)
    w_top = G.w_degrees.index(4 * m - 1)
    return v_top, w_top


def in_reduction_ideal(G, mon):
    """True when mon is divisible by v_top^2 or by w_top."""
    v_top, w_top = _top_indices(G)
    return mon.v_exps[v_top] >= 2 or mon.w_exps[w_top] >= 1


def reduce_complex(G, basis):
    """Quotient basis by the acyclic (v_top^2, w_top) ideal.

    Keeps exactly the monomials with v_top-exponent at most 1 and
    w_top-exponent 0.  The induced differential (apply d, delete ideal
    terms) is what assemble_blocks computes for a reduced basis.
    """
    v_top, w_top = _top_indices(G)
    slices = {}
    for key, mons in basis.slices.items():
        kept = tuple(m for m in mons
                     if m.v_exps[v_top] <= 1 and m.w_exps[w_top] == 0)
        if kept:
            slices[key] = kept
    return BigradedBasis(k=basis.k, mode="reduced", slices=slices)


def assemble_blocks(G, basis):
    """All differential blocks of a basis, one per nonempty source slice.

    In reduced mode, image terms outside the basis must lie in the
    reduction ideal — anything else is a grading bug and raises
    AssemblyError, as does any stray term in full mode.
    """
    from .linalg import SparseExactMatrix

    d = _Differential(G, basis.k)
    ideal = ()
    if basis.mode == "reduced":
        # (digit's place value, least exponent) of v_top^2 and w_top: a
        # code is in the ideal when either digit reaches its bound
        v_top, w_top = _top_indices(G)
        ideal = ((d.powers[v_top], 2), (d.powers[d.n_v + w_top], 1))
    blocks = []
    for (i, w) in sorted(basis.slices):
        if w == 0:
            continue
        source = basis.slices[(i, w)]
        target_key = (i + 1, w - 1)
        target = basis.slice(*target_key)
        row_of = {mon.code: row for row, mon in enumerate(target)}.get
        col_start, rows, values = [0], [], []
        add_row, add_value = rows.append, values.append
        for mon in source:
            for out_code, q in d.apply(mon):
                row = row_of(out_code)
                if row is not None:
                    add_row(row)
                    add_value(q)
                elif not any(out_code // unit % d.radix >= least
                             for unit, least in ideal):
                    raise AssemblyError(
                        "d(%s) produced %s outside slice %r"
                        % (mon.label(G), d.monomial(G, out_code).label(G), target_key))
            col_start.append(len(rows))
        matrix = SparseExactMatrix.from_columns(len(target), col_start, rows, values)
        blocks.append(DifferentialBlock(source=(i, w), target=target_key,
                                        matrix=matrix, scale=d.scale))
    return blocks


def _apply_d(G, d, vec):
    """Extend the differential linearly to a dict Monomial -> Fraction."""
    out = {}
    for mon, c in vec.items():
        for tm, q in _terms(G, d, mon):
            out[tm] = out.get(tm, Fraction(0)) + c * q
    return {m: q for m, q in out.items() if q}


def _apply_h(G, vec, v_top, w_top):
    """The contracting homotopy of the (v_top^2, w_top) ideal.

    h kills anything containing w_top and sends v_top^2 * A to
    w_top * A, i.e. the canonical form of the word (w_top, factors of
    A), whose sign counts the odd factors of A that w_top passes: the
    odd V-factors and the odd W-factors before it.
    """
    out = {}
    for mon, c in vec.items():
        if mon.w_exps[w_top] >= 1:
            continue
        if mon.v_exps[v_top] < 2:
            raise ValueError("h applied outside the ideal: %s" % mon.label(G))
        v_exps = list(mon.v_exps)
        v_exps[v_top] -= 2
        w_exps = list(mon.w_exps)
        w_exps[w_top] = 1
        passed = sum(e for e, p in zip(mon.v_exps, G.v_parities) if p) \
            + sum(e for e, p in zip(mon.w_exps[:w_top], G.w_parities) if p)
        sign = -1 if G.w_parities[w_top] and passed % 2 else 1
        image = make_monomial(G, v_exps, w_exps)
        out[image] = out.get(image, Fraction(0)) + c * sign
    return {m: q for m, q in out.items() if q}


def homotopy_check(G, k):
    """Verify (dh + hd) = id on the ideal's monomial basis, exactly.

    Returns (True, None) on success, else (False, witness_monomial).
    The check is vacuous for k < 2 where the ideal is empty.
    """
    v_top, w_top = _top_indices(G)
    basis = enumerate_basis(G, k)
    d = _Differential(G, k)
    for mons in basis.slices.values():
        for mon in mons:
            if not in_reduction_ideal(G, mon):
                continue
            one = {mon: Fraction(1)}
            lhs = _apply_d(G, d, _apply_h(G, one, v_top, w_top))
            for out, q in _apply_h(G, _apply_d(G, d, one), v_top, w_top).items():
                lhs[out] = lhs.get(out, Fraction(0)) + q
            lhs = {m: q for m, q in lhs.items() if q}
            if lhs != one:
                return False, mon
    return True, None


def dump_complex(G, basis, blocks):
    """JSON-ready dump: slice monomial names plus coordinate triples."""
    from .rat import format_rational

    return {
        "k": basis.k,
        "mode": basis.mode,
        "slices": [
            {"degree": i, "weight": w,
             "monomials": [m.label(G) for m in basis.slices[(i, w)]]}
            for (i, w) in sorted(basis.slices)
        ],
        "blocks": [
            {"source": list(b.source), "target": list(b.target),
             "shape": [b.matrix.n_rows, b.matrix.n_cols],
             "entries": [[r, c, format_rational(Fraction(q, b.scale))]
                         for r, c, q in b.matrix.entries]}
            for b in blocks
        ],
    }
