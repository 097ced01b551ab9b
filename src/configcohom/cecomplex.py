"""The bigraded complex computing H^*(C_k(M); Q).

Generators.  M is closed, oriented, of even dimension d.  Each class
of degree deg in the ring's basis (a class of H_deg(M)) gives one
pair, at the same position t of V and of W, of opposite parities:

    v_t of degree d - deg,  w_t of degree 2d - 1 - deg = deg v_t + d - 1,

and the unit class (deg = 0, the point class) gives the top pair v_top,
w_top.  V-generators are cycles; d sends a W-generator to the diagonal
comultiplication of its class, a quadratic expression in V.

For k points the complex is

    sum over w = 0..floor(k/2) of  Sym^{k-2w}(V) (x) Sym^w(W),

graded by cohomological degree i and weight w, with the differential
sending weight w to weight w-1 and raising degree by one.  Monomials
are words in the generators; the graded-symmetric algebra means even
generators commute, odd generators anticommute and square to zero.

Codes.  A basis element is its mixed-radix code: the exponents, V-
then W-slots, as digits in base k + 1.  enumerate_basis lists each
(degree, weight) slice once, in canonical order, as a tuple of codes;
monomial_label names a code, for messages and dumps.  Each term of d
moves a code by a fixed delta, with a sign and coefficient set by the
code's W-part and odd V-factors alone, so the terms are tabled per
such (odd-V mask, W-part) key.

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
exponent e contributes e equal terms.  Each _Differential (one per
(k, mode), pool task or homotopy_check) clears the denominators: blocks
hold D * d as Python ints, D the lcm of the boundary table's
denominators (1 for every built-in CP^m), so ranks and the d o d = 0
check are exact integer computations.

Every ring has a reduction: the ideal generated by (v_top^2, w_top) —
d(w_top) = v_top^2 — is a subcomplex, acyclic for k >= 2 via the
explicit homotopy h(v_top^2 A + B w_top) = w_top A,  so the quotient
complex (monomials with v_top-exponent <= 1 and no w_top) has the same
cohomology.  One rule (_top) finds the top position, by degree alone:
the one V-generator of degree d.  So every validated ring has the
reduced complex; below k = 2 the ideal is empty and the quotient is
the full complex.  homotopy_check verifies (dh + hd) = id on the ideal
exactly.  The quotient basis is enumerated directly, by capping the
v_top-exponent at 1 and the w_top-exponent at 0, so it never passes
through the full basis.
"""

from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, inf, lcm

from .linalg import SparseExactMatrix
from .ring import _check_int, diagonal_comultiplication


class AssemblyError(RuntimeError):
    """Internal consistency failure while assembling differential blocks."""


class GeneratorSet(namedtuple("GeneratorSet", "v_degrees boundary_on_w manifold_dimension label")):
    """One V- and one W-generator per ring class, plus the boundary table on W.

    v_degrees[t], a non-negative int, is the degree of v_t, used for all
    sign and grading bookkeeping; w_t has degree v_degrees[t] + d - 1, so
    w_degrees, the names and both parities are read off v_degrees.
    boundary_on_w[t] lists ((a, b), coeff) terms, coeff an int or a
    Fraction, meaning w_t maps to sum coeff * v_a v_b over ordered
    position pairs.  A checked tuple (through _make and _replace too), so
    the set a command hands to its pool workers cannot change on the way.
    """
    __slots__ = ()

    def __new__(cls, v_degrees, boundary_on_w, manifold_dimension, label="custom"):
        self = super().__new__(cls, tuple(v_degrees), tuple(map(tuple, boundary_on_w)),
                               manifold_dimension, label)
        _check_int(manifold_dimension, "manifold dimension", 1)
        if manifold_dimension % 2:  # the W-parities rest on it
            raise ValueError("manifold dimension must be even, got %d" % manifold_dimension)
        for v in self.v_degrees:
            _check_int(v, "V-degree", 0)
        if len(self.boundary_on_w) != len(self.v_degrees):
            raise ValueError("boundary table length disagrees with W")
        if any(a not in range(len(self.v_degrees))
               for terms in self.boundary_on_w for pair, _ in terms for a in pair):
            raise ValueError("boundary term outside V")
        if any(type(q) not in (int, Fraction) for t in self.boundary_on_w for _, q in t):
            raise ValueError("boundary coefficient neither an int nor a Fraction")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    w_degrees = property(lambda self: tuple(v + self.manifold_dimension - 1
                                            for v in self.v_degrees))
    v_names = property(lambda self: _named("v", self.v_degrees))
    w_names = property(lambda self: _named("w", self.w_degrees))
    v_parities = property(lambda self: tuple(v % 2 for v in self.v_degrees))
    w_parities = property(lambda self: tuple(w % 2 for w in self.w_degrees))


def _degree_table(R):
    """(V-degree, class index) per class of R, in generator order."""
    d = R.manifold_dimension
    return sorted((d - deg, i) for i, deg in enumerate(R.degrees))


def _named(prefix, degrees):
    """Name generators prefix<degree>, disambiguating repeats by suffix."""
    names = []
    for t, deg in enumerate(degrees):
        suffix = "_%d" % degrees[:t + 1].count(deg) if degrees.count(deg) > 1 else ""
        names.append("%s%d%s" % (prefix, deg, suffix))
    return tuple(names)


def build_generators(R):
    """Derive the generator set of a ring presentation.

    V and W each list the ring's classes in (generator degree, class
    index) order.  Each call validates R and stores nothing on it:
    build the set once and pass it on to validate a ring once.
    """
    diag = diagonal_comultiplication(R)  # validates R
    v_degrees, order = zip(*_degree_table(R))
    v_pos = {i: t for t, i in enumerate(order)}
    boundary = [sorted(((v_pos[a], v_pos[b]), q) for (a, b), q in diag[i]) for i in order]
    return GeneratorSet(v_degrees, boundary, R.manifold_dimension, label=R.label)


def monomial_label(G, k, code):
    """Name of the monomial of k points with this code, e.g. 'v2^2 v4 w7'."""
    return _label(G.v_names + G.w_names, k, code)


def _label(names, k, code):
    """The base-(k + 1) digits of code, V-slots first, are the exponents
    of names (G.v_names, then G.w_names); the empty monomial is '1'."""
    parts = []
    for name in names:
        code, e = divmod(code, k + 1)
        if e:
            parts.append(name if e == 1 else "%s^%d" % (name, e))
    return " ".join(parts) or "1"


class BigradedBasis(namedtuple("BigradedBasis", "k mode slices")):
    """Monomial bases of all (degree, weight) slices for one k.

    slices maps (degree, weight) to a tuple of monomial codes in
    canonical order, lexicographic on (V-exponent tuple, W-exponent
    tuple); empty slices are absent.  mode is "full" or "reduced".
    """
    __slots__ = ()

    def slice(self, degree, weight):
        return self.slices.get((degree, weight), ())

    def total_dimension(self):
        return sum(len(mons) for mons in self.slices.values())

    def top_degree(self):
        return max((i for i, _ in self.slices), default=0)


class DifferentialBlock(namedtuple("DifferentialBlock", "source target matrix scale")):
    """One matrix of the differential, from slice source to slice target.

    Columns index the source slice, rows the target slice, both in
    canonical monomial order.  matrix holds scale * d with int entries,
    scale being the ring's denominator D.
    """
    __slots__ = ()


def _exponent_caps(v_degrees, k, top=None):
    """Exponent bounds of the V- and W-generators for k points, and the weights.

    1 for an odd generator, k for an even one, w_t of the other parity
    than v_t (d is even); top, the top position t, caps v_t's at 1 and
    w_t's at 0 (reduced).  Weight w puts w points in W: w <= the W-caps' sum.
    """
    v_caps = [1 if v % 2 else k for v in v_degrees]
    w_caps = [k if v % 2 else 1 for v in v_degrees]
    if top is not None:
        v_caps[top], w_caps[top] = 1, 0
    return v_caps, w_caps, range(min(k // 2, sum(w_caps)) + 1)


def _capped_count(caps, total):
    """Number of exponent vectors of length total, exponent i at most caps[i].

    Every cap is 0, 1 or at least total (a cap of k bounds nothing in a
    vector of at most k points), so choose j of the cap-1 generators and
    spread the rest over the unbounded ones.
    """
    ones = caps.count(1)
    free = sum(1 for c in caps if c > 1)
    if free == 0:
        return comb(ones, total)
    return sum(comb(ones, j) * comb(total - j + free - 1, free - 1)
               for j in range(min(ones, total) + 1))


def _weight_counts(v_caps, w_caps, weights, k):
    return (_capped_count(v_caps, k - 2 * w) * _capped_count(w_caps, w) for w in weights)


def _check_args(k, mode):
    _check_int(k, "k", 0)
    if mode not in ("full", "reduced"):
        raise ValueError("mode must be 'full' or 'reduced', got %r" % (mode,))


def weight_counts(R, k, mode="full"):
    """Monomials of the complex of ring R for k points, by weight up to the last the caps fill.

    Counts what enumerate_basis(build_generators(R), k, mode) holds from
    the V-degrees alone (one V/W pair per class), without validating R,
    so the CLI's cap can run before the ring check.  The top position
    comes from the reduced build's rule; a ring without one (it fails
    validation after the cap) is counted in full.
    """
    _check_args(k, mode)
    v_degrees = [v for v, _ in _degree_table(R)]
    top = _top(v_degrees, R.manifold_dimension) if mode == "reduced" else None
    return _weight_counts(*_exponent_caps(v_degrees, k, top), k)


def count_monomials(G, k):
    """Total number of monomials in the full complex for k points."""
    _check_int(k, "k", 0)
    return sum(_weight_counts(*_exponent_caps(G.v_degrees, k), k))


def _coded_exponents(caps, degrees, powers, needs):
    """Exponent vectors by length, as (degree, code), that reach their need.

    caps[i] bounds the exponent of generator i (1 for an odd one).
    Maps each length n in needs to its vectors' (degree, partial code)
    of degree >= needs[n], in lexicographic order, over these generators
    only; a length with none is left out.  Built from the last generator
    back, from the tail lengths kept so far, every tail is shared by the
    prefixes that extend it, and dropped once its points left, each at
    most the largest degree before it, cannot lift it to any need.
    """
    longest, top = max(needs), 0
    tails = {0: [(0, 0)]}
    for i in reversed(range(len(caps))):
        cap, d, p, most = caps[i], degrees[i], powers[i], max(degrees[:i], default=0)
        top = min(longest, top + cap)  # the points i, i + 1, ... can hold
        # floors[r]: the least of needs[n] - (n - r) * most over the lengths n >= r
        low = accumulate((needs.get(n, inf) - n * most for n in range(top - 1, -1, -1)), min,
                         initial=min(f - n * most for n, f in needs.items() if n >= top))
        floors = needs if i == 0 else {r: f + r * most for r, f in zip(range(top, -1, -1), low)}
        kept = sorted(tails, reverse=True)  # so the exponent e = r - s ascends
        tails = {r: got for r, floor in floors.items()
                 if (got := [(deg + e * d, code + e * p)
                             for s in kept for e in [r - s] if 0 <= e <= cap
                             for rest in [floor - e * d] for deg, code in tails[s] if deg >= rest])}
    return tails


def _reach(caps, degrees, n):
    """The largest degree of n points under caps (each 0, 1 or >= n): highest degrees first."""
    total = 0
    for deg, cap in sorted(zip(degrees, caps), reverse=True):
        total, n = total + min(cap, n) * deg, n - min(cap, n)
    return total


def enumerate_basis(G, k, mode="full", least=0):
    """Canonical monomial basis of the full or reduced complex, by (i, w).

    Each slice is a tuple of codes in canonical order, without sorting:
    V-parts run in lexicographic order and, for each, the W-parts in
    lexicographic order, so the slice is lexicographic on (V-exponent
    tuple, W-exponent tuple).  Odd generators have exponent at most 1;
    in reduced mode v_top's is at most 1 and w_top's 0 as well.  Only the
    weights and lengths the caps fill, and the parts (once per k) that can
    reach degree least, are built: each slice, and their order, as in the whole.
    """
    _check_args(k, mode)
    v_caps, w_caps, weights = _exponent_caps(G.v_degrees, k,
                                             _top_index(G) if mode == "reduced" else None)
    n_v = len(G.v_degrees)
    powers = [(k + 1) ** j for j in range(2 * n_v)]
    # a part is kept if the other part's points, under their caps, can lift it to least
    v_lists = _coded_exponents(v_caps, G.v_degrees, powers[:n_v],
                               {k - 2 * w: least - _reach(w_caps, G.w_degrees, w) for w in weights})
    w_lists = _coded_exponents(w_caps, G.w_degrees, powers[n_v:],
                               {w: least - _reach(v_caps, G.v_degrees, k - 2 * w) for w in weights})
    slices = {}
    for w in weights:
        by_degree = defaultdict(list)
        for vdeg, vcode in v_lists.get(k - 2 * w, ()):
            for wdeg, wcode in w_lists.get(w, ()):
                if vdeg + wdeg >= least:
                    by_degree[vdeg + wdeg].append(vcode + wcode)
        for deg, codes in by_degree.items():
            slices[(deg, w)] = tuple(codes)
    return BigradedBasis(k=k, mode=mode, slices=slices)


class _Differential:
    """D * d on the codes of monomials of k points.

    tables[t] holds one tuple (a, b, D * coeff, delta) per distinct
    target coeff * v_a v_b (a <= b) of d(w_t); the target code of the
    term is the source code plus delta.  memo holds the terms of d per
    key met, for the life of this object (one k, one call).
    """

    def __init__(self, G, k):
        self.scale = lcm(*(q.denominator for terms in G.boundary_on_w
                           for _, q in terms))
        self.radix = k + 1
        self.n_v = len(G.v_degrees)
        self.powers = tuple(self.radix ** j for j in range(2 * self.n_v))
        self.w_unit = self.powers[self.n_v]
        par = self.v_parities = G.v_parities
        self.w_parities = G.w_parities
        # (mask bit, place value) of each odd V-generator
        self.odd_v = tuple((1 << a, self.powers[a]) for a, p in enumerate(par) if p)
        self.memo = {}
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
            tables.append(tuple(
                (a, b, int(q * self.scale),
                 self.powers[a] + self.powers[b] - self.powers[self.n_v + t])
                for (a, b), q in merged.items()
                # drop zero sums, and v_a^2 = 0 for odd v_a
                if q and not (a == b and par[a])))
        self.tables = tuple(tables)

    def terms(self, code):
        """D * d(code) as ((delta, non-zero int), ...), deltas distinct.

        The targets are code + delta.  The terms depend only on the key
        (odd-V mask, W-part) of code, so they are built once per key,
        with the prefix-parity signs of the module docstring.
        """
        vmask = 0
        for bit, unit in self.odd_v:
            if code // unit % self.radix:
                vmask |= bit
        w_part = code // self.w_unit
        key = vmask, w_part
        out = self.memo.get(key)
        if out is not None:
            return out
        odd_v = vmask.bit_count()
        odd_w = 0  # odd W-factors before the current one
        out = []
        for t, table in enumerate(self.tables):
            w_part, e = divmod(w_part, self.radix)
            if not e:
                continue
            koszul = odd_v + odd_w
            for a, b, q, delta in table:
                if vmask >> a & 1 or vmask >> b & 1:
                    continue  # the word repeats an odd v_a or v_b
                s = koszul
                for x in (a, b):
                    if self.v_parities[x]:
                        s += odd_w + (vmask >> x + 1).bit_count()
                out.append((delta, -e * q if s & 1 else e * q))
            odd_w += self.w_parities[t]  # odd exponents are at most 1
        out = self.memo[key] = tuple(out)
        return out


def _top(v_degrees, d):
    """The top position: that of the one V-generator of degree d, or None."""
    return v_degrees.index(d) if v_degrees.count(d) == 1 else None


def _top_index(G):
    """The top position t of G (v_t of degree d, w_t of 2d - 1), checking
    d(w_t) = v_t^2 on the boundary table: the reduction's homotopy rests on it."""
    t = _top(G.v_degrees, G.manifold_dimension)
    if t is None:
        raise AssemblyError("%s has no single V-generator of degree %d to reduce by"
                            % (G.label, G.manifold_dimension))
    if G.boundary_on_w[t] != (((t, t), 1),):
        raise AssemblyError("d(%s) is not %s^2" % (G.w_names[t], G.v_names[t]))
    return t


def _ideal_test(G, d):
    """(in_ideal, v_unit, w_unit) on the codes of the _Differential d.

    in_ideal(code): divisible by v_top^2 or by w_top, of place values
    v_unit and w_unit; a digit of place value u is at least e exactly
    when code % (u * radix) >= e * u.
    """
    t = _top_index(G)
    v_unit, w_unit = d.powers[t], d.powers[d.n_v + t]
    v_mod, v_two, w_mod = v_unit * d.radix, 2 * v_unit, w_unit * d.radix
    return (lambda code: code % v_mod >= v_two or code % w_mod >= w_unit), v_unit, w_unit


def reduce_complex(G, basis):
    """Quotient basis of basis.k points by the acyclic (v_top^2, w_top) ideal.

    The monomials with v_top-exponent at most 1 and w_top-exponent 0,
    enumerated directly: only basis.k is read, so a full or an already
    reduced basis gives the same result.
    The induced differential (apply d, delete ideal terms) is what
    assemble_blocks computes for a reduced basis.
    """
    return enumerate_basis(G, basis.k, "reduced")


def assemble_blocks(G, basis):
    """All differential blocks of a basis, one per nonempty source slice.

    In reduced mode, image terms outside the basis must lie in the
    reduction ideal — anything else is a grading bug and raises
    AssemblyError, as does any stray term in full mode.
    """
    d = _Differential(G, basis.k)
    in_ideal = _ideal_test(G, d)[0] if basis.mode == "reduced" else None
    terms = d.terms
    blocks = []
    for (i, w) in sorted(basis.slices):
        if w == 0:
            continue
        source = basis.slices[(i, w)]
        target_key = (i + 1, w - 1)
        target = basis.slice(*target_key)
        row_of = dict(zip(target, range(len(target)))).get
        col_start, rows, values = [0], [], []
        add_row, add_value = rows.append, values.append
        for code in source:
            for delta, q in terms(code):
                row = row_of(code + delta)
                if row is not None:
                    add_row(row)
                    add_value(q)
                elif in_ideal is None or not in_ideal(code + delta):
                    raise AssemblyError(
                        "d(%s) produced %s outside slice %r"
                        % (monomial_label(G, basis.k, code),
                           monomial_label(G, basis.k, code + delta),
                           target_key))
            col_start.append(len(rows))
        matrix = SparseExactMatrix(len(target), col_start, rows, values)
        blocks.append(DifferentialBlock(source=(i, w), target=target_key,
                                        matrix=matrix, scale=d.scale))
    return blocks


def homotopy_check(G, k):
    """Verify (dh + hd) = id on the ideal's monomial basis, exactly.

    Works on codes with the integer kernel: (D d)h + h(D d) = D id.  h
    kills anything containing w_top and sends v_top^2 A to w_top A, the
    canonical form of the word (w_top, factors of A); w_top is odd
    (degree 2d - 1), so the sign counts the odd factors of A it passes:
    the odd V-factors and the odd W-factors before it.

    Returns (True, None) on success, else (False, label), label the
    monomial_label of the first ideal monomial where the identity fails.
    The check is vacuous for k < 2 where the ideal is empty.
    """
    basis = enumerate_basis(G, k)  # checks k
    d = _Differential(G, k)
    in_ideal, v_unit, w_unit = _ideal_test(G, d)
    passed = [unit for _, unit in d.odd_v]
    passed += [p for p, odd in zip(d.powers[d.n_v:], G.w_parities) if odd and p < w_unit]

    def h(code):
        """h(code) as (image code, sign); (0, 0), a zero term, when code
        holds w_top (d of the code 0, the monomial 1, is empty)."""
        if code // w_unit % d.radix:
            return 0, 0
        if code // v_unit % d.radix < 2:
            raise ValueError("h applied outside the ideal: %s"
                             % monomial_label(G, k, code))
        odd = sum(code // p % d.radix for p in passed)
        return code + w_unit - 2 * v_unit, -1 if odd & 1 else 1

    for codes in basis.slices.values():
        for code in filter(in_ideal, codes):
            image, sign = h(code)
            lhs = {image + delta: sign * q for delta, q in d.terms(image)}
            for delta, q in d.terms(code):
                image, sign = h(code + delta)
                lhs[image] = lhs.get(image, 0) + sign * q
            if {c: q for c, q in lhs.items() if q} != {code: d.scale}:
                return False, monomial_label(G, k, code)
    return True, None


def dump_complex(G, basis, blocks):
    """JSON-ready dump: slice monomial names plus coordinate triples."""
    names = G.v_names + G.w_names
    return {
        "k": basis.k,
        "mode": basis.mode,
        "slices": [
            {"degree": i, "weight": w,
             "monomials": [_label(names, basis.k, c) for c in basis.slices[(i, w)]]}
            for (i, w) in sorted(basis.slices)
        ],
        "blocks": [
            {"source": list(b.source), "target": list(b.target),
             "shape": [b.matrix.n_rows, b.matrix.n_cols],
             "entries": [[r, c, str(Fraction(q, b.scale))]
                         for r, c, q in b.matrix.entries]}
            for b in blocks
        ],
    }
