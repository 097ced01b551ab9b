"""Independent oracles used by the test suite.

Nothing here imports the package's linear algebra or complex builder:
the rank routine is dense fraction-free (Bareiss) elimination and the
kernel basis dense Gaussian elimination over Fraction, the Poincare
pairing is read off the ring's own product table, the differential of
a monomial is the textbook word-based Leibniz rule over Fraction, the
monomial basis is a brute-force search over all exponent vectors, a
code is split into its exponents digit by digit, the polynomial
through sample points is exact Lagrange interpolation, and the two small
configuration-space complexes of CP^1 are written out by hand
(monomial bases listed degree by degree, differentials entered as
explicit matrices).  Agreement between these and the engine is what
the tests are for.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from configcohom import RingPresentation


def dense_rank(rows):
    """Rank by forward-only fraction-free (Bareiss) elimination.

    Each row is cleared of denominators (scaling a row keeps the rank),
    and a matrix with more rows than columns is transposed, so the
    elimination runs over the smaller side.  After each pivot the rows
    below become p * row - a * pivot_row divided by the previous pivot;
    that division is exact (the entries are minors of the matrix), and
    is asserted to be.
    """
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        m.append([int(x * den) for x in row])
    if m and len(m) > len(m[0]):
        m = [list(col) for col in zip(*m)]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r, prev = 0, 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            a = row[c]
            for j in range(c + 1, n_cols):
                q, rem = divmod(p * row[j] - a * top[j], prev)
                assert rem == 0, "inexact Bareiss division"
                row[j] = q
            row[c] = 0
        prev = p
        r += 1
        if r == n_rows:
            break
    return r


def kernel_basis(A):
    """Explicit kernel basis via dense reduced row echelon form.

    A is anything with n_rows, n_cols and to_dense() (a list of rows of
    ints or Fractions), converted to Fractions here so the elimination
    stays exact.  Returns a list of length-n_cols tuples of Fractions,
    one per free column in ascending column order.
    """
    m = [[Fraction(x) for x in row] for row in A.to_dense()]
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


def pairing_from_products(R):
    """P[i][j] = coefficient of the top class in e_i e_j, from R.product."""
    top = [i for i, deg in enumerate(R.degrees) if deg == R.manifold_dimension]
    (t,) = top
    return [[R.product(i, j).get(t, Fraction(0)) for j in range(R.n)]
            for i in range(R.n)]


def _word(v_exps, w_exps):
    """Canonical factor sequence: (0, i) for v_i, (1, t) for w_t."""
    word = []
    for idx, e in enumerate(v_exps):
        word.extend([(0, idx)] * e)
    for idx, e in enumerate(w_exps):
        word.extend([(1, idx)] * e)
    return word


def _normalize_word(G, word):
    """(sign, (v_exps, w_exps)) of an arbitrary word, None if it dies.

    Even factors commute freely, odd ones anticommute and square to
    zero, so the sign is (-1)^(inversions among the odd factors).
    """
    degree = {0: G.v_degrees, 1: G.w_degrees}
    odd_seq = [f for f in word if degree[f[0]][f[1]] % 2]
    if len(set(odd_seq)) != len(odd_seq):
        return None
    inversions = sum(1 for i in range(len(odd_seq))
                     for j in range(i + 1, len(odd_seq))
                     if odd_seq[i] > odd_seq[j])
    v_exps = [0] * len(G.v_degrees)
    w_exps = [0] * len(G.w_degrees)
    for space, idx in word:
        (v_exps if space == 0 else w_exps)[idx] += 1
    return (-1) ** inversions, (tuple(v_exps), tuple(w_exps))


def leibniz_differential(G, v_exps, w_exps):
    """d of the canonical monomial with the given exponents.

    Each W-factor in turn is replaced by its boundary sum of coeff *
    v_a v_b, with the Koszul sign of the factors to its left; the word
    is then re-sorted by _normalize_word.  Returns a dict (v_exps,
    w_exps) -> Fraction without zero terms.
    """
    word = _word(v_exps, w_exps)
    acc = {}
    prefix_parity = 0
    for pos, (space, idx) in enumerate(word):
        if space == 1:
            koszul = -1 if prefix_parity else 1
            for (a, b), coeff in G.boundary_on_w[idx]:
                new = word[:pos] + [(0, a), (0, b)] + word[pos + 1:]
                normalized = _normalize_word(G, new)
                if normalized is not None:
                    sign, out = normalized
                    acc[out] = acc.get(out, Fraction(0)) + Fraction(coeff) * koszul * sign
        prefix_parity ^= (G.v_degrees if space == 0 else G.w_degrees)[idx] % 2
    return {out: q for out, q in acc.items() if q}


def brute_force_basis(G, k):
    """The monomial basis for k points, by brute force.

    Returns (degree, weight) -> sorted list of (v_exps, w_exps): every
    exponent vector with entries 0..k, kept when odd generators have
    exponent at most 1, the W-exponents sum to a weight w and the
    V-exponents to k - 2w.
    """
    def vectors(parities, total):
        return [e for e in product(range(k + 1), repeat=len(parities))
                if sum(e) == total and all(x <= 1 for x, p in zip(e, parities) if p)]

    slices = {}
    for w in range(k // 2 + 1):
        for v_exps in vectors(G.v_parities, k - 2 * w):
            for w_exps in vectors(G.w_parities, w):
                degree = sum(x * deg for x, deg in zip(v_exps, G.v_degrees)) \
                    + sum(x * deg for x, deg in zip(w_exps, G.w_degrees))
                slices.setdefault((degree, w), []).append((v_exps, w_exps))
    return {key: sorted(mons) for key, mons in slices.items()}


def exponents(G, k, code):
    """The (v_exps, w_exps) of a code: its base-(k + 1) digits, V-slots first."""
    n_v, n = len(G.v_degrees), len(G.v_degrees) + len(G.w_degrees)
    digits = tuple(code // (k + 1) ** j % (k + 1) for j in range(n))
    return digits[:n_v], digits[n_v:]


def dense_betti(dims, maps):
    """Betti numbers of a cochain complex given dense matrices.

    dims maps degree -> dimension; maps[d] is the matrix of the
    differential from degree d to degree d+1 (rows index the target).
    """
    out = {}
    for d, n in dims.items():
        r_out = dense_rank(maps[d]) if d in maps else 0
        r_in = dense_rank(maps[d - 1]) if d - 1 in maps else 0
        out[d] = n - r_out - r_in
    return out


# Two points on CP^1.  Monomial basis by degree, with the V-part
# written in v0, v2 and the W-part in w1, w3:
#   0: v0^2      1: w1        2: v0 v2     3: w3        4: v2^2
# d(w1) = 2 v0 v2,  d(w3) = v2^2.
CP1_K2_DIMS = {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
CP1_K2_MAPS = {1: [[2]], 3: [[1]]}
CP1_K2_BETTI = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}

# Three points on CP^1.
#   0: v0^3          1: v0 w1             2: v0^2 v2
#   3: v0 w3, v2 w1  4: v0 v2^2           5: v2 w3       6: v2^3
# d(v0 w1) = 2 v0^2 v2;  d(v0 w3) = v0 v2^2;
# d(v2 w1) = 2 v0 v2^2;  d(v2 w3) = v2^3.
CP1_K3_DIMS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}
CP1_K3_MAPS = {1: [[2]], 3: [[1, 2]], 5: [[1]]}
CP1_K3_BETTI = {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0}


def lagrange_coefficients(points):
    """Ascending coefficients of the polynomial of degree < len(points)
    through points, by exact Lagrange interpolation over Fraction."""
    coeffs = [Fraction(0)] * len(points)
    for idx, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for jdx, (xj, _) in enumerate(points):
            if jdx == idx:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p] += c * (-xj)
                nxt[p + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    return coeffs


def torus_ring():
    """H^*(S^1 x S^1; Q): unit, two odd classes, their product."""
    one, a, b, ab = 0, 1, 2, 3
    table = {
        (one, one): ((one, 1),),
        (one, a): ((a, 1),), (a, one): ((a, 1),),
        (one, b): ((b, 1),), (b, one): ((b, 1),),
        (one, ab): ((ab, 1),), (ab, one): ((ab, 1),),
        (a, b): ((ab, 1),), (b, a): ((ab, -1),),
    }
    return RingPresentation(
        ("1", "a", "b", "ab"), (0, 1, 1, 2), table, 2, label="T^2")


def s4_ring():
    """H^*(S^4; Q): unit and one degree-4 class."""
    table = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),), (1, 0): ((1, 1),),
    }
    return RingPresentation(("1", "y"), (0, 4), table, 4, label="S^4")


def s2xs2_ring():
    """H^*(S^2 x S^2; Q): unit, two even classes squaring to 0, their product."""
    one, a, b, ab = 0, 1, 2, 3
    table = {
        (one, one): ((one, 1),),
        (one, a): ((a, 1),), (a, one): ((a, 1),),
        (one, b): ((b, 1),), (b, one): ((b, 1),),
        (one, ab): ((ab, 1),), (ab, one): ((ab, 1),),
        (a, b): ((ab, 1),), (b, a): ((ab, 1),),
    }
    return RingPresentation(
        ("1", "a", "b", "ab"), (0, 2, 2, 4), table, 4, label="S^2 x S^2")


def cp2_half_ring():
    """CP^2 presented with x * x = y / 2, so its boundary table has D = 2."""
    half = Fraction(1, 2)
    table = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),), (1, 0): ((1, 1),),
        (0, 2): ((2, 1),), (2, 0): ((2, 1),),
        (1, 1): ((2, half),),
    }
    return RingPresentation(("1", "x", "y"), (0, 2, 4), table, 4,
                            label="CP^2 (x^2 = y/2)")


def cp2_ring_doc():
    """A correct JSON document for the CP^2 presentation."""
    return {
        "dimension": 4,
        "basis": [
            {"name": "1", "degree": 0},
            {"name": "x", "degree": 2},
            {"name": "x^2", "degree": 4},
        ],
        "products": [
            {"left": "1", "right": "1", "result": [{"basis": "1", "coeff": "1"}]},
            {"left": "1", "right": "x", "result": [{"basis": "x", "coeff": "1"}]},
            {"left": "x", "right": "1", "result": [{"basis": "x", "coeff": "1"}]},
            {"left": "1", "right": "x^2", "result": [{"basis": "x^2", "coeff": "1"}]},
            {"left": "x^2", "right": "1", "result": [{"basis": "x^2", "coeff": "1"}]},
            {"left": "x", "right": "x", "result": [{"basis": "x^2", "coeff": "1"}]},
        ],
        "top": "x^2",
    }


def malformed_ring_docs():
    """(rule, document, message regex) for one malformed document per rule.

    Each document is cp2_ring_doc with one fault, so the message of the
    rule it breaks is the only one it can raise.
    """
    def altered(path, value):
        doc = cp2_ring_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    def without(key):
        return {k: v for k, v in cp2_ring_doc().items() if k != key}

    name, degree = ("basis", 1, "name"), ("basis", 1, "degree")
    coeff = ("products", 5, "result", 0, "coeff")
    bad_name = "basis names must be nonempty strings"
    bad_degree = "basis degree for 'x' must be a non-negative integer"
    bad_dimension = "manifold dimension must be a positive even integer"
    bad_coeff = r"bad coefficient in x \* x"
    return [
        ("not-an-object", [cp2_ring_doc()], "must be a JSON object"),
        ("missing-dimension", without("dimension"), "missing 'dimension'"),
        ("empty-basis", altered(("basis",), []), "basis must be a nonempty list"),
        ("basis-item-without-degree", altered(("basis", 1), {"name": "x"}),
         "each basis item needs a name and a degree"),
        ("products-not-a-list", altered(("products",), {}), "products must be a list"),
        ("product-without-result", altered(("products", 5), {"left": "x", "right": "x"}),
         "product missing 'result'"),
        ("result-not-a-list", altered(("products", 5, "result"), {"basis": "x^2"}),
         r"product result for x \* x must be a list"),
        ("term-without-coeff", altered(("products", 5, "result", 0), {"basis": "x^2"}),
         "result terms need a basis and a coeff"),
        ("list-left", altered(("products", 0, "left"), ["1"]),
         r"product references unknown basis name \['1'\]"),
        ("object-right", altered(("products", 0, "right"), {"name": "1"}),
         r"product references unknown basis name \{'name': '1'\}"),
        ("list-result-basis", altered(("products", 5, "result", 0, "basis"), ["x^2"]),
         r"result references unknown basis name \['x\^2'\]"),
        ("list-top", altered(("top",), ["x^2"]), r"top references unknown basis name \['x\^2'\]"),
        ("unknown-left", altered(("products", 0, "left"), "zz"),
         "product references unknown basis name 'zz'"),
        ("int-reference", altered(("products", 0, "left"), 1),
         "product references unknown basis name 1"),
        ("int-name", altered(name, 1), bad_name),
        ("list-name", altered(name, ["x"]), bad_name),
        ("empty-name", altered(("basis",), cp2_ring_doc()["basis"] + [{"name": "", "degree": 2}]),
         bad_name),
        ("duplicate-name", altered(name, "1"), "duplicate basis names"),
        ("negative-degree", altered(degree, -2), bad_degree),
        ("string-degree", altered(degree, "2"), bad_degree),
        ("bool-degree", altered(degree, True), bad_degree),
        ("odd-dimension", altered(("dimension",), 5), bad_dimension),
        ("zero-dimension", altered(("dimension",), 0), bad_dimension),
        ("string-dimension", altered(("dimension",), "4"), bad_dimension),
        ("bool-dimension", altered(("dimension",), True), bad_dimension),
        ("float-coefficient", altered(coeff, 0.5), bad_coeff),
        ("float-string-coefficient", altered(coeff, "0.5"), bad_coeff),
        ("bool-coefficient", altered(coeff, True), bad_coeff),
        ("zero-denominator", altered(coeff, "1/0"), bad_coeff),
        ("list-coefficient", altered(coeff, ["1"]), bad_coeff),
        ("duplicate-product", altered(("products", 0), cp2_ring_doc()["products"][5]),
         r"duplicate product entry for x \* x"),
        ("top-of-wrong-degree", altered(("top",), "x"),
         "declared top class 'x' does not have degree 4"),
        ("unknown-top", altered(("top",), "zz"), "top references unknown basis name 'zz'"),
    ]


def unreadable_ring_files():
    """(fault, file bytes, message regex) for files that hold no document."""
    return [
        ("truncated", b'{"dimension": 2, "basis": [', "not valid JSON: "),
        ("not-utf8", b'{"a": "\xff"}', "not valid UTF-8: "),
        ("nested-too-deeply", b"[" * 100000 + b"]" * 100000,
         "not valid JSON: nested too deeply"),
    ]
