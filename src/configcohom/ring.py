"""Finite presentations of rational cohomology rings of closed
oriented even-dimensional manifolds.

A presentation records a homogeneous basis of H^*(M; Q), the degree of
each element, the multiplication table as structure constants, and the
(even) dimension d of M.  The one nontrivial derived operation is the
diagonal comultiplication on H_*(M; Q): writing h_0, ..., h_{n-1} for
the homology basis dual to the cohomology basis under evaluation, the
coproduct dual to the cup product is

    diag(h_c) = sum over ordered pairs (a, b) of  c_{ab}^c  h_a (x) h_b

where e_a e_b = sum_c c_{ab}^c e_c is the multiplication table.  The
structure constants come back transposed: the output above is indexed
by c, not by (a, b).  Poincare duality guarantees the result is
homogeneous of homology degree deg(h_c) once the ring validates.

A JSON presentation passes three layers, each rule in one of them:
ring_from_dict checks the document's shape and resolves names to
indices, RingPresentation checks every value (names, degrees,
dimension, indices, coefficients), and both raise RingSchemaError;
validate_ring then checks the ring axioms and reports, never raises.

Everything is exact: coefficients are ints or fractions.Fraction,
never floats.  JSON carries a rational as a string "p" or "p/q"
(written with str of a Fraction), so nothing is ever rounded on the
way in or out.
"""

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType

from .linalg import SparseExactMatrix, rank


class RingSchemaError(ValueError):
    """Malformed presentation data (shape/type level)."""


class InvalidRingError(ValueError):
    """Structurally well-formed presentation that fails validation."""


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, name, least):
    """Raise ValueError unless value is an int (not a bool) of at least least (0 or 1)."""
    if not _is_int(value) or value < least:
        raise ValueError("%s must be a %s integer, got %r"
                         % (name, "positive" if least else "non-negative", value))


def _is_int_text(text):
    """An optional sign followed by ASCII digits, and nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_rational(value):
    """Parse an int, a Fraction or a string "p" / "p/q" into a Fraction.

    Floats (and float-looking strings) are rejected outright: a value
    like 0.1 has no exact binary representation and would silently
    poison every downstream rank computation.
    """
    if isinstance(value, bool):
        raise ValueError("rational expected, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.strip().split("/")
        if len(parts) == 1 and _is_int_text(parts[0]):
            return Fraction(int(parts[0]))
        if len(parts) == 2 and _is_int_text(parts[0]) and _is_int_text(parts[1]):
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ValueError("rational with zero denominator: %r" % value)
            return Fraction(num, den)
        raise ValueError("not a rational string: %r" % value)
    raise ValueError("rational expected, got %s" % type(value).__name__)


class RingPresentation(namedtuple("RingPresentation", "basis_names degrees "
                                   "structure_constants manifold_dimension label "
                                   "unit_index top_index")):
    """Basis, degrees, multiplication table, and manifold dimension.

    structure_constants maps an ordered index pair (i, j) to a tuple of
    (result_index, coefficient); absent pairs multiply to zero.
    unit_index and top_index are the one class of degree 0 and of
    degree d, or None.  A checked tuple with a read-only table, so the
    ring make_cpm caches is the same for every caller.
    """
    __slots__ = ()

    def __new__(cls, basis_names, degrees, structure_constants,
                manifold_dimension, label="custom"):
        basis_names = tuple(basis_names)
        degrees = tuple(degrees)
        n = len(basis_names)
        if len(degrees) != n:
            raise RingSchemaError("degrees and basis_names disagree in length")
        for name in basis_names:
            if not isinstance(name, str) or not name:
                raise RingSchemaError("basis names must be nonempty strings")
        if len(set(basis_names)) != n:
            raise RingSchemaError("duplicate basis names")
        for name, deg in zip(basis_names, degrees):
            if not _is_int(deg) or deg < 0:
                raise RingSchemaError("basis degree for %r must be a non-negative integer"
                                      % name)
        if not _is_int(manifold_dimension) or manifold_dimension <= 0 or manifold_dimension % 2:
            raise RingSchemaError("manifold dimension must be a positive even integer")
        table = {}
        for (i, j), terms in structure_constants.items():
            if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < n):
                raise RingSchemaError("product indexed outside the basis: (%r, %r)" % (i, j))
            merged = {}
            for l, coeff in terms:
                if not (_is_int(l) and 0 <= l < n):
                    raise RingSchemaError("product result outside the basis: %r" % (l,))
                try:
                    coeff = parse_rational(coeff)
                except ValueError as exc:
                    raise RingSchemaError("bad coefficient in %s * %s: %s"
                                          % (basis_names[i], basis_names[j], exc))
                merged[l] = merged[l] + coeff if l in merged else coeff
            cleaned = tuple(sorted((l, q) for l, q in merged.items() if q))
            if cleaned:
                table[(i, j)] = cleaned
        unit, top = (degrees.index(deg) if degrees.count(deg) == 1 else None
                     for deg in (0, manifold_dimension))
        return super().__new__(cls, basis_names, degrees, MappingProxyType(table),
                               manifold_dimension, label, unit, top)

    def __hash__(self):  # every field but the table, which is a mapping
        return hash(self[:2] + self[3:])

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return (self.basis_names, self.degrees, dict(self.structure_constants),
                self.manifold_dimension, self.label)

    @property
    def n(self):
        return len(self.basis_names)

    def product(self, i, j):
        """e_i * e_j as a dict result_index -> Fraction (zeros absent)."""
        return dict(self.structure_constants.get((i, j), ()))

    def to_dict(self):
        """JSON-ready form of the presentation (see ring_from_dict)."""
        products = []
        for (i, j) in sorted(self.structure_constants):
            products.append({
                "left": self.basis_names[i],
                "right": self.basis_names[j],
                "result": [
                    {"basis": self.basis_names[l], "coeff": str(q)}
                    for l, q in self.structure_constants[(i, j)]
                ],
            })
        top = self.basis_names[self.top_index] if self.top_index is not None else None
        return {
            "dimension": self.manifold_dimension,
            "basis": [
                {"name": name, "degree": deg}
                for name, deg in zip(self.basis_names, self.degrees)
            ],
            "products": products,
            "top": top,
        }

    def __repr__(self):
        return "RingPresentation(%s, n=%d, d=%d)" % (self.label, self.n, self.manifold_dimension)


class RingDiagnostics(namedtuple("RingDiagnostics", "valid violations")):
    """Outcome of validate_ring: valid flag plus per-rule violations."""
    __slots__ = ()

    def messages(self):
        return tuple(msg for _, msg in self.violations)


@lru_cache(maxsize=None)
def make_cpm(m):
    """The cohomology ring of complex projective space CP^m.

    Truncated polynomial ring on a degree-2 class x with x^{m+1} = 0,
    basis 1, x, ..., x^m, manifold dimension 2m, and the fundamental
    class normalized so that x^m evaluates to 1.
    """
    _check_int(m, "m", 1)
    names = tuple("1" if a == 0 else "x" if a == 1 else "x^%d" % a for a in range(m + 1))
    degrees = tuple(2 * a for a in range(m + 1))
    table = {}
    for a in range(m + 1):
        for b in range(m + 1):
            if a + b <= m:
                table[(a, b)] = ((a + b, 1),)
    return RingPresentation(names, degrees, table, 2 * m, label="CP^%d" % m)


def validate_ring(R):
    """Check the ring axioms; returns diagnostics, never raises.

    Rules checked: a unique degree-0 class acting as a two-sided unit,
    grading of every product, graded commutativity, associativity, a
    unique top-degree class, and nondegeneracy of the Poincare pairing
    into the top class.
    """
    v = []
    n = R.n
    deg = R.degrees

    if R.unit_index is None:
        v.append(("unit", "expected exactly one degree-0 class, found %d" % deg.count(0)))
    if R.top_index is None:
        v.append(("top", "expected exactly one degree-%d class, found %d"
                  % (R.manifold_dimension, deg.count(R.manifold_dimension))))

    for (i, j), terms in sorted(R.structure_constants.items()):
        for l, _ in terms:
            if deg[l] != deg[i] + deg[j]:
                v.append(("grading",
                          "%s * %s hits %s: degree %d + %d != %d"
                          % (R.basis_names[i], R.basis_names[j], R.basis_names[l],
                             deg[i], deg[j], deg[l])))

    u = R.unit_index
    if u is not None:
        for j in range(n):
            expect = {j: Fraction(1)}
            if R.product(u, j) != expect or R.product(j, u) != expect:
                v.append(("unit-law", "unit does not act as identity on %s" % R.basis_names[j]))

    for i in range(n):
        for j in range(n):
            sign = Fraction(-1) if (deg[i] % 2 and deg[j] % 2) else Fraction(1)
            flipped = {l: sign * q for l, q in R.product(j, i).items()}
            if R.product(i, j) != flipped:
                v.append(("commutativity",
                          "%s * %s vs %s * %s violate graded commutativity"
                          % (R.basis_names[i], R.basis_names[j],
                             R.basis_names[j], R.basis_names[i])))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = {}
                for l, q in R.product(i, j).items():
                    for t, s in R.product(l, k).items():
                        left[t] = left.get(t, Fraction(0)) + q * s
                right = {}
                for l, q in R.product(j, k).items():
                    for t, s in R.product(i, l).items():
                        right[t] = right.get(t, Fraction(0)) + q * s
                left = {t: q for t, q in left.items() if q}
                right = {t: q for t, q in right.items() if q}
                if left != right:
                    v.append(("associativity",
                              "(%s %s) %s != %s (%s %s)"
                              % (R.basis_names[i], R.basis_names[j], R.basis_names[k],
                                 R.basis_names[i], R.basis_names[j], R.basis_names[k])))

    t = R.top_index
    if t is not None and not any(rule == "grading" for rule, _ in v):
        # each row scaled by the lcm of its denominators: an int matrix
        # of the same rank over Q
        P = []
        for i in range(n):
            row = [R.product(i, j).get(t, Fraction(0)) for j in range(n)]
            den = lcm(*(q.denominator for q in row))
            P.append([int(q * den) for q in row])
        if rank(SparseExactMatrix.from_dense(P, n)) != n:
            v.append(("pairing", "Poincare pairing into %s is degenerate" % R.basis_names[t]))

    return RingDiagnostics(valid=not v, violations=tuple(v))


def diagonal_comultiplication(R):
    """Coproduct on the evaluation-dual homology basis.

    Returns a dict c -> tuple of ((a, b), Fraction) over ordered pairs,
    sorted by (a, b), zero terms dropped.  Raises InvalidRingError if
    the presentation does not validate (a degenerate pairing would make
    the answer meaningless).
    """
    diag = validate_ring(R)
    if not diag.valid:
        raise InvalidRingError("; ".join(diag.messages()))
    out = {c: [] for c in range(R.n)}
    for pair, prods in sorted(R.structure_constants.items()):
        for c, q in prods:
            out[c].append((pair, q))
    return {c: tuple(terms) for c, terms in out.items()}


def ring_from_dict(doc, label="custom"):
    """Build a presentation from the JSON document layout.

    Expected shape:

        {"dimension": 2,
         "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2}],
         "products": [{"left": "1", "right": "x",
                       "result": [{"basis": "x", "coeff": "1"}]}],
         "top": "x"}

    Products omitted from the list are zero, so unit products must be
    spelled out.  "top" is advisory; when present it must name a class
    of the top degree.

    This layer checks the document's shape (an object with its keys,
    lists that are lists, items that are objects with theirs) and
    resolves every name reference to an index; names must be distinct
    strings for that.  Every value (names, degrees, dimension,
    coefficients) is checked once, by RingPresentation.
    """
    if not isinstance(doc, dict):
        raise RingSchemaError("ring document must be a JSON object")
    for key in ("dimension", "basis", "products"):
        if key not in doc:
            raise RingSchemaError("ring document missing %r" % key)
    basis, products = doc["basis"], doc["products"]
    if not isinstance(basis, list) or not basis:
        raise RingSchemaError("basis must be a nonempty list")
    for item in basis:
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise RingSchemaError("each basis item needs a name and a degree")
    names = [item["name"] for item in basis]
    if not all(isinstance(name, str) for name in names):
        raise RingSchemaError("basis names must be nonempty strings")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise RingSchemaError("duplicate basis names")

    def lookup(ref, where):
        if isinstance(ref, str) and ref in index:
            return index[ref]
        raise RingSchemaError("%s references unknown basis name %r" % (where, ref))

    if not isinstance(products, list):
        raise RingSchemaError("products must be a list")
    table = {}
    for item in products:
        if not isinstance(item, dict):
            raise RingSchemaError("each product must be an object")
        for key in ("left", "right", "result"):
            if key not in item:
                raise RingSchemaError("product missing %r" % key)
        left, right, result = item["left"], item["right"], item["result"]
        pair = (lookup(left, "product"), lookup(right, "product"))
        if pair in table:
            raise RingSchemaError("duplicate product entry for %s * %s" % (left, right))
        if not isinstance(result, list):
            raise RingSchemaError("product result for %s * %s must be a list" % (left, right))
        for term in result:
            if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
                raise RingSchemaError("result terms need a basis and a coeff")
        table[pair] = [(lookup(term["basis"], "result"), term["coeff"]) for term in result]

    R = RingPresentation(names, [item["degree"] for item in basis], table,
                         doc["dimension"], label=label)
    top = doc.get("top")
    if top is not None and R.degrees[lookup(top, "top")] != R.manifold_dimension:
        raise RingSchemaError("declared top class %r does not have degree %d"
                              % (top, R.manifold_dimension))
    return R


def load_ring(path, label=None):
    """Read a presentation from a JSON file.

    Any file that is not a ring document raises RingSchemaError: bytes
    that are not UTF-8, text that is not JSON or is nested past the
    parser's recursion limit, and every fault ring_from_dict finds.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RingSchemaError("not valid UTF-8: %s" % exc)
    except json.JSONDecodeError as exc:
        raise RingSchemaError("not valid JSON: %s" % exc)
    except RecursionError:
        raise RingSchemaError("not valid JSON: nested too deeply")
    return ring_from_dict(doc, label=label if label is not None else str(path))
