"""Generator data for the configuration-space complex of a manifold M.

For a closed oriented manifold of even dimension d = 2m the complex is
built from two graded vector spaces, both copies of the homology of M
shifted into cohomological degree:

    V carries one generator of degree 2m - j   per homology class in H_j(M),
    W carries one generator of degree 4m - 1 - j per homology class in H_j(M).

V-generators are cycles; the differential sends a W-generator to the
image of the diagonal comultiplication of its homology class, read as a
quadratic expression in V.  This module only assembles that bookkeeping
into a plain data object; monomials and differentials live in
cecomplex.
"""

from .ring import diagonal_comultiplication


class GeneratorSet:
    """V- and W-generators plus the boundary table on W.

    The generators are parallel tuples: names and degrees of V, then of
    W, each in the same order; degree is the cohomological degree used
    for all sign and grading bookkeeping.  boundary_on_w[t] lists
    ((a, b), coeff) terms meaning the W-generator at position t maps to
    sum coeff * v_a v_b over ordered position pairs.  It holds no
    complex: homology builds one per call and keeps none.
    """

    def __init__(self, v_names, v_degrees, w_names, w_degrees, boundary_on_w,
                 manifold_dimension, label="custom"):
        self.v_names, self.v_degrees = tuple(v_names), tuple(v_degrees)
        self.w_names, self.w_degrees = tuple(w_names), tuple(w_degrees)
        self.boundary_on_w = tuple(tuple(terms) for terms in boundary_on_w)
        self.manifold_dimension = manifold_dimension
        self.label = label
        self.v_parities = tuple(d % 2 for d in self.v_degrees)
        self.w_parities = tuple(d % 2 for d in self.w_degrees)
        if (len(self.v_names) != len(self.v_degrees)
                or len(self.w_names) != len(self.w_degrees)):
            raise ValueError("generator names and degrees disagree in length")
        if len(self.boundary_on_w) != len(self.w_degrees):
            raise ValueError("boundary table length disagrees with W")

    def __repr__(self):
        return "GeneratorSet(%s, |V|=%d, |W|=%d)" % (
            self.label, len(self.v_degrees), len(self.w_degrees))


def _named(prefix, picks):
    """Name generators prefix<degree>, disambiguating repeats by suffix."""
    by_degree = {}
    for deg, _ in picks:
        by_degree[deg] = by_degree.get(deg, 0) + 1
    seen = {}
    names = []
    for deg, _ in picks:
        if by_degree[deg] == 1:
            names.append("%s%d" % (prefix, deg))
        else:
            seen[deg] = seen.get(deg, 0) + 1
            names.append("%s%d_%d" % (prefix, deg, seen[deg]))
    return names


def build_generators(R):
    """Derive the generator set of a ring presentation.

    V and W each list the ring's classes in (generator degree, basis
    index) order.  Each call validates R and stores nothing on it:
    build the set once and pass it on to validate a ring once.
    """
    diag = diagonal_comultiplication(R)  # validates R
    d = R.manifold_dimension

    v_picks = sorted((d - R.degrees[i], i) for i in range(R.n))
    w_picks = sorted((2 * d - 1 - R.degrees[i], i) for i in range(R.n))
    v_pos = {i: t for t, (_, i) in enumerate(v_picks)}

    boundary = []
    for _, i in w_picks:
        terms = [((v_pos[a], v_pos[b]), q) for (a, b), q in diag[i]]
        terms.sort(key=lambda t: t[0])
        boundary.append(tuple(terms))

    return GeneratorSet(_named("v", v_picks), [deg for deg, _ in v_picks],
                        _named("w", w_picks), [deg for deg, _ in w_picks],
                        boundary, d, label=R.label)
