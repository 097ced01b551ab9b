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

from collections import namedtuple

from .ring import diagonal_comultiplication


class Generator(namedtuple("Generator", "name degree homology_degree ring_index")):
    """A single V- or W-generator.

    degree is the cohomological degree used for all sign and grading
    bookkeeping; homology_degree and ring_index remember where the
    generator came from.
    """
    __slots__ = ()


class GeneratorSet:
    """V- and W-generators plus the boundary table on W.

    v_gens and w_gens are tuples of Generator sorted by (degree,
    ring_index); boundary_on_w[t] lists ((a, b), coeff) terms meaning
    the W-generator at position t maps to sum coeff * v_a v_b over
    ordered position pairs.  _complexes is the engine's one cache: it
    maps (k, mode) to the complex record homology builds (basis, blocks,
    ranks and Betti table), stored only once every check on it passed.
    """

    def __init__(self, v_gens, w_gens, boundary_on_w, manifold_dimension,
                 label="custom"):
        self.v_gens = tuple(v_gens)
        self.w_gens = tuple(w_gens)
        self.boundary_on_w = tuple(tuple(terms) for terms in boundary_on_w)
        self.manifold_dimension = manifold_dimension
        self.label = label
        self.v_degrees = tuple(g.degree for g in self.v_gens)
        self.w_degrees = tuple(g.degree for g in self.w_gens)
        self.v_parities = tuple(d % 2 for d in self.v_degrees)
        self.w_parities = tuple(d % 2 for d in self.w_degrees)
        if len(self.boundary_on_w) != len(self.w_gens):
            raise ValueError("boundary table length disagrees with W")
        self._complexes = {}

    def boundary(self, t):
        """Boundary of the t-th W-generator: tuple of ((a, b), coeff)."""
        return self.boundary_on_w[t]

    def __repr__(self):
        return "GeneratorSet(%s, |V|=%d, |W|=%d)" % (
            self.label, len(self.v_gens), len(self.w_gens))


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
    """Derive the generator set of a validated ring presentation.

    The result is cached on the presentation, so repeated calls with
    the same object share all downstream complex caches too.
    """
    cached = getattr(R, "_generator_set", None)
    if cached is not None:
        return cached

    diag = diagonal_comultiplication(R)  # validates R
    d = R.manifold_dimension

    v_picks = sorted((d - R.degrees[i], i) for i in range(R.n))
    w_picks = sorted((2 * d - 1 - R.degrees[i], i) for i in range(R.n))
    v_names = _named("v", v_picks)
    w_names = _named("w", w_picks)

    v_gens = tuple(
        Generator(name, deg, d - deg, i)
        for name, (deg, i) in zip(v_names, v_picks)
    )
    w_gens = tuple(
        Generator(name, deg, 2 * d - 1 - deg, i)
        for name, (deg, i) in zip(w_names, w_picks)
    )
    v_pos = {i: t for t, (_, i) in enumerate(v_picks)}

    boundary = []
    for _, i in w_picks:
        terms = [((v_pos[a], v_pos[b]), q) for (a, b), q in diag[i]]
        terms.sort(key=lambda t: t[0])
        boundary.append(tuple(terms))

    G = GeneratorSet(v_gens, w_gens, boundary, d, label=R.label)
    R._generator_set = G
    return G
