from fractions import Fraction

from configcohom import build_generators, make_cpm
from oracles import s4_ring, torus_ring


def test_cpm_degrees():
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        assert [g.degree for g in G.v_gens] == list(range(0, 2 * m + 1, 2))
        assert [g.degree for g in G.w_gens] == \
            list(range(2 * m - 1, 4 * m, 2))
        assert len(G.v_gens) == len(G.w_gens) == m + 1


def test_cpm_names():
    G = build_generators(make_cpm(2))
    assert [g.name for g in G.v_gens] == ["v0", "v2", "v4"]
    assert [g.name for g in G.w_gens] == ["w3", "w5", "w7"]


def test_boundary_cp2():
    G = build_generators(make_cpm(2))
    by_name = {g.name: t for t, g in enumerate(G.w_gens)}
    v = {g.name: t for t, g in enumerate(G.v_gens)}

    # top W-generator maps to the square of the top V-generator
    assert G.boundary(by_name["w7"]) == (((v["v4"], v["v4"]), Fraction(1)),)
    # the middle one to both orders of v2 v4
    assert G.boundary(by_name["w5"]) == (
        ((v["v2"], v["v4"]), Fraction(1)),
        ((v["v4"], v["v2"]), Fraction(1)),
    )
    # the bottom one picks up the square term
    assert G.boundary(by_name["w3"]) == (
        ((v["v0"], v["v4"]), Fraction(1)),
        ((v["v2"], v["v2"]), Fraction(1)),
        ((v["v4"], v["v0"]), Fraction(1)),
    )


def test_boundary_cp1_doubles():
    G = build_generators(make_cpm(1))
    # d(w1) = v0 v2 + v2 v0 = 2 v0 v2 once multiplicities are merged
    assert G.boundary(0) == (((0, 1), Fraction(1)), ((1, 0), Fraction(1)))
    assert G.boundary(1) == (((1, 1), Fraction(1)),)


def test_boundary_degree_shift():
    # every boundary term has degree exactly one above its W-generator
    for R in (make_cpm(3), torus_ring(), s4_ring()):
        G = build_generators(R)
        for t, g in enumerate(G.w_gens):
            for (a, b), _ in G.boundary(t):
                assert G.v_degrees[a] + G.v_degrees[b] == g.degree + 1


def test_torus_mixed_parity():
    G = build_generators(torus_ring())
    assert sorted(G.v_degrees) == [0, 1, 1, 2]
    assert sorted(G.w_degrees) == [1, 2, 2, 3]
    # repeated degrees get disambiguated names
    names = [g.name for g in G.v_gens]
    assert names == ["v0", "v1_1", "v1_2", "v2"]


def test_s4_generators():
    G = build_generators(s4_ring())
    assert G.v_degrees == (0, 4)
    assert G.w_degrees == (3, 7)
    # d(w3) = 2 v0 v4 as ordered pairs, d(w7) = v4^2
    assert G.boundary(0) == (((0, 1), Fraction(1)), ((1, 0), Fraction(1)))
    assert G.boundary(1) == (((1, 1), Fraction(1)),)


def test_generator_homology_bookkeeping():
    G = build_generators(make_cpm(2))
    for g in G.v_gens:
        assert g.degree + g.homology_degree == 4
    for g in G.w_gens:
        assert g.degree + g.homology_degree == 7


def test_generator_set_cached_on_ring():
    R = make_cpm(3)
    assert build_generators(R) is build_generators(R)
