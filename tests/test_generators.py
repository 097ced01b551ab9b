import pickle
from fractions import Fraction

import pytest

from configcohom import GeneratorSet, build_generators, homology, make_cpm
from oracles import s4_ring, torus_ring


def test_cpm_degrees():
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        assert list(G.v_degrees) == list(range(0, 2 * m + 1, 2))
        assert list(G.w_degrees) == list(range(2 * m - 1, 4 * m, 2))
        assert len(G.v_names) == len(G.w_names) == m + 1


def test_cpm_names():
    G = build_generators(make_cpm(2))
    assert G.v_names == ("v0", "v2", "v4")
    assert G.w_names == ("w3", "w5", "w7")


def test_boundary_cp2():
    G = build_generators(make_cpm(2))
    by_name = {name: t for t, name in enumerate(G.w_names)}
    v = {name: t for t, name in enumerate(G.v_names)}

    # top W-generator maps to the square of the top V-generator
    assert G.boundary_on_w[by_name["w7"]] == (((v["v4"], v["v4"]), Fraction(1)),)
    # the middle one to both orders of v2 v4
    assert G.boundary_on_w[by_name["w5"]] == (
        ((v["v2"], v["v4"]), Fraction(1)),
        ((v["v4"], v["v2"]), Fraction(1)),
    )
    # the bottom one picks up the square term
    assert G.boundary_on_w[by_name["w3"]] == (
        ((v["v0"], v["v4"]), Fraction(1)),
        ((v["v2"], v["v2"]), Fraction(1)),
        ((v["v4"], v["v0"]), Fraction(1)),
    )


def test_boundary_cp1_doubles():
    G = build_generators(make_cpm(1))
    # d(w1) = v0 v2 + v2 v0 = 2 v0 v2 once multiplicities are merged
    assert G.boundary_on_w[0] == (((0, 1), Fraction(1)), ((1, 0), Fraction(1)))
    assert G.boundary_on_w[1] == (((1, 1), Fraction(1)),)


def test_boundary_degree_shift():
    # every boundary term has degree exactly one above its W-generator
    for R in (make_cpm(3), torus_ring(), s4_ring()):
        G = build_generators(R)
        for t, terms in enumerate(G.boundary_on_w):
            for (a, b), _ in terms:
                assert G.v_degrees[a] + G.v_degrees[b] == G.w_degrees[t] + 1


def test_torus_mixed_parity():
    G = build_generators(torus_ring())
    assert sorted(G.v_degrees) == [0, 1, 1, 2]
    assert sorted(G.w_degrees) == [1, 2, 2, 3]
    # repeated degrees get disambiguated names
    assert G.v_names == ("v0", "v1_1", "v1_2", "v2")


def test_s4_generators():
    G = build_generators(s4_ring())
    assert G.v_degrees == (0, 4)
    assert G.w_degrees == (3, 7)
    # d(w3) = 2 v0 v4 as ordered pairs, d(w7) = v4^2
    assert G.boundary_on_w[0] == (((0, 1), Fraction(1)), ((1, 0), Fraction(1)))
    assert G.boundary_on_w[1] == (((1, 1), Fraction(1)),)


def test_names_and_degrees_must_agree_in_length():
    # names are read off the degrees, so only the boundary table can disagree
    G = build_generators(make_cpm(2))
    with pytest.raises(ValueError, match="boundary table length"):
        GeneratorSet(G.v_degrees, G.boundary_on_w[:2], 4)


def test_build_generators_leaves_the_ring_unchanged():
    # nothing is cached on the ring: each call derives the set afresh
    R = make_cpm.__wrapped__(3)
    before = tuple(R)
    G = build_generators(R)
    assert tuple(R) == before and R == make_cpm(3)
    assert build_generators(R) is not G


def test_generator_set_pickles():
    # pool tasks carry the generator set to their workers
    G = build_generators(make_cpm(2))
    copy = pickle.loads(pickle.dumps(G))
    assert homology._build(copy, 6, "reduced").table == homology._build(G, 6, "reduced").table


def test_generator_set_is_a_checked_tuple():
    # lists come in, tuples are kept, and nothing can be set afterwards
    G = build_generators(make_cpm(2))
    H = GeneratorSet(list(G.v_degrees), [list(t) for t in G.boundary_on_w], 4)
    assert isinstance(H, tuple) and H.label == "custom"
    assert H._fields == ("v_degrees", "boundary_on_w", "manifold_dimension", "label")
    assert H._replace(label=G.label) == G
    assert H.v_parities == (0, 0, 0) and H.w_parities == (1, 1, 1)
    with pytest.raises(AttributeError):
        H.v_degrees = (0, 2, 4)
    # _replace and _make run the same checks: a table that lost a row,
    # or that names a V-generator outside V, is refused at construction
    with pytest.raises(ValueError, match="boundary table length"):
        G._replace(boundary_on_w=G.boundary_on_w[:1])
    with pytest.raises(ValueError, match="outside V"):
        G._replace(boundary_on_w=((((0, 9), 1),),) + G.boundary_on_w[1:])
    with pytest.raises(ValueError, match="outside V"):
        GeneratorSet(G.v_degrees, [[((0, 9), 1)]] + list(G.boundary_on_w[1:]), 4)
    # the W-degrees and parities rest on an even dimension d >= 2
    for d in (5, -4, True):
        with pytest.raises(ValueError, match="manifold dimension must be"):
            G._replace(manifold_dimension=d)
