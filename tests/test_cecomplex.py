import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

from configcohom import (GeneratorSet, RingPresentation, assemble_blocks,
                         build_generators, count_monomials, dump_complex,
                         enumerate_basis, homotopy_check, make_cpm, monomial_label,
                         reduce_complex, ring_from_dict, validate_ring)
from configcohom.cecomplex import (AssemblyError, BigradedBasis, _Differential,
                                   _ideal_test, weight_counts)
from configcohom.homology import complex_data
from oracles import (brute_force_basis, cp2_half_ring, exponents,
                     leibniz_differential, s2xs2_ring, s4_ring, torus_ring)


def mono(G, exps):
    """(k, code) from a name -> exponent dict, e.g. {"v2": 2, "w3": 1}."""
    v = [0] * len(G.v_names)
    w = [0] * len(G.w_names)
    for name, e in exps.items():
        hit = False
        for i, gname in enumerate(G.v_names):
            if gname == name:
                v[i] = e
                hit = True
        for i, gname in enumerate(G.w_names):
            if gname == name:
                w[i] = e
                hit = True
        assert hit, name
    k = sum(v) + 2 * sum(w)
    return k, sum(e * (k + 1) ** j for j, e in enumerate(v + w))


def labels(G, basis):
    """(degree, weight) -> the labels of the slice's codes."""
    return {key: [monomial_label(G, basis.k, code) for code in codes]
            for key, codes in basis.slices.items()}


def diff_labels(G, m):
    """d of the (k, code) m, as label -> Fraction."""
    k, code = m
    d = _Differential(G, k)
    return {monomial_label(G, k, code + delta): Fraction(q, d.scale)
            for delta, q in d.terms(code)}


def test_enumerate_cp1_k2():
    G = build_generators(make_cpm(1))
    basis = enumerate_basis(G, 2)
    assert labels(G, basis) == {
        (0, 0): ["v0^2"], (2, 0): ["v0 v2"], (4, 0): ["v2^2"],
        (1, 1): ["w1"], (3, 1): ["w3"],
    }
    assert basis.total_dimension() == 5


def test_enumerate_edge_cases():
    G = build_generators(make_cpm(2))
    b0 = enumerate_basis(G, 0)
    assert b0.total_dimension() == 1
    assert monomial_label(G, 0, b0.slice(0, 0)[0]) == "1"
    b1 = enumerate_basis(G, 1)
    # k = 1 is just V itself
    assert b1.total_dimension() == 3
    assert all(w == 0 for _, w in b1.slices)
    # one k rule, with one message, for every entry point that takes k
    for bad in (-1, 2.0, True):
        for call in (lambda: enumerate_basis(G, bad), lambda: enumerate_basis(G, bad, "reduced"),
                     lambda: count_monomials(G, bad), lambda: weight_counts(make_cpm(2), bad),
                     lambda: homotopy_check(G, bad)):
            with pytest.raises(ValueError, match=r"^k must be a non-negative integer, got "):
                call()
    # and one mode rule: the cap's count refuses a typo as the build does
    for call in (lambda: enumerate_basis(G, 4, "reduce"),
                 lambda: weight_counts(make_cpm(2), 4, "reduce")):
        with pytest.raises(ValueError, match=r"^mode must be 'full' or 'reduced', got 'reduce'$"):
            call()


def test_count_matches_enumeration_and_closed_form():
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        for k in range(0, 9):
            basis = enumerate_basis(G, k)
            n = basis.total_dimension()
            assert n == count_monomials(G, k)
            # CP^m closed form: per weight, multichoose on V times
            # subsets of the odd W-generators
            expect = sum(
                comb(k - 2 * w + m, m) * comb(m + 1, w)
                for w in range(k // 2 + 1)
            )
            assert n == expect, (m, k)


def reordered(R, seed=None):
    """R with its basis list reversed, or shuffled by seed: the same ring."""
    doc = R.to_dict()
    if seed is None:
        doc["basis"].reverse()
    else:
        random.Random(seed).shuffle(doc["basis"])
    return ring_from_dict(doc, label=R.label)


def test_count_matches_enumeration_in_both_modes():
    # the count reads only the ring's degrees, and gives what
    # enumerate_basis builds, weight by weight, wherever the unit class
    # sits in the presentation (perfbench's torus file is shuffled)
    rings = [make_cpm(1), make_cpm(3), torus_ring(), s4_ring(), s2xs2_ring(),
             cp2_half_ring()]
    rings += [reordered(R) for R in rings]
    rings += [reordered(R, seed) for R in rings[:6] for seed in (1, 2)]
    assert all(R.unit_index != 0 for R in rings[6:])
    for R in rings:
        G = build_generators(R)
        for k in range(0, 8):
            for mode in ("full", "reduced"):
                basis = enumerate_basis(G, k, mode)
                by_weight = [sum(len(c) for (_, w), c in basis.slices.items() if w == u)
                             for u in range(k // 2 + 1)]
                assert list(weight_counts(R, k, mode)) == by_weight, (R.label, k, mode)


def test_count_of_a_ring_without_one_top_is_the_full_count():
    # the cap runs before validation: a ring with no class, or two
    # classes, of degree 0 has no V-generator of degree d to cap, so its
    # reduced count is its full count
    for degrees in ((2, 4), (0, 0, 4), (0, 2, 0, 4)):
        R = RingPresentation(["c%d" % i for i in range(len(degrees))], degrees, {}, 4)
        assert not validate_ring(R).valid
        for k in range(0, 7):
            assert list(weight_counts(R, k, "reduced")) == list(weight_counts(R, k)), \
                (degrees, k)


def test_weights_partition_by_parity():
    G = build_generators(make_cpm(2))
    basis = enumerate_basis(G, 6)
    for (i, w), codes in basis.slices.items():
        for code in codes:
            v, ws = exponents(G, 6, code)
            assert sum(ws) == w
            assert sum(e * deg for e, deg in zip(v + ws, G.v_degrees + G.w_degrees)) == i
            assert sum(v) == 6 - 2 * w


def test_differential_of_v_monomial_is_zero():
    G = build_generators(make_cpm(2))
    assert diff_labels(G, mono(G, {"v2": 3})) == {}
    assert diff_labels(G, mono(G, {"v0": 1, "v4": 1})) == {}


def test_differential_single_w():
    G = build_generators(make_cpm(2))
    assert diff_labels(G, mono(G, {"w7": 1})) == {"v4^2": 1}
    assert diff_labels(G, mono(G, {"w5": 1})) == {"v2 v4": 2}
    assert diff_labels(G, mono(G, {"w3": 1})) == {"v0 v4": 2, "v2^2": 1}
    # multiplying by a closed prefix just carries it along
    assert diff_labels(G, mono(G, {"v2": 2, "w5": 1})) == {"v2^3 v4": 2}


def test_differential_leibniz_pair_of_ws():
    # d(w5 w7) = (d w5) w7 - w5 (d w7): the sign comes from sliding d
    # past the odd factor w5.
    G = build_generators(make_cpm(2))
    got = diff_labels(G, mono(G, {"w5": 1, "w7": 1}))
    assert got == {"v2 v4 w7": 2, "v4^2 w5": -1}


def test_differential_squares_to_zero_pointwise():
    for R in (make_cpm(1), make_cpm(2), torus_ring(), s4_ring()):
        G = build_generators(R)
        d = _Differential(G, 5)
        for codes in enumerate_basis(G, 5).slices.values():
            for code in codes:
                acc = {}
                for delta, q in d.terms(code):
                    for delta2, q2 in d.terms(code + delta):
                        out = code + delta + delta2
                        acc[out] = acc.get(out, 0) + q * q2
                assert all(v == 0 for v in acc.values()), monomial_label(G, 5, code)


def test_recomputed_two_w_differential_cp3():
    # The slice differential of v4^2 w7 w9 on CP^3: the term from
    # differentiating the second W-factor passes the prefix over w7
    # and picks up a minus sign.
    G = build_generators(make_cpm(3))
    got = diff_labels(G, mono(G, {"v4": 2, "w7": 1, "w9": 1}))
    assert got == {
        "v2 v4^2 v6 w9": 2,
        "v4^4 w9": 1,
        "v4^3 v6 w7": -2,
    }


def test_assemble_cp2_k2():
    G = build_generators(make_cpm(2))
    basis = enumerate_basis(G, 2)
    blocks = {b.source: b for b in assemble_blocks(G, basis)}
    assert set(blocks) == {(3, 1), (5, 1), (7, 1)}
    b = blocks[(3, 1)]
    assert b.target == (4, 0)
    # target slice in canonical order: v2^2 before v0 v4
    assert labels(G, basis)[(4, 0)] == ["v2^2", "v0 v4"]
    assert b.matrix.to_dense() == [[Fraction(1)], [Fraction(2)]]
    assert blocks[(7, 1)].matrix.to_dense() == [[Fraction(1)]]


def test_blocks_shift_degree_and_weight():
    G = build_generators(torus_ring())
    basis = enumerate_basis(G, 4)
    for b in assemble_blocks(G, basis):
        (i, w) = b.source
        assert b.target == (i + 1, w - 1)
        assert b.matrix.n_cols == len(basis.slice(i, w))
        assert b.matrix.n_rows == len(basis.slice(i + 1, w - 1))


def test_reduce_cp1_k2_and_k3():
    G = build_generators(make_cpm(1))
    red2 = reduce_complex(G, enumerate_basis(G, 2))
    assert sorted(sum(labels(G, red2).values(), [])) == ["v0 v2", "v0^2", "w1"]
    red3 = reduce_complex(G, enumerate_basis(G, 3))
    assert sorted(sum(labels(G, red3).values(), [])) == \
        ["v0 w1", "v0^2 v2", "v0^3", "v2 w1"]
    assert red3.mode == "reduced"


def test_reduced_top_degree():
    # for k >= 4 the reduced complex tops out at (2m-2)k + 3, witnessed
    # by v_{2m-2}^{k-3} v_{2m} w_{4m-3}; the full complex goes to 2mk
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        for k in (4, 5, 6, 7):
            full = enumerate_basis(G, k)
            red = reduce_complex(G, full)
            assert full.top_degree() == 2 * m * k
            assert red.top_degree() == (2 * m - 2) * k + 3
            top_mons = red.slice((2 * m - 2) * k + 3, 1)
            assert len(top_mons) == 1
            expect = {"v%d" % (2 * m - 2): k - 3, "v%d" % (2 * m): 1,
                      "w%d" % (4 * m - 3): 1}
            expect = {n: e for n, e in expect.items() if e}
            assert (k, top_mons[0]) == mono(G, expect)


def _nonzero_dims(R, k, mode):
    """Non-zero Betti numbers read off complex_data's basis and ranks."""
    basis, _, ranks = complex_data(R, k, mode)
    dims = {}
    for (i, w), mons in basis.slices.items():
        dims[i] = (dims.get(i, 0) + len(mons)
                   - ranks.get((i, w), 0) - ranks.get((i - 1, w + 1), 0))
    return {i: n for i, n in dims.items() if n}


REDUCTION_RINGS = {
    "T^2": (torus_ring, 8),
    "S^4": (s4_ring, 8),
    "S^2xS^2": (s2xs2_ring, 6),
    "CP^2 x^2=y/2": (cp2_half_ring, 7),
}


@pytest.mark.parametrize("name", sorted(REDUCTION_RINGS))
def test_reduction_by_degree(name):
    # v_top and w_top are located by degree (d and 2d - 1), so the
    # reduction is exact on rings other than the built-in CP^m: the
    # homotopy identity holds and the quotient has the same cohomology,
    # compared degree by degree (the zero padding of the tables differs)
    make_ring, k_max = REDUCTION_RINGS[name]
    R = make_ring()
    G = build_generators(R)
    for k in range(2, k_max + 1):
        ok, witness = homotopy_check(G, k)
        assert ok, (name, k, witness)
        assert _nonzero_dims(R, k, "reduced") == _nonzero_dims(R, k, "full"), (name, k)


def test_corrupted_top_boundary_raises():
    # the homotopy rests on d(w_top) = v_top^2: a boundary table that
    # breaks it must stop the reduction and the homotopy check
    G = build_generators(make_cpm(2))
    v_top, w_top = G.v_degrees.index(4), G.w_degrees.index(7)
    for wrong in ((((v_top, v_top), 2),),
                  (((0, v_top), 1), ((v_top, v_top), 1))):
        table = list(G.boundary_on_w)
        table[w_top] = wrong
        bad = GeneratorSet(G.v_degrees, table, G.manifold_dimension)
        with pytest.raises(AssemblyError, match="d\\(w7\\) is not v4\\^2"):
            reduce_complex(bad, enumerate_basis(bad, 3))
        with pytest.raises(AssemblyError, match="d\\(w7\\) is not v4\\^2"):
            homotopy_check(bad, 3)
    # a set with no V-generator of degree d has no top to reduce by
    lost = G._replace(v_degrees=(0, 2, 6))
    with pytest.raises(AssemblyError, match=r"^CP\^2 has no single V-generator of degree 4 "):
        enumerate_basis(lost, 3, "reduced")


def test_ideal_membership():
    G = build_generators(make_cpm(2))
    for exps, inside in (({"v4": 2}, True), ({"v0": 1, "w7": 1}, True),
                         ({"v4": 1, "w5": 1}, False)):
        k, code = mono(G, exps)
        assert _ideal_test(G, _Differential(G, k))[0](code) == inside, exps


def test_ideal_is_closed_under_differential():
    for m in (1, 2):
        G = build_generators(make_cpm(m))
        for k in (2, 3, 4, 5, 6):
            d = _Differential(G, k)
            in_ideal = _ideal_test(G, d)[0]
            for codes in enumerate_basis(G, k).slices.values():
                for code in filter(in_ideal, codes):
                    for delta, _ in d.terms(code):
                        assert in_ideal(code + delta), (
                            monomial_label(G, k, code),
                            monomial_label(G, k, code + delta))


def test_homotopy_identity_small():
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        for k in (2, 3, 4, 5):
            ok, witness = homotopy_check(G, k)
            assert ok, (m, k, witness)


def test_homotopy_on_the_square_itself():
    # d(v4^2) = 0, so (dh + hd)(v4^2) = d(w7) = v4^2
    G = build_generators(make_cpm(2))
    sq = monomial_label(G, *mono(G, {"v4": 2}))
    assert diff_labels(G, mono(G, {"w7": 1})) == {sq: 1}


def test_dump_complex_shape():
    G = build_generators(make_cpm(1))
    basis = enumerate_basis(G, 2)
    blocks = assemble_blocks(G, basis)
    doc = dump_complex(G, basis, blocks)
    assert doc["k"] == 2 and doc["mode"] == "full"
    slices = {(s["degree"], s["weight"]): s["monomials"] for s in doc["slices"]}
    assert slices[(1, 1)] == ["w1"]
    blk = {tuple(b["source"]): b for b in doc["blocks"]}
    assert blk[(1, 1)]["entries"] == [[0, 0, "2"]]


ORACLE_CASES = {
    "T^2": (torus_ring, range(0, 9), ("full", "reduced")),
    "S^4": (s4_ring, range(0, 8), ("full", "reduced")),
    "S^2xS^2": (s2xs2_ring, range(0, 7), ("full", "reduced")),
    "CP^3": (lambda: make_cpm(3), range(0, 7), ("full", "reduced")),
    "CP^2 x^2=y/2": (cp2_half_ring, range(0, 8), ("full", "reduced")),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_blocks_match_word_oracle(name):
    # every assembled entry, divided by the ring's scale D, equals the
    # word-based Leibniz differential; in reduced mode the oracle terms
    # missing from the block are exactly those in the reduction ideal
    make_ring, ks, modes = ORACLE_CASES[name]
    G = build_generators(make_ring())
    d = G.manifold_dimension
    v_top = G.v_degrees.index(d)
    w_top = G.w_degrees.index(2 * d - 1)
    for mode in modes:
        for k in ks:
            basis = enumerate_basis(G, k)
            if mode == "reduced":
                basis = reduce_complex(G, basis)
            blocks = {b.source: b for b in assemble_blocks(G, basis)}
            for (i, w), source in basis.slices.items():
                if w == 0:
                    continue
                b = blocks[(i, w)]
                assert all(type(q) is int for _, _, q in b.matrix.entries)
                target = basis.slice(i + 1, w - 1)
                got = [{} for _ in source]
                for r, c, q in b.matrix.entries:
                    got[c][exponents(G, k, target[r])] = Fraction(q, b.scale)
                for col, code in enumerate(source):
                    want = leibniz_differential(G, *exponents(G, k, code))
                    if mode == "reduced":  # drop the ideal (v_top^2, w_top)
                        want = {(v, ws): q for (v, ws), q in want.items()
                                if v[v_top] <= 1 and ws[w_top] == 0}
                    assert got[col] == want, (name, k, mode, monomial_label(G, k, code))


TARGET_RINGS = {
    "T^2": torus_ring,
    "S^4": s4_ring,
    "S^2xS^2": s2xs2_ring,
    "CP^2 x^2=y/2": cp2_half_ring,
    "CP^3": lambda: make_cpm(3),
}


@pytest.mark.parametrize("name", sorted(TARGET_RINGS))
def test_differential_one_term_per_target(name):
    # assembly writes apply's terms straight into columns, and the
    # matrix constructor does not look for repeated rows: every term of
    # d(mon) must have its own target and a non-zero value
    G = build_generators(TARGET_RINGS[name]())
    par = G.v_parities
    for k in range(7):
        d = _Differential(G, k)
        if k >= 2:  # digits of v_a v_b are 1, 1 or 2: base k + 1 > 2
            for t, table in enumerate(d.tables):
                pairs = []
                for a, b, q, delta in table:
                    code = delta + d.powers[d.n_v + t]
                    digits = [code // p % d.radix for p in d.powers[:d.n_v]]
                    assert [j for j, e in enumerate(digits) for _ in range(e)] == [a, b]
                    assert a <= b and q
                    assert not (a == b and par[a])  # v_a^2 = 0 for odd v_a
                    pairs.append((a, b))
                assert len(set(pairs)) == len(pairs), (name, t)
        for codes in enumerate_basis(G, k).slices.values():
            for code in codes:
                terms = [(code + delta, q) for delta, q in d.terms(code)]
                targets = [out for out, _ in terms]
                assert len(set(targets)) == len(targets), (name, k, code)
                assert all(type(q) is int and q for _, q in terms)
                got = {exponents(G, k, out): Fraction(q, d.scale) for out, q in terms}
                assert got == leibniz_differential(G, *exponents(G, k, code)), \
                    (name, k, monomial_label(G, k, code))


def test_stray_terms_raise_in_both_modes():
    # a target slice missing a monomial that d hits is an assembly bug;
    # in reduced mode only terms in the reduction ideal may be missing
    G = build_generators(make_cpm(2))
    full = enumerate_basis(G, 3)
    for basis in (full, reduce_complex(G, full)):
        assemble_blocks(G, basis)
        slices = dict(basis.slices)
        assert mono(G, {"v0": 1, "w3": 1})[1] in slices[(3, 1)]
        # d(v0 w3) = 2 v0^2 v4 + v0 v2^2: drop v0 v2^2 from its slice
        _, hit = mono(G, {"v0": 1, "v2": 2})
        slices[(4, 0)] = tuple(c for c in slices[(4, 0)] if c != hit)
        broken = BigradedBasis(k=basis.k, mode=basis.mode, slices=slices)
        with pytest.raises(AssemblyError, match="v0 v2\\^2 outside slice"):
            assemble_blocks(G, broken)


def test_block_scale_clears_denominators():
    G = build_generators(cp2_half_ring())
    blocks = assemble_blocks(G, enumerate_basis(G, 3))
    assert {b.scale for b in blocks} == {2}
    assert any(q % 2 for b in blocks for _, _, q in b.matrix.entries)
    G2 = build_generators(make_cpm(2))
    assert {b.scale for b in assemble_blocks(G2, enumerate_basis(G2, 3))} == {1}
    doc = dump_complex(G, enumerate_basis(G, 2), assemble_blocks(G, enumerate_basis(G, 2)))
    # d(w3) = 2 v0 v4 + v2^2 / 2 on the rescaled ring
    blk = {tuple(b["source"]): b for b in doc["blocks"]}
    assert sorted(e[2] for e in blk[(3, 1)]["entries"]) == ["1/2", "2"]
    assert diff_labels(G, mono(G, {"w3": 1})) == {"v0 v4": 2, "v2^2": Fraction(1, 2)}


GUARD_RINGS = {
    "CP^1": lambda: make_cpm(1),
    "CP^2": lambda: make_cpm(2),
    "CP^3": lambda: make_cpm(3),
    "T^2": torus_ring,
    "S^4": s4_ring,
    "CP^2 x^2=y/2": cp2_half_ring,
}


@pytest.mark.parametrize("name", sorted(GUARD_RINGS))
def test_enumeration_order_and_codes(name):
    # slices come out in canonical order, equal to a brute-force search;
    # every code is the base-(k+1) code of its exponents, and
    # monomial_label names them
    G = build_generators(GUARD_RINGS[name]())
    gens = G.v_names + G.w_names
    for k in range(7):
        basis = enumerate_basis(G, k)
        oracle = brute_force_basis(G, k)
        assert sorted(basis.slices) == sorted(oracle), (name, k)
        for key, codes in basis.slices.items():
            exps = [exponents(G, k, code) for code in codes]
            assert exps == oracle[key], (name, k, key)
            for code, (v, w) in zip(codes, exps):
                assert code == sum(e * (k + 1) ** j for j, e in enumerate(v + w))
                name_of = " ".join(g if e == 1 else "%s^%d" % (g, e)
                                   for g, e in zip(gens, v + w) if e)
                assert monomial_label(G, k, code) == (name_of or "1"), (name, k, code)
    assert monomial_label(G, 0, 0) == "1"


REDUCED_ORACLE_RINGS = dict(GUARD_RINGS, **{"CP^4": lambda: make_cpm(4),
                                             "S^2xS^2": s2xs2_ring})


@pytest.mark.parametrize("name", sorted(REDUCED_ORACLE_RINGS))
def test_reduced_enumeration_is_filtered_brute_force(name):
    # the reduced slices are the brute-force basis with v_top-exponent
    # at most 1 and no w_top (the top generators found by degree), in
    # the same order, read off the base-(k+1) digits of each code
    G = build_generators(REDUCED_ORACLE_RINGS[name]())
    d = G.manifold_dimension
    v_top = G.v_degrees.index(d)
    w_top = G.w_degrees.index(2 * d - 1)
    n_v, n = len(G.v_degrees), len(G.v_degrees) + len(G.w_degrees)
    for k in range(6):
        oracle = {}
        for key, mons in brute_force_basis(G, k).items():
            kept = [(v, w) for v, w in mons if v[v_top] <= 1 and w[w_top] == 0]
            if kept:
                oracle[key] = kept
        basis = enumerate_basis(G, k, "reduced")
        assert basis.mode == "reduced"
        got = {}
        for key, codes in basis.slices.items():
            digits = [tuple(c // (k + 1) ** j % (k + 1) for j in range(n)) for c in codes]
            got[key] = [(e[:n_v], e[n_v:]) for e in digits]
        assert got == oracle, (name, k)
        assert reduce_complex(G, enumerate_basis(G, k)) == basis
        assert reduce_complex(G, basis) == basis


def test_homotopy_check_reports_failure(monkeypatch):
    # with every coefficient of d doubled, (dh + hd) is twice the
    # identity: the check fails and names the first ideal monomial
    real = _Differential.terms
    monkeypatch.setattr(_Differential, "terms", lambda self, code: tuple(
        (delta, 2 * q) for delta, q in real(self, code)))
    G = build_generators(make_cpm(2))
    assert homotopy_check(G, 3) == (False, "v4^3")
    monkeypatch.undo()
    assert homotopy_check(G, 3) == (True, None)


# sha256 of json.dumps(dump_complex(...), sort_keys=True): engine
# changes must keep these artifacts byte-identical
FROZEN_DIGESTS = (
    ("CP^2", 6, "full",
     "c9bf4b8fcf57bf192760d1f607d57597264d36b6b39960125d7c5a8cdd6abc32"),
    ("CP^2", 6, "reduced",
     "01971c975b076dc7dc18d14bd2cffe414c3a4fc0e1e38b7da593b4756db6a11a"),
    ("T^2", 6, "full",
     "55ad99c2e58858b094fc3357798fffcb4a18519094286fa9896a1add0a360e56"),
    ("S^4", 5, "full",
     "fc9b366d5c4f902e320b85734716c5c71854a2a26a01b37e060b370c26a47f1f"),
    ("CP^2 x^2=y/2", 5, "full",
     "ddeaaf0e435b4a77579d065f17d78286edbd088b381b0c74671a46d92f51be92"),
)


def test_frozen_artifact_digests():
    # fresh rings, one object per name, so CP^2 reduced is built after
    # CP^2 full, the way betti and verify do it
    rings = {"CP^2": make_cpm.__wrapped__(2), "T^2": torus_ring(),
             "S^4": s4_ring(), "CP^2 x^2=y/2": cp2_half_ring()}
    for name, k, mode, want in FROZEN_DIGESTS:
        R = rings[name]
        basis, blocks, _ = complex_data(R, k, mode)
        doc = dump_complex(build_generators(R), basis, list(blocks.values()))
        got = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert got == want, (name, k, mode)
