from math import factorial
from pathlib import Path

import pytest

from configcohom import (GeneratorSet, SparseExactMatrix, betti, build_generators,
                         cecomplex, consistency_report, enumerate_basis,
                         hilbert_ray, homology, load_ring, make_cpm, rank)
from configcohom.cecomplex import AssemblyError
from configcohom.homology import complex_data
from configcohom.linalg import pivots
from oracles import (CP1_K2_BETTI, CP1_K2_DIMS, CP1_K2_MAPS, CP1_K3_BETTI,
                     CP1_K3_DIMS, CP1_K3_MAPS, cp2_half_ring, dense_betti,
                     dense_rank, s2xs2_ring, s4_ring, torus_ring)


def nonzero(table):
    return {i: d for i, d in table.dims.items() if d}


def test_cp1_small_k_against_hand_built_complexes():
    assert dense_betti(CP1_K2_DIMS, CP1_K2_MAPS) == CP1_K2_BETTI
    assert dense_betti(CP1_K3_DIMS, CP1_K3_MAPS) == CP1_K3_BETTI
    R = make_cpm(1)
    assert betti(R, 2).dims == CP1_K2_BETTI
    assert betti(R, 3).dims == CP1_K3_BETTI


def test_k0_and_k1():
    R = make_cpm(2)
    t0 = betti(R, 0)
    assert t0.dims == {0: 1}
    # one point: the manifold itself
    t1 = betti(R, 1)
    assert nonzero(t1) == {0: 1, 2: 1, 4: 1}
    T = torus_ring()
    assert nonzero(betti(T, 1)) == {0: 1, 1: 2, 2: 1}


def test_connected_in_degree_zero():
    for R in (make_cpm(1), make_cpm(2), torus_ring(), s4_ring()):
        for k in (2, 3, 4):
            assert betti(R, k).dim(0) == 1


def chain_euler(R, k, mode="full"):
    basis, _, _ = complex_data(R, k, mode)
    return sum(len(mons) if i % 2 == 0 else -len(mons)
               for (i, _), mons in basis.slices.items())


def test_euler_characteristic_matches_chain_level():
    for R in (make_cpm(1), make_cpm(2), torus_ring()):
        for k in (2, 3, 4, 5):
            table = betti(R, k)
            assert table.euler == chain_euler(R, k), (R.label, k)


def test_full_vs_reduced_consistency():
    for m in (1, 2):
        R = make_cpm(m)
        for k in range(2, 9):
            rep = consistency_report(R, k)
            assert rep.ok, (m, k, rep.first_mismatch)
            assert chain_euler(R, k, "full") == chain_euler(R, k, "reduced")
            assert rep.full.euler == chain_euler(R, k, "full")


def test_cp1_reduced_k3():
    # the reduced complex for three points on CP^1 has 4 monomials but
    # the same two cohomology classes
    R = make_cpm(1)
    basis, _, _ = complex_data(R, 3, "reduced")
    assert basis.total_dimension() == 4
    assert nonzero(betti(R, 3, "reduced")) == {0: 1, 3: 1}


def test_cp1_stability_window():
    R = make_cpm(1)
    tables = {k: betti(R, k) for k in range(2, 13)}
    for i in range(0, 5):
        vals = {tables[k].dim(i) for k in range(max(2, i + 1), 13)}
        assert len(vals) == 1, (i, vals)
    assert tables[12].dim(0) == 1
    assert tables[12].dim(3) == 1
    assert tables[12].dim(1) == tables[12].dim(2) == tables[12].dim(4) == 0


def test_betti_argument_checks():
    with pytest.raises(ValueError):
        betti(make_cpm(2), 3, "sideways")
    with pytest.raises(ValueError):
        betti(make_cpm(2), -1)


SMALL_K_RINGS = {
    "CP^2": lambda: make_cpm(2),
    "CP^3": lambda: make_cpm(3),
    "T^2": torus_ring,
    "S^4": s4_ring,
    "S^2xS^2": s2xs2_ring,
    "CP^2 x^2=y/2": cp2_half_ring,
}


@pytest.mark.parametrize("name", sorted(SMALL_K_RINGS))
def test_reduced_equals_full_below_k2(name):
    # the reduction ideal (v_top^2, w_top) needs two points, so at k = 0
    # and 1 the reduced complex is the full one, on every ring
    R = SMALL_K_RINGS[name]()
    for k in (0, 1):
        full, reduced = betti(R, k, "full"), betti(R, k, "reduced")
        assert (reduced.dims, reduced.euler) == (full.dims, full.euler), (name, k)


def test_table_shape():
    t = betti(make_cpm(2), 3)
    assert set(t.dims) == set(range(0, t.top_degree() + 1))
    assert all(d >= 0 for d in t.dims.values())
    doc = t.to_json_dict()
    assert doc["dims"] == [[i, t.dims[i]] for i in sorted(t.dims)]
    assert doc["ring"] == "CP^2" and doc["k"] == 3


def test_s4_configuration_spaces():
    # two points on S^d retract to RP^d, rationally a point; from three
    # points on, C_k(S^d) for even d has exactly one more class, in
    # degree 2d - 1 (Randal-Williams): S^2 is CP^1
    for R, d, k_max in ((s4_ring(), 4, 8), (make_cpm(1), 2, 11)):
        assert nonzero(betti(R, 2)) == {0: 1}
        for k in range(3, k_max + 1):
            assert nonzero(betti(R, k)) == {0: 1, 2 * d - 1: 1}, (R.label, k)


def test_sphere_reduced_tables_far_out():
    # the same theorem where no full table reaches: the reduced complex of
    # S^2 or S^4 stops at weight 1 and holds four monomials for every k
    for R, d in ((make_cpm(1), 2), (s4_ring(), 4)):
        for k in (3, 10, 1000):
            assert complex_data(R, k, "reduced")[0].total_dimension() == 4, (R.label, k)
            assert nonzero(betti(R, k, "reduced")) == {0: 1, 2 * d - 1: 1}, (R.label, k)


STABILITY_CASES = [
    ("CP^2", lambda: make_cpm(2), 8),
    ("CP^3", lambda: make_cpm(3), 7),
    ("T^2", torus_ring, 9),
    ("S^4", s4_ring, 8),
    ("S^2xS^2", s2xs2_ring, 6),
]


@pytest.mark.parametrize("make_ring, k_max", [case[1:] for case in STABILITY_CASES],
                         ids=[case[0] for case in STABILITY_CASES])
def test_rational_homological_stability(make_ring, k_max):
    # Church: b_i(C_k(M)) = b_i(C_{k+1}(M)) for i < k, a theorem that
    # shares nothing with the engine
    R = make_ring()
    tables = [betti(R, k) for k in range(k_max + 1)]
    for k in range(k_max):
        for i in range(k):
            assert tables[k].dim(i) == tables[k + 1].dim(i), (R.label, i, k)


def test_rescaled_presentation_has_the_same_tables():
    # x * x = y / 2 only rescales the top class, so C_k(CP^2) is unchanged
    R = cp2_half_ring()
    for k in range(0, 8):
        assert betti(R, k).dims == betti(make_cpm(2), k).dims, k


def _binomial(x, k):
    """x (x - 1) ... (x - k + 1) / k! for any integer x."""
    falling = 1
    for j in range(k):
        falling *= x - j
    return falling // factorial(k)


EULER_CASES = [
    ("CP^1", lambda: make_cpm(1), 11),
    ("CP^2", lambda: make_cpm(2), 8),
    ("CP^3", lambda: make_cpm(3), 6),
    ("T^2", torus_ring, 10),
    ("S^4", s4_ring, 8),
    ("S^2xS^2", s2xs2_ring, 6),
    ("CP^2 x^2=y/2", cp2_half_ring, 6),
]


@pytest.mark.parametrize("make_ring, k_max", [case[1:] for case in EULER_CASES],
                         ids=[case[0] for case in EULER_CASES])
def test_euler_is_binomial_of_manifold_euler(make_ring, k_max):
    # chi(C_k(M)) = C(chi(M), k), with chi(M) read off the ring's degrees
    # alone: an oracle that shares no code with the engine
    R = make_ring()
    chi = sum(-1 if deg % 2 else 1 for deg in R.degrees)
    for k in range(k_max + 1):
        assert betti(R, k).euler == _binomial(chi, k), (R.label, k)


def _reduced_data(R, k):
    """Slices (in order), blocks and ranks of complex_data in reduced mode."""
    basis, blocks, ranks = complex_data(R, k, "reduced")
    slices = list(basis.slices.items())
    blocks = {src: (b.target, b.matrix.n_rows, b.matrix.n_cols, b.matrix.entries, b.scale)
              for src, b in blocks.items()}
    return slices, blocks, ranks


@pytest.mark.parametrize("m", (2, 3))
def test_reduced_record_independent_of_full(m, monkeypatch):
    # no record reads another: the reduced record is the same whether or
    # not a full record was built on the ring first, and building it
    # never enumerates a full basis
    real = enumerate_basis
    modes = []

    def spy(G, k, mode="full", least=0):
        modes.append(mode)
        return real(G, k, mode, least)

    monkeypatch.setattr(homology, "enumerate_basis", spy)
    monkeypatch.setattr(cecomplex, "enumerate_basis", spy)
    for k in range(2, 8):
        after_full = make_cpm.__wrapped__(m)
        betti(after_full, k, "full")
        fresh = make_cpm.__wrapped__(m)
        modes.clear()
        assert _reduced_data(after_full, k) == _reduced_data(fresh, k), k
        assert modes == ["reduced", "reduced"], k


def test_dd_check_runs_before_the_rank_that_trusts_it(monkeypatch):
    # chain pruning trusts d o d = 0 on each pair, and each pair is
    # checked on the pivot columns of its first block right after that
    # block's rank: a pair that breaks it must stop complex_data before
    # the block out of its target is ranked, and no elimination may take
    # a skip set from a pair not yet checked
    real = homology.assemble_blocks

    def one_sign_flipped(G, basis):
        blocks = real(G, basis)
        by_source = {b.source: b for b in blocks}
        for i, b in enumerate(blocks):
            nxt = by_source.get(b.target)
            if nxt is None:
                continue
            used = {r for r, (rows, _) in enumerate(nxt.matrix.columns()) if rows}
            for r, c, q in b.matrix.entries:
                if r in used:  # flipping (r, c) changes column c of nxt @ b
                    dense = b.matrix.to_dense()
                    dense[r][c] = -q
                    blocks[i] = b._replace(matrix=SparseExactMatrix.from_dense(
                        dense, b.matrix.n_cols))
                    assert not (nxt.matrix @ blocks[i].matrix).is_zero()
                    return blocks
        raise AssertionError("no consecutive blocks to corrupt")

    events = []

    def spy_pivots(matrix, skip=()):
        events.append(("rank", matrix, bool(skip)))
        return pivots(matrix, skip)

    kills = SparseExactMatrix.kills

    def spy_kills(nxt, matrix, cols):
        passed = kills(nxt, matrix, cols)
        events.append(("check", nxt, passed))
        return passed

    monkeypatch.setattr(homology, "assemble_blocks", one_sign_flipped)
    monkeypatch.setattr(homology, "pivots", spy_pivots)
    monkeypatch.setattr(SparseExactMatrix, "kills", spy_kills)
    for mode in ("full", "reduced"):
        R = make_cpm.__wrapped__(2)
        events.clear()
        with pytest.raises(AssemblyError, match="d o d"):
            complex_data(R, 5, mode)
        *before, (kind, nxt, passed) = events
        assert kind == "check" and not passed
        assert not any(e[0] == "rank" and e[1] is nxt for e in before)
        for i, (kind, matrix, pruned) in enumerate(before):
            if kind == "rank" and pruned:
                # the pair into this block was checked, and passed, first
                assert ("check", matrix, True) in before[:i]


# the rings and modes on which every consecutive pair is checked, and
# every single-entry corruption of a block is caught
CHECK_CASES = [
    ("CP^2-full", lambda: make_cpm.__wrapped__(2), 5, "full"),
    ("CP^2-reduced", lambda: make_cpm.__wrapped__(2), 5, "reduced"),
    ("T^2", torus_ring, 6, "full"),
    ("S^2xS^2", s2xs2_ring, 4, "full"),
]


@pytest.mark.parametrize("make_ring, k, mode", [case[1:] for case in CHECK_CASES],
                         ids=[case[0] for case in CHECK_CASES])
def test_every_consecutive_pair_checked_once(make_ring, k, mode, monkeypatch):
    checked = []
    kills = SparseExactMatrix.kills

    def spy(nxt, matrix, cols):
        checked.append((id(nxt), id(matrix)))
        return kills(nxt, matrix, cols)

    monkeypatch.setattr(SparseExactMatrix, "kills", spy)
    _, blocks, _ = complex_data(make_ring(), k, mode)
    pairs = [(id(blocks[b.target].matrix), id(b.matrix))
             for b in blocks.values() if b.target in blocks]
    assert pairs and sorted(checked) == sorted(pairs)


@pytest.mark.parametrize("make_ring, k, mode", [case[1:] for case in CHECK_CASES],
                         ids=[case[0] for case in CHECK_CASES])
def test_every_entry_that_breaks_dd_is_caught(make_ring, k, mode, monkeypatch):
    # add 1 to one entry of one block, stored or not, in every way: the
    # build must raise exactly when the full product of a consecutive
    # pair through that block is no longer zero.  Columns outside the
    # pivot columns of the true block are caught only because the
    # pivot columns span the rest.
    G = build_generators(make_ring())
    blocks = homology.assemble_blocks(G, enumerate_basis(G, k, mode))
    by_source = {b.source: b for b in blocks}
    into = {b.target: b for b in blocks}
    outside = {}  # block source -> its columns that are not pivot columns
    skips = {}
    for b in sorted(blocks, key=lambda b: b.source):
        rows, cols = pivots(b.matrix, skips.pop(b.source, ()))
        skips[b.target] = rows
        outside[b.source] = set(range(b.matrix.n_cols)) - cols
    caught = caught_outside = 0
    for i, b in enumerate(blocks):
        dense = b.matrix.to_dense()
        for r in range(b.matrix.n_rows):
            for c in range(b.matrix.n_cols):
                dense[r][c] += 1
                bad = SparseExactMatrix.from_dense(dense, b.matrix.n_cols)
                dense[r][c] -= 1
                products = []
                if b.source in into:
                    products.append(bad @ into[b.source].matrix)
                if b.target in by_source:
                    products.append(by_source[b.target].matrix @ bad)
                broken = any(not p.is_zero() for p in products)
                swapped = blocks[:i] + [b._replace(matrix=bad)] + blocks[i + 1:]
                monkeypatch.setattr(homology, "assemble_blocks", lambda G, basis: swapped)
                if broken:
                    with pytest.raises(AssemblyError, match="d o d"):
                        homology._build(G, k, mode)
                    caught += 1
                    caught_outside += c in outside[b.source]
                else:
                    homology._build(G, k, mode)
    assert caught and caught_outside


PRUNING_CASES = [
    ("T^2", torus_ring, range(0, 11), ("full",)),
    ("S^4", s4_ring, range(0, 9), ("full",)),
    ("S^2xS^2", s2xs2_ring, range(0, 7), ("full",)),
    ("CP^2 x^2=y/2", cp2_half_ring, range(0, 9), ("full",)),
    ("CP^4", lambda: make_cpm.__wrapped__(4), range(2, 10), ("full", "reduced")),
]


@pytest.mark.parametrize("make_ring, ks, modes",
                         [case[1:] for case in PRUNING_CASES],
                         ids=[case[0] for case in PRUNING_CASES])
def test_pruned_ranks_equal_unpruned(make_ring, ks, modes):
    R = make_ring()
    for k in ks:
        for mode in modes:
            _, blocks, ranks = complex_data(R, k, mode)
            assert set(ranks) == set(blocks)
            for src, b in blocks.items():
                assert ranks[src] == rank(b.matrix), (k, mode, src)
                if b.matrix.n_cols <= 60:
                    assert ranks[src] == dense_rank(b.matrix.to_dense()), (k, mode, src)


WINDOW_CASES = [
    ("CP^1", lambda: make_cpm.__wrapped__(1), 10),
    ("CP^2", lambda: make_cpm.__wrapped__(2), 9),
    ("CP^3", lambda: make_cpm.__wrapped__(3), 8),
    ("CP^4", lambda: make_cpm.__wrapped__(4), 7),
    ("T^2", lambda: load_ring(Path(__file__).resolve().parent.parent
                              / "perfbench" / "rings" / "torus.json"), 8),
]


@pytest.mark.parametrize("make_ring, k_max", [case[1:] for case in WINDOW_CASES],
                         ids=[case[0] for case in WINDOW_CASES])
def test_window_equals_the_whole_table(make_ring, k_max):
    # a build from least keeps the slices of degree >= least - 1, the
    # source of every block into degree least, and its table is the
    # whole table's from least on, around the edge e = k(d - 2)
    R = make_ring()
    G = build_generators(R)
    for k in range(k_max + 1):
        e = k * (R.manifold_dimension - 2)
        for mode in ("full", "reduced"):
            whole = betti(R, k, mode)
            for least in (e - 1, e, e + 1, e + 3):
                window = homology._build(G, k, mode, least).table
                assert window.dims == {i: whole.dim(i) for i in
                                       range(least, whole.top_degree() + 1)}, \
                    (k, mode, least)


def _reversed_set(G):
    # the same complex with V and W listed in the other order, so its
    # V-degrees descend: position t becomes n - 1 - t
    n = len(G.v_degrees)
    table = [[((n - 1 - a, n - 1 - b), q) for (a, b), q in terms]
             for terms in reversed(G.boundary_on_w)]
    return GeneratorSet(G.v_degrees[::-1], table, G.manifold_dimension, G.label + " reversed")


ENUMERATOR_CASES = [(name, lambda make_ring=make_ring: build_generators(make_ring()), k_max)
                    for name, make_ring, k_max in WINDOW_CASES] + [
    ("CP^2 reversed", lambda: _reversed_set(build_generators(make_cpm(2))), 9),
    ("CP^3 reversed", lambda: _reversed_set(build_generators(make_cpm(3))), 7),
    ("S^4", lambda: build_generators(s4_ring()), 12),
    ("CP^1 to k=40", lambda: build_generators(make_cpm(1)), 40),
]


@pytest.mark.parametrize("make_set, k_max", [case[1:] for case in ENUMERATOR_CASES],
                         ids=[case[0] for case in ENUMERATOR_CASES])
def test_window_enumerates_the_filtered_whole_basis(make_set, k_max):
    # enumerate_basis from least gives the whole basis's slices of degree
    # >= least: the same codes, in the same order within each slice, and
    # the slices in the same order (homotopy_check and the AssemblyError
    # messages name the first monomial in that order)
    G = make_set()
    for k in range(k_max + 1):
        e = k * (G.manifold_dimension - 2)
        for mode in ("full", "reduced"):
            whole = enumerate_basis(G, k, mode)
            for least in (-1, e - 2, e - 1, e, e + 1, e + 3, whole.top_degree() + 1):
                window = enumerate_basis(G, k, mode, least)
                assert list(window.slices.items()) == [
                    (s, codes) for s, codes in whole.slices.items() if s[0] >= least], \
                    (k, mode, least)


def test_reversed_set_has_the_same_tables():
    # the reordered set is a valid set for the same complex
    G = build_generators(make_cpm(2))
    for k in range(2, 7):
        for mode in ("full", "reduced"):
            assert homology._build(_reversed_set(G), k, mode).table.dims == \
                homology._build(G, k, mode).table.dims, (k, mode)


def test_ray_enumerates_only_its_windows(monkeypatch):
    # the offset-1 ray of CP^7 to k = 14 reads 127 reduced monomials; the
    # whole reduced bases of k = 2..14 hold 1,860,807
    real = enumerate_basis
    counted = []

    def spy(*args):
        basis = real(*args)
        counted.append(basis.total_dimension())
        return basis

    monkeypatch.setattr(homology, "enumerate_basis", spy)
    samples = hilbert_ray(7, 1, 2, 14).samples
    assert len(counted) == 13 and sum(counted) <= 1000
    assert samples == tuple((k, 1 if k in (3, 4) else 0) for k in range(2, 15))


def test_window_parts_are_floored_by_what_the_other_part_reaches(monkeypatch):
    # a V-part of the window is kept only if the W-points can lift it to
    # the floor under their caps (each odd W-generator at most once, w_top
    # never in reduced mode), and a W-part likewise: the offset-1 window of
    # CP^12 at k = 100 keeps a few parts of each, not 9,432 and all 4,096
    real, sizes = cecomplex._coded_exponents, []

    def spy(*args):
        tails = real(*args)
        sizes.append(sum(map(len, tails.values())))
        return tails

    monkeypatch.setattr(cecomplex, "_coded_exponents", spy)
    G = build_generators(make_cpm(12))
    D = 100 * 22 + 1
    assert homology._build(G, 100, "reduced", D).table.dim(D) == 0
    assert len(sizes) == 2 and max(sizes) <= 10
