"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a one-line verdict (visible with -s; the conftest
summary repeats the outcomes at the end of every run).  All equalities
are exact integer comparisons — no tolerances anywhere.
"""

from fractions import Fraction

from configcohom import (betti, consistency_report, detect_quasi_polynomial,
                         hilbert_ray, homotopy_check, kernel_dim, make_cpm,
                         verify_vanishing_ranges)
from configcohom.cli import main
from configcohom.generators import build_generators
from configcohom.homology import complex_data
from oracles import (CP1_K2_BETTI, CP1_K2_DIMS, CP1_K2_MAPS, CP1_K3_BETTI,
                     CP1_K3_DIMS, CP1_K3_MAPS, dense_betti, dense_rank)


def _verdict(n, text):
    print("criterion %d: PASS — %s" % (n, text))


def test_criterion_01_differential_squares_to_zero():
    # complex_data verifies consecutive blocks compose to zero and
    # raises otherwise, so reaching the end is the assertion.
    for m in (1, 2, 3):
        R = make_cpm(m)
        for k in range(0, 11):
            complex_data(R, k, "full")
        for k in range(2, 11):
            complex_data(R, k, "reduced")
    _verdict(1, "d o d = 0 on every block, full and reduced, m=1..3, k=0..10")


def test_criterion_02_contracting_homotopy():
    for m in (1, 2, 3):
        G = build_generators(make_cpm(m))
        for k in range(2, 9):
            ok, witness = homotopy_check(G, k)
            assert ok, (m, k, witness)
    _verdict(2, "(dh + hd) = id on the acyclic ideal, m=1..3, k=2..8")


def test_criterion_03_full_vs_reduced_tables():
    for m in (1, 2, 3):
        R = make_cpm(m)
        k_top = 12 if m == 1 else 8
        for k in range(2, k_top + 1):
            rep = consistency_report(R, k)
            assert rep.ok, (m, k, rep.first_mismatch)
    _verdict(3, "full and reduced Betti tables agree, m=1..3 (k to 8; m=1 to 12)")


def test_criterion_04_vanishing_above_offset_three():
    for m in (1, 2, 3):
        R = make_cpm(m)
        for k in range(4, 11):
            table = betti(R, k, "full")
            edge = k * (2 * m - 2)
            for i, d in table.dims.items():
                if i >= edge + 4:
                    assert d == 0, (m, k, i, d)
    _verdict(4, "H^{k(2m-2)+i} = 0 for all i >= 4, m=1..3, k=4..10")


def test_criterion_05_low_offset_vanishing_onset():
    onsets = {}
    for m in (2, 3):
        R = make_cpm(m)
        tables = {k: betti(R, k, "full") for k in range(2, 13)}
        for i in (1, 2, 3):
            for k in range(8, 13):
                d = tables[k].dim(k * (2 * m - 2) + i)
                assert d == 0, (m, i, k, d)
            seen = None
            for k in range(2, 13):
                if tables[k].dim(k * (2 * m - 2) + i) == 0:
                    if seen is None:
                        seen = k
                else:
                    seen = None
            onsets[(m, i)] = seen
        # the CLI-facing report must agree on the observed onsets
        rep = verify_vanishing_ranges(m, 12)
        by_id = {c.check_id: c for c in rep.checks}
        for i in (1, 2, 3):
            assert by_id["vanishing-offset-%d" % i].observed_onset == onsets[(m, i)]
    _verdict(5, "H^{k(2m-2)+i} = 0 for i=1..3, m=2,3, k=8..12; observed onsets %s"
             % sorted(onsets.items()))


def test_criterion_06_reduced_block_ranks_cp2():
    R = make_cpm(2)
    for k in (8, 10, 12):
        basis, blocks, ranks = complex_data(R, k, "reduced")
        e = 2 * k
        # block out of (degree e+1, weight 1): rank 1, kernel 2
        b = blocks[(e + 1, 1)]
        assert ranks[(e + 1, 1)] == 1, k
        assert kernel_dim(b.matrix) == 2, k
        # block out of (degree e, weight 2): rank 2
        assert ranks[(e, 2)] == 2, k
        # the two-term subcomplex (e+2, 2) -> (e+3, 1) is exact
        assert len(basis.slice(e + 2, 2)) == 1
        assert len(basis.slice(e + 3, 1)) == 1
        assert ranks[(e + 2, 2)] == 1
    _verdict(6, "reduced top-block ranks and exactness on CP^2, k=8,10,12")


def test_criterion_07_cp1_stability():
    R = make_cpm(1)
    assert dense_betti(CP1_K2_DIMS, CP1_K2_MAPS) == CP1_K2_BETTI
    assert dense_betti(CP1_K3_DIMS, CP1_K3_MAPS) == CP1_K3_BETTI
    assert betti(R, 2).dims == CP1_K2_BETTI
    assert betti(R, 3).dims == CP1_K3_BETTI
    tables = {k: betti(R, k) for k in range(2, 13)}
    for i in range(0, 5):
        window = [tables[k].dim(i) for k in range(max(2, i + 1), 13)]
        assert len(set(window)) == 1, (i, window)
    _verdict(7, "CP^1 oracle match at k=2,3 and H^i constant for k > i, i=0..4")


def test_criterion_08_sparse_rank_matches_dense_oracle():
    checked = 0
    for m in (1, 2, 3):
        R = make_cpm(m)
        for mode, lo in (("full", 0), ("reduced", 2)):
            for k in range(lo, 13):
                _, blocks, ranks = complex_data(R, k, mode)
                for src, block in sorted(blocks.items()):
                    if block.matrix.n_cols <= 50:
                        assert ranks[src] == dense_rank(block.matrix.to_dense()), \
                            (m, k, mode, src)
                        checked += 1
    assert checked > 500
    _verdict(8, "sparse rank equals dense oracle on %d blocks (<= 50 columns)"
             % checked)


def test_criterion_09_quasi_polynomial_certificates():
    # extremal rays of CP^2 and CP^3 vanish identically once k is large
    for m in (2, 3):
        for i in range(1, 6):
            ray = hilbert_ray(m, i, 2, 12)
            qp = detect_quasi_polynomial(ray.samples)
            assert qp is not None, (m, i)
            assert qp.period == 1 and qp.is_zero(), (m, i, qp)
    # CP^1 rays are eventually constant
    for i in range(0, 6):
        ray = hilbert_ray(1, i, 2, 12)
        qp = detect_quasi_polynomial(ray.samples)
        assert qp is not None and (qp.period, qp.degree) == (1, 0), (i, qp)
    # and a genuinely periodic sequence gets its exact certificate
    qp = detect_quasi_polynomial(tuple((k, k // 2) for k in range(0, 21)))
    assert (qp.period, qp.onset, qp.degree) == (2, 0, 1)
    assert qp.coefficients == ((Fraction(0), Fraction(1, 2)),
                               (Fraction(-1, 2), Fraction(1, 2)))
    _verdict(9, "zero/constant certificates on CP^m rays; exact period-2 fit")


def test_criterion_10_cli_determinism_across_jobs(tmp_path):
    outputs = []
    for fmt in ("text", "json"):
        pair = []
        for jobs in ("1", "8"):
            path = tmp_path / ("verify-%s-%s.out" % (fmt, jobs))
            rc = main(["verify", "--cpm", "2", "--k-max", "10",
                       "--format", fmt, "--jobs", jobs,
                       "--output", str(path)])
            assert rc == 0
            pair.append(path.read_bytes())
        assert pair[0] == pair[1], fmt
        outputs.append(pair[0])
    assert b"overall: pass" in outputs[0]
    _verdict(10, "verify output byte-identical with 1 and 8 worker processes")
