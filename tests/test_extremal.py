import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from configcohom import (QuasiPolynomial, extremal, UnderDeterminedError, betti, homology,
                         consistency_report, detect_quasi_polynomial, hilbert_ray,
                         make_cpm, ring, verify_vanishing_ranges)
from oracles import lagrange_coefficients, torus_ring


def test_ray_matches_betti_directly():
    R = make_cpm(2)
    ray = hilbert_ray(2, 1, 2, 6)
    assert ray.m == 2 and ray.i == 1
    for k, d in ray.samples:
        assert d == betti(R, k, "reduced").dim(2 * k + 1)
    assert ray.k_range() == (2, 6)


def test_ray_guards():
    # a ray takes m; a ring in its place fails make_cpm's check on m
    with pytest.raises(ValueError, match="m must be a positive integer"):
        hilbert_ray(torus_ring(), 1, 2, 5)
    make_cpm(1), make_cpm(2)  # cached: True and 2.0 must not find them
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            hilbert_ray(bad, 1, 2, 5)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            verify_vanishing_ranges(bad, 10)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="offset i must be a non-negative integer"):
            hilbert_ray(2, bad, 2, 5)
    # both k bounds are checked before any task starts
    for bad in (2.0, True, -3):
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            hilbert_ray(2, 1, bad, 5)
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            hilbert_ray(2, 1, 0, bad)
    with pytest.raises(ValueError):
        hilbert_ray(2, 1, 5, 2)


def test_ray_computes_each_degree_when_it_reaches_its_k(monkeypatch):
    # nothing per k is held before the first window is built, so a long
    # k range costs no memory up front
    def refuse(G, k, mode, least):
        raise RuntimeError("build at k = %d" % k)

    monkeypatch.setattr(extremal, "_build", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="build at k = 0$"):
            hilbert_ray(1, 1, 0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ray_full_vs_reduced_agree():
    # a ray reads a window of the reduced complex; the full tables give
    # the same samples at D = k(2m-2)+i, from k = 0 (below k = 2 the two
    # complexes are one)
    for m, k_max in ((2, 7), (3, 6)):
        R = make_cpm(m)
        for i in (0, 1, 2):
            ray = hilbert_ray(m, i, 0, k_max)
            assert ray.samples == tuple((k, betti(R, k, "full").dim(k * (2 * m - 2) + i))
                                        for k in range(k_max + 1)), (m, i)


def test_detect_floor_half():
    samples = tuple((k, k // 2) for k in range(0, 21))
    qp = detect_quasi_polynomial(samples)
    assert (qp.period, qp.onset, qp.degree) == (2, 0, 1)
    assert qp.coefficients == ((Fraction(0), Fraction(1, 2)),
                               (Fraction(-1, 2), Fraction(1, 2)))
    assert qp.matches(samples)
    assert not qp.is_zero()


def test_certificate_reads_period_and_degree_off_its_coefficients():
    # two classes, of degrees 1 and 0: period 2, degree 1, and no way to
    # state another period or degree beside them
    qp = QuasiPolynomial(onset=3, coefficients=((Fraction(1), Fraction(2)), (Fraction(5),)))
    assert (qp.period, qp.degree) == (2, 1)
    assert qp.to_json_dict() == {"period": 2, "onset": 3, "degree": 1,
                                 "classes": [["1", "2"], ["5"]]}
    assert [qp.evaluate(k) for k in (4, 5)] == [9, 5]
    with pytest.raises(TypeError):
        QuasiPolynomial(period=2, onset=0, degree=3, coefficients=((Fraction(1),),))


@pytest.mark.parametrize("onset, coefficients", [
    (0, ()), (0, ((),)), (0, ((Fraction(1),), ())), (0, [(Fraction(1),)]),
    (0, ([Fraction(1)],)), (0, None), (1.0, ((Fraction(1),),)), (True, ((Fraction(1),),)),
    ("3", ((Fraction(1),),)),
])
def test_certificate_checks_onset_and_coefficients(onset, coefficients):
    # an empty class list or an empty class has no period or degree to
    # report; every way in (the constructor, _make, _replace) checks
    with pytest.raises(ValueError, match="certificate needs an int onset"):
        QuasiPolynomial(onset=onset, coefficients=coefficients)
    with pytest.raises(ValueError, match="certificate needs an int onset"):
        QuasiPolynomial._make((onset, coefficients))
    good = QuasiPolynomial(onset=-2, coefficients=((Fraction(1),),))  # negative k are samples too
    with pytest.raises(ValueError, match="certificate needs an int onset"):
        good._replace(onset=onset, coefficients=coefficients)
    assert good.evaluate(-2) == 1 and good.to_json_dict()["onset"] == -2


def _onset_by_definition(flags):
    # the least sampled k0 with every sampled k >= k0 good, else None
    return next((k0 for k0, _ in flags if all(good for k, good in flags if k >= k0)), None)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-3, max_value=12), st.lists(st.booleans(), max_size=12),
       st.integers(min_value=-3, max_value=20))
@example(k_lo=2, goods=[], claimed=8)
@example(k_lo=2, goods=[True, True, False], claimed=8)
@example(k_lo=2, goods=[False, True, True], claimed=3)
def test_observed_onset_is_the_least_k_of_a_good_tail(k_lo, goods, claimed):
    flags = list(zip(range(k_lo, k_lo + len(goods)), goods))
    check = extremal._vanishing_check("x", "y", flags, claimed)
    onset = _onset_by_definition(flags)
    assert check.observed_onset == onset
    failed = [k for k, good in flags if k >= claimed and not good]
    assert check.status == ("fail" if failed else
                            "sharper" if onset is not None and onset < claimed else "pass")


def test_detect_zero_tail():
    samples = tuple((k, 2 if k < 6 else 0) for k in range(2, 13))
    qp = detect_quasi_polynomial(samples)
    assert (qp.period, qp.onset, qp.degree) == (1, 6, 0)
    assert qp.is_zero()


def test_detect_eventually_constant():
    samples = tuple((k, 1 if k >= 3 else 0) for k in range(2, 13))
    qp = detect_quasi_polynomial(samples)
    assert (qp.period, qp.onset, qp.degree) == (1, 3, 0)
    assert qp.evaluate(100) == 1


def test_detect_polynomial_growth():
    # binomial(k, 2) is an honest polynomial: period 1, degree 2
    samples = tuple((k, k * (k - 1) // 2) for k in range(0, 12))
    qp = detect_quasi_polynomial(samples)
    assert (qp.period, qp.onset, qp.degree) == (1, 0, 2)
    assert qp.coefficients == ((Fraction(0), Fraction(-1, 2), Fraction(1, 2)),)


def test_detect_none_for_exponential():
    samples = tuple((k, 2 ** k) for k in range(0, 14))
    assert detect_quasi_polynomial(samples) is None


def test_detect_underdetermined():
    with pytest.raises(UnderDeterminedError):
        detect_quasi_polynomial(((5, 1),))
    with pytest.raises(UnderDeterminedError):
        detect_quasi_polynomial(())
    # two samples certify period 1 degree 0, so this must NOT raise
    assert detect_quasi_polynomial(((5, 1), (6, 1))) is not None


def test_detect_period_scan_stops_at_half_window(monkeypatch):
    # a period above half the window leaves some residue class with
    # fewer than two samples, so no p_max costs more fits than n // 2
    real, calls = extremal._least_polynomial, []

    def spy(points, bound):
        calls.append(bound)
        return real(points, bound)

    monkeypatch.setattr(extremal, "_least_polynomial", spy)
    found = []
    for samples in (tuple((k, 2 ** k) for k in range(3, 32)),
                    tuple((k, k % 7) for k in range(3, 32))):
        n = len(samples)
        calls.clear()
        want = detect_quasi_polynomial(samples, p_max=n // 2)
        bound = len(calls)
        calls.clear()
        assert detect_quasi_polynomial(samples, p_max=10 ** 9) == want
        assert len(calls) == bound
        found.append(want is not None)
    assert found == [False, True]
    with pytest.raises(UnderDeterminedError, match="period <= 1000000000"):
        detect_quasi_polynomial(((5, 1),), p_max=10 ** 9)


@pytest.mark.parametrize("name, bad", [
    ("p_max", True),  # once scanned as period 1
    ("p_max", 2.5),
    ("p_max", 0),  # once reported as an under-determined window
    ("deg_max", 1.5),
    ("deg_max", None),
])
def test_detect_checks_its_bounds(name, bad):
    samples = tuple((k, k // 2) for k in range(0, 21))
    with pytest.raises(ValueError, match="%s must be a .* integer" % name) as info:
        detect_quasi_polynomial(samples, **{name: bad})
    assert not isinstance(info.value, UnderDeterminedError)


def test_detect_rejects_float_values():
    # once fitted: onset 6 and a coefficient of 1/4503599627370496
    samples = [(k, 0.1 * k) for k in range(10)]
    with pytest.raises(ValueError, match=r"sample \(0, 0\.0\) is not \(k, value\)"):
        detect_quasi_polynomial(samples)


@pytest.mark.parametrize("value", [True, "1"])
def test_detect_rejects_bool_and_text_values(value):
    # once each fitted as the constant 1
    samples = [(k, value) for k in range(10)]
    with pytest.raises(ValueError, match=r"sample \(0, %r\) is not" % value):
        detect_quasi_polynomial(samples)


@pytest.mark.parametrize("k", [2.0, True])
def test_detect_rejects_a_k_that_is_no_int(k):
    # a float k once raised a bare TypeError
    samples = [(k, 1)] + [(j, 1) for j in range(3, 10)]
    with pytest.raises(ValueError, match=r"sample \(%r, 1\) is not" % k):
        detect_quasi_polynomial(samples)


def test_detect_requires_consecutive_k():
    with pytest.raises(ValueError):
        detect_quasi_polynomial(((2, 1), (4, 1), (6, 1)))


def test_certificate_stable_under_extension():
    # a certificate fitted on a short window keeps matching new samples
    short = hilbert_ray(2, 3, 2, 10)
    qp = detect_quasi_polynomial(short.samples)
    longer = hilbert_ray(2, 3, 2, 14)
    assert qp is not None and qp.matches(longer.samples)


@st.composite
def quasi_polynomials(draw):
    period = draw(st.integers(min_value=1, max_value=3))
    degree = draw(st.integers(min_value=0, max_value=2))
    onset = draw(st.integers(min_value=0, max_value=4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    classes = tuple(
        tuple(draw(coeff) for _ in range(degree + 1)) for _ in range(period)
    )
    return QuasiPolynomial(onset=onset, coefficients=classes)


@settings(max_examples=60, deadline=None)
@given(quasi_polynomials())
def test_detector_round_trip(qp):
    k_hi = qp.onset + qp.period * (qp.degree + 2) + 4
    samples = tuple((k, qp.evaluate(k)) for k in range(qp.onset, k_hi + 1))
    found = detect_quasi_polynomial(samples, p_max=qp.period, deg_max=4)
    assert found is not None
    assert found.matches(samples)
    # minimality: never a longer period or later onset than the truth
    assert found.period <= qp.period
    assert found.onset >= samples[0][0]


@settings(max_examples=60, deadline=None)
@given(quasi_polynomials(), st.lists(st.integers(min_value=-9, max_value=9), max_size=4))
def test_certificate_classes_match_lagrange_oracle(qp, prefix):
    # each class of the certificate is the polynomial that exact Lagrange
    # interpolation puts through that class's first degree + 1 samples
    k_lo = qp.onset - len(prefix)
    k_hi = qp.onset + qp.period * (qp.degree + 2) + 4
    samples = tuple(zip(range(k_lo, qp.onset), prefix)) + tuple(
        (k, qp.evaluate(k)) for k in range(qp.onset, k_hi + 1))
    found = detect_quasi_polynomial(samples, p_max=qp.period, deg_max=4)
    assert found is not None
    for r, coeffs in enumerate(found.coefficients):
        points = [(k, v) for k, v in samples
                  if k >= found.onset and k % found.period == r][:found.degree + 1]
        assert len(points) == found.degree + 1
        want = lagrange_coefficients(points)
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        assert list(coeffs) == want


def test_verify_report_m2():
    rep = verify_vanishing_ranges(2, 10)
    assert rep.ok
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["table-consistency"].status == "pass"
    for i in (1, 2, 3):
        c = by_id["vanishing-offset-%d" % i]
        assert c.status in ("pass", "sharper")
        assert c.observed_onset is not None and c.observed_onset <= 8
    assert by_id["vanishing-offset-ge4"].status in ("pass", "sharper")
    assert by_id["top-pair-exact"].status == "pass"
    assert by_id["weight1-block"].status == "pass"
    assert by_id["weight2-block"].status == "pass"
    assert rep.i0_samples[0] == (2, 1)


def test_verify_report_m1():
    rep = verify_vanishing_ranges(1, 8)
    assert rep.ok
    ids = {c.check_id for c in rep.checks}
    # no extremal offset claims are made for m = 1
    assert "vanishing-offset-1" not in ids
    assert "table-consistency" in ids
    # the offset-0 ray of CP^1 is constantly 1
    assert all(d == 1 for _, d in rep.i0_samples)


def test_verify_guards():
    with pytest.raises(ValueError):
        verify_vanishing_ranges(0, 10)
    with pytest.raises(ValueError):
        verify_vanishing_ranges(2, 7)
    for bad in (10.0, True):
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            verify_vanishing_ranges(2, bad)


def test_verify_builds_each_k_and_mode_once(monkeypatch):
    # one task per k builds its full and its reduced complex, through the
    # comparison betti --mode both makes, and reads the structural facts
    # off that reduced build
    build = homology._build
    built = []

    def spy(G, k, mode):
        built.append((k, mode))
        return build(G, k, mode)

    monkeypatch.setattr(homology, "_build", spy)
    assert verify_vanishing_ranges(2, 8, jobs=1).ok
    assert len(built) == 14
    assert sorted(built) == sorted((k, mode) for k in range(2, 9)
                                   for mode in ("full", "reduced"))


def test_each_command_validates_its_ring_once(monkeypatch):
    # the caller builds one generator set and passes it down, to every
    # build and every task
    real = ring.validate_ring
    calls = []

    def spy(R):
        calls.append(R.label)
        return real(R)

    monkeypatch.setattr(ring, "validate_ring", spy)
    for run in (lambda: verify_vanishing_ranges(2, 8, jobs=1),
                lambda: consistency_report(make_cpm(2), 5),
                lambda: hilbert_ray(2, 1, 2, 8)):
        make_cpm.cache_clear()  # a new CP^2 each time, whatever ran before
        calls.clear()
        run()
        assert calls == ["CP^2"]


def test_verify_json_round_trip():
    rep = verify_vanishing_ranges(2, 8)
    doc = rep.to_json_dict()
    assert doc["ok"] is True
    assert doc["ring"] == "CP^2"
    assert len(doc["checks"]) == len(rep.checks)
    text = rep.to_text()
    assert "overall: pass" in text
