import copy
import json
import pickle
from fractions import Fraction

import pytest

from configcohom import (InvalidRingError, RingPresentation, RingSchemaError, betti,
                         diagonal_comultiplication, load_ring, make_cpm,
                         ring_from_dict, validate_ring)
from configcohom.ring import parse_rational
from oracles import (cp2_ring_doc, malformed_ring_docs, pairing_from_products, s4_ring,
                     torus_ring, unreadable_ring_files)


def test_cpm_shape():
    R = make_cpm(2)
    assert R.basis_names == ("1", "x", "x^2")
    assert R.degrees == (0, 2, 4)
    assert R.manifold_dimension == 4
    assert R.unit_index == 0
    assert R.top_index == 2
    assert R.product(1, 1) == {2: Fraction(1)}
    # make_cpm passes int coefficients; the table holds Fractions
    assert all(type(q) is Fraction
               for terms in R.structure_constants.values() for _, q in terms)
    assert R.product(1, 2) == {}


def test_cpm_validates_up_to_six():
    for m in range(1, 7):
        diag = validate_ring(make_cpm(m))
        assert diag.valid, diag.violations


def test_cpm_rejects_bad_m():
    for bad in (0, -1, "2", 1.5, True):
        with pytest.raises(ValueError):
            make_cpm(bad)


def test_cpm_is_memoized():
    assert make_cpm(3) is make_cpm(3)


def test_ring_fields_cannot_be_rebound():
    # make_cpm hands every caller the same cached ring, so no caller may
    # change it: no field can be rebound, no attribute added, and the
    # multiplication table is read-only
    R = make_cpm(2)
    for field in R._fields:
        with pytest.raises(AttributeError):
            setattr(R, field, "x")
    with pytest.raises(AttributeError):
        R.note = "x"
    with pytest.raises(TypeError):
        R.structure_constants[(0, 0)] = ((1, 1),)
    assert make_cpm(2) is R and R.label == "CP^2" and R.product(0, 0) == {0: 1}
    assert betti(make_cpm(2), 3).ring == "CP^2"
    # _make and _replace run the constructor's checks, and the unit and
    # top indices are read off the degrees, so none can disagree with them
    assert RingPresentation._fields == ("basis_names", "degrees", "structure_constants",
                                        "manifold_dimension", "label")
    with pytest.raises(RingSchemaError, match="non-negative"):
        R._replace(degrees=(0, 2, -6), manifold_dimension=3)
    with pytest.raises(RingSchemaError, match="duplicate basis names"):
        RingPresentation._make((("1", "1", "x^2"),) + tuple(R[1:]))
    with pytest.raises(ValueError, match="unit_index"):
        R._replace(unit_index=None)
    S = R._replace(label="x")
    assert (S.label, S.unit_index, S.top_index) == ("x", 0, 2) and S == R._make(S)
    with pytest.raises(TypeError):
        S.structure_constants[(0, 0)] = ()
    T = R._replace(degrees=(0, 4, 2))  # x is now the top class and x^2 the middle one
    assert (T.unit_index, T.top_index) == (0, 1)
    assert R.label == "CP^2" and make_cpm(2) is R


def test_ring_pickles_and_copies():
    # pickle and copy rebuild the ring through its checked constructor
    for R in (make_cpm(3), torus_ring()):
        for S in (pickle.loads(pickle.dumps(R)), copy.copy(R), copy.deepcopy(R)):
            assert S == R and hash(S) == hash(R) and S.top_index == R.top_index
            with pytest.raises(TypeError):
                S.structure_constants[(0, 0)] = ()


def test_pairing_matrix_antidiagonal():
    R = make_cpm(2)
    P = pairing_from_products(R)
    expect = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert P == [[Fraction(v) for v in row] for row in expect]


def test_torus_and_s4_validate():
    assert validate_ring(torus_ring()).valid
    assert validate_ring(s4_ring()).valid


def test_diagonal_cpm_closed_form():
    # On CP^m the coproduct of the homology class dual to x^c is the
    # sum of h_a (x) h_b over ordered pairs with a + b = c.
    for m in range(1, 5):
        diag = diagonal_comultiplication(make_cpm(m))
        for c in range(m + 1):
            expect = tuple(((a, c - a), Fraction(1)) for a in range(c + 1))
            assert diag[c] == expect, (m, c)


def test_diagonal_matches_structure_constants():
    # <diag(h_c), e_a (x) e_b> must equal the coefficient of e_c in
    # e_a e_b, for every ring we can build.
    for R in (make_cpm(1), make_cpm(3), torus_ring(), s4_ring()):
        diag = diagonal_comultiplication(R)
        for c in range(R.n):
            got = dict(diag[c])
            for a in range(R.n):
                for b in range(R.n):
                    assert got.get((a, b), Fraction(0)) == \
                        R.product(a, b).get(c, Fraction(0))


def test_diagonal_torus_signs():
    # The interesting entry: diag of the fundamental class contains
    # a (x) b and b (x) a with opposite signs.
    T = torus_ring()
    top = dict(diagonal_comultiplication(T)[3])
    assert top[(1, 2)] == 1
    assert top[(2, 1)] == -1
    assert top[(0, 3)] == 1 and top[(3, 0)] == 1


def test_diagonal_refuses_invalid_ring():
    doc = cp2_ring_doc()
    doc["products"] = [p for p in doc["products"]
                       if (p["left"], p["right"]) != ("x", "x")]
    R = ring_from_dict(doc)
    with pytest.raises(InvalidRingError):
        diagonal_comultiplication(R)


def test_validate_missing_product_degenerates_pairing():
    doc = cp2_ring_doc()
    doc["products"] = [p for p in doc["products"]
                       if (p["left"], p["right"]) != ("x", "x")]
    diag = validate_ring(ring_from_dict(doc))
    assert not diag.valid
    assert any(rule == "pairing" for rule, _ in diag.violations)


def two_class_ring(aa, ab, bb):
    """1, a, b, t in degrees 0, 2, 2, 4 with a a = aa t, a b = b a = ab t, b b = bb t."""
    one, a, b, t = 0, 1, 2, 3
    table = {(one, j): ((j, 1),) for j in range(4)}
    table.update({(j, one): ((j, 1),) for j in range(1, 4)})
    table.update({(a, a): ((t, aa),), (a, b): ((t, ab),), (b, a): ((t, ab),),
                  (b, b): ((t, bb),)})
    return RingPresentation(("1", "a", "b", "t"), (0, 2, 2, 4), table, 4)


def test_validate_pairing_degenerate_through_fractions():
    # on (a, b) the pairing is [[1/2, 1], [1, 2]]: singular, but not
    # once the 1/2 is lost, as by truncating it to an int
    diag = validate_ring(two_class_ring(Fraction(1, 2), 1, 2))
    assert not diag.valid
    assert [rule for rule, _ in diag.violations] == ["pairing"]
    assert diag.violations[0][1] == "Poincare pairing into t is degenerate"
    assert validate_ring(two_class_ring(Fraction(1, 2), 1, 3)).valid


def test_coefficients_must_be_exact():
    # ints, Fractions and "p/q" strings are exact rationals
    for coeff, value in ((2, 2), (Fraction(1, 2), Fraction(1, 2)), ("-3/6", Fraction(-1, 2))):
        R = two_class_ring(coeff, 0, 1)
        assert R.product(1, 1) == {3: value}
        assert type(R.product(1, 1)[3]) is Fraction
    # floats, bools and float-looking strings are not: 0.1 would become
    # 3602879701896397/36028797018963968 and True would become 1
    for bad in (0.1, 0.5, True, "0.5", "1e3"):
        with pytest.raises(RingSchemaError, match="bad coefficient in a \\* a"):
            two_class_ring(bad, 0, 1)


def test_validate_bad_grading():
    doc = cp2_ring_doc()
    doc["basis"][1]["degree"] = 3
    diag = validate_ring(ring_from_dict(doc))
    assert not diag.valid
    assert any(rule == "grading" for rule, _ in diag.violations)


def test_validate_missing_top():
    doc = cp2_ring_doc()
    doc["basis"] = doc["basis"][:2]
    doc["products"] = doc["products"][:3]
    doc["top"] = None
    diag = validate_ring(ring_from_dict(doc))
    assert not diag.valid
    assert any(rule == "top" for rule, _ in diag.violations)


def test_validate_broken_commutativity():
    doc = cp2_ring_doc()
    for p in doc["products"]:
        if (p["left"], p["right"]) == ("x", "1"):
            p["result"][0]["coeff"] = "2"
    diag = validate_ring(ring_from_dict(doc))
    assert not diag.valid
    rules = {rule for rule, _ in diag.violations}
    assert "commutativity" in rules or "unit-law" in rules


def test_schema_errors():
    good = cp2_ring_doc()

    doc = dict(good)
    del doc["dimension"]
    with pytest.raises(RingSchemaError):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["products"][0]["left"] = "zz"
    with pytest.raises(RingSchemaError, match="zz"):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["products"][5]["result"][0]["coeff"] = "0.5"
    with pytest.raises(RingSchemaError):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["products"].append(doc["products"][5])
    with pytest.raises(RingSchemaError, match="duplicate"):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["basis"][1]["name"] = "1"
    with pytest.raises(RingSchemaError):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["dimension"] = 5
    with pytest.raises(RingSchemaError):
        ring_from_dict(doc)

    doc = json.loads(json.dumps(good))
    doc["top"] = "x"
    with pytest.raises(RingSchemaError):
        ring_from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    pytest.param(doc, message, id=rule) for rule, doc, message in malformed_ring_docs()])
def test_malformed_document_raises_schema_error(doc, message):
    with pytest.raises(RingSchemaError, match=message):
        ring_from_dict(doc)


def test_product_indices_must_be_ints():
    # a bool is an int to Python, but not an index here, as it is not a degree
    for key in ((0, True), (False, 1), (0, 1.0)):
        with pytest.raises(RingSchemaError, match="product indexed outside the basis"):
            RingPresentation(("1", "x"), (0, 2), {key: ((1, 1),)}, 2)
    with pytest.raises(RingSchemaError, match="product result outside the basis"):
        RingPresentation(("1", "x"), (0, 2), {(0, 1): ((True, 1),)}, 2)


def test_one_degree_per_basis_name():
    for degrees in ((0,), (0, 2, 2)):
        with pytest.raises(RingSchemaError, match="degrees and basis_names disagree in length"):
            RingPresentation(("1", "x"), degrees, {}, 2)


def test_json_round_trip(tmp_path):
    R = make_cpm(2)
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(R.to_dict()))
    S = load_ring(path)
    assert S.basis_names == R.basis_names
    assert S.degrees == R.degrees
    assert S.structure_constants == R.structure_constants
    assert validate_ring(S).valid


def test_load_ring_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(RingSchemaError):
        load_ring(path)


@pytest.mark.parametrize("data, message", [
    pytest.param(data, message, id=fault) for fault, data, message in unreadable_ring_files()])
def test_load_ring_unreadable_file(tmp_path, data, message):
    path = tmp_path / "ring.json"
    path.write_bytes(data)
    with pytest.raises(RingSchemaError, match=message):
        load_ring(path)


def test_parse_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(-2) == Fraction(-2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


def test_parse_rejects_junk():
    for bad in (0.5, "0.5", "1/0", "1/2/3", "a", "", True, None, "1_0",
                "1\n/2", "+", "-/2", "\u0663"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_round_trip():
    # JSON writes a rational as str of its Fraction: "p" or "p/q", lowest terms
    for q in (Fraction(0), Fraction(5), Fraction(-1, 2), Fraction(22, 7)):
        assert parse_rational(str(q)) == q
    assert str(Fraction(4, 2)) == "2"
    assert str(Fraction(-6, 4)) == "-3/2"
