from fractions import Fraction

import pytest

from configcohom.rat import format_rational, parse_rational


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
    for q in (Fraction(0), Fraction(5), Fraction(-1, 2), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
