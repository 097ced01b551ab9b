"""Exact rational parsing and formatting for the JSON interfaces.

Everything in this package is exact: coefficients are ints or
fractions.Fraction, never floats.  JSON carries rationals as strings
"p" or "p/q" so nothing is ever rounded on the way in or out.
"""

from fractions import Fraction


def _is_int(text):
    """An optional sign followed by ASCII digits, and nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_rational(value):
    """Parse an int, a Fraction or a string "p" / "p/q" into a Fraction.

    Floats (and float-looking strings) are rejected outright: a value
    like 0.1 has no exact binary representation and would silently
    poison every downstream rank computation.
    """
    if isinstance(value, bool):
        raise ValueError("rational expected, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.strip().split("/")
        if len(parts) == 1 and _is_int(parts[0]):
            return Fraction(int(parts[0]))
        if len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ValueError("rational with zero denominator: %r" % value)
            return Fraction(num, den)
        raise ValueError("not a rational string: %r" % value)
    raise ValueError("rational expected, got %s" % type(value).__name__)


def format_rational(q):
    """Format a Fraction (or int) as "p" or "p/q", lowest terms."""
    return str(Fraction(q))
