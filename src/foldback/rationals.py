"""Exact rational helpers shared across the package.

All quantities (utilities, masses, grades, anchors) are Fraction-valued.
Serialization is the plain "p/q" form; decimal literals are rejected on
parse so that nothing silently passes through floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import CapExceeded, ParseError, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

# integer, or integer/positive-integer; no decimals, no whitespace inside
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _fraction(value) -> Fraction:
    """value as a Fraction; a Fraction is returned as it is, not copied,
    and a float, which holds its binary expansion, is refused."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValidationError(f"a float is not exact, got {value!r}; use a Fraction or 'p/q'")
    return Fraction(value)


def ensure_unit(value, label: str = "value") -> Fraction:
    """value as a Fraction, after checking it lies in [0, 1].

    The check runs on its lowest terms, whose denominator is positive:
    0 <= p <= q.
    """
    value = _fraction(value)
    if not 0 <= value.numerator <= value.denominator:
        raise ValidationError(f"{label} must lie in [0, 1], got {value}")
    return value


def _integer_image(values, denominator: int = 1) -> tuple[tuple[int, ...], int]:
    """Exact values as integer numerators over one common denominator.

    The scale is the least common multiple of `denominator` and the
    values' denominators. Sums, products, order and equality of the
    numerators carry over to the values, so a kernel can compute on
    ints and divide once.
    """
    scale = math.lcm(denominator, *(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _check_denominator(denominator: int) -> None:
    if denominator < 1:
        raise ValidationError(f"grid denominator must be >= 1, got {denominator}")


def _steps(count: int) -> str:
    """`count` with separators; past the digits str() writes, a power of ten it is at least."""
    try:
        return f"{count:,}"
    except ValueError:  # 2 ** (bits - 1) <= count, and 0.30102 < log10(2)
        return f"10^{(count.bit_length() - 1) * 30102 // 100_000:,}"


def _grid_name(denominator: int) -> str:
    """`k/denominator`; past the digits str() writes, a bound spelt as `_steps` spells it."""
    try:
        return f"k/{denominator}"
    except ValueError:
        return f"k/n with n >= {_steps(denominator)}"


def unit_grid(denominator: int) -> tuple[Fraction, ...]:
    """All multiples of 1/denominator in [0, 1], in increasing order."""
    _check_denominator(denominator)
    return tuple(Fraction(k, denominator) for k in range(denominator + 1))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" exactly; anything else (decimals included) fails.

    The value is built from the literal's digits as integers, so a
    literal longer than the interpreter converts to an int (4,300
    digits by default) fails here too.
    """
    token = text.strip()
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise ParseError(f"not an exact rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise ParseError(f"literal too long to convert: {len(token):,} characters") from None


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form ("p" when the denominator is 1).

    A value whose numerator or denominator is longer than the
    interpreter converts to text (4,300 digits by default) is refused
    with CapExceeded.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise CapExceeded("a result is too long to write: its numerator or denominator"
                          " has more digits than the interpreter converts to text") from None
