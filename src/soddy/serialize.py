"""JSON-friendly encoding of scalars, matrices, and reports; text of scalars.

Rationals serialize as {"num": str, "den": str} so arbitrary-precision values
survive; finite floats pass through as JSON numbers, and a NaN or infinite
float is an error, so no result is written as a non-JSON constant.  Exact
values are never silently converted to float.  A rational with more digits
than Python prints (4300) is refused in JSON and shown as its digit count in text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Integral

from .errors import ValidationError
from .numeric import Matrix, as_float

#: Bound on the magnitude of a parsed decimal exponent: 10^4300 has as many
#: digits as Python prints of an int by default.
MAX_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def _decimal(num: int, den: int) -> tuple[str, str] | int:
    """A rational's numerator and denominator in decimal, read as they are,
    or the longer one's digit count past Python's."""
    try:
        return str(num), str(den)
    except ValueError:
        return int(max(abs(num), den).bit_length() * math.log10(2)) + 1


def _rational_to_json(num: int, den: int) -> dict:
    parts = _decimal(num, den)
    if isinstance(parts, int):
        raise ValidationError(f"result of about {parts} digits is too long to print")
    return {"num": parts[0], "den": parts[1]}


def scalar_to_json(value):
    """One JSON scalar; a NaN or infinite float raises :class:`NonFiniteError`,
    a rational too long to print a :class:`ValidationError`."""
    if isinstance(value, float):
        return as_float(value)
    if isinstance(value, (Fraction, Integral)):
        return _rational_to_json(value.numerator, value.denominator)
    raise ValidationError(f"cannot serialize {value!r}")


def value_to_json(value):
    """A scalar, or a matrix as a list of rows of its entries' exact values."""
    if isinstance(value, Matrix):
        rows = value._ratio_rows()
        try:
            return [[{"num": str(p), "den": str(q)} for p, q in row] for row in rows]
        except ValueError:  # an entry too long to print: the checked path names it
            return [[_rational_to_json(p, q) for p, q in row] for row in rows]
    return scalar_to_json(value)


def parse_rational(text: str) -> Fraction:
    """Parse '-1', '1/3', '0.5' or '5e-3' exactly (0.5 -> 1/2).  A decimal
    exponent beyond +-MAX_EXPONENT is refused, as '1e10000000' alone takes
    seconds to expand."""
    exponent = _EXPONENT.search(text)
    # five digits without leading zeros already exceed the bound
    if exponent and int(exponent[1].replace("_", "").lstrip("0")[:5] or 0) > MAX_EXPONENT:
        raise ValidationError(f"exponent of {text[:40]!r} exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {text!r} as a rational") from exc


def _format_rational(num: int, den: int) -> str:
    parts = _decimal(num, den)
    if isinstance(parts, int):
        return f"<about {parts} digits>"
    return parts[0] if den == 1 else "/".join(parts)


def format_scalar(value) -> str:
    """A float as its repr, a rational as 'p', 'p/q' or, too long to print, '<about N digits>'."""
    if isinstance(value, float):
        return repr(value)
    return _format_rational(value.numerator, value.denominator)


def format_matrix(m: Matrix) -> str:
    """'[a b; c d]', each entry's exact value as :func:`format_scalar` writes a rational."""
    rows = [[_format_rational(*q) for q in row] for row in m._ratio_rows()]
    return "[" + "; ".join(" ".join(row) for row in rows) + "]"
