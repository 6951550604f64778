"""JSON-friendly encoding of scalars, matrices, and reports.

Rationals serialize as {"num": str, "den": str} so arbitrary-precision values
survive; finite floats pass through as JSON numbers, and a NaN or infinite
float is an error, so no result is written as a non-JSON constant.  Exact
values are never silently converted to float.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral

from .errors import ValidationError
from .numeric import Matrix, as_float


def scalar_to_json(value):
    """One JSON scalar; a NaN or infinite float raises :class:`NonFiniteError`."""
    if isinstance(value, float):
        return as_float(value)
    if isinstance(value, (Fraction, Integral)):
        f = Fraction(value)
        return {"num": str(f.numerator), "den": str(f.denominator)}
    raise ValidationError(f"cannot serialize {value!r}")


def value_to_json(value):
    """A scalar, or a matrix as a list of rows of scalars."""
    if isinstance(value, Matrix):
        return [[scalar_to_json(v) for v in row] for row in value.to_rows()]
    return scalar_to_json(value)


def parse_rational(text: str) -> Fraction:
    """Parse '-1', '1/3', or '0.5' (decimals become exact: 0.5 -> 1/2)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {text!r} as a rational") from exc


def format_scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
