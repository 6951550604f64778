"""Scalar and dense-matrix kernel used by every other module.

Two computation modes, never mixed inside one object or operation:

* ``"exact"`` -- entries are :class:`fractions.Fraction`; arithmetic is
  closed and roundoff-free.
* ``"float"`` -- entries are finite 64-bit floats; NaN/inf is rejected at
  construction.

Both modes share one integer-scaled kernel for products and determinants:
each row (for a product, each column of the right factor too) is scaled by
the lcm of its denominators, the work runs on Python ints -- dot products
for ``@``, fraction-free (Bareiss) elimination for :func:`determinant` --
and Fractions are built only for the results.  Exact mode returns them as
they are; float mode returns the exact result for its (dyadic rational)
entries rounded once to a float, so a float product or determinant carries
one rounding, and overflow raises instead of storing inf.

The mode is fixed once, where values are coerced (:func:`as_exact`,
:func:`as_float`): this module alone knows how a scalar of each mode is
built.  Other modules write their arithmetic once for both modes, with int
constants, so ``Fraction op int`` stays a Fraction and ``float op int`` a
float; they branch on the mode only where the two modes mean different
checks (a tolerance, an exact square root, a float-only sign check).

Everything here is a pure function on immutable data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational, Real
from typing import Iterable, Sequence, Union

from .errors import DimensionError, ModeMismatchError, NonFiniteError, ValidationError

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"


def _check_scalar(value) -> None:
    """Reject values that are scalars in neither mode: booleans, None, lists, ..."""
    # float first: the common case skips the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (float, Real)):
        raise ValidationError(f"{value!r} is not a scalar")


def as_exact(value) -> Fraction:
    """Coerce an int/Fraction to Fraction; floats are rejected (no silent rounding)."""
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    _check_scalar(value)
    raise ModeMismatchError(f"cannot use {value!r} in exact mode")


def as_float(value) -> float:
    """Coerce to a finite float; NaN/inf and out-of-range values are errors."""
    _check_scalar(value)
    try:
        x = float(value)
    except OverflowError:
        raise NonFiniteError("value out of float range in float mode") from None
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite value {value!r} in float mode")
    return x


def coerce(value, mode: str) -> Scalar:
    return as_exact(value) if mode == EXACT else as_float(value)


def infer_mode(values: Iterable) -> str:
    """Mode of a homogeneous collection: any float makes it float, else exact.

    Mixing floats with non-integer rationals raises, since that almost always
    signals an accidental loss of exactness.
    """
    saw_float = False
    saw_fraction = False
    for v in values:
        if isinstance(v, float):
            saw_float = True
        elif isinstance(v, Rational):
            if not isinstance(v, Integral):
                saw_fraction = True
        else:
            raise ValidationError(f"{v!r} is not a scalar")
    if saw_float and saw_fraction:
        raise ModeMismatchError("cannot mix floats and fractions in one computation")
    return FLOAT if saw_float else EXACT


def coerce_vector(values: Sequence, mode: str | None = None) -> tuple[Scalar, ...]:
    if mode is None:
        mode = infer_mode(values)
    return tuple(coerce(v, mode) for v in values)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense row-major matrix with a uniform scalar mode."""

    rows: int
    cols: int
    data: tuple[Scalar, ...]
    mode: str

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionError("matrix dimensions must be positive")
        if len(self.data) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.data)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], mode: str | None = None) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        if mode is None:
            mode = infer_mode(v for r in rows for v in r)
        data = tuple(coerce(v, mode) for r in rows for v in r)
        return cls(len(rows), ncols, data, mode)

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> "Matrix":
        return cls.diagonal([1] * n, mode)

    @classmethod
    def diagonal(cls, entries: Sequence, mode: str | None = None) -> "Matrix":
        entries = coerce_vector(entries, mode)
        mode = infer_mode(entries)
        zero = coerce(0, mode)
        n = len(entries)
        data = tuple(
            entries[i] if i == j else zero for i in range(n) for j in range(n)
        )
        return cls(n, n, data, mode)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int) -> Scalar:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        data = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, data, self.mode)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, exact in both modes.

        A's rows and B's columns are scaled to integers, so entry (i, j) is
        one integer dot product over the two scales; float mode returns it
        rounded once and raises :class:`NonFiniteError` when it overflows.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeMismatchError("matrix product across modes")
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = other.cols
        a, a_scales = _integer_rows(self.row(i) for i in range(self.rows))
        b, b_scales = _integer_rows(other.data[j::m] for j in range(m))
        out = [
            Fraction(sum(map(operator.mul, a_i, b_j)), sa * sb)
            for a_i, sa in zip(a, a_scales)
            for b_j, sb in zip(b, b_scales)
        ]
        if self.mode == FLOAT:
            out = [_round_once(v, "matrix product") for v in out]
        return Matrix(self.rows, m, tuple(out), self.mode)

    def scaled(self, factor: Scalar) -> "Matrix":
        factor = coerce(factor, self.mode)
        data = tuple(x * factor for x in self.data)
        if self.mode == FLOAT and not all(map(math.isfinite, data)):
            raise NonFiniteError("scaled matrix overflows a float; use exact mode")
        return Matrix(self.rows, self.cols, data, self.mode)


def _integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Each row as integers over one scale: row == int_row / lcm, exactly.

    Every entry, float or Fraction, is a ratio of integers; a row is scaled
    by the lcm of its denominators.
    """
    int_rows, lcms = [], []
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        lcm = math.lcm(*(q for _, q in ratios))
        int_rows.append([p * (lcm // q) for p, q in ratios])
        lcms.append(lcm)
    return int_rows, lcms


def _round_once(value: Fraction, what: str) -> float:
    """The float nearest an exact result; overflow is an error, never inf."""
    try:
        return float(value)
    except OverflowError:
        raise NonFiniteError(f"{what} overflows a float; use exact mode") from None


def _require_square(m: Matrix) -> int:
    if not m.is_square:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, not square")
    return m.rows


def determinant(m: Matrix) -> Scalar:
    """Determinant of a square matrix, exact in both modes.

    Every entry, float or Fraction, is a ratio of integers, so each row is
    scaled by the lcm of its denominators and the integer matrix goes through
    fraction-free (Bareiss) elimination: every intermediate entry is a
    subdeterminant of the input, each division is exact, and integer input
    gives an integer result.  Float mode returns the exact determinant of
    its entries rounded once, and raises :class:`NonFiniteError` when that
    value overflows a float.
    """
    n = _require_square(m)
    a, lcms = _integer_rows(m.row(i) for i in range(n))
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                sign = 0  # column k is zero from the diagonal down: singular
                break
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        tail = a[k][k + 1 :]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i][k + 1 :] = [(x * pivot - aik * y) // prev for x, y in zip(a[i][k + 1 :], tail)]
        prev = pivot
    det = Fraction(sign * a[n - 1][n - 1], math.prod(lcms))
    return det if m.mode == EXACT else _round_once(det, "determinant")
