"""Scalar and dense-matrix kernel used by every other module.

Two computation modes, never mixed inside one object or operation:

* ``"exact"`` -- entries are :class:`fractions.Fraction`; arithmetic is
  closed and roundoff-free.
* ``"float"`` -- entries are finite 64-bit floats; NaN/inf is rejected at
  construction.

Both modes share one determinant kernel: fraction-free (Bareiss) elimination
on Python ints after clearing each row's denominators.  Exact mode returns
the determinant as a Fraction; float mode returns the exact determinant of
its (dyadic rational) entries rounded once to a float.

Everything here is a pure function on immutable data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from typing import Iterable, Sequence, Union

from .errors import DimensionError, ModeMismatchError, NonFiniteError, ValidationError

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"


def as_exact(value) -> Fraction:
    """Coerce an int/Fraction to Fraction; floats are rejected (no silent rounding)."""
    if isinstance(value, bool):
        raise ValidationError("booleans are not scalars")
    if isinstance(value, Rational):
        return Fraction(value)
    raise ModeMismatchError(f"cannot use {value!r} in exact mode")


def as_float(value) -> float:
    """Coerce to a finite float; NaN/inf is an error, never a stored value."""
    if isinstance(value, bool):
        raise ValidationError("booleans are not scalars")
    x = float(value)
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
        one = Fraction(1) if mode == EXACT else 1.0
        zero = Fraction(0) if mode == EXACT else 0.0
        data = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(n, n, data, mode)

    @classmethod
    def diagonal(cls, entries: Sequence, mode: str | None = None) -> "Matrix":
        entries = coerce_vector(entries, mode)
        mode = infer_mode(entries)
        zero = Fraction(0) if mode == EXACT else 0.0
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
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeMismatchError("matrix product across modes")
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = arow[0] * b[j]
                for t in range(1, k):
                    acc += arow[t] * b[t * m + j]
                out.append(acc)
        return Matrix(n, m, tuple(out), self.mode)

    def scaled(self, factor: Scalar) -> "Matrix":
        factor = coerce(factor, self.mode)
        return Matrix(self.rows, self.cols, tuple(x * factor for x in self.data), self.mode)


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
    a = []
    scale = 1
    for i in range(n):
        ratios = [v.as_integer_ratio() for v in m.row(i)]
        lcm = math.lcm(*(q for _, q in ratios))
        a.append([p * (lcm // q) for p, q in ratios])
        scale *= lcm
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
    det = Fraction(sign * a[n - 1][n - 1], scale)
    if m.mode == EXACT:
        return det
    try:
        return float(det)
    except OverflowError:
        raise NonFiniteError("determinant overflows a float; use exact mode") from None
