"""Scalar and dense-matrix kernel used by every other module.

Two computation modes, never mixed inside one object or operation:

* ``"exact"`` -- entries are rationals, given as ints or Fractions and read
  back as :class:`fractions.Fraction`; arithmetic is closed and roundoff-free.
* ``"float"`` -- entries are finite 64-bit floats; NaN/inf is rejected at
  construction.

Every matrix is stored as integer rows over one positive denominator, with
gcd 1 (equal values, equal forms).  A float is a ratio of integers, so a
float matrix holds its floats' exact values, put in that form once, when it
is built (:func:`_integer_rows`); it reads a value out as ``v / den``, which
is correctly rounded (each float reads back as itself, -0.0 as 0.0, since 0
has no sign), and rounds a product once.  The work runs on Python ints --
dot products for ``@``, fraction-free (Bareiss) elimination for
:func:`determinant` -- and a Fraction is built only where a caller asks for
one: an exact matrix's ``data``, ``at``, ``row``, ``to_rows`` and ``repr``,
and an exact determinant.  A symmetric integer matrix has its own
elimination, :func:`symmetric_bareiss`: it skips a zero row, and each row
keeps its values from when it was the pivot row.

Scalars enter and leave their mode only here.  :func:`coerce_vector` is the
one place a mode is inferred; :func:`as_exact` and :func:`as_float` build a
scalar of each mode; :func:`from_exact` returns an exact result as it is in
exact mode and rounded once in float mode, so a float product or determinant
carries one rounding, and overflow raises instead of storing inf.  Other
modules write their arithmetic once for both modes, with int constants, so
``Fraction op int`` stays a Fraction and ``float op int`` a float; they
branch on the mode only where the two modes mean different checks (the
relative tolerance :data:`REL_TOL`, an exact square root, a float-only sign
check).

Everything here is a pure function on immutable data, except
:func:`symmetric_bareiss`, which overwrites the lists it is given.
:class:`Frozen` is the base of the other modules' immutable values, which
behave as frozen dataclasses with no ``dataclasses`` import (that protocol
is built only when asked for), and :func:`_sum` their one left-to-right
sum, so a float sum has the same bits on every Python version.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from numbers import Integral, Rational, Real
from typing import Iterable, Sequence, Union

from .errors import DimensionError, ModeMismatchError, NonFiniteError, ValidationError

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

#: The relative error every float-mode tolerance check allows.
REL_TOL = 1e-9


def _check_scalar(value) -> None:
    """Reject values that are scalars in neither mode: booleans, None, lists, ..."""
    # float first: the common case skips the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (float, Real)):
        raise ValidationError(f"{value!r} is not a scalar")


def as_exact(value) -> Fraction:
    """Coerce an int/Fraction to Fraction; floats are rejected (no silent rounding)."""
    if type(value) is Fraction:  # immutable and already exact: no copy
        return value
    if type(value) is int:  # bool is a subclass, so it takes the checks below
        return Fraction(value)
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


def _kind(value) -> type:
    """int, Fraction or float: which kind of scalar ``value`` is, for mode inference."""
    if isinstance(value, float):
        return float
    if isinstance(value, Rational):
        return int if isinstance(value, Integral) else Fraction
    raise ValidationError(f"{value!r} is not a scalar")


def coerce_vector(values: Sequence, mode: str | None = None) -> tuple[tuple[Scalar, ...], str]:
    """The values coerced to ``mode``, and that mode: the one mode inference.

    With no ``mode``, any float makes the values float, else they are exact.
    Mixing floats with non-integer rationals raises, since that almost always
    signals an accidental loss of exactness.  Only types other than int,
    Fraction and float (numpy scalars, bools, ...) take abstract-class checks.
    A mode other than ``"exact"`` or ``"float"`` is a :class:`ValidationError`.
    """
    if mode is None:
        kinds = set(map(type, values))
        if not kinds <= {int, Fraction, float}:
            kinds = {_kind(v) for v in values}
        if float in kinds and Fraction in kinds:
            raise ModeMismatchError("cannot mix floats and fractions in one computation")
        mode = FLOAT if float in kinds else EXACT
    return tuple(map(as_exact if _known(mode) == EXACT else as_float, values)), mode


class Matrix:
    """Immutable dense row-major matrix with a uniform scalar mode.

    Stored as ``_num``, the entries row by row, as integers over ``_den``, a
    positive denominator in lowest terms, in both modes: a float entry is
    held as its exact value.  The constructor coerces ``data`` as
    :meth:`from_rows` does.
    """

    def __init__(self, rows: int, cols: int, data: Sequence, mode: str):
        if rows <= 0 or cols <= 0:
            raise DimensionError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(data)}")
        self._set(rows, cols, *_entries(data, _known(mode)))

    def _set(self, rows: int, cols: int, num: tuple, den: int, mode: str) -> "Matrix":
        self.__dict__.update(rows=rows, cols=cols, mode=mode, _num=num, _den=den)
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], mode: str | None = None) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return object.__new__(cls)._set(len(rows), ncols, *_entries([v for r in rows for v in r], mode))

    @classmethod
    def _from_integer_rows(cls, rows: Sequence[Sequence[int]], den: int, mode: str = EXACT) -> "Matrix":
        """The matrix rows / den in ``mode``, for integer rows and den > 0; in
        float mode each value must be a float's exact value."""
        num = [v for r in rows for v in r]
        g = math.gcd(den, *num)
        if g > 1:
            num, den = [v // g for v in num], den // g
        return object.__new__(cls)._set(len(rows), len(rows[0]), tuple(num), den, mode)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)], EXACT)

    def _scalars(self, values: Iterable) -> tuple[Scalar, ...]:
        den = self._den
        if self.mode == FLOAT:  # int / int is correctly rounded: each float reads back as itself
            return tuple(v / den for v in values)
        return tuple(Fraction(v, den) for v in values)

    @property
    def data(self) -> tuple[Scalar, ...]:
        return self._scalars(self._num)

    def at(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) is outside a {self.rows}x{self.cols} matrix")
        return self._scalars((self._num[i * self.cols + j],))[0]

    def row(self, i: int) -> tuple[Scalar, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} is outside a {self.rows}x{self.cols} matrix")
        return self._scalars(self._num[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _ratio_rows(self) -> list[list[tuple[int, int]]]:
        """The rows of (numerator, denominator) pairs in lowest terms."""
        den, c = self._den, self.cols
        pairs = [(v // g, den // g) for v in self._num for g in (math.gcd(v, den),)]
        return [pairs[k : k + c] for k in range(0, len(pairs), c)]

    def _as_integer_rows(self) -> tuple[list[list[int]], int]:
        """Fresh integer rows and one positive denominator: rows / den is the matrix."""
        c, num = self.cols, self._num
        return [list(num[k : k + c]) for k in range(0, len(num), c)], self._den

    def transpose(self) -> "Matrix":
        num = tuple(chain.from_iterable(self._num[j :: self.cols] for j in range(self.cols)))
        return object.__new__(Matrix)._set(self.cols, self.rows, num, self._den, self.mode)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, exact in both modes.

        A and B are each integer rows over one denominator, so entry (i, j)
        is one integer dot product over the product of the two; float mode
        rounds it once, holds that float exactly, and raises
        :class:`NonFiniteError` when it overflows.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeMismatchError("matrix product across modes")
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, a_den = self._as_integer_rows()
        b, b_den = other._as_integer_rows()
        b_cols = list(zip(*b))
        out = [[sum(map(operator.mul, a_i, b_j)) for b_j in b_cols] for a_i in a]
        den = a_den * b_den
        if self.mode == FLOAT:
            out, den = _integer_rows([from_exact(Fraction(v, den), FLOAT, "matrix product") for v in r] for r in out)
        return Matrix._from_integer_rows(out, den, self.mode)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__  # rows, cols, mode and the stored form

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._num, self._den, self.mode))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, data={self.data!r}, mode={self.mode!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Matrix is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _DataclassProtocol:
    """A dataclass protocol attribute of a :class:`Frozen` class, read from
    :func:`_dataclass_twin` of the class asked: cached per class, since one
    set on a base class would answer for every subclass too."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        return getattr(_dataclass_twin(owner), self.name)


@functools.cache
def _dataclass_twin(cls: type) -> type:
    """The frozen dataclass of ``cls``'s fields, with their annotations."""
    import dataclasses

    hints = {}
    for base in reversed(cls.__mro__):
        hints.update(base.__dict__.get("__annotations__", {}))
    fields = [(name, hints.get(name, "typing.Any")) for name in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


class Frozen:
    """Base of an immutable value whose fields are its ``__match_args__``.

    Instances are equal, hashed, printed and pickled by those fields, in
    order, as a frozen dataclass is, with no ``dataclasses`` import.  A
    subclass lists its fields in ``__match_args__``, and in ``__slots__``
    unless it keeps a ``__dict__`` or serves the field by a property; its
    ``__init__`` sets each once, with ``object.__setattr__`` or one
    ``__dict__`` write.  Any other setting or deleting raises
    ``dataclasses.FrozenInstanceError``, imported then.
    ``__reduce__`` rebuilds a copy or unpickled value through ``__init__``,
    which a slots class's default, that sets each slot on a bare object,
    cannot do here; ``__replace__`` serves ``copy.replace``.  The dataclass
    protocol, which ``fields``, ``replace``, ``asdict``, ``astuple`` and a
    ``@dataclass`` subclass read, is built on first read, from a frozen
    dataclass of the same fields: whoever reads it has imported
    ``dataclasses`` already.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassProtocol()
    __dataclass_params__ = _DataclassProtocol()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __replace__(self, /, **changes):
        return self.__class__(**{**dict(zip(self.__match_args__, self._fields())), **changes})

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _sum(values: Iterable[Scalar]) -> Scalar:
    """Left-to-right sum from int 0.  Builtin ``sum`` compensates float
    roundoff from Python 3.12 on, so its float results depend on the version."""
    total = 0
    for v in values:
        total += v
    return total


def _known(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise ValidationError(f"unknown mode {mode!r}")
    return mode


def _entries(values: Sequence, mode: str | None) -> tuple[tuple, int, str]:
    """Numerators, denominator and mode of the values coerced as by
    :func:`coerce_vector`, as integers over one denominator in lowest terms,
    with no Fraction built for int or Fraction input."""
    if mode not in (None, EXACT) or not set(map(type, values)) <= {int, Fraction}:
        values, mode = coerce_vector(values, mode)
    (num,), den = _integer_rows([values])
    return tuple(num), den, mode or EXACT


def _integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """The rows as integer rows over one denominator: rows == int_rows / den, exactly.

    Every entry, float or Fraction, is a ratio of integers; den is the lcm of
    all their denominators, positive and in lowest terms with the integers.
    Rows may differ in length.
    """
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    den = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (den // q) for p, q in row] for row in ratios], den


def from_exact(value: Fraction, mode: str, what: str) -> Scalar:
    """An exact result in ``mode``: itself, or the nearest float (never inf)."""
    if mode == EXACT:
        return value
    try:
        return float(value)
    except OverflowError:
        raise NonFiniteError(f"{what} overflows a float; use exact mode") from None


def determinant(m: Matrix) -> Scalar:
    """Determinant of a square matrix: its exact value, which float mode
    rounds once and refuses with :class:`NonFiniteError` when it overflows."""
    return from_exact(_exact_determinant(m), m.mode, "determinant")


def _exact_determinant(m: Matrix) -> Fraction:
    """The determinant of a square matrix of either mode, as a Fraction.

    The matrix is its integer rows over one denominator L, so this is their
    determinant, by fraction-free (Bareiss) elimination, over L^n.  Every
    intermediate entry is a subdeterminant of the integer rows, each division
    is exact, and integer input gives an integer result.  As in
    :func:`symmetric_bareiss`, a zero pivot is mended by adding a later index:
    row s, the first later row nonzero in column k, is added to row k, the same
    determinant-keeping operation on the input, as the intermediates are linear
    in each row not yet a pivot.  A column zero from the diagonal down gives 0.
    """
    n = m.rows
    if m.cols != n:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, not square")
    a, den = m._as_integer_rows()
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            s = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if s is None:
                return Fraction(0)
            a[k][k:] = [x + y for x, y in zip(a[k][k:], a[s][k:])]
        pivot = a[k][k]
        tail = a[k][k + 1 :]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i][k + 1 :] = [(x * pivot - aik * y) // prev for x, y in zip(a[i][k + 1 :], tail)]
        prev = pivot
    return Fraction(a[n - 1][n - 1], den**n)


def symmetric_bareiss(a: list[list[int]]) -> int:
    """Determinant of a symmetric integer matrix by fraction-free elimination.

    Reads and overwrites only entries j >= i: step k updates row i > k from
    column i on, with a[k][i] for a[i][k], and row k keeps the values it had
    as the pivot row.  A zero row k (a[k][s] == 0 for every s >= k) is
    skipped: prev stays, the later rows are still eliminated, and det is 0;
    each division stays exact, since Sylvester's identity holds for any set
    of pivot rows.  A zero pivot a[k][k] in a nonzero row is mended by the
    unimodular congruence "index k += t * index s" on rows and columns, s
    the first index with a[k][s] != 0: the pivot becomes 2t*a[k][s] + a[s][s],
    nonzero for t = 1 or, when a[s][s] == -2*a[k][s], for t = -1.  Bareiss
    intermediates are linear in each row not yet used as a pivot, so this is
    the same congruence on the input.  Afterwards a[k][k] is the principal
    minor of the mended matrix on the pivot rows before k and on k: the k+1st
    leading minor, up to and including the first zero.
    """
    n, prev = len(a), 1
    for k in range(n - 1):
        row = a[k]
        if row[k] == 0:
            s = next((j for j in range(k + 1, n) if row[j] != 0), None)
            if s is None:
                continue
            t = -1 if a[s][s] == -2 * row[s] else 1
            row[k] = 2 * t * row[s] + a[s][s]
            for j in range(k + 1, n):
                row[j] += t * (a[j][s] if j < s else a[s][j])
        pivot = row[k]
        for i in range(k + 1, n):
            aki, ai = row[i], a[i]
            ai[i:] = [(x * pivot - aki * y) // prev for x, y in zip(ai[i:], row[i:])]
        prev = pivot
    return a[n - 1][n - 1] if all(a[k][k] for k in range(n)) else 0
