"""Squared-distance matrices, their bordered determinants, and simplex content.

The bordered determinant of the pairwise squared distances among m points
encodes the squared (m-1)-dimensional volume of their simplex:

    det = (-1)^m * 2^(m-1) * ((m-1)!)^2 * v^2

so ``volume_squared`` divides the determinant by that constant.  For m = 3
this is Heron's formula in disguise (det = -16 A^2).  Squared distances are
the canonical interchange type throughout the library: tangency distances
(r_i + r_j)^2 stay rational even when the distances themselves do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, NonFiniteError, ValidationError
from .numeric import EXACT, FLOAT, Matrix, Scalar, coerce, coerce_vector, determinant, infer_mode


@dataclass(frozen=True)
class SquaredDistanceMatrix:
    """Symmetric matrix of squared pairwise distances among ``m`` points.

    Diagonal entries are zero.  Float mode additionally requires entries to
    be nonnegative and finite; exact mode permits any rational, since the
    algebraic identities hold regardless of realizability.
    """

    m: int
    entries: tuple[tuple[Scalar, ...], ...]
    mode: str

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence], mode: str | None = None) -> "SquaredDistanceMatrix":
        m = len(rows)
        if m < 2:
            raise DimensionError("need at least two points")
        if any(len(r) != m for r in rows):
            raise DimensionError("squared-distance matrix must be square")
        if mode is None:
            mode = infer_mode(v for r in rows for v in r)
        ent = tuple(tuple(coerce(v, mode) for v in r) for r in rows)
        for i in range(m):
            if ent[i][i] != 0:
                raise ValidationError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, m):
                if ent[i][j] != ent[j][i]:
                    raise ValidationError(f"entries ({i},{j}) and ({j},{i}) differ")
                if mode == FLOAT and ent[i][j] < 0:
                    raise ValidationError(f"negative squared distance at ({i},{j})")
        return cls(m, ent, mode)

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def max_entry(self) -> Scalar:
        return max(v for row in self.entries for v in row)


@dataclass(frozen=True)
class VolumeSquared:
    """Squared content of a simplex, tagged with the simplex dimension."""

    value: Scalar
    dim: int


def build_cm_matrix(d: SquaredDistanceMatrix) -> Matrix:
    """Bordered (m+1)x(m+1) matrix: zero corner, ones border, d^2 block."""
    rows = [[0] + [1] * d.m] + [[1, *row] for row in d.entries]
    return Matrix.from_rows(rows, d.mode)


def cm_determinant(d: SquaredDistanceMatrix) -> Scalar:
    return determinant(build_cm_matrix(d))


def _volume_constant(m: int) -> Fraction:
    # (-1)^m / (2^(m-1) * ((m-1)!)^2)
    return Fraction((-1) ** m, 2 ** (m - 1) * math.factorial(m - 1) ** 2)


def volume_squared(d: SquaredDistanceMatrix) -> VolumeSquared:
    """Squared (m-1)-dimensional content of the simplex on the m points.

    Nonnegative whenever the distances are realizable in m-1 dimensions; the
    sign is diagnostic otherwise.
    """
    # + 0 keeps a negative zero out of a degenerate float volume
    value = _volume_constant(d.m) * cm_determinant(d) + 0
    return VolumeSquared(value=value, dim=d.m - 1)


def heron_area_squared_from_squares(a2, b2, c2) -> Scalar:
    """Squared triangle area from squared side lengths (exact-friendly form)."""
    d = SquaredDistanceMatrix.from_entries([[0, c2, b2], [c2, 0, a2], [b2, a2, 0]])
    return Fraction(-1, 16) * cm_determinant(d) + 0  # a float zero area is 0.0, not -0.0


def heron_area_squared(a, b, c) -> Scalar:
    """Squared area of the triangle with side lengths a, b, c (all >= 0)."""
    a, b, c = coerce_vector([a, b, c])
    if a < 0 or b < 0 or c < 0:
        raise ValidationError("side lengths must be nonnegative")
    return heron_area_squared_from_squares(a * a, b * b, c * c)


def is_degenerate(d: SquaredDistanceMatrix, tol: float = 1e-9) -> bool:
    """True when the points fit in a subspace of dimension < m-1.

    Exact mode tests ``volume_squared == 0`` exactly; ``tol`` is ignored.
    Float mode compares |v^2| against ``tol * (max d^2)^(m-1)``, the scale
    matching the determinant's homogeneity degree, exactly on Fractions, so
    a scale beyond the float range does not overflow.
    """
    if not 0 <= tol < math.inf:  # written so that a NaN tolerance fails too
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol!r}")
    v2 = volume_squared(d).value
    if d.mode == EXACT:
        return v2 == 0
    scale = Fraction(d.max_entry()) ** (d.m - 1)
    return abs(Fraction(v2)) <= Fraction(tol) * scale


def volume_squared_from_coordinates(points: Sequence[Sequence]) -> VolumeSquared:
    """Independent volume oracle: |det(ones row over coordinate columns)| / (m-1)!.

    Takes m points of dimension m-1 and returns the squared content, bypassing
    distance matrices entirely.
    """
    m = len(points)
    if m < 2:
        raise DimensionError("need at least two points")
    if any(len(p) != m - 1 for p in points):
        raise DimensionError(f"each of the {m} points must have dimension {m - 1}")
    rows = [[1] * m] + [[p[coord] for p in points] for coord in range(m - 1)]
    det = determinant(Matrix.from_rows(rows))
    try:
        value = (det / math.factorial(m - 1)) ** 2
    except OverflowError:
        raise NonFiniteError("squared volume overflows a float; use exact mode") from None
    return VolumeSquared(value=value, dim=m - 1)
