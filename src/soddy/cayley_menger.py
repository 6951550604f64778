"""Squared-distance matrices, their bordered determinants, and simplex content.

The bordered determinant of the pairwise squared distances among m points
encodes the squared (m-1)-dimensional volume of their simplex:

    det = (-1)^m * 2^(m-1) * ((m-1)!)^2 * v^2

so ``volume_squared`` divides the determinant by that constant.  For m = 3
this is Heron's formula in disguise (det = -16 A^2).  Squared distances are
the canonical interchange type throughout the library: tangency distances
(r_i + r_j)^2 stay rational even when the distances themselves do not.

``cm_determinant`` puts the entries over one denominator L and returns
-det(M) / L^(m-1), where M_ij = L * (D_ij - D_0i - D_0j), i, j = 1..m-1, is
-2L times the Gram matrix about point 0 (row and column algebra, so it holds
for any symmetric zero-diagonal D), by symmetric fraction-free elimination.
A float determinant, volume or Heron area, and the float value of the
coordinate oracle :func:`volume_squared_from_coordinates`, is its exact value
rounded once.  A :class:`SquaredDistanceMatrix` keeps L with its upper
triangle times L, built by ``from_entries`` from checked input of either
mode or handed over unchecked by the library's exact producers (tangency
distances, the audit's coordinate distances), and ``build_cm_matrix``
borders those integers with L.  From first use it also keeps the eliminated
block, whose diagonal holds the leading minors Δ_k of M, so ``cm_determinant``,
``volume_squared``, ``is_degenerate`` and exact ``embedding.realize_points``
on one matrix share one elimination.  Pivots
p_k = Δ_k / (-2L Δ_{k-1}) are squared heights, and a point is flat when |p_k|
is at most the mode's zero, in ``is_degenerate`` as in ``realize_points``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import DimensionError, ValidationError
from .numeric import EXACT, FLOAT, REL_TOL, Frozen, Matrix, Scalar, _exact_determinant
from .numeric import coerce_vector, from_exact, symmetric_bareiss


class SquaredDistanceMatrix(Frozen):
    """Symmetric matrix of squared pairwise distances among ``m`` points.

    Diagonal entries are zero.  Float mode additionally requires entries to
    be nonnegative and finite; exact mode permits any rational, since the
    algebraic identities hold regardless of realizability.  Two values are
    kept per matrix (not fields, so ``==``, ``hash``, ``repr`` and
    ``astuple`` see only ``m``, ``entries`` and ``mode``): the upper triangle
    as integers over one denominator L, which :meth:`from_entries` builds
    from the (numerator, denominator) pairs it checks, or the library's exact
    producers hand over through :meth:`_from_upper`, and the eliminated
    block, computed on first use; both live in the instance ``__dict__``.
    A matrix made by the constructor, ``dataclasses.replace`` or
    ``copy.replace`` computes the first from ``entries`` when it is needed,
    so ``entries`` must stay the tuples ``from_entries`` builds.
    """

    __match_args__ = ("m", "entries", "mode")

    m: int
    entries: tuple[tuple[Scalar, ...], ...]
    mode: str

    def __init__(self, m: int, entries: tuple[tuple[Scalar, ...], ...], mode: str):
        self.__dict__.update(m=m, entries=entries, mode=mode)

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence], mode: str | None = None) -> "SquaredDistanceMatrix":
        m = len(rows)
        if m < 2:
            raise DimensionError("need at least two points")
        if any(len(r) != m for r in rows):
            raise DimensionError("squared-distance matrix must be square")
        flat, mode = coerce_vector([v for r in rows for v in r], mode)
        # entries are compared as (numerator, denominator) pairs in lowest
        # terms: equal pairs, equal values, and -0.0 is (0, 1)
        pairs = tuple(map(float.as_integer_ratio if mode == FLOAT else Fraction.as_integer_ratio, flat))
        grid = [pairs[i * m : (i + 1) * m] for i in range(m)]
        _check_entries(grid, nonnegative=mode == FLOAT)
        d = cls(m, tuple(flat[i * m : (i + 1) * m] for i in range(m)), mode)
        d.__dict__["_upper"] = _scaled_upper(grid)  # what the cached property computes
        return d

    @classmethod
    def _from_upper(cls, upper: Sequence[Sequence[int]], den: int) -> "SquaredDistanceMatrix":
        """The exact matrix whose row i holds D_ij = upper[i][j - i - 1] / den
        for j > i (the last row is empty), for den > 0, unchecked: the
        library's producers hand over the integers they computed.  Divided by
        g = gcd(den, entries), den / g is the lcm of the reduced denominators,
        so the kept L and upper triangle are those :meth:`from_entries` keeps."""
        g = math.gcd(den, *(v for row in upper for v in row))
        den, upper = den // g, [[v // g for v in row] for row in upper]
        zero = Fraction(0)
        ent = [[zero] * len(upper) for _ in upper]
        for i, row in enumerate(upper):
            for j, v in enumerate(row, i + 1):
                ent[i][j] = ent[j][i] = Fraction(v, den)
        d = cls(len(upper), tuple(map(tuple, ent)), EXACT)
        d.__dict__["_upper"] = den, upper
        return d

    def at(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise IndexError(f"entry ({i}, {j}) is outside a {self.m}x{self.m} matrix")
        return self.entries[i][j]

    def max_entry(self) -> Scalar:
        return max(v for row in self.entries for v in row)

    def _pivot_zero(self) -> Scalar:
        """The mode's zero for a pivot: 0 in exact mode, REL_TOL * max d^2 in float mode."""
        return 0 if self.mode == EXACT else REL_TOL * self.max_entry()

    @cached_property
    def _upper(self) -> tuple[int, list[list[int]]]:
        """L and row i of the upper triangle, D_ij for j > i, times L."""
        return _scaled_upper([[v.as_integer_ratio() for v in row] for row in self.entries])

    @cached_property
    def _gram(self) -> tuple[int, int, list[list[int]]]:
        """L, det(M) and the Gram block M (see above) as ``symmetric_bareiss``
        leaves it: each row as it stood when it was the pivot row, with Δ_{k+1}
        at a[k][k] up to the first zero.  Exact ``realize_points`` reads it."""
        scale, ints = self._upper
        b = ints[0]  # scale * D_0i for i = 1..m-1
        block = [
            [0] * r + [-2 * b[r]] + [x - b[r] - y for x, y in zip(ints[r + 1], b[r + 1 :])]
            for r in range(self.m - 1)
        ]
        return scale, symmetric_bareiss(block), block

    @cached_property
    def _exact_det(self) -> Fraction:
        scale, det, _ = self._gram
        return Fraction(-det, scale ** (self.m - 1))


def _check_entries(grid: Sequence[Sequence[tuple[int, int]]], nonnegative: bool) -> None:
    """Raise for the first (numerator, denominator) pair, in row order, that
    breaks the zero diagonal, symmetry or (with ``nonnegative``) the sign rule."""
    for i, row in enumerate(grid):
        if row[i] != (0, 1):
            raise ValidationError(f"diagonal entry ({i},{i}) must be zero")
        for j in range(i + 1, len(grid)):
            if row[j] != grid[j][i]:
                raise ValidationError(f"entries ({i},{j}) and ({j},{i}) differ")
            if nonnegative and row[j][0] < 0:
                raise ValidationError(f"negative squared distance at ({i},{j})")


def _scaled_upper(ratios: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, list[list[int]]]:
    """L, the lcm of the denominators above the diagonal, and those entries
    times L, row by row, from each entry's (numerator, denominator) pair."""
    upper = [row[i + 1 :] for i, row in enumerate(ratios)]
    scale = math.lcm(*(q for row in upper for _, q in row))
    return scale, [[p * (scale // q) for p, q in row] for row in upper]


class VolumeSquared(Frozen):
    """Squared content of a simplex, tagged with the simplex dimension."""

    __slots__ = __match_args__ = ("value", "dim")

    value: Scalar
    dim: int

    def __init__(self, value: Scalar, dim: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "dim", dim)


def build_cm_matrix(d: SquaredDistanceMatrix) -> Matrix:
    """Bordered (m+1)x(m+1) matrix: zero corner, ones border, d^2 block, in
    d's mode: a border of L around L * d^2, over L, from the kept integers."""
    scale, upper = d._upper
    rows = [[0] + [scale] * d.m] + [[scale] + [0] * d.m for _ in range(d.m)]
    for i, row in enumerate(upper, 1):
        for j, v in enumerate(row, i + 1):
            rows[i][j] = rows[j][i] = v
    return Matrix._from_integer_rows(rows, scale, d.mode)


def cm_determinant(d: SquaredDistanceMatrix) -> Scalar:
    return from_exact(d._exact_det, d.mode, "determinant")


def _volume_constant(m: int) -> Fraction:
    # (-1)^m / (2^(m-1) * ((m-1)!)^2)
    return Fraction((-1) ** m, 2 ** (m - 1) * math.factorial(m - 1) ** 2)


def volume_squared(d: SquaredDistanceMatrix) -> VolumeSquared:
    """Squared (m-1)-dimensional content of the simplex on the m points.

    Nonnegative whenever the distances are realizable in m-1 dimensions; the
    sign is diagnostic otherwise.
    """
    value = _volume_constant(d.m) * d._exact_det
    return VolumeSquared(value=from_exact(value, d.mode, "squared volume"), dim=d.m - 1)


def heron_area_squared_from_squares(a2, b2, c2) -> Scalar:
    """Squared triangle area from squared side lengths (exact-friendly form)."""
    d = SquaredDistanceMatrix.from_entries([[0, c2, b2], [c2, 0, a2], [b2, a2, 0]])
    return volume_squared(d).value


def heron_area_squared(a, b, c) -> Scalar:
    """Squared area of the triangle with side lengths a, b, c (all >= 0)."""
    (a, b, c), _ = coerce_vector([a, b, c])
    if a < 0 or b < 0 or c < 0:
        raise ValidationError("side lengths must be nonnegative")
    return heron_area_squared_from_squares(a * a, b * b, c * c)


def is_degenerate(d: SquaredDistanceMatrix) -> bool:
    """True when the points fit in a subspace of dimension < m-1.

    That is, when some pivot p_k = Δ_k / (-2L Δ_{k-1}), Δ_0 = 1, has |p_k| at
    most the zero of ``realize_points``: some Δ_k = 0 in exact mode, which is
    volume 0, and |p_k| <= REL_TOL * max d^2 in float mode.  The test
    cross-multiplies ints, so no scale overflows.  Past the first zero Δ_k
    the diagonal holds other minors, but that zero already answers True.
    """
    scale, _, block = d._gram
    minors = [row[k] for k, row in enumerate(block)]
    p, q = d._pivot_zero().as_integer_ratio()
    return any(abs(dk) * q <= p * abs(2 * scale * dj) for dj, dk in zip([1, *minors], minors))


def _simplex_size(points: Sequence[Sequence]) -> int:
    """m, for m >= 2 points of dimension m-1, the vertices of a simplex."""
    m = len(points)
    if m < 2:
        raise DimensionError("need at least two points")
    if any(len(p) != m - 1 for p in points):
        raise DimensionError(f"each of the {m} points must have dimension {m - 1}")
    return m


def volume_squared_from_coordinates(points: Sequence[Sequence]) -> VolumeSquared:
    """Independent volume oracle: |det(ones row over coordinate columns)| / (m-1)!.

    Takes m points of dimension m-1 and returns the squared content, bypassing
    distance matrices entirely.
    """
    m = _simplex_size(points)
    a = Matrix.from_rows([[1] * m] + [[p[coord] for p in points] for coord in range(m - 1)])
    value = (_exact_determinant(a) / math.factorial(m - 1)) ** 2
    return VolumeSquared(value=from_exact(value, a.mode, "squared volume"), dim=m - 1)
