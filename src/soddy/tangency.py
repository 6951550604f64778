"""Signed radii, curvatures, and the tangency identity that links them.

A configuration of n+2 mutually tangent n-spheres with signed radii r_i
(negative radius = the sphere enclosing the others) has center distances
d_ij = |r_i + r_j|.  Feeding those squared distances into the bordered
distance determinant factors completely:

    det = (-1)^n * 2^(2n+1) * (prod r_i)^2 * [(sum k_i)^2 - n * sum k_i^2]

with curvatures k_i = 1/r_i, stated once as :func:`_factored_determinant`.
It runs on integers: the radii scaled once to R_i over one L, the
curvatures to C_i = L*K/R_i over K = lcm|R_i| (:func:`_scaled_radii`), so
the value is one integer over (L^(n+2) * K)^2, as each exact squared
distance is (R_i + R_j)^2 over L^2.  The bracket is the tangency residual,
which vanishes exactly when the configuration is flat; every tangency test
reads it and its zero from :func:`_tangency_residual`.  Curvature is the
interchange unit for solving (the identity is quadratic in each k_i); radii
are the unit for building distances.  Conversions are explicit.

``cayley_menger`` is imported inside the two functions that build its types,
:func:`tangency_squared_distances` and :func:`factored_volume_squared`, so
code that only solves or checks curvatures does not load it.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DimensionError, FloatModeRequiredError, InconsistentConfigurationError,
    NonFiniteError, NoRealSolutionError, ValidationError,
)
from .numeric import EXACT, REL_TOL, Frozen, Scalar, _integer_rows, _sum, coerce_vector, from_exact
from .serialize import format_scalar

if TYPE_CHECKING:
    from .cayley_menger import SquaredDistanceMatrix, VolumeSquared


class _Spheres(Frozen):
    """n+2 nonzero scalars of one mode, one per sphere: ``values``, ``n`` and ``mode``."""

    __slots__ = __match_args__ = ("values", "n", "mode")

    values: tuple[Scalar, ...]
    n: int
    mode: str

    def __init__(self, values: tuple[Scalar, ...], n: int, mode: str):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)


class SignedRadii(_Spheres):
    """Nonzero signed radii of n+2 mutually tangent n-spheres."""

    __slots__ = ()

    def product(self) -> Scalar:
        return math.prod(self.values)


class Curvatures(_Spheres):
    """Reciprocal radii k_i = 1/r_i of n+2 mutually tangent n-spheres."""

    __slots__ = ()


def _require_dimension(n: int) -> None:
    if n < 1:
        raise DimensionError("sphere dimension n must be >= 1")


def _validated(values: Sequence, n: int, count: int, strict: bool, one: str, many: str) -> tuple:
    """(values, mode) of ``count`` nonzero values; messages name ``one``/``many``."""
    _require_dimension(n)
    vals, mode = coerce_vector(values)
    if len(vals) != count:
        raise ValidationError(f"need {count} {many} for dimension {n}, got {len(vals)}")
    if any(v == 0 for v in vals):
        raise ValidationError(f"zero {one} is not allowed")
    if strict and sum(1 for v in vals if v < 0) > 1:
        raise ValidationError(f"at most one {one} may be negative (one enclosing sphere)")
    return vals, mode


def validate_radii(values: Sequence, n: int, strict: bool = True) -> SignedRadii:
    """Check a raw radius list and wrap it.

    Both modes reject zero radii and lists of length != n+2.  Strict mode
    additionally rejects more than one negative radius: at most one sphere
    can enclose the others.  Lenient mode keeps the identity available as a
    purely algebraic fact for any nonzero radii.
    """
    vals, mode = _validated(values, n, n + 2, strict, "radius", "radii")
    return SignedRadii(values=vals, n=n, mode=mode)


def validate_curvatures(values: Sequence, n: int, strict: bool = True) -> Curvatures:
    """Same rules as :func:`validate_radii`, applied to curvatures."""
    vals, mode = _validated(values, n, n + 2, strict, "curvature", "curvatures")
    return Curvatures(values=vals, n=n, mode=mode)


def curvatures_from_radii(r: SignedRadii) -> Curvatures:
    return Curvatures(values=tuple(1 / v for v in r.values), n=r.n, mode=r.mode)


def radii_from_curvatures(k: Curvatures) -> SignedRadii:
    return SignedRadii(values=tuple(1 / v for v in k.values), n=k.n, mode=k.mode)


def _scaled_radii(values: Sequence[Scalar]) -> tuple[list[int], int, list[int], int]:
    """(R, L, C, K): the radii as integers R_i over one L, and the curvatures
    as integers C_i = L * K / R_i over K = lcm |R_i|, so r_i = R_i / L and
    k_i = C_i / K exactly.  Float radii are read at their exact values."""
    (rad,), den = _integer_rows([values])
    k_den = math.lcm(*rad)
    return rad, den, [den * k_den // x for x in rad], k_den


def tangency_squared_distances(r: SignedRadii) -> SquaredDistanceMatrix:
    """Squared center distances (r_i + r_j)^2 of the tangent configuration:
    exact radii R_i / L give the upper triangle (R_i + R_j)^2 over L^2, float
    radii float squares.  A float square of a nonzero sum below the smallest
    normal float raises :class:`NonFiniteError`, as one past the float range does."""
    from .cayley_menger import SquaredDistanceMatrix

    vals = r.values
    if r.mode == EXACT:
        (vals,), den = _integer_rows([vals])
        upper = [[(a + b) ** 2 for b in vals[i + 1 :]] for i, a in enumerate(vals)]
        return SquaredDistanceMatrix._from_upper(upper, den * den)
    # a square by *, not ** 2: a float square past the float range is then inf,
    # which coercion rejects as non-finite, instead of an OverflowError
    rows = [[(a + b) * (a + b) if i != j else 0 for j, b in enumerate(vals)] for i, a in enumerate(vals)]
    for i, j in itertools.combinations(range(len(vals)), 2):
        if vals[i] + vals[j] and rows[i][j] < sys.float_info.min:
            raise NonFiniteError(f"squared distance ({i},{j}) underflows a float")
    return SquaredDistanceMatrix.from_entries(rows, r.mode)


def _tangency_residual(values: Sequence[Scalar], n: int, mode: str) -> tuple[Scalar, Scalar]:
    """(sum k_i)^2 - n * sum k_i^2 and the mode's zero for it: 0 exact, REL_TOL *
    max k_i^2 float, the same at every scale.  The tangency test is
    ``not abs(residual) <= zero``, so a NaN residual (overflowed squares) fails.
    Exact values are read as integers over one denominator, so the residual is
    one integer over its square."""
    if mode == EXACT:
        (ints,), den = _integer_rows([values])
        s = sum(ints)
        return Fraction(s * s - n * sum(v * v for v in ints), den * den), 0
    s = _sum(values)
    squares = [v * v for v in values]
    return s * s - n * _sum(squares), REL_TOL * max(squares)


def descartes_residual(k: Curvatures) -> Scalar:
    """(sum k_i)^2 - n * sum k_i^2; zero iff the tangency identity holds.
    A float residual past the float range raises :class:`NonFiniteError`."""
    res = _tangency_residual(k.values, k.n, k.mode)[0]
    if k.mode != EXACT and not math.isfinite(res):
        raise NonFiniteError("tangency residual overflows a float; use exact mode")
    return res


def _signed_residual(curv: Sequence[int], n: int) -> int:
    """(-1)^n * 2^(2n+1) * residual for curvatures C_i / K, times K^2."""
    s = sum(curv)
    return (-1) ** n * 2 ** (2 * n + 1) * (s * s - n * sum(c * c for c in curv))


def _factored_determinant(r: SignedRadii) -> Fraction:
    """The right side of the factored identity, exactly, on the exact values
    of the radii: (-1)^n * 2^(2n+1) * (prod r_i)^2 * residual, that is
    (prod R_i)^2 times the signed residual over (L^(n+2) * K)^2."""
    rad, den, curv, k_den = _scaled_radii(r.values)
    p = math.prod(rad)
    return Fraction(p * p * _signed_residual(curv, r.n), (den ** len(rad) * k_den) ** 2)


def factored_volume_squared(r: SignedRadii) -> VolumeSquared:
    """Squared simplex content of the centers, via the factored identity.

    Equals ``volume_squared(tangency_squared_distances(r))`` exactly for all
    rational radii; a float value is that exact result rounded once.
    """
    from .cayley_menger import VolumeSquared, _volume_constant

    value = _volume_constant(r.n + 2) * _factored_determinant(r)
    return VolumeSquared(value=from_exact(value, r.mode, "squared volume"), dim=r.n + 1)


def _exact_sqrt(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    raise FloatModeRequiredError(
        f"discriminant {format_scalar(x)} is not a perfect rational square; rerun in float mode"
    )


def _double_root(disc: Scalar, s: Scalar, n: int) -> bool:
    """The double-root rule: |disc| <= 8*n*eps*S^2, eps the float epsilon (exact on rationals)."""
    return abs(disc) <= 8 * n * Fraction(sys.float_info.epsilon) * s * s


def solve_missing_curvature(known: Sequence, n: int) -> tuple[Scalar, Scalar]:
    """Both curvatures completing n+1 known ones, ordered (larger, smaller).

    With S = sum(known) and Q = sum(known^2) the identity is quadratic in the
    missing curvature; the roots are (S +- sqrt(n(S^2 - (n-1)Q))) / (n-1).
    Exact mode returns roots only when the discriminant is a perfect rational
    square and raises :class:`FloatModeRequiredError` otherwise -- it never
    degrades silently.  Float mode takes a discriminant within roundoff of
    zero, of either sign, as a double root.  n = 1 collapses to a linear
    equation with a single root, returned twice.  A float root past the
    float range (overflowed to inf or NaN) raises :class:`NonFiniteError`.
    """
    vals, mode = _validated(known, n, n + 1, False, "curvature", "known curvatures")
    s = _sum(vals)
    q = _sum([v * v for v in vals])
    if n == 1:
        # leading coefficient n-1 vanishes: 2*S*k + (S^2 - Q) = 0
        if s == 0:
            raise NoRealSolutionError("degenerate linear equation (sum of curvatures is zero)")
        roots = ((q - s * s) / (2 * s),) * 2
    else:
        disc = n * (s * s - (n - 1) * q)
        if mode != EXACT and _double_root(disc, s, n):
            disc = 0.0
        if disc < 0:
            raise NoRealSolutionError(f"negative discriminant {format_scalar(disc)}")
        root_disc = _exact_sqrt(disc) if mode == EXACT else math.sqrt(disc)
        roots = ((s + root_disc) / (n - 1), (s - root_disc) / (n - 1))
    if mode != EXACT and not all(map(math.isfinite, roots)):
        raise NonFiniteError("missing curvature overflows a float; use exact mode")
    return roots


def vieta_partner(k: Curvatures, index: int | slice) -> Scalar | tuple[Scalar, ...]:
    """The other root of the missing-curvature quadratic at ``index``, or a
    tuple of the partners of ``k.values[index]`` for a slice.

    partner = 2 * sum(other curvatures) / (n-1) - k[index].  Requires the
    input to satisfy the tangency identity by the one test of
    :func:`_tangency_residual`, run once per call however many partners it
    returns: |residual| <= 0 in exact mode and <= REL_TOL * max k_i^2 in
    float mode.  Replacing k[index] with the partner preserves the identity,
    which is how gaskets grow without ever taking a square root.
    """
    if k.n < 2:
        raise DimensionError("the quadratic degenerates for n = 1; no partner exists")
    vals = k.values
    if not isinstance(index, slice) and not 0 <= index < len(vals):
        raise ValidationError(f"index {index} out of range")
    res, zero = _tangency_residual(vals, k.n, k.mode)
    if not abs(res) <= zero:
        raise InconsistentConfigurationError(
            f"tangency residual {format_scalar(res)} exceeds tolerance {format_scalar(zero)}"
        )
    s, m = _sum(vals), k.n - 1
    if isinstance(index, slice):
        return tuple(2 * (s - v) / m - v for v in vals[index])
    return 2 * (s - vals[index]) / m - vals[index]
