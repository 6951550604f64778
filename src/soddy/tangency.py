"""Signed radii, curvatures, and the tangency identity that links them.

A configuration of n+2 mutually tangent n-spheres with signed radii r_i
(negative radius = the sphere enclosing the others) has center distances
d_ij = |r_i + r_j|.  Feeding those squared distances into the bordered
distance determinant factors completely:

    det = (-1)^n * 2^(2n+1) * (prod r_i)^2 * [(sum k_i)^2 - n * sum k_i^2]

with curvatures k_i = 1/r_i.  The bracket is the tangency residual computed
by :func:`descartes_residual`; it vanishes exactly when the configuration is
flat, which for real circle/sphere packings it always is.  Curvature is the
interchange unit for solving (the identity is quadratic in each k_i); radii
are the unit for building distances.  Conversions are explicit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cayley_menger import SquaredDistanceMatrix, VolumeSquared
from .errors import (
    DimensionError,
    FloatModeRequiredError,
    InconsistentConfigurationError,
    NoRealSolutionError,
    ValidationError,
)
from .numeric import EXACT, Scalar, coerce_vector, infer_mode


@dataclass(frozen=True)
class SignedRadii:
    """Nonzero signed radii of n+2 mutually tangent n-spheres."""

    values: tuple[Scalar, ...]
    n: int
    mode: str

    def product(self) -> Scalar:
        return math.prod(self.values)


@dataclass(frozen=True)
class Curvatures:
    """Reciprocal radii k_i = 1/r_i of n+2 mutually tangent n-spheres."""

    values: tuple[Scalar, ...]
    n: int
    mode: str


def validate_radii(values: Sequence, n: int, strict: bool = True) -> SignedRadii:
    """Check a raw radius list and wrap it.

    Both modes reject zero radii and lists of length != n+2.  Strict mode
    additionally rejects more than one negative radius: at most one sphere
    can enclose the others.  Lenient mode keeps the identity available as a
    purely algebraic fact for any nonzero radii.
    """
    if n < 1:
        raise DimensionError("sphere dimension n must be >= 1")
    vals = coerce_vector(values)
    if len(vals) != n + 2:
        raise ValidationError(f"need {n + 2} radii for dimension {n}, got {len(vals)}")
    if any(v == 0 for v in vals):
        raise ValidationError("zero radius is not allowed")
    if strict and sum(1 for v in vals if v < 0) > 1:
        raise ValidationError("at most one radius may be negative (one enclosing sphere)")
    return SignedRadii(values=vals, n=n, mode=infer_mode(vals))


def validate_curvatures(values: Sequence, n: int, strict: bool = True) -> Curvatures:
    """Same rules as :func:`validate_radii`, applied to curvatures."""
    r = validate_radii(values, n, strict)
    return Curvatures(values=r.values, n=n, mode=r.mode)


def curvatures_from_radii(r: SignedRadii) -> Curvatures:
    return Curvatures(values=tuple(1 / v for v in r.values), n=r.n, mode=r.mode)


def radii_from_curvatures(k: Curvatures) -> SignedRadii:
    return SignedRadii(values=tuple(1 / v for v in k.values), n=k.n, mode=k.mode)


def tangency_squared_distances(r: SignedRadii) -> SquaredDistanceMatrix:
    """Squared center distances (r_i + r_j)^2 of the tangent configuration."""
    m = len(r.values)
    rows = [
        [(r.values[i] + r.values[j]) ** 2 if i != j else 0 for j in range(m)]
        for i in range(m)
    ]
    return SquaredDistanceMatrix.from_entries(rows, r.mode)


def descartes_residual(k: Curvatures) -> Scalar:
    """(sum k_i)^2 - n * sum k_i^2; zero iff the tangency identity holds."""
    s = sum(k.values)
    q = sum(v * v for v in k.values)
    return s * s - k.n * q


def factored_volume_squared(r: SignedRadii) -> VolumeSquared:
    """Squared simplex content of the centers, via the factored identity.

    Equals ``volume_squared(tangency_squared_distances(r))`` exactly for all
    rational radii: 2^n * (prod r_i / (n+1)!)^2 * residual.
    """
    res = descartes_residual(curvatures_from_radii(r))
    value = 2**r.n * (r.product() / math.factorial(r.n + 1)) ** 2 * res
    return VolumeSquared(value=value, dim=r.n + 1)


def _exact_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise NoRealSolutionError("negative discriminant")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    raise FloatModeRequiredError(
        f"discriminant {x} is not a perfect rational square; rerun in float mode"
    )


def solve_missing_curvature(known: Sequence, n: int) -> tuple[Scalar, Scalar]:
    """Both curvatures completing n+1 known ones, ordered (larger, smaller).

    With S = sum(known) and Q = sum(known^2) the identity is quadratic in the
    missing curvature; the roots are (S +- sqrt(n(S^2 - (n-1)Q))) / (n-1).
    Exact mode returns roots only when the discriminant is a perfect rational
    square and raises :class:`FloatModeRequiredError` otherwise -- it never
    degrades silently.  Float mode takes a discriminant within roundoff of
    zero, of either sign, as a double root.  n = 1 collapses to a linear
    equation with a single root, returned twice.
    """
    if n < 1:
        raise DimensionError("sphere dimension n must be >= 1")
    vals = coerce_vector(known)
    if len(vals) != n + 1:
        raise ValidationError(f"need {n + 1} known curvatures for dimension {n}")
    if any(v == 0 for v in vals):
        raise ValidationError("zero curvature is not allowed")
    s = sum(vals)
    q = sum(v * v for v in vals)
    if n == 1:
        # leading coefficient n-1 vanishes: 2*S*k + (S^2 - Q) = 0
        if s == 0:
            raise NoRealSolutionError("degenerate linear equation (sum of curvatures is zero)")
        root = (q - s * s) / (2 * s)
        return (root, root)
    disc = n * (s * s - (n - 1) * q)
    if infer_mode(vals) == EXACT:
        root_disc = _exact_sqrt(disc)
    else:
        # Within a few ulps of S^2 the sign of the discriminant is roundoff:
        # treat it as a double root rather than fail, or take a square root
        # of noise that moves both roots by ~1e-8.
        if abs(disc) <= 8 * n * sys.float_info.epsilon * s * s:
            disc = 0.0
        if disc < 0:
            raise NoRealSolutionError(f"negative discriminant {disc}")
        root_disc = math.sqrt(disc)
    return ((s + root_disc) / (n - 1), (s - root_disc) / (n - 1))


def vieta_partner(k: Curvatures, index: int, tol: float = 1e-9) -> Scalar:
    """The other root of the missing-curvature quadratic at ``index``.

    partner = 2 * sum(other curvatures) / (n-1) - k[index].  Requires the
    input to satisfy the tangency identity (exactly in exact mode, within
    ``tol`` * max(1, k_max^2) in float mode); replacing k[index] with the
    partner preserves the identity, which is how gaskets grow without ever
    taking a square root.
    """
    if k.n < 2:
        raise DimensionError("the quadratic degenerates for n = 1; no partner exists")
    if not 0 <= index < len(k.values):
        raise ValidationError(f"index {index} out of range")
    res = descartes_residual(k)
    if k.mode == EXACT:
        if res != 0:
            raise InconsistentConfigurationError(
                f"curvatures do not satisfy the tangency identity (residual {res})"
            )
    else:
        scale = max(1.0, max(v * v for v in k.values))
        # written so that a NaN residual (overflowed squares) fails the check
        if not abs(res) <= tol * scale:
            raise InconsistentConfigurationError(
                f"tangency residual {res} exceeds tolerance {tol * scale}"
            )
    return 2 * (sum(k.values) - k.values[index]) / (k.n - 1) - k.values[index]
