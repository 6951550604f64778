"""Realize squared-distance matrices as float coordinates.

``realize_points`` factors the Gram matrix relative to point 0,
G_ij = (d_0i + d_0j - d_ij) / 2, as L diag(p) L^T.  Pivot p_k, the squared
distance of point k from the span of the points before it, is a ratio of
consecutive Cayley-Menger determinants.  Float input is factored one point
at a time.  Exact input is read off the elimination ``cm_determinant`` runs
(see ``cayley_menger``): a nonzero Δ_k = a[k][k] opens an axis, with
L_ik = a[k][i] / Δ_k, and a zero one is a flat point; as that elimination
is a congruence, by Sylvester's law of inertia the distances are Euclidean
exactly when no pivot is negative.  A point whose pivot is above the mode's
zero opens the next axis, and point i's coordinate on axis a is
L_ia * p_a^(1/2); so point 1 lies on the positive first axis, point 2 has a
nonnegative second coordinate, and so on, and each point that opens an axis
is exactly 0.0 on every later one.  A point that opens no axis lies within
the zero's square root of the span before it; it keeps that small offset
along the axes opened after it (exactly 0 in exact mode), so every distance
is reproduced.  ``append_point`` locates one more point by trilateration.

numpy is imported only inside ``append_point``, and ``cayley_menger`` only
for type checking: a caller hands in a matrix it already built.  Float sums
run left to right (``numeric._sum``), so coordinates have the same bits on
every Python version.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from typing import TYPE_CHECKING, Sequence

from .errors import (
    AmbiguousSolutionError,
    DimensionError,
    NegativeEigenvalueError,
    NoSolutionError,
    NonFiniteError,
    RankExceedsDimError,
    ValidationError,
)
from .numeric import EXACT, REL_TOL, Frozen, _sum, as_float
from .serialize import format_scalar

if TYPE_CHECKING:
    from .cayley_menger import SquaredDistanceMatrix


class EmbeddedPoints(Frozen):
    """m float coordinate vectors of one dimension, one tuple per point."""

    __slots__ = __match_args__ = ("coords",)

    coords: tuple[tuple[float, ...], ...]

    def __init__(self, coords: tuple[tuple[float, ...], ...]):
        try:
            coords = tuple(tuple(as_float(v) for v in row) for row in coords)
        except NonFiniteError:
            raise
        except (TypeError, ValidationError):  # not iterable as rows, or an entry nested deeper
            coords = ()
        if not coords or len({len(row) for row in coords}) != 1:
            raise DimensionError("coordinates must form an (m, dim) array of numbers")
        object.__setattr__(self, "coords", coords)

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords[0])

    def squared_distances(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(as_float(_sum((a - b) * (a - b) for a, b in zip(p, q))) for q in self.coords)
            for p in self.coords
        )


def _dot(x, y, w):
    """Sum of x_a * y_a * w_a over the shortest of the three."""
    return _sum(a * b * c for a, b, c in zip(x, y, w))


def realize_points(d: SquaredDistanceMatrix, dim: int) -> EmbeddedPoints:
    """Embed the m points of ``d`` into ``dim`` dimensions by one LDL^T pass.

    A pivot is zero when it is 0 in exact mode, or within REL_TOL * max d^2
    of 0 in float mode.  A negative pivot, or in float mode a squared
    distance that L and p miss by more than ten times that zero (the Gram
    matrix is indefinite), raises :class:`NegativeEigenvalueError`; exact
    input needs no such check (see the module docstring).  More than ``dim``
    axes raise :class:`RankExceedsDimError`; float overflow raises
    :class:`NonFiniteError`.
    """
    if dim < 1:
        raise DimensionError("target dimension must be >= 1")
    e, zero = d.entries, d._pivot_zero()
    if d.mode == EXACT:  # row k of the eliminated block is point k + 1
        scale, _, block = d._gram
        axes = [k for k, row in enumerate(block) if row[k]]
        deltas = [block[k][k] for k in axes]
        pivots = [Fraction(dk, -2 * scale * dj) for dj, dk in zip([1, *deltas], deltas)]
        for k, p in zip(axes, pivots):
            if p < 0:
                raise NegativeEigenvalueError(f"distances are non-Euclidean: pivot of point {k + 1} < 0")
        openers = [k + 1 for k in axes]
        rows = [[Fraction(block[k][i - 1], block[k][k]) for k in axes if k < i] for i in range(d.m)]
    else:
        pivots, openers = [], []  # per axis: p_a and the point that opened it
        # rows[i][a] = L_ia, zero past the row's end; point 0 is the origin
        rows = [[] for _ in range(d.m)]
        flat = []  # (i, number of axes before i) for each point that opened no axis

        def extend(i):
            """Append L_ia for the axes a opened since row i was last extended."""
            row = rows[i]
            for j, p in zip(openers[len(row) :], pivots[len(row) :]):
                gram = (e[0][i] + e[0][j] - e[i][j]) / 2
                row.append((gram - _dot(row, rows[j], pivots)) / p)

        for i in range(1, d.m):
            extend(i)
            pivot = as_float(e[0][i] - _dot(rows[i], rows[i], pivots))
            # each check is written so that a NaN fails it
            if not -zero <= pivot:
                raise NegativeEigenvalueError(f"distances are non-Euclidean: pivot of point {i} < 0")
            if pivot <= zero:
                flat.append((i, len(pivots)))
            else:
                pivots.append(pivot)
                openers.append(i)
                rows[i].append(1)
        # A flat point is within zero^(1/2) of the span before it, but its offset
        # h along the axes opened after it moves its distances to later points by
        # up to 2 h max d.  An offset that moves none by more than zero / 2 is
        # roundoff, and is dropped so that exactly flat points stay flat.
        for i, a in flat:
            extend(i)
            if _dot(rows[i][a:], rows[i][a:], pivots[a:]) <= zero * REL_TOL / 16:
                del rows[i][a:]
        for i, j in combinations(range(d.m), 2):
            diff = [x - y for x, y in zip_longest(rows[i], rows[j], fillvalue=0)]
            if not abs(as_float(_dot(diff, diff, pivots)) - e[i][j]) <= 10 * zero:
                raise NegativeEigenvalueError(f"distances are non-Euclidean: d[{i}][{j}] is not reproduced")
    if len(pivots) > dim:
        raise RankExceedsDimError(
            f"distances need more than {dim} dimensions: point {openers[dim]} opens axis {dim + 1}"
            f" at squared height {format_scalar(pivots[dim])} > zero {format_scalar(zero)}"
        )
    roots = [as_float(p) ** 0.5 for p in pivots]
    # + 0.0 keeps negative zeros out of the coordinates
    return EmbeddedPoints(
        tuple(
            tuple(as_float(x) * r + 0.0 for x, r in zip(row, roots)) + (0.0,) * (dim - len(row))
            for row in rows
        )
    )


def append_point(existing: EmbeddedPoints, sq_dists: Sequence[float]) -> np.ndarray:
    """Locate one new point from its squared distances to the existing ones.

    Differencing the sphere equations against point 0 gives a linear system.
    A full-rank system pins the point; rank dim-1 leaves a single reflection,
    resolved deterministically toward the larger final coordinate (the
    nonnegative choice once the existing points are orientation-normalized).
    Anything looser raises
    :class:`AmbiguousSolutionError`; distances that cannot be met raise
    :class:`NoSolutionError`.
    """
    import numpy as np

    x = np.array(existing.coords)
    m, dim = x.shape
    sq = np.asarray(sq_dists, dtype=float)
    if sq.shape != (m,):
        raise DimensionError(f"need {m} squared distances, got {sq.shape}")
    if not np.isfinite(sq).all():
        raise NonFiniteError("squared distances must be finite")
    scale = max(sq.max(initial=0.0), 1e-300)

    a = 2.0 * (x[1:] - x[0])
    b = sq[0] - sq[1:] + (x[1:] ** 2).sum(axis=1) - (x[0] ** 2).sum()
    if a.shape[0] == 0:
        s = np.zeros(0)
        vt = np.eye(dim)
        rank = 0
        p0 = np.zeros(dim)
    else:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        cutoff = s[0] * REL_TOL if s.size else 0.0
        rank = int((s > cutoff).sum())
        p0 = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])

    if rank == dim:
        p = p0
    elif rank == dim - 1:
        null_dir = vt[-1]
        rel = p0 - x[0]
        half_b = null_dir @ rel
        c = rel @ rel - sq[0]
        disc = half_b * half_b - c
        if disc < -REL_TOL * scale:
            raise NoSolutionError("distances are mutually inconsistent")
        root = np.sqrt(max(disc, 0.0))
        cand = [p0 + (-half_b + root) * null_dir, p0 + (-half_b - root) * null_dir]
        p = max(cand, key=lambda v: v[-1])
    else:
        raise AmbiguousSolutionError(
            f"anchors determine only {rank} of {dim} coordinates"
        )

    err = np.abs(((p - x) ** 2).sum(axis=1) - sq).max()
    if err > REL_TOL * scale:
        raise NoSolutionError(f"distance residual {err:.3e} exceeds tolerance")
    return p
