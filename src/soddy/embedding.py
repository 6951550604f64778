"""Realize squared-distance matrices as float coordinates.

The bridge from algebra to drawable geometry: a Gram matrix relative to
point 0 is factored by a symmetric eigendecomposition, and new points are
appended by trilateration (differencing sphere equations into a linear
system).  Outputs are orientation-normalized so identical inputs give
identical coordinates: point 0 at the origin, point 1 on the positive first
axis, point 2 with nonnegative second coordinate, and so on.

numpy is imported inside the functions that use it, so importing ``soddy``
or its CLI does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cayley_menger import SquaredDistanceMatrix
from .errors import (
    AmbiguousSolutionError,
    DimensionError,
    GeometryError,
    NegativeEigenvalueError,
    NoSolutionError,
    NonFiniteError,
    RankExceedsDimError,
    ValidationError,
)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EmbeddedPoints:
    """m float coordinate vectors, one per row."""

    coords: np.ndarray

    def __post_init__(self):
        import numpy as np

        arr = np.array(self.coords, dtype=float)
        if arr.ndim != 2:
            raise DimensionError("coordinates must form an (m, dim) array")
        if not np.isfinite(arr).all():
            raise NonFiniteError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def squared_distances(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return (diff**2).sum(axis=2)


def _orient(x: np.ndarray) -> np.ndarray:
    """Rotate/reflect so the coordinates are canonical (lower-triangular form)."""
    import numpy as np

    m, dim = x.shape
    if m <= 1:
        return x
    rel = x[1:] - x[0]
    q, r = np.linalg.qr(rel.T, mode="complete")
    y = r.T.copy()  # (m-1, dim), lower triangular
    for i in range(min(m - 1, dim)):
        if y[i, i] < 0:
            y[:, i] = -y[:, i]
    out = np.zeros((m, dim))
    out[1:] = y
    return out


def realize_points(
    d: SquaredDistanceMatrix, dim: int, tol: float = DEFAULT_TOL
) -> EmbeddedPoints:
    """Embed the m points of ``d`` into ``dim`` dimensions.

    Factors the Gram matrix G_ij = (d2[0,i] + d2[0,j] - d2[i,j]) / 2 taken
    relative to point 0.  Raises :class:`NegativeEigenvalueError` when the
    distances are not Euclidean (an eigenvalue < -tol*scale) and
    :class:`RankExceedsDimError` when more than ``dim`` eigenvalues exceed
    +tol*scale, with scale = max d2.
    """
    import numpy as np

    if dim < 1:
        raise DimensionError("target dimension must be >= 1")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    m = d.m
    d2 = np.array([[float(v) for v in row] for row in d.entries])
    scale = max(d2.max(), 1e-300)
    g = np.empty((m - 1, m - 1))
    for i in range(1, m):
        for j in range(1, m):
            g[i - 1, j - 1] = (d2[0, i] + d2[0, j] - d2[i, j]) / 2.0
    evals, evecs = np.linalg.eigh(g)
    if evals.min(initial=0.0) < -tol * scale:
        raise NegativeEigenvalueError(
            f"distances are non-Euclidean (eigenvalue {evals.min():.3e})"
        )
    if int((evals > tol * scale).sum()) > dim:
        raise RankExceedsDimError(
            f"distances need more than {dim} dimensions"
        )
    order = np.argsort(evals)[::-1][: min(dim, m - 1)]
    x = np.zeros((m, dim))
    x[1:, : len(order)] = evecs[:, order] * np.sqrt(np.clip(evals[order], 0.0, None))
    points = EmbeddedPoints(_orient(x))
    err = np.abs(points.squared_distances() - d2).max()
    if err > max(tol, 1e-9) * scale * 10:
        raise GeometryError(f"round-trip distance error {err:.3e} exceeds tolerance")
    return points


def append_point(
    existing: EmbeddedPoints,
    sq_dists: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
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

    x = existing.coords
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
        cutoff = s[0] * 1e-9 if s.size else 0.0
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
        if disc < -tol * scale:
            raise NoSolutionError("distances are mutually inconsistent")
        root = np.sqrt(max(disc, 0.0))
        cand = [p0 + (-half_b + root) * null_dir, p0 + (-half_b - root) * null_dir]
        p = max(cand, key=lambda v: v[-1])
    else:
        raise AmbiguousSolutionError(
            f"anchors determine only {rank} of {dim} coordinates"
        )

    err = np.abs(((p - x) ** 2).sum(axis=1) - sq).max()
    if err > tol * scale:
        raise NoSolutionError(f"distance residual {err:.3e} exceeds tolerance")
    return p
