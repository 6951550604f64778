"""Float realization of distance matrices and trilateration."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from soddy.cayley_menger import SquaredDistanceMatrix, is_degenerate
from soddy.embedding import EmbeddedPoints, append_point, realize_points
from soddy.errors import (
    AmbiguousSolutionError,
    DimensionError,
    NegativeEigenvalueError,
    NoSolutionError,
    RankExceedsDimError,
)
from soddy.tangency import (
    curvatures_from_radii,
    descartes_residual,
    radii_from_curvatures,
    tangency_squared_distances,
    validate_curvatures,
    validate_radii,
)

from .conftest import random_solved_quadruple

F = Fraction

FLAT_RADII = validate_radii([F(-1), F(1, 2), F(1, 2), F(1, 3)], 2)


def d2_array(d: SquaredDistanceMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in d.entries])


def distances_of(pts: EmbeddedPoints) -> SquaredDistanceMatrix:
    return SquaredDistanceMatrix.from_entries(pts.squared_distances().tolist(), "float")


class TestRealizePoints:
    def test_flat_tangent_quadruple_in_plane(self):
        d = tangency_squared_distances(FLAT_RADII)
        pts = realize_points(d, 2)
        assert pts.m == 4 and pts.dim == 2
        err = np.abs(pts.squared_distances() - d2_array(d)).max()
        assert err <= 1e-9 * d2_array(d).max()

    def test_unit_triangle(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        pts = realize_points(d, 2)
        assert np.allclose(pts.squared_distances(), d2_array(d), atol=1e-12)

    def test_tetrahedron_needs_three_dimensions(self):
        d = SquaredDistanceMatrix.from_entries(
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        )
        with pytest.raises(RankExceedsDimError):
            realize_points(d, 2)
        pts = realize_points(d, 3)
        assert np.allclose(pts.squared_distances(), d2_array(d), atol=1e-12)

    def test_non_euclidean_distances(self):
        # 1 + 1 < 3: triangle inequality fails, Gram matrix indefinite
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 9], [1, 9, 0]])
        with pytest.raises(NegativeEigenvalueError):
            realize_points(d, 2)

    def test_orientation_normalization(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        pts = realize_points(d, 2)
        assert np.allclose(pts.coords[0], 0.0)
        assert pts.coords[1, 0] > 0 and abs(pts.coords[1, 1]) < 1e-12
        assert pts.coords[2, 1] >= 0

    def test_round_trip_random(self, rng):
        for _ in range(30):
            m = rng.randint(3, 7)
            dim = rng.randint(1, min(4, m - 1))
            coords = np.array([[rng.uniform(-5, 5) for _ in range(dim)] for _ in range(m)])
            base = EmbeddedPoints(coords)
            d2 = base.squared_distances()
            pts = realize_points(distances_of(base), dim)
            assert np.abs(pts.squared_distances() - d2).max() <= 1e-9 * max(d2.max(), 1.0)

    def test_rigid_motion_invariance(self, rng):
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0], [0.25, -1.0]])
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = coords @ rot.T + np.array([3.0, -2.0])
        a = realize_points(distances_of(EmbeddedPoints(coords)), 2)
        b = realize_points(distances_of(EmbeddedPoints(moved)), 2)
        assert np.abs(a.coords - b.coords).max() <= 1e-7

    def test_flatness_consistency(self, rng):
        for _ in range(20):
            quad = random_solved_quadruple(rng)
            r = radii_from_curvatures(validate_curvatures(quad, 2, strict=False))
            d = tangency_squared_distances(r)
            assert is_degenerate(d)
            float_d = SquaredDistanceMatrix.from_entries(
                [[float(v) for v in row] for row in d.entries]
            )
            pts = realize_points(float_d, 2)
            assert pts.dim == 2

    def test_nonzero_residual_fails_in_plane(self):
        r = validate_radii([1, 1, 1, 1], 2)
        assert descartes_residual(curvatures_from_radii(r)) != 0
        d = tangency_squared_distances(r)
        assert not is_degenerate(d)
        float_d = SquaredDistanceMatrix.from_entries(
            [[float(v) for v in row] for row in d.entries]
        )
        with pytest.raises(RankExceedsDimError):
            realize_points(float_d, 2)

    def test_bad_dim(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1], [1, 0]])
        with pytest.raises(DimensionError):
            realize_points(d, 0)


class TestAppendPoint:
    def test_tetrahedron_apex(self):
        tri = realize_points(
            SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), 3
        )
        apex = append_point(tri, [1.0, 1.0, 1.0])
        assert apex[-1] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_midpoint_degenerate_circle(self):
        two = EmbeddedPoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(append_point(two, [1.0, 1.0]), [1.0, 0.0])

    def test_gross_violation(self):
        two = EmbeddedPoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(NoSolutionError):
            append_point(two, [1.0, 25.0])

    def test_reflection_resolved_upward_by_default(self):
        two = EmbeddedPoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        p = append_point(two, [4.0, 4.0])
        assert p[1] > 0

    def test_underdetermined(self):
        two = EmbeddedPoints(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(AmbiguousSolutionError):
            append_point(two, [1.0, 1.0])

    def test_inconsistent_overdetermined(self):
        square = EmbeddedPoints(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        with pytest.raises(NoSolutionError):
            append_point(square, [0.25, 0.25, 0.25, 10.0])

    def test_wrong_count(self):
        two = EmbeddedPoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DimensionError):
            append_point(two, [1.0])

    def test_random_consistent_appends(self, rng):
        for _ in range(30):
            m = rng.randint(3, 6)
            dim = rng.randint(2, 3)
            coords = np.array([[rng.uniform(-4, 4) for _ in range(dim)] for _ in range(m)])
            target = np.array([rng.uniform(-4, 4) for _ in range(dim)])
            sq = ((coords - target) ** 2).sum(axis=1)
            got = append_point(EmbeddedPoints(coords), sq)
            recomputed = ((coords - got) ** 2).sum(axis=1)
            assert np.abs(recomputed - sq).max() <= 1e-9 * max(sq.max(), 1.0)
