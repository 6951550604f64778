"""Bordered distance determinants against coordinate oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from soddy.cayley_menger import (
    SquaredDistanceMatrix,
    build_cm_matrix,
    cm_determinant,
    heron_area_squared,
    heron_area_squared_from_squares,
    is_degenerate,
    volume_squared,
    volume_squared_from_coordinates,
)
from soddy.errors import DimensionError, NonFiniteError, ValidationError
from soddy.tangency import tangency_squared_distances, validate_radii

from .conftest import rand_points, shoelace_area_squared

D345 = SquaredDistanceMatrix.from_entries([[0, 9, 16], [9, 0, 25], [16, 25, 0]])
UNIT_TETRA = SquaredDistanceMatrix.from_entries(
    [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
)


def pairwise_squares(points):
    m = len(points)
    rows = [
        [sum((points[i][c] - points[j][c]) ** 2 for c in range(len(points[0]))) for j in range(m)]
        for i in range(m)
    ]
    return SquaredDistanceMatrix.from_entries(rows)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            SquaredDistanceMatrix.from_entries([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            SquaredDistanceMatrix.from_entries([[1, 1], [1, 0]])

    def test_negative_entry_rejected_in_float_mode(self):
        with pytest.raises(ValidationError):
            SquaredDistanceMatrix.from_entries([[0.0, -1.0], [-1.0, 0.0]])

    def test_negative_entry_allowed_in_exact_mode(self):
        d = SquaredDistanceMatrix.from_entries([[0, -1], [-1, 0]])
        assert d.at(0, 1) == -1

    def test_single_point_rejected(self):
        with pytest.raises(DimensionError):
            SquaredDistanceMatrix.from_entries([[0]])


class TestBuildCMMatrix:
    def test_unit_triangle_structure(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        cm = build_cm_matrix(d)
        assert cm.rows == cm.cols == 4
        assert cm.at(0, 0) == 0
        assert all(cm.at(0, j) == 1 and cm.at(j, 0) == 1 for j in range(1, 4))
        assert all(cm.at(i, j) == (0 if i == j else 1) for i in range(1, 4) for j in range(1, 4))

    def test_345_plus_fourth_point_has_border(self):
        pts = [(Fraction(0), Fraction(0)), (3, 0), (0, 4), (1, 1)]
        cm = build_cm_matrix(pairwise_squares(pts))
        assert cm.rows == 5
        assert [cm.at(0, j) for j in range(5)] == [0, 1, 1, 1, 1]
        assert [cm.at(j, 0) for j in range(5)] == [0, 1, 1, 1, 1]

    def test_tangency_block_entries(self):
        # radii (-1, 2, 2, 3): (r_i + r_j)^2 gives 1, 1, 4, 16, 25, 25
        r = validate_radii([-1, 2, 2, 3], 2)
        cm = build_cm_matrix(tangency_squared_distances(r))
        block = sorted(cm.at(i, j) for i in range(1, 5) for j in range(i + 1, 5))
        assert block == [1, 1, 4, 16, 25, 25]
        assert cm == cm.transpose()


class TestCMDeterminant:
    def test_345_matches_shoelace(self):
        assert shoelace_area_squared((0, 0), (3, 0), (0, 4)) == 36
        assert cm_determinant(D345) == -16 * 36 == -576

    def test_unit_tetrahedron(self):
        # regular tetrahedron of side 1: v = 1/(6*sqrt(2)), so det = 288/72
        assert cm_determinant(UNIT_TETRA) == 4

    def test_collinear_points(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 9], [1, 0, 4], [9, 4, 0]])
        assert cm_determinant(d) == 0

    def test_permutation_invariance(self, rng):
        for _ in range(30):
            pts = rand_points(rng, 4)
            d = pairwise_squares(pts)
            order = list(range(4))
            rng.shuffle(order)
            permuted = SquaredDistanceMatrix.from_entries(
                [[d.at(i, j) for j in order] for i in order]
            )
            assert cm_determinant(permuted) == cm_determinant(d)

    def test_scaling_covariance(self, rng):
        for _ in range(30):
            m = rng.choice([3, 4, 5])
            pts = rand_points(rng, m)
            d = pairwise_squares(pts)
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = SquaredDistanceMatrix.from_entries(
                [[v * s**2 for v in row] for row in d.entries]
            )
            assert cm_determinant(scaled) == s ** (2 * (m - 1)) * cm_determinant(d)
            assert volume_squared(scaled).value == s ** (2 * (m - 1)) * volume_squared(d).value

    def test_sign_convention_from_coordinates(self, rng):
        for _ in range(30):
            m = rng.choice([3, 4, 5])
            d = pairwise_squares(rand_points(rng, m))
            assert (-1) ** m * cm_determinant(d) >= 0


class TestVolumeSquared:
    def test_unit_tetrahedron(self):
        v = volume_squared(UNIT_TETRA)
        assert (v.value, v.dim) == (Fraction(1, 72), 3)

    def test_345_triangle(self):
        v = volume_squared(D345)
        assert (v.value, v.dim) == (36, 2)

    def test_regular_4_simplex_side_2(self):
        # side-2 regular 4-simplex: V = a^4 sqrt(5)/96 -> V^2 = 256 * 5 / 9216 = 5/36
        d = SquaredDistanceMatrix.from_entries(
            [[0 if i == j else 4 for j in range(5)] for i in range(5)]
        )
        v = volume_squared(d)
        assert (v.value, v.dim) == (Fraction(5, 36), 4)

    def test_oracle_equivalence_random(self, rng):
        for _ in range(500):
            m = rng.choice([3, 4, 5])
            pts = rand_points(rng, m)
            via_distances = volume_squared(pairwise_squares(pts))
            via_coords = volume_squared_from_coordinates(pts)
            assert via_distances.value == via_coords.value
            assert via_distances.dim == via_coords.dim == m - 1


class TestHeron:
    def test_345(self):
        assert heron_area_squared(3, 4, 5) == 36

    def test_degenerate(self):
        assert heron_area_squared(1, 1, 2) == 0

    def test_equilateral(self):
        assert heron_area_squared(2, 2, 2) == 3

    def test_float_mode(self):
        assert heron_area_squared(3.0, 4.0, 5.0) == pytest.approx(36.0, rel=1e-12)

    def test_float_degenerate_is_positive_zero(self):
        area2 = heron_area_squared(1.0, 1.0, 2.0)
        assert area2 == 0.0 and math.copysign(1.0, area2) == 1.0

    def test_negative_side_rejected(self):
        with pytest.raises(ValidationError):
            heron_area_squared(-3, 4, 5)

    def test_from_squares_matches_shoelace(self, rng):
        for _ in range(100):
            pts = rand_points(rng, 3)
            a2 = sum((pts[1][c] - pts[2][c]) ** 2 for c in range(2))
            b2 = sum((pts[0][c] - pts[2][c]) ** 2 for c in range(2))
            c2 = sum((pts[0][c] - pts[1][c]) ** 2 for c in range(2))
            assert heron_area_squared_from_squares(a2, b2, c2) == shoelace_area_squared(*pts)


class TestIsDegenerate:
    def test_flat_tangent_configuration(self):
        r = validate_radii([Fraction(-1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)], 2)
        assert is_degenerate(tangency_squared_distances(r))

    def test_unit_tetrahedron_not_flat(self):
        assert not is_degenerate(UNIT_TETRA)

    def test_segment_not_flat(self):
        d = SquaredDistanceMatrix.from_entries([[0, 4], [4, 0]])
        assert not is_degenerate(d)

    def test_float_mode_uses_scaled_tolerance(self):
        d = SquaredDistanceMatrix.from_entries(
            [[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]]
        )
        assert is_degenerate(d)

    def test_float_scale_beyond_float_range(self):
        # collinear points 0, 1e150, 2e150: volume 0, while (max d^2)^(m-1)
        # = (4e300)^2 overflows a float
        d = SquaredDistanceMatrix.from_entries(
            [[0.0, 1e300, 4e300], [1e300, 0.0, 1e300], [4e300, 1e300, 0.0]]
        )
        assert is_degenerate(d)


class TestCoordinateOracle:
    def test_corner_tetrahedron(self):
        v = volume_squared_from_coordinates([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert (v.value, v.dim) == (Fraction(1, 36), 3)

    def test_right_triangle(self):
        v = volume_squared_from_coordinates([(0, 0), (3, 0), (0, 4)])
        assert (v.value, v.dim) == (36, 2)

    def test_coplanar_points(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (Fraction(1, 3), Fraction(1, 3), 0)]
        assert volume_squared_from_coordinates(pts).value == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            volume_squared_from_coordinates([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_float_overflow_is_non_finite_error(self):
        # the determinant 1e200 fits a float; its square does not
        with pytest.raises(NonFiniteError):
            volume_squared_from_coordinates([[0.0, 0.0], [1e100, 0.0], [0.0, 1e100]])
