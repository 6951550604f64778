"""Bordered distance determinants against coordinate oracles."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from soddy.embedding import realize_points
from soddy.errors import DimensionError, NonFiniteError, RankExceedsDimError, SoddyError, ValidationError
from soddy.numeric import Matrix, determinant, symmetric_bareiss
from soddy.proof_witness import check_UWU_congruence
from soddy.tangency import tangency_squared_distances, validate_radii

from .conftest import rand_nonzero_fraction, rand_points, rand_radii, shoelace_area_squared

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0]], "need at least two points"),
            ([[0, 1], [1]], "squared-distance matrix must be square"),
            ([[0, 1, 2], [1, 0, 3]], "squared-distance matrix must be square"),
        ],
    )
    def test_wrong_shape_rejected(self, rows, message):
        with pytest.raises(DimensionError) as info:
            SquaredDistanceMatrix.from_entries(rows)
        assert str(info.value) == message

    # The checks run in row order: row i's diagonal entry, then (i, j) for
    # j > i, symmetry before (in float mode) the sign; the first fault is named.

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1, 2], [1, 0, 3], [5, 4, 0]], "entries (0,2) and (2,0) differ"),
            ([[0, 1, 2], [1, 7, 3], [2, 4, 0]], "diagonal entry (1,1) must be zero"),
            ([[Fraction(1, 2), 1], [2, 0]], "diagonal entry (0,0) must be zero"),
            ([[0, 1, 2], [Fraction(3, 2), 7, 3], [2, 3, 0]], "entries (0,1) and (1,0) differ"),
            ([[0, Fraction(1, 3), 2], [Fraction(2, 6), 0, 3], [2, 3, Fraction(-1, 9)]],
             "diagonal entry (2,2) must be zero"),
        ],
        ids=["first-asymmetry", "diagonal-before-asymmetry", "fraction-diagonal", "asymmetry-before-diagonal",
             "last-diagonal"],
    )
    def test_exact_fault_is_named(self, rows, message):
        with pytest.raises(ValidationError) as info:
            SquaredDistanceMatrix.from_entries(rows)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [5.0, 4.0, 0.0]], "entries (0,2) and (2,0) differ"),
            ([[0.0, 1.0, 2.0], [1.0, 7.0, 3.0], [2.0, 4.0, 0.0]], "diagonal entry (1,1) must be zero"),
            ([[0.0, -1.0], [-1.0, 0.0]], "negative squared distance at (0,1)"),
            ([[0.0, -1.0], [-2.0, 0.0]], "entries (0,1) and (1,0) differ"),
            ([[0.0, -1.0, 1.0], [-1.0, 0.0, 2.0], [1.0, 3.0, 0.0]], "negative squared distance at (0,1)"),
            ([[0.0, 1.0, 1.0], [1.0, 2.0, -2.0], [1.0, -2.0, 0.0]], "diagonal entry (1,1) must be zero"),
            ([[0, 1, 2.5], [1, 0, -3], [2.5, -3, 0]], "negative squared distance at (1,2)"),
        ],
        ids=["first-asymmetry", "diagonal-before-asymmetry", "negative", "asymmetry-before-sign",
             "sign-before-later-asymmetry", "diagonal-before-sign", "ints-with-floats"],
    )
    def test_float_fault_is_named(self, rows, message):
        with pytest.raises(ValidationError) as info:
            SquaredDistanceMatrix.from_entries(rows)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [Fraction(2, 2), 0]],
            [[Fraction(0), Fraction(4, 2)], [2, Fraction(0, 5)]],
            [[0, Fraction(1, 2), 3], [Fraction(2, 4), 0, Fraction(9, 3)], [Fraction(3), 3, 0]],
            [[0, -1, Fraction(-5, 2)], [Fraction(-1), 0, -4], [Fraction(-10, 4), Fraction(-4), 0]],
        ],
        ids=["int-against-fraction", "fraction-zeros", "mixed", "negative"],
    )
    def test_equal_exact_values_are_symmetric(self, rows):
        d = SquaredDistanceMatrix.from_entries(rows)
        assert d.mode == "exact"
        assert all(type(v) is Fraction for row in d.entries for v in row)
        assert d.entries == tuple(tuple(Fraction(v) for v in row) for row in rows)
        twin = SquaredDistanceMatrix.from_entries([[Fraction(v) for v in row] for row in rows])
        assert d == twin and cm_determinant(d) == cm_determinant(twin)

    def test_negative_fraction_entries_allowed_in_exact_mode(self):
        d = SquaredDistanceMatrix.from_entries([[0, Fraction(-1, 3)], [Fraction(-2, 6), 0]])
        assert d.at(1, 0) == Fraction(-1, 3)
        assert cm_determinant(d) == Fraction(-2, 3)


@pytest.mark.parametrize(
    "index", [(0, 2), (2, 0), (-1, 0), (0, -1), (5, 5)], ids=["col-2", "row-2", "row-neg", "col-neg", "both-5"]
)
def test_at_outside_the_matrix_is_index_error(index):
    for rows in ([[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]]):
        d = SquaredDistanceMatrix.from_entries(rows)
        with pytest.raises(IndexError, match=r"outside a 2x2 matrix"):
            d.at(*index)


def test_at_reads_every_entry():
    rows = [[0, 1, 4], [1, 0, 9], [4, 9, 0]]
    d = SquaredDistanceMatrix.from_entries(rows)
    assert [[d.at(i, j) for j in range(3)] for i in range(3)] == rows


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

    def test_float_volume_in_range_does_not_overflow(self):
        # the determinant 2e308 overflows a float; the volume 1e308 does not
        d = SquaredDistanceMatrix.from_entries([[0.0, 1e308], [1e308, 0.0]])
        assert volume_squared(d).value == 1e308

    def test_float_volume_is_rounded_once(self, rng):
        # the float volume is the exact volume of the float entries, rounded once
        for _ in range(300):
            m = rng.randint(2, 6)
            pts = [[rng.uniform(-10, 10) for _ in range(m - 1)] for _ in range(m)]
            rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
            exact = SquaredDistanceMatrix.from_entries([[Fraction(v) for v in r] for r in rows])
            got = volume_squared(SquaredDistanceMatrix.from_entries(rows)).value
            assert got == float(volume_squared(exact).value)


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

    def test_float_area_in_range_does_not_overflow(self):
        # 16 A^2 overflows a float; A^2 ~ 2.006e307 does not
        a2 = Fraction(1.017e77 * 1.017e77)
        area2 = heron_area_squared(1.017e77, 1.017e77, 1.017e77)
        assert area2 == float(Fraction(3, 16) * a2 * a2) == pytest.approx(2.0058e307, rel=1e-4)

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

    @pytest.mark.parametrize("side2", [1e200, 1e-200])
    def test_float_content_beyond_float_range(self, side2):
        # an equilateral triangle: its squared area 3/16 * side2^2 overflows
        # or underflows a float, and it is never flat
        d = SquaredDistanceMatrix.from_entries(
            [[0.0, side2, side2], [side2, 0.0, side2], [side2, side2, 0.0]]
        )
        assert not is_degenerate(d)

    # Float flatness is one rule, the pivot test of realize_points: point k
    # is flat when its squared height over the points before it is at most
    # REL_TOL * max d^2, whatever m is.

    def test_float_regular_simplex_is_not_flat(self):
        for m in range(2, 25):
            d = SquaredDistanceMatrix.from_entries([[float(i != j) for j in range(m)] for i in range(m)])
            assert not is_degenerate(d), m

    def test_float_orthogonal_100_simplex_is_not_flat(self):
        leg2 = 1259.0**2
        rows = [[0.0 if i == j else leg2 if 0 in (i, j) else 2 * leg2 for j in range(101)] for i in range(101)]
        assert not is_degenerate(SquaredDistanceMatrix.from_entries(rows))

    def test_float_copies_of_euclidean_corpora_answer_as_exact(self):
        for name in ("realizable", "repeated", "collinear"):
            for rows in _pin_corpus(name):
                exact = is_degenerate(SquaredDistanceMatrix.from_entries(rows))
                floats = SquaredDistanceMatrix.from_entries([[float(v) for v in r] for r in rows])
                assert is_degenerate(floats) is exact, (name, len(rows))

    def test_flat_exactly_when_realize_points_fits_one_dimension_less(self):
        # m points on a flat of dimension 1..m-1; in half of the sets below
        # full dimension one point is lifted off the flat by a height whose
        # square is 0.1x or 10x the float zero
        rng = random.Random("one-rank-rule")
        answers = set()
        for _ in range(600):
            m = rng.randint(3, 9)
            dim = rng.randint(1, m - 1)
            pts = [[rng.uniform(-5, 5) for _ in range(dim)] + [0.0] for _ in range(m)]
            d = pairwise_squares(pts)
            if dim < m - 1 and rng.random() < 0.5:
                zero = 1e-9 * d.max_entry()
                pts[rng.randrange(m)][dim] = (rng.choice([0.1, 10.0]) * zero) ** 0.5
                d = pairwise_squares(pts)
            try:
                realize_points(d, m - 2)
                fits = True
            except RankExceedsDimError:
                fits = False
            assert is_degenerate(d) is fits, d
            answers.add(fits)
        assert answers == {True, False}

    def test_exact_flat_exactly_when_realize_points_fits_one_dimension_less(self):
        # rational points on a flat of dimension 1..m-1; in half of the sets
        # below full dimension one point is lifted off the flat by 1e-15
        rng = random.Random("one-exact-rank-rule")
        answers = set()
        for _ in range(400):
            m = rng.randint(3, 9)
            dim = rng.randint(1, m - 1)
            pts = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim)] for _ in range(m)]
            pts = [p + [0] for p in pts]
            if dim < m - 1 and rng.random() < 0.5:
                pts[rng.randrange(m)][dim] = Fraction(1, 10**15)
            d = pairwise_squares(pts)
            try:
                realize_points(d, m - 2)
                fits = True
            except RankExceedsDimError:
                fits = False
            assert is_degenerate(d) is fits, d
            answers.add(fits)
        assert answers == {True, False}


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

    def test_one_point_of_no_dimension_rejected(self):
        with pytest.raises(DimensionError):
            volume_squared_from_coordinates([[]])

    def test_float_overflow_is_non_finite_error(self):
        # the determinant 1e200 fits a float; its square does not
        with pytest.raises(NonFiniteError):
            volume_squared_from_coordinates([[0.0, 0.0], [1e100, 0.0], [0.0, 1e100]])

    def test_float_value_is_the_exact_value_rounded_once(self, rng):
        for t in range(300):
            m = 2 + t % 6
            pts = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(m - 1)] for _ in range(m)]
            exact = volume_squared_from_coordinates([[Fraction(v) for v in p] for p in pts])
            assert volume_squared_from_coordinates(pts).value == float(exact.value)

    def test_float_content_past_the_determinant_range(self):
        # the orthogonal 100-simplex with legs 1259: its determinant 1259^100
        # (about 1e310) is no float, its squared content (about 1.16e304) is
        pts = [[0.0] * 100] + [[1259.0 * (c == i) for c in range(100)] for i in range(100)]
        want = float(Fraction(1259**100, math.factorial(100)) ** 2)
        assert volume_squared_from_coordinates(pts).value == want == pytest.approx(1.1618e304, rel=1e-4)


# ---------------------------------------------------------------------------
# Pinned outputs over a seeded corpus.  Each corpus is a list of m x m
# symmetric zero-diagonal matrices of Fractions; the exact pin covers
# repr((cm_determinant, volume_squared, is_degenerate)), the float pin covers
# repr(cm_determinant) of the same matrices as floats (absolute values, since
# float mode rejects negative squared distances), an overflow shown as the
# error's type and message.  Any change to a determinant value, or to a float
# determinant's bits or error, shows here.


def _symmetric(m, upper):
    rows = [[Fraction(0)] * m for _ in range(m)]
    values = iter(upper)
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = next(values)
    return rows


def _squares_of(points):
    return [
        [sum((Fraction(a) - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points
    ]


def _pairs(m):
    return m * (m - 1) // 2


def _pin_corpus(name):
    rng = random.Random(f"cm-pin-{name}")
    if name == "realizable":
        return [_squares_of(rand_points(rng, m)) for m in range(2, 25)]
    if name == "generic":
        return [
            _symmetric(m, [Fraction(rng.randint(1, 10**6), rng.randint(1, 2520)) for _ in range(_pairs(m))])
            for m in range(2, 25)
        ]
    if name == "zeros":
        return [
            _symmetric(m, [
                Fraction(0) if rng.random() < 0.6 else rand_nonzero_fraction(rng)
                for _ in range(_pairs(m))
            ])
            for m in list(range(2, 13)) * 4
        ]
    if name == "repeated":
        out = []
        for m in range(3, 13):
            pts = rand_points(rng, m)
            for _ in range(rng.randint(1, m - 1)):
                pts[rng.randrange(m)] = list(pts[rng.randrange(m)])
            out.append(_squares_of(pts))
        return out
    if name == "collinear":
        out = []
        for m in range(3, 13):
            # affine combinations of dim + 1 points: a flat of dimension < m - 1
            dim = 1 if m % 2 else rng.randint(1, m - 2)
            base = rand_points(rng, dim + 1, m - 1)
            pts = []
            for _ in range(m):
                w = [rand_nonzero_fraction(rng) for _ in range(dim)]
                w.insert(0, 1 - sum(w))
                pts.append([sum(c * p[k] for c, p in zip(w, base)) for k in range(m - 1)])
            out.append(_squares_of(pts))
        return out
    if name == "non-euclidean":
        return [
            _symmetric(m, [rand_nonzero_fraction(rng, span=50) for _ in range(_pairs(m))])
            for m in list(range(2, 13)) * 2
        ]
    if name == "extreme":
        scales = (1e300, 1.5e300, 1e-300, 3e-300, 1.0, 0.5, 0.0)
        return [
            _symmetric(m, [Fraction(rng.choice(scales)) for _ in range(_pairs(m))])
            for m in list(range(2, 7)) * 6
        ]
    raise KeyError(name)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except SoddyError as e:
        return f"{type(e).__name__}: {e}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# name: (exact triple digest, float cm_determinant digest)
PINNED_CM = {
    "realizable": ("f318dfc1e611a169", "e862eebbc5f494d1"),
    "generic": ("32f13eb3bb6d2b9e", "794f83231586cd1f"),
    "zeros": ("fa62ccbbe33b9919", "8972bae8af455a81"),
    "repeated": ("e132ac56b4adf6e2", "f3fe21e810bce34e"),
    "collinear": ("99bb42260affcc83", "e5edc2dc0c84510f"),
    "non-euclidean": ("3af8ae94b49b365b", "0cb412a3e16cef54"),
    "extreme": ("a2055f834203f35a", "dbba19d62402ec24"),
}


@pytest.mark.parametrize("name", PINNED_CM)
def test_cm_outputs_are_pinned(name):
    corpus = _pin_corpus(name)
    exact, floats = [], []
    for rows in corpus:
        d = SquaredDistanceMatrix.from_entries(rows)
        exact.append(repr((cm_determinant(d), volume_squared(d), is_degenerate(d))))
        f = SquaredDistanceMatrix.from_entries([[float(abs(v)) for v in r] for r in rows])
        floats.append(_outcome(cm_determinant, f))
    assert (_digest(exact), _digest(floats)) == PINNED_CM[name]


@st.composite
def sparse_symmetric(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-10, max_value=10, max_denominator=10),
    )
    return _symmetric(m, draw(st.lists(entry, min_size=_pairs(m), max_size=_pairs(m))))


@given(rows=sparse_symmetric())
@settings(max_examples=300, deadline=None)
def test_cm_determinant_matches_bordered_determinant(rows):
    for d in (
        SquaredDistanceMatrix.from_entries(rows),
        SquaredDistanceMatrix.from_entries([[float(abs(v)) for v in r] for r in rows]),
    ):
        assert repr(cm_determinant(d)) == repr(determinant(build_cm_matrix(d)))


# ---------------------------------------------------------------------------
# One elimination per matrix.  The exact bordered determinant is kept on the
# SquaredDistanceMatrix after its first use; cm_determinant, volume_squared
# and is_degenerate then answer exactly as they do on fresh matrices, each
# with its own constant, rounding and tolerance.

CALLS = {"cm_determinant": cm_determinant, "volume_squared": volume_squared, "is_degenerate": is_degenerate}
SHARED_ROWS = _symmetric(5, [Fraction(k, k % 3 + 1) for k in range(1, 11)])
OTHER_ROWS = _squares_of([[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [1, 1, 1, 4]])


def _in_mode(rows, mode):
    return rows if mode == "exact" else [[float(abs(v)) for v in r] for r in rows]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("order", list(itertools.permutations(CALLS)), ids="-".join)
def test_one_elimination_per_matrix(monkeypatch, order, mode):
    calls = []
    monkeypatch.setattr(
        "soddy.cayley_menger.symmetric_bareiss", lambda a: calls.append(len(a)) or symmetric_bareiss(a)
    )
    rows = _in_mode(SHARED_ROWS, mode)
    d = SquaredDistanceMatrix.from_entries(rows)
    shared = [repr(CALLS[name](d)) for name in order]
    assert len(calls) == 1
    fresh = [repr(CALLS[name](SquaredDistanceMatrix.from_entries(rows))) for name in order]
    assert shared == fresh
    assert len(calls) == 1 + len(order)


@pytest.mark.parametrize("order", list(itertools.permutations([*CALLS, "realize_points"])), ids="-".join)
def test_one_elimination_serves_realize_points_too(monkeypatch, order):
    calls = []
    monkeypatch.setattr(
        "soddy.cayley_menger.symmetric_bareiss", lambda a: calls.append(len(a)) or symmetric_bareiss(a)
    )
    run = {**CALLS, "realize_points": lambda d: realize_points(d, d.m - 1)}
    d = SquaredDistanceMatrix.from_entries(OTHER_ROWS)
    shared = [repr(run[name](d)) for name in order]
    assert len(calls) == 1
    realize_points(SquaredDistanceMatrix.from_entries(_in_mode(OTHER_ROWS, "float")), 4)
    assert len(calls) == 1
    fresh = [repr(run[name](SquaredDistanceMatrix.from_entries(OTHER_ROWS))) for name in order]
    assert shared == fresh


def test_kept_determinant_is_invisible():
    d = SquaredDistanceMatrix.from_entries(SHARED_ROWS)
    twin = SquaredDistanceMatrix.from_entries(SHARED_ROWS)
    before = (repr(d), hash(d), dataclasses.astuple(d))
    det = cm_determinant(d)
    assert (repr(d), hash(d), dataclasses.astuple(d)) == before
    assert d == twin and twin == d and hash(twin) == hash(d)
    back = pickle.loads(pickle.dumps(d))
    assert back == d and cm_determinant(back) == det
    other = SquaredDistanceMatrix.from_entries(OTHER_ROWS)
    moved = dataclasses.replace(d, entries=other.entries)
    assert moved == other
    # OTHER_ROWS span a 4-simplex of content 1: det = (-1)^5 * 2^4 * (4!)^2
    assert cm_determinant(moved) == cm_determinant(other) == -16 * 24**2
    assert det != cm_determinant(moved)
    # a matrix made without from_entries, or copied from one that keeps its
    # integer form, answers as from_entries does on the same rows
    for mode in ("exact", "float"):
        shared, rows = _in_mode(SHARED_ROWS, mode), _in_mode(OTHER_ROWS, mode)
        want = _answers(SquaredDistanceMatrix.from_entries(rows))
        kept = SquaredDistanceMatrix.from_entries(shared)
        cm_determinant(kept)
        ent = SquaredDistanceMatrix.from_entries(rows).entries
        assert SquaredDistanceMatrix(5, ent, mode) == SquaredDistanceMatrix.from_entries(rows)
        assert _answers(SquaredDistanceMatrix(5, ent, mode)) == want
        assert _answers(dataclasses.replace(kept, entries=ent)) == want
        assert _answers(kept) == _answers(SquaredDistanceMatrix.from_entries(shared)) != want
        for fresh in (SquaredDistanceMatrix.from_entries(rows), SquaredDistanceMatrix(5, ent, mode)):
            assert _answers(pickle.loads(pickle.dumps(fresh))) == want  # nothing computed yet
            _answers(fresh)
            assert _answers(pickle.loads(pickle.dumps(fresh))) == want  # everything kept


def _answers(d):
    return repr(cm_determinant(d)), repr(volume_squared(d)), is_degenerate(d)


def test_rounding_stays_per_function():
    # the orthogonal 100-simplex with legs 1259 (as in the coordinate oracle
    # test above): its bordered determinant is past the float range, its
    # squared content is not
    leg2 = 1259.0**2
    rows = [[0.0 if i == j else leg2 if 0 in (i, j) else 2 * leg2 for j in range(101)] for i in range(101)]
    d = SquaredDistanceMatrix.from_entries(rows)
    with pytest.raises(NonFiniteError):
        cm_determinant(d)
    v = volume_squared(d)
    assert v.value == float(Fraction(1259**100, math.factorial(100)) ** 2)
    with pytest.raises(NonFiniteError):
        cm_determinant(d)
    assert volume_squared(d) == v
    assert is_degenerate(d) is is_degenerate(SquaredDistanceMatrix.from_entries(rows))


@given(rows=sparse_symmetric(), order=st.permutations(list(CALLS)))
@settings(max_examples=300, deadline=None)
def test_shared_matrix_answers_as_fresh_matrices(rows, order):
    for mode in ("exact", "float"):
        moded = _in_mode(rows, mode)
        d = SquaredDistanceMatrix.from_entries(moded)
        shared = [repr(CALLS[name](d)) for name in order]
        fresh = [repr(CALLS[name](SquaredDistanceMatrix.from_entries(moded))) for name in order]
        assert shared == fresh


# ---------------------------------------------------------------------------
# The library's exact producers, tangency distances and the audit's
# coordinate distances, hand their integers to the private constructor
# unchecked; each matrix must be the one from_entries builds from the same
# entries, fields, kept integers and answers alike.


def _producer_radii():
    rng = random.Random("producer-radii")
    out = []
    for n in range(1, 9):
        out.append(rand_radii(rng, n))
        repeated = [abs(v) for v in rand_radii(rng, n)]
        repeated[-2:] = [repeated[0]] * 2
        out.append(repeated)
        opposite = [abs(v) for v in rand_radii(rng, n)]
        opposite[1] = -opposite[0]  # r_0 + r_1 = 0: a zero squared distance off the diagonal
        out.append(opposite)
    return out


def _producer_points():
    rng = random.Random("producer-points")
    out = []
    for m in range(3, 9):
        out.append(rand_points(rng, m))
        repeated = rand_points(rng, m)
        repeated[1] = list(repeated[0])
        out.append(repeated)
        base, step = rand_points(rng, 2, m - 1)
        ts = [rand_nonzero_fraction(rng) for _ in range(m)]
        out.append([[b + t * s for b, s in zip(base, step)] for t in ts])  # on one line
    return out


def _producer_matrix(monkeypatch, kind, values):
    """The squared-distance matrix the producer builds: tangency distances
    of radii, or the one check_UWU_congruence builds for points."""
    if kind == "tangency":
        return tangency_squared_distances(validate_radii(values, len(values) - 2, strict=False))
    seen = []
    monkeypatch.setattr("soddy.proof_witness.build_cm_matrix", lambda d: seen.append(d) or build_cm_matrix(d))
    check_UWU_congruence(values)
    monkeypatch.undo()
    return seen[0]


PRODUCED = [("tangency", r) for r in _producer_radii()] + [("congruence", p) for p in _producer_points()]
PRODUCER_CALLS = (cm_determinant, volume_squared, is_degenerate, lambda d: realize_points(d, d.m - 1))


def _bordered_by_from_rows(d):
    return Matrix.from_rows([[0] + [1] * d.m] + [[1, *row] for row in d.entries], d.mode)


@pytest.mark.parametrize("index", range(len(PRODUCED)))
def test_producer_matrices_match_checked_entries(monkeypatch, index):
    made = _producer_matrix(monkeypatch, *PRODUCED[index])
    checked = SquaredDistanceMatrix.from_entries(made.entries)
    assert made == checked and checked == made
    assert (hash(made), repr(made)) == (hash(checked), repr(checked))
    assert dataclasses.astuple(made) == dataclasses.astuple(checked)
    back = pickle.loads(pickle.dumps(made))
    assert back == checked and back._upper == made._upper == checked._upper
    assert build_cm_matrix(made).__dict__ == _bordered_by_from_rows(made).__dict__
    answers = [_outcome(f, made) for f in PRODUCER_CALLS]
    assert answers == [_outcome(f, SquaredDistanceMatrix.from_entries(made.entries)) for f in PRODUCER_CALLS]


def test_producer_corpora_reach_every_case(monkeypatch):
    # reduced kept integers (gcd > 1 before reduction), zero distances off
    # the diagonal, flat and full-rank configurations all occur
    made = [_producer_matrix(monkeypatch, *case) for case in PRODUCED]
    assert any(d._upper[0] > 1 for d in made)
    assert any(v == 0 for d in made for row in d._upper[1] for v in row)
    assert {is_degenerate(d) for d in made} == {True, False}
    assert all(type(v) is Fraction for d in made for row in d.entries for v in row)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["generic", "zeros", "non-euclidean", "extreme"])
def test_build_cm_matrix_is_from_rows_on_the_bordered_entries(name, mode):
    # from_entries keeps the integer form; the constructor and replace leave
    # it to be computed from entries
    for rows in _pin_corpus(name)[:12]:
        d = SquaredDistanceMatrix.from_entries(_in_mode(rows, mode))
        want = _bordered_by_from_rows(d).__dict__
        copies = (SquaredDistanceMatrix(d.m, d.entries, d.mode), dataclasses.replace(D345, **dataclasses.asdict(d)))
        for made in (d, *copies):
            got = build_cm_matrix(made).__dict__
            assert got == want and repr(got) == repr(want)  # repr: float bits and signed zeros too
