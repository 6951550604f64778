"""Float realization of distance matrices and trilateration."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, zip_longest

import numpy as np
import pytest

from soddy.cayley_menger import SquaredDistanceMatrix, is_degenerate
from soddy.embedding import EmbeddedPoints, append_point, realize_points
from soddy.errors import (
    AmbiguousSolutionError,
    DimensionError,
    NegativeEigenvalueError,
    NoSolutionError,
    NonFiniteError,
    RankExceedsDimError,
    SoddyError,
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
    return SquaredDistanceMatrix.from_entries(pts.squared_distances(), "float")


def test_embedded_points_refuse_infinite_coordinates():
    with pytest.raises(NonFiniteError):
        EmbeddedPoints(((math.inf, 0.0),))


def test_squared_distances_beyond_float_range_are_non_finite():
    pts = EmbeddedPoints(((1e308, 0.0), (-1e308, 0.0)))
    with pytest.raises(NonFiniteError):
        pts.squared_distances()


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

    @pytest.mark.parametrize(
        "one, want",
        [(1, "point 3 opens axis 3 at squared height 2/3 > zero 0"),
         (1.0, "point 3 opens axis 3 at squared height 0.6666666666666667 > zero 1e-09")],
        ids=["exact", "float"],
    )
    def test_rank_error_names_the_point_and_its_height(self, one, want):
        d = SquaredDistanceMatrix.from_entries([[one * (i != j) for j in range(4)] for i in range(4)])
        with pytest.raises(RankExceedsDimError, match=want):
            realize_points(d, 2)

    def test_non_euclidean_distances(self):
        # 1 + 1 < 3: triangle inequality fails, Gram matrix indefinite
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 9], [1, 9, 0]])
        with pytest.raises(NegativeEigenvalueError):
            realize_points(d, 2)

    @pytest.mark.parametrize(
        "rows, dim, want",
        [
            ([[0.0, 1.0, 1.0], [1.0, 0.0, 9.0], [1.0, 9.0, 0.0]], 2, "pivot of point 2 < 0"),
            # points 2 and 3 both sit at the midpoint of the unit segment 0-1,
            # so they are flat, yet 5.0 apart
            (
                [[0.0, 1.0, 0.25, 0.25], [1.0, 0.0, 0.25, 0.25], [0.25, 0.25, 0.0, 5.0], [0.25, 0.25, 5.0, 0.0]],
                3,
                r"d\[2\]\[3\] is not reproduced",
            ),
        ],
        ids=["negative-pivot", "distance-not-reproduced"],
    )
    def test_float_non_euclidean_distances_name_the_refusal(self, rows, dim, want):
        d = SquaredDistanceMatrix.from_entries(rows)
        with pytest.raises(NegativeEigenvalueError, match="distances are non-Euclidean: " + want):
            realize_points(d, dim)

    def test_orientation_normalization(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        pts = realize_points(d, 2)
        assert np.allclose(pts.coords[0], 0.0)
        assert pts.coords[1][0] > 0 and abs(pts.coords[1][1]) < 1e-12
        assert pts.coords[2][1] >= 0

    def test_round_trip_random(self, rng):
        for _ in range(30):
            m = rng.randint(3, 7)
            dim = rng.randint(1, min(4, m - 1))
            coords = np.array([[rng.uniform(-5, 5) for _ in range(dim)] for _ in range(m)])
            base = EmbeddedPoints(coords)
            d2 = np.array(base.squared_distances())
            pts = realize_points(distances_of(base), dim)
            assert np.abs(pts.squared_distances() - d2).max() <= 1e-9 * max(d2.max(), 1.0)

    def test_rigid_motion_invariance(self, rng):
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0], [0.25, -1.0]])
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = coords @ rot.T + np.array([3.0, -2.0])
        a = realize_points(distances_of(EmbeddedPoints(coords)), 2)
        b = realize_points(distances_of(EmbeddedPoints(moved)), 2)
        assert np.abs(np.array(a.coords) - b.coords).max() <= 1e-7

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

    def test_exact_flat_quadruple_is_exact(self):
        pts = realize_points(tangency_squared_distances(FLAT_RADII), 2)
        assert pts.coords == ((0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 2 / 3))

    def test_exact_input_is_checked_exactly(self):
        # each perturbation is lost when the radii are rounded to floats;
        # the first makes the residual 16e - e^2 > 0, so the centers need a
        # third dimension, the second makes it -e^2 < 0, so no Euclidean
        # space holds them (point 3 cannot keep both distances to the
        # collinear points 1 and 2)
        eps = F(1, 10**30)
        off_plane = validate_radii([-1 - eps, F(1, 2), F(1, 2), F(1, 3)], 2, strict=False)
        with pytest.raises(RankExceedsDimError):
            realize_points(tangency_squared_distances(off_plane), 2)
        assert realize_points(tangency_squared_distances(off_plane), 3).dim == 3
        impossible = validate_radii([-1, F(1, 2), F(1, 2), F(1, 3) + eps], 2, strict=False)
        with pytest.raises(NegativeEigenvalueError):
            realize_points(tangency_squared_distances(impossible), 3)

    def test_unused_dimensions_are_exact_zeros(self):
        d = SquaredDistanceMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        pts = realize_points(d, 4)
        assert pts.coords[0] == (0.0, 0.0, 0.0, 0.0)
        assert pts.coords[1][1:] == (0.0, 0.0, 0.0)
        assert pts.coords[2][2:] == (0.0, 0.0)
        assert pts.coords[1][0] > 0 and pts.coords[2][1] > 0

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-5), (0.0, 1.0)],  # 2 near the line of 0 and 1
            [(0.0, 0.0), (1e-5, 0.0), (1.0, 0.0), (0.0, 1.0)],  # 1 near 0
        ],
    )
    def test_point_near_the_span_before_it_keeps_its_height(self, points):
        # the near point's squared height over the points before it is 1e-10,
        # below the float zero, so it opens no axis; its height over the axes
        # opened after it still carries its distances to the later points
        pts = realize_points(distances_of(EmbeddedPoints(points)), 2)
        assert np.abs(np.array(pts.coords) - points).max() <= 1e-12

    @pytest.mark.parametrize("coords", [[1.0, 2.0], [], [[1.0], [1.0, 2.0]], [[[1.0]]]])
    def test_coordinates_must_be_a_matrix(self, coords):
        with pytest.raises(DimensionError):
            EmbeddedPoints(coords)

    def test_float_overflow_is_non_finite(self):
        s = 1.5e308
        d = SquaredDistanceMatrix.from_entries([[0 if i == j else s for j in range(4)] for i in range(4)])
        with pytest.raises(NonFiniteError):
            realize_points(d, 3)


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


# ---------------------------------------------------------------------------
# Exact realize_points reads the elimination cm_determinant runs.  The
# reference below is the Fraction LDL^T it replaced: one point at a time,
# with every pairwise distance checked after.


def _dot(x, y, w):
    return sum(a * b * c for a, b, c in zip(x, y, w))


def fraction_ldlt_reference(d: SquaredDistanceMatrix, dim: int) -> tuple:
    """The coordinates exact realize_points must give, or the error it raises."""
    e = d.entries
    pivots, openers, rows, flat = [], [], [[] for _ in range(d.m)], []

    def extend(i):
        row = rows[i]
        for j, p in zip(openers[len(row) :], pivots[len(row) :]):
            gram = (e[0][i] + e[0][j] - e[i][j]) / 2
            row.append((gram - _dot(row, rows[j], pivots)) / p)

    for i in range(1, d.m):
        extend(i)
        pivot = e[0][i] - _dot(rows[i], rows[i], pivots)
        if pivot < 0:
            raise NegativeEigenvalueError(f"pivot of point {i} < 0")
        if pivot == 0:
            flat.append((i, len(pivots)))
        else:
            pivots.append(pivot)
            openers.append(i)
            rows[i].append(1)
    for i, a in flat:
        extend(i)
        if _dot(rows[i][a:], rows[i][a:], pivots[a:]) == 0:
            del rows[i][a:]
    for i, j in combinations(range(d.m), 2):
        diff = [x - y for x, y in zip_longest(rows[i], rows[j], fillvalue=0)]
        if _dot(diff, diff, pivots) != e[i][j]:
            raise NegativeEigenvalueError(f"d[{i}][{j}] is not reproduced")
    if len(pivots) > dim:
        raise RankExceedsDimError(f"point {openers[dim]} opens axis {dim + 1}")
    roots = [float(p) ** 0.5 for p in pivots]
    return tuple(
        tuple(float(x) * r + 0.0 for x, r in zip(row, roots)) + (0.0,) * (dim - len(row)) for row in rows
    )


def _outcome(realize, d, dim):
    try:
        return realize(d, dim)
    except (NegativeEigenvalueError, RankExceedsDimError) as exc:
        return type(exc)


def rational_point_rows(rng, m):
    """Squared distances of m rational points in 1..m-1 dimensions, some of
    them repeats of an earlier point and some on the line of two earlier ones."""
    k = rng.randint(1, m - 1)
    pts = []
    for _ in range(m):
        roll = rng.random()
        if pts and roll < 0.2:
            pts.append(list(rng.choice(pts)))
        elif len(pts) >= 2 and roll < 0.4:
            p, q = rng.sample(pts, 2)
            t = F(rng.randint(-6, 6), rng.randint(1, 4))
            pts.append([a + t * (b - a) for a, b in zip(p, q)])
        else:
            pts.append([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)])
    return [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]


def perturbed_rows(rng, m):
    rows = rational_point_rows(rng, m)
    i, j = rng.sample(range(m), 2)
    rows[i][j] = rows[j][i] = rows[i][j] + F(rng.choice([-1, 1]), rng.randint(1, 50))
    return rows


def small_integer_rows(rng, m):
    rows = [[0] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        rows[i][j] = rows[j][i] = rng.choice([-1, 0, 1, 2, 4])
    return rows


@pytest.mark.parametrize("family", [rational_point_rows, perturbed_rows, small_integer_rows])
def test_exact_realize_points_matches_the_fraction_reference(family):
    rng = random.Random(family.__name__)
    seen = set()
    for _ in range(1400):
        m = rng.randint(2, 8)
        dim = rng.randint(1, m)
        d = SquaredDistanceMatrix.from_entries(family(rng, m))
        want = _outcome(fraction_ldlt_reference, d, dim)
        got = _outcome(realize_points, d, dim)
        assert (got.coords if isinstance(got, EmbeddedPoints) else got) == want, d.entries
        seen.add(want if isinstance(want, type) else tuple)
    assert {tuple, RankExceedsDimError} <= seen


def test_float_realization_is_pinned():
    # Float sums run left to right, so these bits are the same on every Python
    # version; builtin sum, compensated from 3.12 on, moved 3.12's coordinates.
    # The digest pins each realization's repr and squared distances and each
    # failure's kind and message.
    rng = random.Random(300)
    digest, kinds = hashlib.sha256(), Counter()
    for _ in range(300):
        n = rng.randint(2, 8)
        radii = [round(rng.uniform(0.1, 3), 3) for _ in range(n + 2)]
        try:
            pts = realize_points(tangency_squared_distances(validate_radii(radii, n, strict=False)), n + 1)
        except SoddyError as exc:
            kinds[exc.kind] += 1
            digest.update(f"{exc.kind}: {exc}\n".encode())
        else:
            kinds["ok"] += 1
            digest.update(f"{pts!r} {pts.squared_distances()!r}\n".encode())
    assert kinds == {"ok": 109, "negative-eigenvalue": 191}
    assert digest.hexdigest()[:16] == "adb9a637d497141c"
