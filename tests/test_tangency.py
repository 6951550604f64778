"""Curvature algebra: residuals, the factored identity, solving, reflection."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from soddy.cayley_menger import cm_determinant, volume_squared
from soddy.errors import (
    DimensionError,
    FloatModeRequiredError,
    InconsistentConfigurationError,
    NoRealSolutionError,
    ValidationError,
)
from soddy.tangency import (
    Curvatures,
    curvatures_from_radii,
    descartes_residual,
    factored_volume_squared,
    radii_from_curvatures,
    solve_missing_curvature,
    tangency_squared_distances,
    validate_curvatures,
    validate_radii,
    vieta_partner,
)

from .conftest import rand_radii, random_solved_quadruple

F = Fraction


class TestValidation:
    def test_one_negative_accepted_strict(self):
        r = validate_radii([-1, 2, 2, 3], 2)
        assert r.values == (-1, 2, 2, 3)
        assert r.n == 2

    def test_two_negatives_rejected_strict(self):
        with pytest.raises(ValidationError):
            validate_radii([-1, -2, 2, 3], 2)

    def test_two_negatives_allowed_lenient(self):
        r = validate_radii([-1, -2, 2, 3], 2, strict=False)
        assert r.values == (-1, -2, 2, 3)

    def test_zero_radius_rejected_even_lenient(self):
        with pytest.raises(ValidationError):
            validate_radii([0, 1, 1, 1], 2, strict=False)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            validate_radii([1, 1, 1], 2)

    def test_bad_dimension_rejected(self):
        with pytest.raises(DimensionError):
            validate_radii([1, 1, 1], 0)


class TestConversions:
    @pytest.mark.parametrize(
        "radii,expected",
        [
            ((1, 1, 1, 1), (1, 1, 1, 1)),
            ((-1, F(1, 2), F(1, 2), F(1, 3)), (-1, 2, 2, 3)),
            ((2, 3, 6, -12), (F(1, 2), F(1, 3), F(1, 6), F(-1, 12))),
        ],
    )
    def test_curvatures_from_radii(self, radii, expected):
        k = curvatures_from_radii(validate_radii(radii, 2))
        assert k.values == expected

    def test_roundtrip(self):
        r = validate_radii([F(-7, 3), F(2, 5), 4, F(9, 2)], 2, strict=False)
        assert radii_from_curvatures(curvatures_from_radii(r)).values == r.values


class TestTangencyDistances:
    def test_unit_radii(self):
        d = tangency_squared_distances(validate_radii([1, 1, 1, 1], 2))
        assert all(d.at(i, j) == 4 for i in range(4) for j in range(4) if i != j)

    def test_flat_quadruple_entries(self):
        d = tangency_squared_distances(
            validate_radii([-1, F(1, 2), F(1, 2), F(1, 3)], 2)
        )
        assert d.at(0, 1) == F(1, 4)
        assert d.at(1, 2) == 1
        assert d.at(1, 3) == F(25, 36)

    def test_integer_radii_entries(self):
        d = tangency_squared_distances(validate_radii([-1, 2, 2, 3], 2))
        assert d.at(0, 1) == 1
        assert d.at(0, 3) == 4
        assert d.at(1, 2) == 16
        assert d.at(1, 3) == 25


class TestResidual:
    def test_descartes_quadruple(self):
        k = validate_curvatures([-1, 2, 2, 3], 2)
        assert descartes_residual(k) == 0

    def test_unit_curvatures(self):
        k = validate_curvatures([1, 1, 1, 1], 2)
        assert descartes_residual(k) == 16 - 2 * 4 == 8

    def test_n3_irrational_root_float(self):
        k = validate_curvatures([1.0, 1.0, 1.0, 1.0, 2.0 + math.sqrt(6.0)], 3)
        assert abs(descartes_residual(k)) <= 1e-12

    def test_scale_covariance(self, rng):
        for _ in range(50):
            n = rng.choice([1, 2, 3, 4])
            r = validate_radii(rand_radii(rng, n), n)
            s = F(rng.randint(1, 9), rng.randint(1, 9))
            scaled = validate_radii([v * s for v in r.values], n)
            res = descartes_residual(curvatures_from_radii(r))
            res_scaled = descartes_residual(curvatures_from_radii(scaled))
            assert res_scaled == res / s**2
            assert (res == 0) == (res_scaled == 0)


class TestFactoredVolume:
    def test_unit_radii(self):
        v = factored_volume_squared(validate_radii([1, 1, 1, 1], 2))
        assert (v.value, v.dim) == (F(8, 9), 3)

    def test_flat_quadruple(self):
        v = factored_volume_squared(
            validate_radii([-1, F(1, 2), F(1, 2), F(1, 3)], 2)
        )
        assert v.value == 0

    def test_unit_radii_n3(self):
        v = factored_volume_squared(validate_radii([1, 1, 1, 1, 1], 3))
        assert (v.value, v.dim) == (F(5, 36), 4)

    def test_matches_determinant_route(self, rng):
        for _ in range(60):
            n = rng.choice([1, 2, 3, 4, 5, 6])
            r = validate_radii(rand_radii(rng, n), n)
            assert (
                factored_volume_squared(r).value
                == volume_squared(tangency_squared_distances(r)).value
            )


class TestCentralIdentity:
    def test_exact_for_random_radii_all_dimensions(self, rng):
        for n in range(1, 7):
            for _ in range(25):
                r = validate_radii(rand_radii(rng, n), n)
                k = curvatures_from_radii(r)
                lhs = cm_determinant(tangency_squared_distances(r))
                rhs = (
                    F((-1) ** n * 2 ** (2 * n + 1))
                    * r.product() ** 2
                    * descartes_residual(k)
                )
                assert lhs == rhs

    def test_nondegenerate_integer_radii(self):
        # radii (-1, 2, 2, 3) are not a tangent-circle solution: the residual
        # of their curvatures is -28/9, and the identity still holds exactly
        r = validate_radii([-1, 2, 2, 3], 2)
        res = descartes_residual(curvatures_from_radii(r))
        assert res == F(-28, 9)
        assert cm_determinant(tangency_squared_distances(r)) == 32 * 144 * res == -14336


class TestSolveMissingCurvature:
    def test_double_root_exact(self):
        assert solve_missing_curvature([F(-1), 2, 2], 2) == (3, 3)

    def test_three_units_float(self):
        hi, lo = solve_missing_curvature([1.0, 1.0, 1.0], 2)
        assert hi == pytest.approx(3 + 2 * math.sqrt(3), rel=1e-12)
        assert lo == pytest.approx(3 - 2 * math.sqrt(3), rel=1e-12)

    def test_n3_four_units_float(self):
        hi, lo = solve_missing_curvature([1.0] * 4, 3)
        assert hi == pytest.approx(2 + math.sqrt(6), rel=1e-12)
        assert lo == pytest.approx(2 - math.sqrt(6), rel=1e-12)

    def test_roots_satisfy_identity(self, rng):
        for _ in range(50):
            n = rng.choice([2, 3, 4])
            known = [float(v) for v in rand_radii(rng, n)[: n + 1]]
            try:
                roots = solve_missing_curvature(known, n)
            except NoRealSolutionError:
                continue
            for root in roots:
                k = Curvatures(values=(*known, root), n=n, mode="float")
                scale = max(1.0, max(v * v for v in k.values))
                assert abs(descartes_residual(k)) <= 1e-12 * scale

    def test_exact_requires_perfect_square(self):
        with pytest.raises(FloatModeRequiredError):
            solve_missing_curvature([F(1), 1, 1], 2)

    def test_negative_discriminant(self):
        # opposite-sign curvatures of equal size force S^2 - (n-1)Q < 0
        with pytest.raises(NoRealSolutionError):
            solve_missing_curvature([1.0, 1.0, -1.0], 2)

    @pytest.mark.parametrize(
        "known",
        [
            [-0.2, 0.3, 0.6],  # discriminant -1.1e-16
            [-0.2, 0.30000000000000004, 0.6000000000000001],  # +1.4e-17
        ],
    )
    def test_float_roundoff_discriminant_is_double_root(self, known):
        hi, lo = solve_missing_curvature(known, 2)
        assert hi == lo == sum(known)

    def test_exact_tiny_discriminant_keeps_distinct_roots(self):
        # (-m, m+1, m^2+m+1) has k0k1 + k1k2 + k2k0 = 1: roots S +- 2
        m = 10**4
        known = [F(-m), F(m + 1), F(m * m + m + 1)]
        s = sum(known)
        assert solve_missing_curvature(known, 2) == (s + 2, s - 2)

    def test_exact_negative_discriminant(self):
        with pytest.raises(NoRealSolutionError):
            solve_missing_curvature([F(1), 1, -1], 2)

    def test_n1_linear_single_root(self):
        # n = 1: -2Sk + (Q - S^2) = 0
        root, other = solve_missing_curvature([F(1), F(2)], 1)
        assert root == other
        k = validate_curvatures([1, 2, root], 1, strict=False)
        assert descartes_residual(k) == 0

    def test_zero_curvature_rejected(self):
        with pytest.raises(ValidationError):
            solve_missing_curvature([F(0), 1, 1], 2)


class TestVietaPartner:
    def test_partner_of_enclosing(self):
        k = validate_curvatures([-1, 2, 2, 3], 2)
        assert vieta_partner(k, 0) == 15
        replaced = validate_curvatures([15, 2, 2, 3], 2)
        assert descartes_residual(replaced) == 0

    def test_double_root_partner(self):
        k = validate_curvatures([-1, 2, 2, 3], 2)
        assert vieta_partner(k, 3) == 3

    def test_root_sum_float(self):
        k = validate_curvatures([1.0, 1.0, 1.0, 3 + 2 * math.sqrt(3)], 2)
        assert vieta_partner(k, 3) == pytest.approx(3 - 2 * math.sqrt(3), abs=1e-12)

    def test_involution(self, rng):
        for _ in range(50):
            quad = random_solved_quadruple(rng)
            k = validate_curvatures(quad, 2, strict=False)
            i = rng.randrange(4)
            partner = vieta_partner(k, i)
            values = list(k.values)
            values[i] = partner
            back = vieta_partner(validate_curvatures(values, 2, strict=False), i)
            assert back == k.values[i]

    def test_inconsistent_input_rejected(self):
        k = validate_curvatures([1, 1, 1, 1], 2)
        with pytest.raises(InconsistentConfigurationError):
            vieta_partner(k, 0)

    @pytest.mark.parametrize(
        "values",
        [(math.nan, 1.0, 1.0, 1.0), (1e155, 1e155, 1e155, 1e155)],  # the second overflows k^2
    )
    def test_nan_residual_rejected(self, values):
        k = Curvatures(values=values, n=2, mode="float")
        with pytest.raises(InconsistentConfigurationError):
            vieta_partner(k, 0)

    def test_orbit_stays_solved(self, rng):
        for _ in range(30):
            quad = random_solved_quadruple(rng)
            k = validate_curvatures(quad, 2, strict=False)
            assert descartes_residual(k) == 0
