"""Curvature algebra: residuals, the factored identity, solving, reflection."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy.cayley_menger import cm_determinant, volume_squared
from soddy.errors import (
    DimensionError,
    FloatModeRequiredError,
    InconsistentConfigurationError,
    NonFiniteError,
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

    @pytest.mark.parametrize(
        "values, strict, message",
        [
            ([0, 1, 1, 1], False, "zero {one} is not allowed"),
            ([1, 2], False, "need 4 {many} for dimension 2, got 2"),
            ([-1, -2, 2, 3], True, "at most one {one} may be negative (one enclosing sphere)"),
        ],
    )
    def test_messages_name_the_callers_quantity(self, values, strict, message):
        for validate, one, many in (
            (validate_radii, "radius", "radii"),
            (validate_curvatures, "curvature", "curvatures"),
        ):
            with pytest.raises(ValidationError) as info:
                validate(values, 2, strict)
            assert str(info.value) == message.format(one=one, many=many)


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

    @pytest.mark.parametrize("values", [[1e200, 1, 1, 1], [1e200, -1e200, 1, 1]], ids=["nan", "inf"])
    def test_float_overflow_is_non_finite(self, values):
        # the float residual overflows to inf - inf or to -inf; the exact one is finite
        with pytest.raises(NonFiniteError, match="^tangency residual overflows a float; use exact mode$"):
            descartes_residual(validate_curvatures(values, 2, strict=False))
        exact = validate_curvatures([F(v) for v in values], 2, strict=False)
        assert descartes_residual(exact) < 0


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

    def test_float_value_is_the_exact_value_rounded_once(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(1, 4)
            radii = [rng.uniform(0.1, 10.0) for _ in range(n + 2)]
            k = [1 / F(v) for v in radii]
            residual = sum(k) ** 2 - n * sum(v * v for v in k)
            c = math.prod(map(F, radii)) / math.factorial(n + 1)
            value = factored_volume_squared(validate_radii(radii, n, strict=False)).value
            assert value == float(2**n * c * c * residual)

    def test_float_overflow_is_non_finite_on_both_routes(self):
        # (r_i + r_j)^2 and (prod r)^2 pass the float range; ** raised OverflowError
        r = validate_radii([1e200, 1.0, 1.0, 1.0], 2)
        with pytest.raises(NonFiniteError):
            factored_volume_squared(r)
        with pytest.raises(NonFiniteError):
            volume_squared(tangency_squared_distances(r))


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

    @pytest.mark.parametrize("known", [[1, 1, -1], [1.0, 1.0, -1.0]], ids=["exact", "float"])
    def test_negative_discriminant_is_named_in_both_modes(self, known):
        # S = 1, Q = 3: n * (S^2 - (n-1) * Q) = -4
        with pytest.raises(NoRealSolutionError, match=r"^negative discriminant -4(\.0)?$"):
            solve_missing_curvature(known, 2)

    def test_n1_zero_sum_is_degenerate(self):
        with pytest.raises(NoRealSolutionError, match="degenerate linear equation"):
            solve_missing_curvature([1, -1], 1)

    def test_n1_linear_single_root(self):
        # n = 1: -2Sk + (Q - S^2) = 0
        root, other = solve_missing_curvature([F(1), F(2)], 1)
        assert root == other
        k = validate_curvatures([1, 2, root], 1, strict=False)
        assert descartes_residual(k) == 0

    def test_zero_curvature_rejected(self):
        with pytest.raises(ValidationError):
            solve_missing_curvature([F(0), 1, 1], 2)

    @pytest.mark.parametrize(
        "known, n", [([1e200, 1.0, 1.0], 2), ([1e200, 1.0], 1)], ids=["quadratic", "linear"]
    )
    def test_float_overflow_is_non_finite(self, known, n):
        # S^2 and Q both pass the float range, so the roots would be NaN
        with pytest.raises(NonFiniteError, match="^missing curvature overflows a float; use exact mode$"):
            solve_missing_curvature(known, n)


class TestVietaPartner:
    def test_partner_of_enclosing(self):
        k = validate_curvatures([-1, 2, 2, 3], 2)
        assert vieta_partner(k, 0) == 15
        replaced = validate_curvatures([15, 2, 2, 3], 2)
        assert descartes_residual(replaced) == 0
        # a slice returns the partners of its indices, bit for bit, from one test
        for n in (2, 3, 4):
            values = [-1, 2, 2] + [3] * (n - 1)
            for k in (validate_curvatures(values, n), validate_curvatures([v / 7 for v in values], n)):
                each = tuple(vieta_partner(k, i) for i in range(n + 2))
                assert repr(vieta_partner(k, slice(None))) == repr(each)
                assert repr(vieta_partner(k, slice(3))) == repr(each[:3])

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
        with pytest.raises(InconsistentConfigurationError):
            vieta_partner(k, slice(None))

    def test_long_exact_residual_is_named_by_its_digits(self):
        k = Curvatures(values=(Fraction(10**3000), *[Fraction(1)] * 3), n=2, mode="exact")
        with pytest.raises(InconsistentConfigurationError, match=r"residual <about 6001 digits>"):
            vieta_partner(k, 0)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_float_tolerance_is_relative(self, scale):
        # residual 40 * scale^2 against max k^2 = 16 * scale^2 at every scale
        k = Curvatures(values=tuple(scale * v for v in (1, 2, 3, 4)), n=2, mode="float")
        with pytest.raises(InconsistentConfigurationError):
            vieta_partner(k, 0)
        tangent = Curvatures(values=tuple(scale * v for v in (-1, 2, 2, 3)), n=2, mode="float")
        assert vieta_partner(tangent, 0) == pytest.approx(15 * scale, rel=1e-12)

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

    def test_n1_has_no_partner(self):
        with pytest.raises(DimensionError):
            vieta_partner(Curvatures(values=(F(1), F(1), F(1)), n=1, mode="exact"), 0)
        with pytest.raises(DimensionError):
            vieta_partner(Curvatures(values=(F(1), F(1), F(1)), n=1, mode="exact"), slice(None))

    @pytest.mark.parametrize("index", [4, -1])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValidationError, match=f"index {index} out of range"):
            vieta_partner(validate_curvatures([-1, 2, 2, 3], 2), index)

    def test_exact_test_is_residual_against_zero(self, rng):
        for _ in range(30):
            quad = random_solved_quadruple(rng)
            vieta_partner(validate_curvatures(quad, 2, strict=False), 0)
            # k0 + d moves the residual by d * (2S - 4k0 - d), which is not
            # zero for both d = 1 and d = 2
            for d in (1, 2):
                moved = [quad[0] + d, *quad[1:]]
                residual = sum(moved) ** 2 - 2 * sum(v * v for v in moved)
                if residual != 0:
                    break
            text = f"{residual.numerator}" + ("" if residual.denominator == 1 else f"/{residual.denominator}")
            with pytest.raises(InconsistentConfigurationError) as info:
                vieta_partner(Curvatures(values=tuple(moved), n=2, mode="exact"), 0)
            assert str(info.value) == f"tangency residual {text} exceeds tolerance 0"


def partner_refuses(values: tuple[float, float, float, float]) -> bool:
    """Whether vieta_partner refuses the four float curvatures."""
    try:
        vieta_partner(Curvatures(values=values, n=2, mode="float"), 0)
    except InconsistentConfigurationError:
        return True
    return False


def moved_root_quadruple(scale: float, index: int, offset: float) -> tuple[float, ...]:
    """(-1, 2, 2, 3) * scale with entry ``index`` moved by the relative ``offset``."""
    values = [scale * v for v in (-1.0, 2.0, 2.0, 3.0)]
    values[index] *= 1.0 + offset
    return tuple(values)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("index", range(4))
def test_moved_quadruples_reach_both_verdicts(scale, index):
    # the tolerance's edge is near a relative offset of 5e-10 for the first
    # entry and near 3e-5 for the last, whose residual is quadratic
    assert not partner_refuses(moved_root_quadruple(scale, index, 1e-13))
    assert partner_refuses(moved_root_quadruple(scale, index, 1e-2))


# magnitudes on both sides of 1e154, where (r_i + r_j)^2 passes the float range,
# and of 1e-154, where a nonzero (r_i + r_j)^2 falls below the smallest normal float
NEAR_OVERFLOW = st.floats(1e153, 1e155) | st.floats(1e-3, 1e3) | st.floats(1e-160, 1e-150)


@given(
    magnitudes=st.lists(NEAR_OVERFLOW, min_size=3, max_size=8),
    negative=st.integers(-1, 7),
)
@settings(max_examples=200, deadline=None)
def test_float_squared_distances_are_squared_sums_or_non_finite(magnitudes, negative):
    values = [-v if i == negative else v for i, v in enumerate(magnitudes)]
    r = validate_radii(values, len(values) - 2)
    squares = [[(a + b) * (a + b) if i != j else 0.0 for j, b in enumerate(values)] for i, a in enumerate(values)]
    tiny = [
        (i, j) for i, row in enumerate(squares) for j in range(i + 1, len(row))
        if values[i] + values[j] and row[j] < sys.float_info.min
    ]
    if tiny:
        with pytest.raises(NonFiniteError, match=rf"squared distance \({tiny[0][0]},{tiny[0][1]}\) underflows"):
            tangency_squared_distances(r)
    elif any(math.isinf(v) for row in squares for v in row):
        with pytest.raises(NonFiniteError) as info:
            tangency_squared_distances(r)
        assert info.value.kind == "non-finite"
    else:
        assert tangency_squared_distances(r).entries == tuple(map(tuple, squares))


def test_float_sums_run_left_to_right():
    # Builtin sum compensates float roundoff from Python 3.12 on; float
    # results must not depend on the version, so S and Q are summed left to
    # right.  On this Descartes quadruple, 0.1 * (2, 3, 2, -1), a compensated
    # sum rounds S differently, and every result below moves with it.
    k = tuple(c * 0.1 for c in (2, 3, 2, -1))
    s = ((k[0] + k[1]) + k[2]) + k[3]
    q = ((k[0] * k[0] + k[1] * k[1]) + k[2] * k[2]) + k[3] * k[3]
    s3 = (k[0] + k[1]) + k[2]
    q3 = (k[0] * k[0] + k[1] * k[1]) + k[2] * k[2]
    assert s != math.fsum(k) and s3 != math.fsum(k[:3])
    quad = Curvatures(values=k, n=2, mode="float")
    assert descartes_residual(quad) == s * s - 2 * q
    assert vieta_partner(quad, slice(None)) == tuple(2 * (s - v) - v for v in k)
    assert vieta_partner(quad, 3) == 2 * (s - k[3]) - k[3]
    root = math.sqrt(2 * (s3 * s3 - q3))
    assert solve_missing_curvature(list(k[:3]), 2) == (s3 + root, s3 - root)
