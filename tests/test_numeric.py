"""Coercion, the product and determinant kernel, and the mode of results."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy.cayley_menger import (
    SquaredDistanceMatrix,
    VolumeSquared,
    build_cm_matrix,
    heron_area_squared,
    heron_area_squared_from_squares,
    volume_squared,
    volume_squared_from_coordinates,
)
from soddy.errors import DimensionError, ModeMismatchError, NonFiniteError, ValidationError
from soddy.numeric import EXACT, FLOAT, Matrix, as_exact, as_float, determinant
from soddy.tangency import (
    Curvatures,
    SignedRadii,
    curvatures_from_radii,
    factored_volume_squared,
    radii_from_curvatures,
    solve_missing_curvature,
    tangency_squared_distances,
    validate_curvatures,
    validate_radii,
    vieta_partner,
)

from .conftest import rand_nonzero_fraction, shoelace_area_squared


def rand_matrix(rng, n):
    return Matrix.from_rows(
        [[rand_nonzero_fraction(rng) for _ in range(n)] for _ in range(n)]
    )


class TestMatrixConstruction:
    def test_from_rows_infers_exact_mode(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.mode == EXACT
        assert m.at(1, 0) == Fraction(3)

    def test_from_rows_infers_float_mode(self):
        m = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert m.mode == FLOAT

    def test_mixed_float_and_fraction_rejected(self):
        with pytest.raises(ModeMismatchError):
            Matrix.from_rows([[0.5, Fraction(1, 2)], [1, 1]])

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            Matrix.from_rows([[float("nan"), 0.0], [0.0, 1.0]])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            Matrix.from_rows([[1, 2], [3]])

    def test_transpose_roundtrip(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_matmul_shape_check(self):
        a = Matrix.from_rows([[1, 2]])
        with pytest.raises(DimensionError):
            a @ a


class TestDeterminant:
    def test_2x2(self):
        assert determinant(Matrix.from_rows([[1, 2], [3, 4]])) == -2

    def test_identity_5(self):
        assert determinant(Matrix.identity(5)) == 1

    def test_cm_345_against_shoelace_oracle(self):
        # bordered matrix of the squared side lengths 9, 16, 25 equals
        # -16 * area^2 with the area taken from coordinates
        area2 = shoelace_area_squared((0, 0), (3, 0), (0, 4))
        assert area2 == 36
        m = Matrix.from_rows(
            [[0, 1, 1, 1], [1, 0, 25, 16], [1, 25, 0, 9], [1, 16, 9, 0]]
        )
        assert determinant(m) == -16 * area2 == -576

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_singular_exact_is_zero(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        assert determinant(m) == 0

    def test_integer_entries_give_integer_determinant(self, rng):
        for _ in range(100):
            m = Matrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            )
            d = determinant(m)
            assert d.denominator == 1

    def test_transpose_invariance_200_random(self, rng):
        for _ in range(200):
            m = rand_matrix(rng, 5)
            assert determinant(m) == determinant(m.transpose())

    def test_product_rule(self, rng):
        for _ in range(50):
            p, m, q = (rand_matrix(rng, 4) for _ in range(3))
            assert determinant(p @ m @ q) == determinant(p) * determinant(m) * determinant(q)

    def test_float_matches_numpy(self, rng):
        for _ in range(50):
            rows = [[rng.uniform(-5, 5) for _ in range(5)] for _ in range(5)]
            ours = determinant(Matrix.from_rows(rows))
            ref = np.linalg.det(np.array(rows))
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_float_zero_column(self):
        m = Matrix.from_rows([[0.0, 1.0], [0.0, 2.0]])
        assert determinant(m) == 0.0


@given(
    rows=st.lists(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=10),
            min_size=3,
            max_size=3,
        ),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=100, deadline=None)
def test_determinant_transpose_hypothesis(rows):
    m = Matrix.from_rows(rows)
    assert determinant(m) == determinant(m.transpose())


def sympy_det(rows) -> Fraction:
    """Exact determinant of Fraction-valued rows by an independent oracle."""
    sympy = pytest.importorskip("sympy")
    d = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows]
    ).det()
    return Fraction(int(d.p), int(d.q))


def rational_corpus(rng, count):
    """Random rational square matrices, n = 1..7, with a share whose leading
    pivot is zero (a row swap is needed) and a share that is singular."""
    for t in range(count):
        n = 1 + t % 7
        rows = [
            [rand_nonzero_fraction(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        if t % 3 == 1:
            rows[0][0] = Fraction(0)
        if t % 5 == 2 and n > 1:
            c = rand_nonzero_fraction(rng)
            rows[-1] = [c * v for v in rows[0]]
        yield rows


class TestKernelAgainstSympy:
    def test_exact_matches_sympy(self, rng):
        singular = 0
        for rows in rational_corpus(rng, 210):
            want = sympy_det(rows)
            assert determinant(Matrix.from_rows(rows, EXACT)) == want
            singular += want == 0
        assert singular >= 20

    def test_float_is_exact_value_rounded_once(self, rng):
        for t in range(210):
            n = 1 + t % 7
            rows = [
                [rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(n)]
                for _ in range(n)
            ]
            if t % 3 == 1:
                rows[0][0] = 0.0
            want = float(sympy_det([[Fraction(v) for v in r] for r in rows]))
            got = determinant(Matrix.from_rows(rows, FLOAT))
            assert type(got) is float and got == want


class TestKernelEdgeCases:
    def test_singular_float_integers_give_exact_zero(self):
        m = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        assert determinant(m) == 0.0

    def test_float_overflow_is_non_finite_error(self):
        big = 1e200
        m = Matrix.from_rows([[0.0, big, big], [big, 0.0, big], [big, big, 0.0]])
        with pytest.raises(NonFiniteError):
            determinant(m)


def schoolbook_product(a, b):
    """Reference product of Fraction-valued rows: the plain triple loop."""
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def product_corpus(rng, count):
    """Random operand pairs with shapes 1..9 (a third square, the rest
    rectangular): integer-only or mixed-denominator entries, with some zero
    entries, zero rows of A and zero columns of B."""
    for t in range(count):
        n, k, m = (rng.randint(1, 9) for _ in range(3))
        if t % 3 == 0:
            k = m = n
        span, max_den = (30, 1) if t % 2 else (10**6, 10**4)

        def entry():
            if rng.random() < 0.15:
                return Fraction(0)
            return Fraction(rng.randint(-span, span), rng.randint(1, max_den))

        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(k)]
        if t % 5 == 1:
            a[rng.randrange(n)] = [Fraction(0)] * k
        if t % 7 == 2:
            j = rng.randrange(m)
            for row in b:
                row[j] = Fraction(0)
        yield a, b


class TestMatmulKernel:
    def test_exact_matches_schoolbook(self, rng):
        shapes = set()
        for a, b in product_corpus(rng, 400):
            got = Matrix.from_rows(a, EXACT) @ Matrix.from_rows(b, EXACT)
            assert (got.mode, got.to_rows()) == (EXACT, schoolbook_product(a, b))
            assert all(type(v) is Fraction for v in got.data)
            shapes.add((len(a), len(b), len(b[0])))
        assert len(shapes) > 150

    def test_float_is_exact_product_rounded_once(self, rng):
        for t in range(300):
            n, k, m = (rng.randint(1, 9) for _ in range(3))
            a = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(k)] for _ in range(n)]
            b = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(m)] for _ in range(k)]
            want = [
                [float(v) for v in row]
                for row in schoolbook_product(
                    [[Fraction(v) for v in r] for r in a], [[Fraction(v) for v in r] for r in b]
                )
            ]
            got = Matrix.from_rows(a, FLOAT) @ Matrix.from_rows(b, FLOAT)
            assert got.mode == FLOAT and all(type(v) is float for v in got.data)
            assert got.to_rows() == want

    def test_float_cancellation_is_exact(self):
        a = Matrix.from_rows([[1e16, 1.0, -1e16]])
        b = Matrix.from_rows([[1.0], [1.0], [1.0]])
        assert (a @ b).data == (1.0,)  # left-to-right float sums give 0.0

    def test_float_overflow_is_non_finite_error(self):
        m = Matrix.from_rows([[1e200]])
        with pytest.raises(NonFiniteError):
            m @ m

    def test_scaled_float_overflow_is_non_finite_error(self):
        with pytest.raises(NonFiniteError):
            Matrix.from_rows([[1e200]]).scaled(1e200)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ModeMismatchError):
            Matrix.from_rows([[1, 2]]) @ Matrix.from_rows([[1.0], [2.0]])

    def test_non_matrix_operand_is_not_implemented(self):
        with pytest.raises(TypeError):
            Matrix.from_rows([[1]]) @ [[1]]


class TestCoercion:
    def test_float_beyond_range_is_non_finite(self):
        with pytest.raises(NonFiniteError) as info:
            as_float(10**400)
        assert "out of float range" in str(info.value)
        assert "0000" not in str(info.value)

    def test_matrix_entry_beyond_float_range(self):
        with pytest.raises(NonFiniteError):
            Matrix.from_rows([[10**400, 1.0]])

    @pytest.mark.parametrize("coerce", [as_exact, as_float])
    @pytest.mark.parametrize("value", [None, [1], {"a": 1}, "1", True])
    def test_non_scalar_is_validation_error(self, coerce, value):
        with pytest.raises(ValidationError) as info:
            coerce(value)
        assert info.value.kind == "validation"

    def test_float_in_exact_mode_is_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            as_exact(0.5)


def scalars_of(result) -> tuple:
    """Every scalar a function under test returned, in a fixed order."""
    if isinstance(result, Matrix):
        return result.data
    if isinstance(result, SquaredDistanceMatrix):
        return sum(result.entries, ())
    if isinstance(result, VolumeSquared):
        return (result.value,)
    if isinstance(result, (Curvatures, SignedRadii)):
        return result.values
    if isinstance(result, tuple):
        return result
    return (result,)


F = Fraction
sdm = SquaredDistanceMatrix.from_entries
SIDES_345 = [[0, 9, 16], [9, 0, 25], [16, 25, 0]]
FLAT_123 = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]  # points 0, 1, 2 on a line


def floats(rows):
    return [[float(v) for v in row] for row in rows]


# (call, expected scalars): exact input must give Fractions, float input
# floats, with the pinned values; repr() tells 0.0 from -0.0.
MODE_CASES = {
    "identity-exact": (lambda: Matrix.identity(2), (F(1), F(0), F(0), F(1))),
    "identity-float": (lambda: Matrix.identity(2, FLOAT), (1.0, 0.0, 0.0, 1.0)),
    "diagonal-exact": (lambda: Matrix.diagonal([F(1, 2), 3]), (F(1, 2), F(0), F(0), F(3))),
    "diagonal-float": (lambda: Matrix.diagonal([0.5, 3.0]), (0.5, 0.0, 0.0, 3.0)),
    "cm-matrix-exact": (
        lambda: build_cm_matrix(sdm([[0, 4], [4, 0]])),
        (F(0), F(1), F(1), F(1), F(0), F(4), F(1), F(4), F(0)),
    ),
    "cm-matrix-float": (
        lambda: build_cm_matrix(sdm([[0.0, 4.0], [4.0, 0.0]])),
        (0.0, 1.0, 1.0, 1.0, 0.0, 4.0, 1.0, 4.0, 0.0),
    ),
    "volume-exact": (lambda: volume_squared(sdm(SIDES_345)), (F(36),)),
    "volume-float": (lambda: volume_squared(sdm(floats(SIDES_345))), (36.0,)),
    "volume-degenerate-exact": (lambda: volume_squared(sdm(FLAT_123)), (F(0),)),
    "volume-degenerate-float": (lambda: volume_squared(sdm(floats(FLAT_123))), (0.0,)),
    "heron-exact": (lambda: heron_area_squared(3, 4, 5), (F(36),)),
    "heron-float": (lambda: heron_area_squared(3.0, 4.0, 5.0), (36.0,)),
    "heron-degenerate-float": (lambda: heron_area_squared(1.0, 1.0, 2.0), (0.0,)),
    "heron-squares-exact": (lambda: heron_area_squared_from_squares(9, 16, 25), (F(36),)),
    "heron-squares-float": (lambda: heron_area_squared_from_squares(9.0, 16.0, 25.0), (36.0,)),
    "heron-squares-degenerate-float": (
        lambda: heron_area_squared_from_squares(1.0, 1.0, 4.0),
        (0.0,),
    ),
    "coordinates-exact": (
        lambda: volume_squared_from_coordinates([[0, 0], [3, 0], [0, 4]]),
        (F(36),),
    ),
    "coordinates-float": (
        lambda: volume_squared_from_coordinates([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
        (36.0,),
    ),
    "curvatures-exact": (
        lambda: curvatures_from_radii(validate_radii([-1, F(1, 2), F(1, 2), F(1, 3)], 2)),
        (F(-1), F(2), F(2), F(3)),
    ),
    "curvatures-float": (
        lambda: curvatures_from_radii(validate_radii([-1.0, 0.5, 0.5, 0.25], 2)),
        (-1.0, 2.0, 2.0, 4.0),
    ),
    "radii-exact": (
        lambda: radii_from_curvatures(validate_curvatures([-1, 2, 2, 3], 2)),
        (F(-1), F(1, 2), F(1, 2), F(1, 3)),
    ),
    "radii-float": (
        lambda: radii_from_curvatures(validate_curvatures([-1.0, 2.0, 2.0, 4.0], 2)),
        (-1.0, 0.5, 0.5, 0.25),
    ),
    "tangency-distances-exact": (
        lambda: tangency_squared_distances(validate_radii([1, 1, 1], 1)),
        (F(0), F(4), F(4), F(4), F(0), F(4), F(4), F(4), F(0)),
    ),
    "tangency-distances-float": (
        lambda: tangency_squared_distances(validate_radii([1.0, 1.0, 1.0], 1)),
        (0.0, 4.0, 4.0, 4.0, 0.0, 4.0, 4.0, 4.0, 0.0),
    ),
    "factored-volume-exact": (
        lambda: factored_volume_squared(validate_radii([1, 1, 1], 1)),
        (F(3),),
    ),
    "factored-volume-float": (
        lambda: factored_volume_squared(validate_radii([1.0, 1.0, 1.0], 1)),
        (3.0,),
    ),
    "solve-n1-exact": (lambda: solve_missing_curvature([1, 1], 1), (F(-1, 2), F(-1, 2))),
    "solve-n1-float": (lambda: solve_missing_curvature([1.0, 1.0], 1), (-0.5, -0.5)),
    "solve-exact": (lambda: solve_missing_curvature([-1, 2, 2], 2), (F(3), F(3))),
    "solve-float": (lambda: solve_missing_curvature([-1.0, 2.0, 2.0], 2), (3.0, 3.0)),
    "vieta-exact": (
        lambda: vieta_partner(validate_curvatures([-1, 2, 2, 3], 2), 0),
        (F(15),),
    ),
    "vieta-float": (
        lambda: vieta_partner(validate_curvatures([-1.0, 2.0, 2.0, 3.0], 2), 0),
        (15.0,),
    ),
}


@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_result_mode_follows_input_mode(case):
    call, expected = MODE_CASES[case]
    got = scalars_of(call())
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert list(map(repr, got)) == list(map(repr, expected))
