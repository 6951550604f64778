"""Determinant kernel, both scalar modes."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy.errors import DimensionError, ModeMismatchError, NonFiniteError
from soddy.numeric import EXACT, FLOAT, Matrix, determinant

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
