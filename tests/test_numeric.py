"""Coercion, the product and determinant kernel, and the mode of results."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import operator
import pickle
import sys
from fractions import Fraction
from numbers import Integral, Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy import numeric
from soddy.cayley_menger import (
    SquaredDistanceMatrix,
    VolumeSquared,
    build_cm_matrix,
    cm_determinant,
    heron_area_squared,
    heron_area_squared_from_squares,
    volume_squared,
    volume_squared_from_coordinates,
)
from soddy.embedding import EmbeddedPoints
from soddy.errors import DimensionError, ModeMismatchError, NonFiniteError, SoddyError, ValidationError
from soddy.numeric import (
    EXACT,
    FLOAT,
    Matrix,
    as_exact,
    as_float,
    coerce_vector,
    determinant,
    symmetric_bareiss,
)
from soddy.gasket import Circle, Gasket
from soddy.proof_witness import IdentityCheck, ProofReport
from soddy.serialize import format_matrix, format_scalar, scalar_to_json, value_to_json
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Matrix(0, 1, (), EXACT),
            lambda: Matrix(2, 2, (Fraction(1),), EXACT),
            lambda: Matrix.from_rows([]),
        ],
        ids=["no-rows", "short-data", "empty-rows"],
    )
    def test_empty_or_short_matrix_rejected(self, build):
        with pytest.raises(DimensionError):
            build()

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

    @pytest.mark.parametrize(
        "rows, want",
        [
            # pivot 0 is mended from row 2, below the next row
            ([[0, 1, 2, 3], [0, 4, 5, 6], [7, 8, Fraction(1, 2), 1], [2, 0, 3, 5]], 69),
            # pivot 0 is mended from row 3, then pivot 1 from row 2
            ([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 1], [7, 0, 4, 0]], 210),
            # column 1 is zero from the diagonal down
            ([[1, 2, Fraction(1, 3)], [0, 0, 4], [0, 0, 5]], 0),
        ],
        ids=["mend-from-below-next-row", "two-mends-in-a-row", "zero-column-below-diagonal"],
    )
    def test_zero_pivot_matches_sympy(self, rows, want):
        assert determinant(Matrix.from_rows(rows)) == sympy_det(rows) == want


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


def float_rows(rng, n, k, exps=None, axis=0):
    """n x k floats in [-1, 1); with ``exps``, row i (axis 0) or column j
    (axis 1) is scaled by 10^exps[i] or 10^exps[j]."""
    scale = [10.0 ** e for e in exps] if exps else [1.0] * max(n, k)
    return [[rng.uniform(-1, 1) * scale[(i, j)[axis]] for j in range(k)] for i in range(n)]


class TestKernelWideExponents:
    """One operand spans 1e-300..1e300, by scales 10^(+-300) and 10^(+-e)
    that cancel in pairs, so its products and determinant fit a float."""

    def test_determinant_is_exact_value_rounded_once(self, rng):
        for t in range(120):
            n, e = 1 + t % 4, rng.randint(0, 300)
            rows = float_rows(rng, n, n, [300, -300, e, -e][:n], t // 4 % 2)
            want = float(sympy_det([[Fraction(v) for v in r] for r in rows]))
            assert determinant(Matrix.from_rows(rows, FLOAT)) == want

    def test_product_is_exact_value_rounded_once(self, rng):
        for t in range(120):
            n, k, m = (rng.randint(1, 4) for _ in range(3))
            e = rng.randint(0, 300)
            if t % 2:  # the rows of the left factor are wide
                a, b = float_rows(rng, n, k, [300, -300, e, -e][:n]), float_rows(rng, k, m)
            else:  # the columns of the right factor are wide
                a, b = float_rows(rng, n, k), float_rows(rng, k, m, [300, -300, e, -e][:m], 1)
            want = schoolbook_product(
                [[Fraction(v) for v in r] for r in a], [[Fraction(v) for v in r] for r in b]
            )
            got = Matrix.from_rows(a, FLOAT) @ Matrix.from_rows(b, FLOAT)
            assert got.to_rows() == [[float(v) for v in row] for row in want]


class TestKernelEdgeCases:
    def test_singular_float_integers_give_exact_zero(self):
        m = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        assert determinant(m) == 0.0

    def test_float_overflow_is_non_finite_error(self):
        big = 1e200
        m = Matrix.from_rows([[0.0, big, big], [big, 0.0, big], [big, big, 0.0]])
        with pytest.raises(NonFiniteError):
            determinant(m)


def symmetric_det(rows, pivot=None) -> int:
    """symmetric_bareiss(rows), checked against the general kernel; with
    ``pivot``, also checks the first pivot the elimination used."""
    a = [list(r) for r in rows]
    got = symmetric_bareiss(a)
    assert got == determinant(Matrix.from_rows(rows))
    if pivot is not None:
        assert a[0][0] == pivot
    return got


class TestSymmetricBareiss:
    def test_zero_leading_pivot_adds_next_index(self):
        # a[0][0] = 0: index 0 += index 1, pivot 2*1 + 3
        assert symmetric_det([[0, 1, 2], [1, 3, 0], [2, 0, 5]], pivot=5) == -17

    def test_zero_leading_pivot_subtracts_when_adding_cancels(self):
        # a[1][1] == -2*a[0][1]: t = +1 would give pivot 0, t = -1 gives -4
        assert symmetric_det([[0, 1, 4], [1, -2, 3], [4, 3, 7]], pivot=-4) == 49

    def test_first_nonzero_entry_of_the_row_is_used(self):
        # a[0][1] == 0, so index 2 is used: pivot 2*3 + 1
        assert symmetric_det([[0, 0, 3], [0, 2, 1], [3, 1, 1]], pivot=7) == -18

    def test_zero_trailing_row_gives_zero(self):
        # after step 0, row 1 of the remaining block is zero
        assert symmetric_det([[1, 1, 1], [1, 1, 1], [1, 1, 2]]) == 0

    def test_zero_leading_row_gives_zero(self):
        assert symmetric_det([[0, 0], [0, 5]]) == 0

    def test_zero_row_is_skipped_and_the_rest_eliminated(self):
        a = [[0, 0, 0], [0, 2, 1], [0, 1, 3]]
        assert symmetric_bareiss(a) == 0
        assert a[2][2] == 5  # 2*3 - 1*1, the minor on rows 1 and 2

    def test_kept_rows_factor_gram_blocks_with_repeated_points(self, rng):
        # p_k = Δ_k / Δ_prev and L_ik = a[k][i] / Δ_k over the rows with
        # Δ_k != 0 give L diag(p) L^T == the block, exactly
        skipped = 0
        for _ in range(300):
            m = rng.randint(2, 9)
            dim = rng.randint(1, 4)
            pts = []
            for _ in range(m):
                new = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]
                pts.append(list(rng.choice(pts)) if pts and rng.random() < 0.3 else new)
            rel = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
            gram = [[sum(map(operator.mul, p, q)) for q in rel] for p in rel]
            scale = math.lcm(*(g.denominator for row in gram for g in row))
            block = [[int(g * scale) for g in row] for row in gram]
            a = [list(r) for r in block]
            symmetric_bareiss(a)
            n, prev, factors = len(a), 1, []
            for k in range(n):
                if a[k][k]:
                    col = [Fraction(a[k][i], a[k][k]) if i >= k else 0 for i in range(n)]
                    factors.append((Fraction(a[k][k], prev), col))
                    prev = a[k][k]
            skipped += len(factors) < n
            for i, j in itertools.product(range(n), repeat=2):
                assert sum(p * col[i] * col[j] for p, col in factors) == block[i][j]
        assert skipped >= 100

    @pytest.mark.parametrize("value", [-3, 0, 7])
    def test_one_by_one(self, value):
        assert symmetric_det([[value]]) == value

    def test_random_sparse_symmetric(self, rng):
        for _ in range(500):
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            symmetric_det(rows)

    def test_diagonal_holds_the_leading_minors(self, rng):
        # cut at its first zero, the diagonal ends in the determinant; with
        # no zero leading minor in the input nothing is mended, and it holds
        # the input's leading minors
        unmended = 0
        for _ in range(500):
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7:
                        rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            a = [list(r) for r in rows]
            det = symmetric_bareiss(a)
            diag = [a[k][k] for k in range(n)]
            cut = diag[: diag.index(0) + 1] if 0 in diag else diag
            assert cut[-1] == det
            minors = [determinant(Matrix.from_rows([r[:k] for r in rows[:k]])) for k in range(1, n + 1)]
            if 0 not in minors:
                unmended += 1
                assert cut == minors
        assert unmended >= 100

    @pytest.mark.parametrize("zero, want", [(0, "Fraction(0, 1)"), (0.0, "0.0")])
    def test_two_points_at_distance_zero(self, zero, want):
        # m = 2 with D_01 = 0: the Gram block is [[0]]
        d = SquaredDistanceMatrix.from_entries([[zero, zero], [zero, zero]])
        assert repr(cm_determinant(d)) == repr(determinant(build_cm_matrix(d))) == want


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

    def test_exact_fraction_is_returned_as_is(self):
        x = Fraction(3, 7)
        assert as_exact(x) is x

    def test_float_in_exact_mode_is_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            as_exact(0.5)

    # int takes its own fast path and numpy's integers the abstract-class
    # one; bools are ints too, and test_non_scalar_is_validation_error
    # shows that as_exact still refuses them
    @pytest.mark.parametrize("value", [7, -(10**400), np.int64(-3), np.uint8(200)])
    def test_integers_become_equal_fractions(self, value):
        x = as_exact(value)
        assert type(x) is Fraction and x == int(value)


def two_pass_coerce(values, mode=None):
    """Reference coercion rule: infer the mode over every value, then coerce each."""
    if mode is None:
        saw_float = saw_fraction = False
        for v in values:
            if isinstance(v, float):
                saw_float = True
            elif isinstance(v, Rational):
                saw_fraction |= not isinstance(v, Integral)
            else:
                raise ValidationError(f"{v!r} is not a scalar")
        if saw_float and saw_fraction:
            raise ModeMismatchError("cannot mix floats and fractions in one computation")
        mode = FLOAT if saw_float else EXACT
    convert = as_exact if mode == EXACT else as_float
    return tuple(convert(v) for v in values), mode


def outcome(call, *args):
    """(mode, (type, repr) of each value) of a coercion, or its error's type and message."""
    try:
        values, mode = call(*args)
    except SoddyError as exc:
        return type(exc), str(exc)
    return mode, [(type(v), repr(v)) for v in values]


def one_row_matrix(values, mode=None):
    m = Matrix.from_rows([values], mode)
    return m.data, m.mode


def unsigned_zeros(result):
    """An outcome with each -0.0 read as 0.0: a Matrix holds the value 0, which has no sign."""
    if isinstance(result[1], list):
        return result[0], [(t, "0.0" if r == "-0.0" else r) for t, r in result[1]]
    return result


MIXED_SCALARS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), 2**1024]),  # ints past the float range
    st.integers(-5, 5).map(np.int64),
    st.floats(-1e6, 1e6).map(np.float64),
    st.floats(-10, 10, width=32).map(np.float32),  # a Real that is not Rational
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@given(
    values=st.one_of(
        st.lists(MIXED_SCALARS, max_size=6),
        # mostly plain scalars, so that most lists coerce
        st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9), st.floats(-9, 9)), max_size=6),
    ),
    mode=st.sampled_from([None, EXACT, FLOAT]),
)
@settings(max_examples=400, deadline=None)
def test_coercion_follows_the_two_pass_rule(values, mode):
    want = outcome(two_pass_coerce, values, mode)
    assert outcome(coerce_vector, values, mode) == want
    if values:
        assert outcome(one_row_matrix, values, mode) == unsigned_zeros(want)


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


# Exact matrices are integer rows over one denominator; every answer they
# give must equal that of a plain-Fraction model of the same rows.

EXACT_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),  # large denominators
)
# one factor times every entry, so the entries share factors with each other
# and with their common denominator
COMMON_FACTORS = st.sampled_from([1, 6, 2**40, Fraction(1, 12), Fraction(35, 2**50)])


@st.composite
def exact_rows(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    factor = draw(COMMON_FACTORS)
    return [[draw(EXACT_ENTRIES) * factor for _ in range(cols)] for _ in range(rows)]


def fraction_model(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def leibniz_det(rows) -> Fraction:
    """Reference determinant: the sum over permutations, in Fractions."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod((rows[i][p] for i, p in enumerate(perm)), start=Fraction(1))
    return total


@given(rows=exact_rows())
@settings(max_examples=200, deadline=None)
def test_exact_matrix_reads_as_its_fraction_model(rows):
    want = fraction_model(rows)
    r, c = len(want), len(want[0])
    flat = tuple(v for row in want for v in row)
    given_flat = [v for row in rows for v in row]
    for m in (Matrix.from_rows(rows), Matrix.from_rows(rows, EXACT), Matrix(r, c, given_flat, EXACT)):
        assert m.mode == EXACT and (m.rows, m.cols) == (r, c)
        assert m.data == flat and all(type(v) is Fraction for v in m.data)
        assert m.to_rows() == want
        assert all(m.row(i) == tuple(want[i]) for i in range(r))
        for i, j in itertools.product(range(r), range(c)):
            assert type(m.at(i, j)) is Fraction and m.at(i, j) == want[i][j]
        assert m.transpose().to_rows() == [list(col) for col in zip(*want)]
    assert Matrix.identity(c).to_rows() == [[Fraction(int(i == j)) for j in range(c)] for i in range(c)]


@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
@settings(max_examples=200, deadline=None)
def test_exact_product_and_determinant_match_the_fraction_model(data, shape):
    n, k, p = shape
    a, b, sq = data.draw(exact_rows(n, k)), data.draw(exact_rows(k, p)), data.draw(exact_rows(n, n))
    got = Matrix.from_rows(a) @ Matrix.from_rows(b)
    assert got.mode == EXACT and got.to_rows() == schoolbook_product(fraction_model(a), fraction_model(b))
    d = determinant(Matrix.from_rows(sq))
    assert type(d) is Fraction and d == leibniz_det(fraction_model(sq))


def same_value_routes(rows) -> list[Matrix]:
    """The matrix of ``rows`` built by routes that reach it through other forms."""
    m = Matrix.from_rows(rows)
    n, c = m.rows, m.cols
    two = Matrix.from_rows([[2 * int(i == j) for j in range(c)] for i in range(c)])
    half = Matrix.from_rows([[Fraction(int(i == j), 2) for j in range(c)] for i in range(c)])
    return [
        m,
        Matrix.from_rows([[Fraction(v) for v in row] for row in rows], EXACT),
        Matrix(n, c, m.data, EXACT),
        Matrix.from_rows(m.to_rows()),
        m @ Matrix.identity(c),
        Matrix.identity(n) @ m,
        m.transpose().transpose(),
        m @ two @ half,
    ]


@given(rows=exact_rows())
@settings(max_examples=150, deadline=None)
def test_equal_values_have_one_form(rows):
    routes = same_value_routes(rows)
    first = routes[0]
    for m in routes:
        assert m == first and hash(m) == hash(first) and repr(m) == repr(first)


def test_equal_values_named_examples():
    pairs = [
        (Matrix.from_rows([[Fraction(2, 4)]]), Matrix.from_rows([[Fraction(1, 2)]])),
        (Matrix.from_rows([[Fraction(6, 2), 0]]), Matrix.from_rows([[3, 0]])),
        (Matrix.from_rows([[Fraction(1, 3), 1]]) @ Matrix.from_rows([[3], [0]]), Matrix.from_rows([[1]])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert Matrix.from_rows([[1]]) != Matrix.from_rows([[1.0]])  # modes differ
    assert Matrix.from_rows([[1, 2]]) != Matrix.from_rows([[1], [2]])


@given(rows=exact_rows())
@settings(max_examples=50, deadline=None)
def test_pickle_round_trips(rows):
    for m in (Matrix.from_rows(rows), Matrix.from_rows(rows, FLOAT)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(m, protocol))
            assert back == m and repr(back) == repr(m) and hash(back) == hash(m)
            assert back @ m.transpose() == m @ m.transpose()


def test_float_matrix_holds_negative_zero_as_zero():
    (value,) = Matrix.from_rows([[-0.0]], FLOAT).data
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_float_operands_are_converted_once(monkeypatch):
    """A float matrix is put over one denominator when it is built: a product
    converts only its rounded result, and a determinant and a bordered
    matrix convert nothing."""
    a = Matrix.from_rows([[0.1, 2.5], [-3.0, 1e-300]])
    b = Matrix.from_rows([[1.5, 0.25], [7.0, -0.0]])
    d = SquaredDistanceMatrix.from_entries([[0.0, 0.5], [0.5, 0.0]])
    calls = []
    for name in ("_integer_rows", "coerce_vector"):
        real = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    a @ b
    assert calls == ["_integer_rows"]
    calls.clear()
    determinant(a)
    build_cm_matrix(d)
    assert calls == []


@pytest.mark.parametrize("name", ["rows", "cols", "data", "mode", "_num", "_den", "other"])
def test_matrix_attributes_cannot_be_assigned(name):
    m = Matrix.from_rows([[1, Fraction(1, 2)]])
    before = repr(m)
    with pytest.raises(AttributeError):
        setattr(m, name, 3)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert repr(m) == before


_SEED_CIRCLE = Circle((0.0, 0.0), -1.0, -1.0, 0, ())

#: One value of each Frozen class: its class, its fields, and the repr a
#: frozen dataclass of those fields prints.
_FROZEN_VALUES = [
    (
        SignedRadii,
        ((Fraction(-1), Fraction(1, 2), Fraction(1, 3)), 1, EXACT),
        "SignedRadii(values=(Fraction(-1, 1), Fraction(1, 2), Fraction(1, 3)), n=1, mode='exact')",
    ),
    (Curvatures, ((-1.0, 2.0, 2.0, 3.0), 2, FLOAT), "Curvatures(values=(-1.0, 2.0, 2.0, 3.0), n=2, mode='float')"),
    (EmbeddedPoints, (((0.0, 0.0), (2.0, 0.5)),), "EmbeddedPoints(coords=((0.0, 0.0), (2.0, 0.5)))"),
    (
        SquaredDistanceMatrix,
        (2, ((Fraction(0), Fraction(1, 4)), (Fraction(1, 4), Fraction(0))), EXACT),
        "SquaredDistanceMatrix(m=2, entries=((Fraction(0, 1), Fraction(1, 4)), "
        "(Fraction(1, 4), Fraction(0, 1))), mode='exact')",
    ),
    (VolumeSquared, (Fraction(9, 4), 2), "VolumeSquared(value=Fraction(9, 4), dim=2)"),
    (
        Circle,
        ((0.0, 0.5), 0.5, 2.0, 1, (0, 1, 2)),
        "Circle(center=(0.0, 0.5), radius=0.5, curvature=2.0, depth=1, parents=(0, 1, 2))",
    ),
    (
        Gasket,
        ((_SEED_CIRCLE,), (-1.0, 2.0, 2.0), 0),
        "Gasket(circles=(Circle(center=(0.0, 0.0), radius=-1.0, curvature=-1.0, depth=0, parents=()),), "
        "seed_curvatures=(-1.0, 2.0, 2.0), max_depth=0)",
    ),
    (
        IdentityCheck,
        ("S^2 = 16I", 2, True, Fraction(16), Fraction(16)),
        "IdentityCheck(name='S^2 = 16I', n=2, passed=True, lhs=Fraction(16, 1), rhs=Fraction(16, 1))",
    ),
    (
        ProofReport,
        ((IdentityCheck("det", 1, False, Fraction(-1), Fraction(1)),),),
        "ProofReport(entries=(IdentityCheck(name='det', n=1, passed=False, lhs=Fraction(-1, 1), "
        "rhs=Fraction(1, 1)),))",
    ),
]


@pytest.mark.parametrize("cls, fields, text", _FROZEN_VALUES)
def test_value_classes_behave_as_frozen_dataclasses(cls, fields, text):
    # the eq, hash, repr, copying and immutability of a frozen dataclass
    value = cls(*fields)
    assert value == cls(**dict(zip(cls.__match_args__, fields)))
    assert hash(value) == hash(fields)
    assert repr(value) == text
    assert value != fields
    for copied in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value) and repr(copied) == text
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def _unpacked(value, as_dict: bool):
    """``value`` as ``dataclasses.asdict`` (or ``astuple``) writes it: each
    value with ``__match_args__`` a dict (or tuple) of those fields, inside
    tuples too."""
    names = getattr(type(value), "__match_args__", None)
    if names is not None:
        fields = [_unpacked(getattr(value, name), as_dict) for name in names]
        return dict(zip(names, fields)) if as_dict else tuple(fields)
    if isinstance(value, tuple):
        return tuple(_unpacked(v, as_dict) for v in value)
    return value


@pytest.mark.parametrize("cls, fields, text", _FROZEN_VALUES)
def test_value_classes_keep_the_dataclass_protocol(cls, fields, text):
    # built on first read from a frozen dataclass of the same fields
    value = cls(*fields)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert tuple(f.name for f in dataclasses.fields(value)) == cls.__match_args__
    assert cls.__dataclass_params__.frozen
    assert dataclasses.asdict(value) == _unpacked(value, as_dict=True)
    assert dataclasses.astuple(value) == _unpacked(value, as_dict=False)
    for copied in (dataclasses.replace(value), dataclasses.replace(value, **dict(zip(cls.__match_args__, fields)))):
        assert type(copied) is cls and copied == value and repr(copied) == text
    with pytest.raises(TypeError):
        dataclasses.replace(value, other=3)
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 3)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)


_NEEDS_COPY_REPLACE = pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")


@_NEEDS_COPY_REPLACE
@pytest.mark.parametrize("cls, fields, text", _FROZEN_VALUES)
def test_value_classes_support_copy_replace(cls, fields, text):
    value = cls(*fields)
    copied = copy.replace(value)
    assert type(copied) is cls and copied == value and repr(copied) == text
    with pytest.raises(TypeError):
        copy.replace(value, other=3)


@_NEEDS_COPY_REPLACE
def test_copy_replace_changes_only_the_fields_named():
    moved = copy.replace(_SEED_CIRCLE, radius=2.0, depth=1)
    assert repr(moved) == "Circle(center=(0.0, 0.0), radius=2.0, curvature=-1.0, depth=1, parents=())"


def test_a_dataclass_subclass_of_circle_builds():
    @dataclasses.dataclass(frozen=True)
    class Tagged(Circle):
        tag: str = "seed"

    tagged = Tagged((0.0, 0.0), -1.0, -1.0, 0, ())
    assert [f.name for f in dataclasses.fields(tagged)] == [*Circle.__match_args__, "tag"]
    assert repr(tagged) == (
        f"{Tagged.__qualname__}(center=(0.0, 0.0), radius=-1.0, curvature=-1.0, depth=0, parents=(), tag='seed')"
    )
    assert tagged == Tagged(**dataclasses.asdict(tagged)) and tagged != _SEED_CIRCLE
    with pytest.raises(dataclasses.FrozenInstanceError):
        tagged.tag = "other"


def test_the_dataclass_protocol_is_built_per_class():
    # a base read first must not hand its fields to its subclasses, nor a
    # subclass read first its fields to its base
    def pair():
        class Base(numeric.Frozen):
            __slots__ = __match_args__ = ("a",)

            def __init__(self, a):
                object.__setattr__(self, "a", a)

        class Sub(Base):
            __slots__ = ("b",)
            __match_args__ = ("a", "b")

        return Base, Sub

    assert dataclasses.fields(numeric.Frozen) == ()
    for first in (0, 1):
        classes = pair()
        dataclasses.fields(classes[first])
        assert [[f.name for f in dataclasses.fields(cls)] for cls in classes] == [["a"], ["a", "b"]]
        assert not any("__dataclass_fields__" in vars(cls) for cls in classes)
        assert not isinstance(vars(numeric.Frozen)["__dataclass_fields__"], dict)


def test_radii_and_curvatures_of_the_same_values_differ():
    fields = ((Fraction(1), Fraction(2), Fraction(3)), 1, EXACT)
    assert SignedRadii(*fields) != Curvatures(*fields)


def test_embedded_points_coerce_and_check_their_coordinates():
    assert EmbeddedPoints([[1, Fraction(1, 2)], np.array([2, 3])]).coords == ((1.0, 0.5), (2.0, 3.0))
    with pytest.raises(DimensionError):
        EmbeddedPoints(((1.0,), (1.0, 2.0)))
    with pytest.raises(NonFiniteError, match="non-finite"):
        EmbeddedPoints(((math.nan, 0.0),))


class TestConstructorValidates:
    def test_float_in_exact_mode_is_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            Matrix(1, 1, (0.5,), EXACT)

    def test_nan_in_float_mode_is_non_finite(self):
        with pytest.raises(NonFiniteError):
            Matrix(1, 1, (float("nan"),), FLOAT)

    def test_non_scalar_is_validation_error(self):
        with pytest.raises(ValidationError):
            Matrix(1, 1, ("x",), EXACT)

    @pytest.mark.parametrize("mode", [None, "Exact", "fraction", 1])
    def test_unknown_mode_is_validation_error(self, mode):
        with pytest.raises(ValidationError):
            Matrix(1, 1, (1,), mode)
        if mode is not None:  # from_rows infers a mode from None
            with pytest.raises(ValidationError):
                Matrix.from_rows([[1]], mode)

    def test_dimensions_are_checked_first(self):
        with pytest.raises(DimensionError):
            Matrix(2, 2, ("x",), "unknown")
        with pytest.raises(DimensionError):
            Matrix(0, 1, (), "unknown")

    def test_list_data_is_stored_as_a_hashable_tuple(self):
        exact, flt = Matrix(1, 2, [1, Fraction(1, 2)], EXACT), Matrix(1, 2, [1, 2.5], FLOAT)
        assert exact.data == (1, Fraction(1, 2)) and flt.data == (1.0, 2.5)
        assert type(exact.data) is tuple and type(flt.data) is tuple
        assert len({exact, flt, Matrix(1, 2, (1, Fraction(1, 2)), EXACT)}) == 2


def constructed(values, mode):
    m = Matrix(1, len(values), values, mode)
    return m.data, m.mode


@given(values=st.lists(MIXED_SCALARS, min_size=1, max_size=6), mode=st.sampled_from([EXACT, FLOAT]))
@settings(max_examples=300, deadline=None)
def test_constructor_coerces_as_from_rows(values, mode):
    assert outcome(constructed, values, mode) == outcome(one_row_matrix, values, mode)


@pytest.mark.parametrize(
    "index", [(0, 2), (2, 0), (-1, 0), (0, -1), (5, 5)], ids=["col-2", "row-2", "row-neg", "col-neg", "both-5"]
)
def test_at_outside_the_matrix_is_index_error(index):
    m = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        m.at(*index)
    with pytest.raises(IndexError):
        Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]]).at(*index)


@pytest.mark.parametrize("i", [2, -1, 10])
def test_row_outside_the_matrix_is_index_error(i):
    for m in (Matrix.from_rows([[1, 2], [3, 4]]), Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])):
        with pytest.raises(IndexError):
            m.row(i)


@given(rows=exact_rows())
@settings(max_examples=100, deadline=None)
def test_exact_matrix_prints_as_its_fractions(rows):
    m = Matrix.from_rows(rows)
    assert value_to_json(m) == [[scalar_to_json(v) for v in row] for row in m.to_rows()]
    want = "[" + "; ".join(" ".join(format_scalar(v) for v in row) for row in m.to_rows()) + "]"
    assert format_matrix(m) == want
    assert IdentityCheck("x", 1, True, m, m).line() == f"PASS  x [n=1]  lhs={want}  rhs={want}"


@pytest.mark.parametrize(
    "rows",
    [
        [[10**5000, 1]],
        [[1, Fraction(1, 10**5000)]],
        [[Fraction(-(10**5000), 3)], [Fraction(1, 2)]],
        # printable entries first, then two too long: the first one is named
        [[Fraction(1, 3), 2], [10**5000, -(10**6000)]],
    ],
    ids=["numerator", "denominator", "negative", "behind-printable-entries"],
)
def test_long_exact_entry_is_refused_in_json_and_counted_in_text(rows):
    m = Matrix.from_rows(rows)
    with pytest.raises(ValidationError) as info:
        value_to_json(m)
    assert str(info.value) == "result of about 5001 digits is too long to print"
    assert "<about 5001 digits>" in IdentityCheck("x", 1, True, m, m).line()


def test_long_shared_denominator_alone_prints():
    # 2^10000 and 3^6000 each print (3011 and 2863 digits), their product
    # (5874 digits) does not: entries are reduced before they are printed
    m = Matrix.from_rows([[Fraction(1, 2**10000), Fraction(1, 3**6000)]])
    assert value_to_json(m) == [[{"num": "1", "den": str(2**10000)}, {"num": "1", "den": str(3**6000)}]]
    assert "digits" not in IdentityCheck("x", 1, True, m, m).line()
