"""Exact replay of the determinant-reduction identities."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from soddy.cayley_menger import build_cm_matrix
from soddy.errors import ModeMismatchError
from soddy.numeric import EXACT, Matrix, determinant
from soddy.proof_witness import (
    build_P,
    build_Q,
    build_S,
    build_U,
    build_W,
    check_reduction_chain,
    check_S_properties,
    check_UWU_congruence,
    s_determinant_formula,
    s_inverse_formula,
)
from soddy.tangency import tangency_squared_distances, validate_radii

from .conftest import rand_nonzero_fraction, rand_points, rand_radii

F = Fraction

CORNER_TETRA = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestBuildU:
    def test_corner_tetrahedron_top_row(self):
        u = build_U(CORNER_TETRA)
        assert u.row(0) == (1, 0, 1, 1, 1)

    def test_planar_points_top_row(self):
        u = build_U([(0, 0), (3, 0), (0, 4)])
        assert u.row(0) == (1, 0, 9, 16)

    def test_first_column_zero_below_corner(self, rng):
        u = build_U(rand_points(rng, 4))
        assert [u.at(i, 0) for i in range(u.rows)] == [1, 0, 0, 0, 0]

    def test_float_points_rejected(self):
        with pytest.raises(ModeMismatchError):
            build_U([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


class TestBuildW:
    def test_m4_determinant(self):
        assert determinant(build_W(4)) == 8

    def test_m3_determinant(self):
        assert determinant(build_W(3)) == -4

    def test_m5_determinant(self):
        # brute-force value agrees with the closed form (-1) * (-2)^(m-1)
        assert determinant(build_W(5)) == (-1) * (-2) ** 4 == -16

    @pytest.mark.parametrize("m", range(2, 8))
    def test_closed_form(self, m):
        assert determinant(build_W(m)) == (-1) * (-2) ** (m - 1)


class TestUWUCongruence:
    def test_corner_tetrahedron(self):
        report = check_UWU_congruence(CORNER_TETRA)
        assert report.passed
        # det(U) = 3! * v = 1 for the corner tetrahedron, det(D) = det(U)^2 det(W)
        assert determinant(build_U(CORNER_TETRA)) == 1
        by_name = {e.name: e for e in report.entries}
        assert by_name["det(D) = det(U)^2 det(W)"].lhs == 8

    def test_random_point_sets(self, rng):
        for dim in (2, 3, 4):
            for _ in range(25):
                assert check_UWU_congruence(rand_points(rng, dim + 1)).passed

    def test_coplanar_points_pass_with_zero_determinant(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        report = check_UWU_congruence(pts)
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        assert by_name["det(D) = det(U)^2 det(W)"].lhs == 0


class TestBuildPQ:
    def test_p_top_row(self):
        p = build_P(validate_radii([1, 1, 1, 1], 2))
        assert p.row(0) == (1, -1, -1, -1, -1)

    def test_p_top_row_squares(self):
        p = build_P(validate_radii([-1, 2, 2, 3], 2))
        assert p.row(0) == (1, -1, -4, -4, -9)

    def test_p_determinant_is_one(self, rng):
        for n in (1, 2, 3):
            r = validate_radii(rand_radii(rng, n), n)
            assert determinant(build_P(r)) == 1

    def test_q_unit_radii_gives_identity(self):
        q = build_Q(validate_radii([1, 1, 1, 1], 2))
        assert q == Matrix.identity(5)

    def test_q_diagonal_and_determinant(self):
        q = build_Q(validate_radii([-1, 2, 2, 3], 2))
        assert [q.at(i, i) for i in range(5)] == [1, -1, F(1, 2), F(1, 2), F(1, 3)]
        assert determinant(q) == F(-1, 12)

    def test_q_determinant_power(self):
        q = build_Q(validate_radii([2, 2, 2, 2], 2))
        assert determinant(q) == F(1, 16)


class TestBuildS:
    def test_n2_pattern(self):
        s = build_S(2)
        assert s.rows == 4
        assert all(
            s.at(i, j) == (-2 if i == j else 2) for i in range(4) for j in range(4)
        )

    def test_n2_square_is_16I(self):
        s = build_S(2)
        assert s @ s == Matrix.identity(4).scaled(16)

    def test_n3_pattern(self):
        s = build_S(3)
        assert s.rows == 5
        assert s.at(0, 0) == -2 and s.at(0, 4) == 2


class TestSProperties:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_dimensions(self, n):
        assert check_S_properties(n).passed

    def test_n2_determinant(self):
        assert determinant(build_S(2)) == -256

    def test_n3_determinant_brute_force_vs_formula(self):
        assert determinant(build_S(3)) == 1536
        assert s_determinant_formula(3) == 1536

    def test_formula_inverse_is_inverse(self):
        for n in (1, 2, 3, 4):
            s = build_S(n)
            assert s @ s_inverse_formula(n) == Matrix.identity(n + 2)


class TestReductionChain:
    def test_unit_radii(self):
        report = check_reduction_chain(validate_radii([1, 1, 1, 1], 2))
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        # 32 * residual(1,1,1,1) = 32 * 8 = 256 = det(D)
        assert by_name["block value is scaled residual"].rhs == 256
        assert by_name["det(D) recovers scaled residual"].lhs == 256

    def test_flat_quadruple(self):
        r = validate_radii([-1, F(1, 2), F(1, 2), F(1, 3)], 2)
        report = check_reduction_chain(r)
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        assert by_name["det(D) recovers scaled residual"].lhs == 0

    def test_unit_radii_n3(self):
        report = check_reduction_chain(validate_radii([1, 1, 1, 1, 1], 3))
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        # (-1)^3 * 2^7 * residual 10 = -1280 = det(D), brute-force cross-check
        assert by_name["det(D) recovers scaled residual"].lhs == -1280
        d = build_cm_matrix(tangency_squared_distances(validate_radii([1, 1, 1, 1, 1], 3)))
        assert determinant(d) == -1280

    def test_random_radii_all_dimensions(self, rng):
        for n in range(1, 7):
            for _ in range(10):
                r = validate_radii(rand_radii(rng, n), n)
                assert check_reduction_chain(r).passed

    def test_congruence_determinant_bookkeeping(self, rng):
        for _ in range(20):
            n = rng.choice([1, 2, 3])
            r = validate_radii(rand_radii(rng, n), n)
            d = build_cm_matrix(tangency_squared_distances(r))
            p, q = build_P(r), build_Q(r)
            chained = q.transpose() @ p.transpose() @ d @ p @ q
            assert determinant(chained) == (
                determinant(p) ** 2 * determinant(q) ** 2 * determinant(d)
            )

    def test_float_radii_rejected(self):
        r = validate_radii([1.0, 1.0, 1.0, 1.0], 2)
        with pytest.raises(ModeMismatchError):
            check_reduction_chain(r)


def exact_inverse(m: Matrix) -> Matrix:
    """Adjugate over determinant: inv[i][j] = (-1)^(i+j) * minor(j, i) / det."""
    n = m.rows
    rows = m.to_rows()
    det = determinant(m)

    def minor(r: int, c: int) -> Fraction:
        sub = [[v for j, v in enumerate(row) if j != c] for i, row in enumerate(rows) if i != r]
        return determinant(Matrix.from_rows(sub, EXACT))

    inv = [[(-1) ** (i + j) * minor(j, i) / det for j in range(n)] for i in range(n)]
    assert m @ Matrix.from_rows(inv, EXACT) == Matrix.identity(n)
    return Matrix.from_rows(inv, EXACT)


def test_block_determinant_rule_self_test(rng):
    # |A| = |A22| * |A11 - A12 A22^-1 A21| for random symmetric 5x5, split 1+4
    done = 0
    while done < 20:
        sym = [[F(0)] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                sym[i][j] = sym[j][i] = rand_nonzero_fraction(rng)
        a = Matrix.from_rows(sym, EXACT)
        a22 = Matrix.from_rows([[sym[i][j] for j in range(1, 5)] for i in range(1, 5)], EXACT)
        if determinant(a22) == 0:
            continue
        a12 = Matrix.from_rows([sym[0][1:]], EXACT)
        a21 = a12.transpose()
        inner = a12 @ exact_inverse(a22) @ a21
        schur = sym[0][0] - inner.at(0, 0)
        assert determinant(a) == determinant(a22) * schur
        done += 1


def test_report_serialization(rng):
    report = check_reduction_chain(validate_radii([1, 1, 1, 1], 2))
    lines = report.lines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    payload = json.dumps(report.to_dict())
    parsed = json.loads(payload)
    assert parsed["passed"] is True
    assert parsed["identities"][2]["lhs"] == {"num": "256", "den": "1"}


def test_failed_identity_records_both_sides():
    report = check_S_properties(2)
    entry = report.entries[0]
    assert entry.lhs == entry.rhs == -256
    assert "det(S)" in entry.line()
