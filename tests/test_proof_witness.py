"""Exact replay of the determinant-reduction identities."""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy import proof_witness
from soddy.cayley_menger import build_cm_matrix
from soddy.errors import DimensionError, ModeMismatchError, SoddyError
from soddy.numeric import EXACT, Matrix, determinant, symmetric_bareiss
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
from soddy.cli import run
from soddy.tangency import _factored_determinant, tangency_squared_distances, validate_radii

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

    def test_one_point_rejected(self):
        with pytest.raises(DimensionError):
            build_W(1)


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
        assert (s @ s).to_rows() == [[16 * (i == j) for j in range(4)] for i in range(4)]

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

    @pytest.mark.parametrize("formula", [s_determinant_formula, s_inverse_formula])
    @pytest.mark.parametrize("n", [0, -1, -2])
    def test_formulas_refuse_dimension_below_one(self, formula, n):
        with pytest.raises(DimensionError, match=r"^sphere dimension n must be >= 1$"):
            build_S(n)
        with pytest.raises(DimensionError, match=r"^sphere dimension n must be >= 1$"):
            formula(n)


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


def _s_inverse_one_entry_off(n):
    rows = s_inverse_formula(n).to_rows()
    rows[0][1] += 1
    return Matrix.from_rows(rows, EXACT)


def _p_adding_squares(r):
    rows = build_P(r).to_rows()
    rows[0] = [1, *(v * v for v in r.values)]
    return Matrix.from_rows(rows, EXACT)


def _s_with_minus_3_diagonal(n):
    return Matrix.from_rows(
        [[-3 if i == j else 2 for j in range(n + 2)] for i in range(n + 2)], EXACT
    )


# Each wrong ingredient must turn exactly these identities red.  A check whose
# expected side were computed from the same product as its lhs would stay green.
MUTATIONS = {
    "s_inverse_formula": (
        _s_inverse_one_entry_off,
        {"S times formula inverse is identity", "S^-1 = S/16", "block determinant rule"},
    ),
    "build_P": (
        _p_adding_squares,
        {"PtDP matches eliminated form", "QtPtDPQ matches bordered block form"},
    ),
    "build_S": (
        _s_with_minus_3_diagonal,
        {
            "det(S) matches closed form",
            "S times formula inverse is identity",
            "S^2 = 16I",
            "det(S) = -256",
            "S^-1 = S/16",
            "PtDP matches eliminated form",
            "QtPtDPQ matches bordered block form",
            "block determinant rule",
        },
    ),
}


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_wrong_ingredient_fails_its_checks(target, monkeypatch, capsys):
    mutant, expected_failures = MUTATIONS[target]
    monkeypatch.setattr(proof_witness, target, mutant)
    # a non-flat configuration: a zero residual would hide a wrong det(S)
    code = run(["verify-proof", "--radii", "1,2,3,4"])
    captured = capsys.readouterr()
    assert code == 2
    identities = json.loads(captured.out)["result"]["identities"]
    failed = [e for e in identities if not e["passed"]]
    assert {e["name"] for e in failed} == expected_failures
    assert len(identities) == 10
    for e in failed:
        assert e["lhs"] != e["rhs"]
    fail_lines = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == len(expected_failures)
    assert all("  lhs=" in line and "  rhs=" in line for line in fail_lines)


def test_audit_checks_the_kernel_that_serves_cm_determinant(monkeypatch, rng):
    # the last diagonal entry symmetric_bareiss leaves is the determinant
    # cm_determinant reads; one off by one must turn exactly det(D) red
    def off_by_one(a):
        symmetric_bareiss(a)
        a[-1][-1] += 1
        return a[-1][-1]

    monkeypatch.setattr("soddy.cayley_menger.symmetric_bareiss", off_by_one)
    for n in (1, 2, 3):
        uwu = check_UWU_congruence(rand_points(rng, n + 2))
        chain = check_reduction_chain(validate_radii(rand_radii(rng, n), n))
        assert [e.name for e in uwu.entries if not e.passed] == ["det(D) = det(U)^2 det(W)"]
        assert [e.name for e in chain.entries if not e.passed] == ["det(D) recovers scaled residual"]
        assert len(uwu.entries) == 2 and len(chain.entries) == 5


def _pin_outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except SoddyError as e:
        return f"{type(e).__name__}: {e}"


def _pin_radii_corpus() -> list[tuple[int, list]]:
    """(n, radii) for n = 1..6: small and wide rationals, mixed signs, and
    floats near 1e154, where (r_i + r_j)^2 passes the float range or not."""
    rng = random.Random(18)
    corpus = []
    for n in range(1, 7):
        for _ in range(3):
            corpus.append((n, rand_radii(rng, n)))
        corpus.append((n, [rand_nonzero_fraction(rng, span=10**6, max_den=10**4) for _ in range(n + 2)]))
        for _ in range(2):
            big = [rng.choice((-1, 1)) * rng.uniform(0.2, 0.9) * 1e154 for _ in range(n + 1)]
            corpus.append((n, [*big, rng.uniform(-1.0, 1.0) or 1.0]))
    return corpus


def _pin_cli_text(argvs, capsys) -> list[str]:
    texts = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        texts.append(f"{argv} -> {code}\n{captured.out}{captured.err}")
    return texts


def _pinned_texts(name, capsys) -> list[str]:
    if name == "verify-proof-random":
        argvs = [
            ["verify-proof", "--random", "3", "--dim", str(d), "--rng-seed", "5"] for d in range(1, 7)
        ]
        return _pin_cli_text(argvs, capsys)
    if name == "identity-check":
        rng = random.Random(6)
        argvs = [
            ["identity-check", "--n", str(n), "--radii", ",".join(map(str, rand_radii(rng, n)))]
            for n in range(1, 7)
            for _ in range(2)
        ]
        return _pin_cli_text(argvs, capsys)
    if name == "tangency-distances":
        texts = []
        for n, values in _pin_radii_corpus():
            exact = validate_radii([Fraction(v) for v in values], n, strict=False)
            texts.append(_pin_outcome(lambda r: tangency_squared_distances(r).entries, exact))
            texts.append(
                _pin_outcome(
                    lambda v: tangency_squared_distances(validate_radii(v, n, strict=False)).entries,
                    [float(v) for v in values],
                )
            )
        return texts
    raise KeyError(name)


# sha256 prefixes of the audit's reports for every n the audit bench draws,
# of identity-check at n = 1..6, and of exact and float tangency distances
PINNED_ENTRY_RULES = {
    "verify-proof-random": "24c6c53fcd3a83f2",
    "identity-check": "bf9429c4373876f5",
    "tangency-distances": "1da2de476978dc32",
}


@pytest.mark.parametrize("name", sorted(PINNED_ENTRY_RULES))
def test_entry_rule_outputs_are_pinned(name, capsys):
    texts = _pinned_texts(name, capsys)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert digest == PINNED_ENTRY_RULES[name]


# coordinates of mixed sign over denominators that differ
COORDINATES = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.integers(-(10**6), 10**6),
)


@st.composite
def _point_sets(draw):
    m = draw(st.integers(2, 6))
    # half the sets have integer coordinates only, so L = 1
    coordinate = draw(st.sampled_from([COORDINATES, st.integers(-9, 9)]))
    return [draw(st.lists(coordinate, min_size=m - 1, max_size=m - 1)) for _ in range(m)]


@given(points=_point_sets())
@settings(max_examples=150, deadline=None)
def test_integer_entry_rules_match_fraction_sums(points):
    pts = [[Fraction(c) for c in p] for p in points]
    d = check_UWU_congruence(points).entries[0].rhs
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert d.at(i + 1, j + 1) == sum((a - b) ** 2 for a, b in zip(p, q))
    assert build_U(points).row(0) == (1, *(sum(c * c for c in p) for p in pts))
    assert all(type(v) is Fraction for v in d.data)


def _reference_builders(radii: list[Fraction], n: int) -> dict:
    """Every exact operand of the audit, by the Fraction entry formulas the
    integer builders replaced."""
    k, size = [1 / v for v in radii], n + 2
    s = [[F(-2 if i == j else 2) for j in range(size)] for i in range(size)]
    residual = sum(k) ** 2 - n * sum(v * v for v in k)
    block_value = (-1) ** n * 2 ** (2 * n + 1) * residual
    kt_sinv_k = sum(a * b * (F(1, 4 * n) - F(int(i == j), 4)) for i, a in enumerate(k) for j, b in enumerate(k))
    eliminated = [[0] + [1] * size] + [[1] + [radii[i] * s[i][j] * radii[j] for j in range(size)] for i in range(size)]
    bordered = [[0, *k]] + [[k[i], *s[i]] for i in range(size)]
    return {
        "P": [[1, *(-v * v for v in radii)]] + [[int(i == j) for j in range(size + 1)] for i in range(1, size + 1)],
        "Q": [[([1, *k][i] if i == j else 0) for j in range(size + 1)] for i in range(size + 1)],
        "S": s,
        "S^-1": [[F(1, 4 * n) - (F(1, 4) if i == j else 0) for j in range(size)] for i in range(size)],
        "W": [[1 if {i, j} == {0, 1} else -2 if i == j > 1 else 0 for j in range(size + 1)] for i in range(size + 1)],
        "closed forms": [
            eliminated,
            bordered,
            -F((-1) ** (n + 1) * 2 ** (2 * n + 3) * n) * kt_sinv_k,
            block_value,
            block_value * math.prod(radii) ** 2,
        ],
        "distances": tuple(
            tuple((a + b) ** 2 if i != j else 0 for j, b in enumerate(radii)) for i, a in enumerate(radii)
        ),
    }


def _as_values(value):
    return value.to_rows() if isinstance(value, Matrix) else value


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_builders_match_fraction_formulas(n):
    rng = random.Random(2300 + n)
    for _ in range(25):
        radii = rand_radii(rng, n)
        r = validate_radii(radii, n)
        want = _reference_builders(radii, n)
        assert build_P(r).to_rows() == want["P"]
        assert build_Q(r).to_rows() == want["Q"]
        assert build_S(n).to_rows() == want["S"]
        assert s_inverse_formula(n).to_rows() == want["S^-1"]
        assert build_W(n + 2).to_rows() == want["W"]
        closed = [_as_values(value) for _, value in proof_witness._closed_forms(r)]
        assert closed == want["closed forms"]
        distances = tangency_squared_distances(r).entries
        assert distances == want["distances"]
        assert all(type(v) is Fraction for row in distances for v in row)
        assert _factored_determinant(r) == want["closed forms"][-1]


@pytest.mark.parametrize("n", range(1, 9))
def test_float_radii_keep_their_values_and_stay_out_of_the_audit(n):
    rng = random.Random(2400 + n)
    for _ in range(25):
        exact = rand_radii(rng, n)
        r = validate_radii([float(v) for v in exact], n)
        as_read = [Fraction(v) for v in r.values]  # the float radii's exact values
        assert _factored_determinant(r) == _reference_builders(as_read, n)["closed forms"][-1]
        squares = [[0.0] * (n + 2) for _ in r.values]
        for i, a in enumerate(r.values):
            for j, b in enumerate(r.values):
                if i != j:
                    squares[i][j] = (a + b) * (a + b)
        assert repr(tangency_squared_distances(r).entries) == repr(tuple(map(tuple, squares)))
        for audit in (build_P, build_Q, check_reduction_chain):
            with pytest.raises(ModeMismatchError, match="^proof witness runs in exact mode only$"):
                audit(r)
