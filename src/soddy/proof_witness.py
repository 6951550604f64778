"""Executable audit of every matrix identity behind the tangency theorem.

The squared-distance determinant of n+2 tangent spheres reduces, through a
pair of congruence transforms, to a closed form in the curvatures:

    U^T W U = D                      (distance determinant from coordinates)
    P^T D P, then Q^T (.) Q          (eliminate r_i^2, pull out 1/r_i)
    -> bordered block [[0, R^T], [R, S]],  S = 2*ones - 4I
    det = -det(S) * R^T S^-1 R = (-1)^n * 2^(2n+1) * residual

Every step is re-checked here as an exact entrywise or determinant equality
on concrete rational instances; det(D) is ``cm_determinant``, checked against
the general kernel and the factored value ``tangency._factored_determinant``.
Every exact operand is built as integer rows over one stated denominator.
The coordinate rules scale the points once, to integer coordinates over the
lcm L of their denominators, so each |x_j|^2 of U and each |x_i - x_j|^2 of D
is an integer sum over L^2, the latter computed once per pair i < j.  The
radius rules scale the radii once, as ``tangency._scaled_radii`` does, to R_i
over L and curvatures C_i over K: P is over L^2, Q over K, the closed forms
read R and C, and S, S^-1 = (1-n on the diagonal, 1 elsewhere) / 4n, W and
16I are integer rules.
Checks never raise on failure; both sides of each identity land in the report
so a red entry is diagnosable on its own.  Exact mode only: a float witness
would conflate algebra bugs with roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .cayley_menger import SquaredDistanceMatrix, _simplex_size, build_cm_matrix, cm_determinant
from .errors import DimensionError, ModeMismatchError
from .numeric import EXACT, Frozen, Matrix, _integer_rows, as_exact, determinant
from .serialize import format_matrix, format_scalar, value_to_json
from .tangency import (
    SignedRadii,
    _factored_determinant,
    _require_dimension,
    _scaled_radii,
    _signed_residual,
    tangency_squared_distances,
)


class IdentityCheck(Frozen):
    """One verified identity: name, dimension, verdict, and both sides."""

    __slots__ = __match_args__ = ("name", "n", "passed", "lhs", "rhs")

    name: str
    n: int
    passed: bool
    lhs: object
    rhs: object

    def __init__(self, name: str, n: int, passed: bool, lhs: object, rhs: object):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name} [n={self.n}]  "
            f"lhs={_render(self.lhs)}  rhs={_render(self.rhs)}"
        )


class ProofReport(Frozen):
    """The identity checks of one audit, in the order they ran; it passes
    when every check does."""

    __slots__ = __match_args__ = ("entries",)

    entries: tuple[IdentityCheck, ...]

    def __init__(self, entries: tuple[IdentityCheck, ...]):
        object.__setattr__(self, "entries", entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "identities": [
                {
                    "name": e.name,
                    "n": e.n,
                    "passed": e.passed,
                    "lhs": value_to_json(e.lhs),
                    "rhs": value_to_json(e.rhs),
                }
                for e in self.entries
            ],
        }

    @staticmethod
    def combine(reports: Sequence["ProofReport"]) -> "ProofReport":
        return ProofReport(entries=tuple(e for r in reports for e in r.entries))


def _render(value) -> str:
    return format_matrix(value) if isinstance(value, Matrix) else format_scalar(value)


def _check(name: str, n: int, lhs, rhs) -> IdentityCheck:
    return IdentityCheck(name=name, n=n, passed=lhs == rhs, lhs=lhs, rhs=rhs)


def _matrix(size: int, entry: Callable[[int, int], int], den: int = 1) -> Matrix:
    """The exact size x size matrix whose (i, j) entry is the integer
    ``entry(i, j)`` over ``den`` > 0."""
    return Matrix._from_integer_rows([[entry(i, j) for j in range(size)] for i in range(size)], den)


def _bordered(border: Sequence[int], core: Sequence[Sequence[int]], den: int) -> Matrix:
    """[[0, b^T], [b, B]] / den, for integers b and B: row and column 0 hold
    (0, b), the rest is B."""
    return Matrix._from_integer_rows([[0, *border]] + [[x, *row] for x, row in zip(border, core)], den)


def _scaled_points(points: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The points checked and made exact once, as integer coordinates over
    one L: x == X / L, so |x|^2 and |x - y|^2 are integer sums over L^2."""
    _simplex_size(points)
    try:
        pts = [[as_exact(v) for v in p] for p in points]
    except ModeMismatchError:
        raise ModeMismatchError("proof witness runs in exact mode only") from None
    return _integer_rows(pts)


def _lifted_U(scaled: list[list[int]], den: int) -> Matrix:
    m, den2 = len(scaled), den * den
    # column j > 0 is the lifted point (|x_j|^2, 1, x_j), all times L^2
    columns = [(den2, *[0] * m)] + [(sum(c * c for c in x), den2, *[c * den for c in x]) for x in scaled]
    return Matrix._from_integer_rows(list(zip(*columns)), den2)


def build_U(points: Sequence[Sequence]) -> Matrix:
    """(m+1)x(m+1): top row (1, |x_1|^2, ..., |x_m|^2), then the ones row,
    then one row per coordinate.  Expanding its first column shows
    det(U) = +-(m-1)! * volume."""
    return _lifted_U(*_scaled_points(points))


def build_W(m: int) -> Matrix:
    """Bordered quadratic-form matrix: [[0,1],[1,0]] corner, then -2 diagonal.

    det(W) = (-1) * (-2)^(m-1)."""
    if m < 2:
        raise DimensionError("need at least two points")
    return _matrix(m + 1, lambda i, j: 1 if {i, j} == {0, 1} else -2 if i == j > 1 else 0)


def check_UWU_congruence(points: Sequence[Sequence]) -> ProofReport:
    """U^T W U = D entrywise, and det(D) = det(U)^2 det(W)."""
    scaled, den = _scaled_points(points)
    m, den2 = len(scaled), den * den
    u = _lifted_U(scaled, den)
    w = build_W(m)
    upper = [[sum((a - b) ** 2 for a, b in zip(x, y)) for y in scaled[i + 1 :]] for i, x in enumerate(scaled)]
    dist = SquaredDistanceMatrix._from_upper(upper, den2)
    d = build_cm_matrix(dist)
    return ProofReport(
        entries=(
            _check("UtWU equals distance matrix", m - 2, u.transpose() @ w @ u, d),
            _check(
                "det(D) = det(U)^2 det(W)",
                m - 2,
                cm_determinant(dist),
                determinant(u) ** 2 * determinant(w),
            ),
        )
    )


def _require_exact_radii(r: SignedRadii) -> SignedRadii:
    if r.mode != EXACT:
        raise ModeMismatchError("proof witness runs in exact mode only")
    return r


def build_P(r: SignedRadii) -> Matrix:
    """Unit upper-triangular eliminator: row 0 = (1, -r_1^2, ..., -r_{n+2}^2),
    all over L^2 for radii R_i / L."""
    (rad,), den = _integer_rows([_require_exact_radii(r).values])
    den2 = den * den
    top = (den2, *(-x * x for x in rad))
    return _matrix(len(top), lambda i, j: top[j] if i == 0 else den2 * (i == j), den2)


def build_Q(r: SignedRadii) -> Matrix:
    """diag(1, 1/r_1, ..., 1/r_{n+2}) = diag(K, C_1, ..., C_{n+2}) / K;
    det(Q) = prod(1/r_i)."""
    _, _, curv, k_den = _scaled_radii(_require_exact_radii(r).values)
    q = (k_den, *curv)
    return _matrix(len(q), lambda i, j: q[i] if i == j else 0, k_den)


def build_S(n: int) -> Matrix:
    """(n+2)x(n+2) core form 2*ones - 4I: off-diagonal 2, diagonal -2."""
    _require_dimension(n)
    return _matrix(n + 2, lambda i, j: -2 if i == j else 2)


def s_determinant_formula(n: int) -> Fraction:
    _require_dimension(n)
    return Fraction((-1) ** (n + 1) * 2 ** (2 * n + 3) * n)


def s_inverse_formula(n: int) -> Matrix:
    """(1/(4n)) * ones - (1/4) I, the closed-form inverse of build_S(n):
    1 - n on the diagonal and 1 elsewhere, over 4n."""
    _require_dimension(n)
    return _matrix(n + 2, lambda i, j: 1 - n if i == j else 1, 4 * n)


def check_S_properties(n: int) -> ProofReport:
    """det(S) and the closed-form inverse, plus the n = 2 shortcuts."""
    s = build_S(n)
    size = n + 2
    entries = [
        _check("det(S) matches closed form", n, determinant(s), s_determinant_formula(n)),
        _check(
            "S times formula inverse is identity",
            n,
            s @ s_inverse_formula(n),
            Matrix.identity(size),
        ),
    ]
    if n == 2:
        entries.append(_check("S^2 = 16I", n, s @ s, _matrix(size, lambda i, j: 16 * (i == j))))
        entries.append(_check("det(S) = -256", n, determinant(s), -256))
        s_over_16 = Matrix._from_integer_rows(s._as_integer_rows()[0], 16)
        entries.append(_check("S^-1 = S/16", n, s_inverse_formula(n), s_over_16))
    return ProofReport(entries=tuple(entries))


def _closed_forms(r: SignedRadii) -> tuple:
    """(name, closed-form side) of each step of :func:`check_reduction_chain`,
    in report order.  Nothing here multiplies or eliminates D, so it is cheap."""
    _require_exact_radii(r)
    n, m = r.n, len(r.values)
    rad, den, curv, k_den = _scaled_radii(r.values)
    s = build_S(n)
    s_rows = s._as_integer_rows()[0]
    # r_i S_ij r_j is R_i S_ij R_j over L^2, and k_i and S_ij are C_i and K S_ij over K
    r_s_r = [[a * x * b for x, b in zip(row, rad)] for a, row in zip(rad, s_rows)]
    k_s = [[k_den * x for x in row] for row in s_rows]
    k_col = Matrix._from_integer_rows([[c] for c in curv], k_den)
    kt_sinv_k = (k_col.transpose() @ s_inverse_formula(n) @ k_col).at(0, 0)
    return (
        ("PtDP matches eliminated form", _bordered([den * den] * m, r_s_r, den * den)),
        ("QtPtDPQ matches bordered block form", _bordered(curv, k_s, k_den)),
        ("block determinant rule", -determinant(s) * kt_sinv_k),
        ("block value is scaled residual", Fraction(_signed_residual(curv, n), k_den * k_den)),
        ("det(D) recovers scaled residual", _factored_determinant(r)),
    )


def check_reduction_chain(r: SignedRadii) -> ProofReport:
    """Replay the whole determinant reduction on one rational configuration.

    Steps: (a) P^T D P eliminates the r_i^2 terms, leaving [[0, 1^T], [1,
    diag(r) S diag(r)]], (b) Q^T . Q rescales to the bordered block
    [[0, k^T], [k, S]] of curvatures over S, (c) the block-determinant rule
    with the closed-form S^-1, (d) the block value is the scaled tangency
    residual, (e) det(D) recovers it through det(P)^2 det(Q)^2.
    """
    closed = _closed_forms(r)
    dist = tangency_squared_distances(r)
    p, q = build_P(r), build_Q(r)
    eliminated = p.transpose() @ build_cm_matrix(dist) @ p
    block = q.transpose() @ eliminated @ q
    det_block = determinant(block)
    computed = (eliminated, block, det_block, det_block, cm_determinant(dist))
    return ProofReport(
        entries=tuple(_check(name, r.n, lhs, rhs) for (name, rhs), lhs in zip(closed, computed))
    )
