"""JSON envelope, exit codes, and file outputs of the command-line surface."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soddy.cli
import soddy.errors
from soddy.cli import run
from soddy.gasket import generate, render_svg

from .cli_corpus import corpus_digest

ROOT_QUADRUPLES = ((-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 12), (-4, 8, 9, 17), (-6, 10, 15, 19))

# child interpreters import soddy from this checkout, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


@pytest.fixture
def call(capsys):
    def _call(args):
        code = run(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _call


def contains_float(node) -> bool:
    if isinstance(node, float):
        return True
    if isinstance(node, dict):
        return any(contains_float(v) for v in node.values())
    if isinstance(node, list):
        return any(contains_float(v) for v in node)
    return False


class TestResidual:
    def test_descartes_quadruple(self, call):
        code, out, _ = call(["residual", "--n", "2", "--curvatures", "-1,2,2,3"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"ok": True, "result": {"num": "0", "den": "1"}}

    def test_float_mode(self, call):
        code, out, _ = call(
            ["residual", "--n", "2", "--curvatures", "1,1,1,1", "--mode", "float"]
        )
        assert code == 0
        assert json.loads(out)["result"] == 8.0

    def test_exact_mode_has_no_floats(self, call):
        code, out, _ = call(["residual", "--n", "3", "--curvatures", "0.5,1/3,2,5,7"])
        assert code == 0
        assert not contains_float(json.loads(out))

    def test_wrong_count_is_validation_error(self, call):
        code, out, _ = call(["residual", "--n", "2", "--curvatures", "1,2"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["error"]["kind"] == "validation"


class TestSolve:
    def test_double_root(self, call):
        code, out, _ = call(["solve", "--n", "2", "--curvatures", "-1,2,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["roots"] == [
            {"num": "3", "den": "1"},
            {"num": "3", "den": "1"},
        ]

    def test_irrational_requires_float_mode(self, call):
        code, out, _ = call(["solve", "--n", "2", "--curvatures", "1,1,1"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "float-required"

    def test_float_mode_roots(self, call):
        code, out, _ = call(
            ["solve", "--n", "2", "--curvatures", "1,1,1", "--mode", "float"]
        )
        assert code == 0
        hi, lo = json.loads(out)["result"]["roots"]
        assert hi == pytest.approx(3 + 2 * 3**0.5, rel=1e-12)
        assert lo == pytest.approx(3 - 2 * 3**0.5, rel=1e-12)

    def test_no_real_solution_exit_2(self, call):
        code, out, _ = call(
            ["solve", "--n", "2", "--curvatures", "1,1,-1", "--mode", "float"]
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "no-real-solution"

    def test_float_mode_roundoff_double_root(self, call):
        code, out, _ = call(
            ["solve", "--n", "2", "--curvatures=-0.2,0.3,0.6", "--mode", "float"]
        )
        assert code == 0
        hi, lo = json.loads(out)["result"]["roots"]
        assert hi == lo == pytest.approx(0.7, rel=1e-15)


class TestVerifyProof:
    def test_random_suite_passes(self, call):
        code, out, err = call(["verify-proof", "--random", "10", "--dim", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["result"]["passed"] is True
        assert all(e["passed"] for e in payload["result"]["identities"])
        assert "PASS" in err

    def test_explicit_radii(self, call):
        code, out, _ = call(["verify-proof", "--radii", "-1,1/2,1/2,1/3"])
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    def test_requires_input(self, call):
        code, out, _ = call(["verify-proof"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "validation"

    def test_value_too_long_to_print_is_refused_before_any_report_line(self, call):
        code, out, err = call(["verify-proof", "--radii", "1e3000,1,1,1"])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["kind"] == "validation"
        assert "PASS" not in err and "FAIL" not in err

    def test_unprintable_radii_are_refused_before_the_audit(self, call, monkeypatch):
        def audit(*_):
            raise AssertionError("the audit ran")

        monkeypatch.setattr("soddy.proof_witness.check_S_properties", audit)
        monkeypatch.setattr("soddy.proof_witness.check_reduction_chain", audit)
        radii = "1e4300,1e-4300,1e3000,1,1e308,1e-308,1e155,2"
        code, out, _ = call(["verify-proof", "--radii", radii])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        # the value the report's to_dict refuses first, once the audit has run
        assert error == {"kind": "validation", "message": "result of about 8601 digits is too long to print"}

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["--random", "1", "--dim", "100000"], 80004400072),
            (["--random", "1000000000"], 158000000034),
        ],
    )
    def test_oversized_random_audit_is_refused_before_any_work(self, call, monkeypatch, argv, size):
        def audit(*_):
            raise AssertionError("the audit ran")

        for name in ("check_S_properties", "check_reduction_chain", "check_UWU_congruence"):
            monkeypatch.setattr(f"soddy.proof_witness.{name}", audit)
        code, out, err = call(["verify-proof", *argv])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert f"about {size} values" in error["message"]
        assert str(soddy.cli._MAX_REPORT_VALUES) in error["message"]
        assert "PASS" not in err

    @pytest.mark.parametrize(
        "argv, work",
        [(["--random", "1", "--dim", "112"], 1520875), (["--random", "77", "--dim", "24"], 1515591)],
    )
    def test_costly_random_audit_is_refused_before_any_work(self, call, monkeypatch, argv, work):
        def audit(*_):
            raise AssertionError("the audit ran")

        for name in ("check_S_properties", "check_reduction_chain", "check_UWU_congruence"):
            monkeypatch.setattr(f"soddy.proof_witness.{name}", audit)
        code, out, err = call(["verify-proof", *argv])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert f"about {work} entry operations" in error["message"]
        assert str(soddy.cli._MAX_AUDIT_WORK) in error["message"]
        assert "PASS" not in err

    @pytest.mark.parametrize("n", range(1, 7))
    def test_work_bound_admits_every_printable_request_up_to_n6(self, n):
        # the largest N whose report fits is admitted by the work bound too
        count = (soddy.cli._MAX_REPORT_VALUES - soddy.cli._random_report_values(0, n)) // (
            soddy.cli._random_report_values(1, n) - soddy.cli._random_report_values(0, n)
        )
        assert soddy.cli._random_report_values(count, n) <= soddy.cli._MAX_REPORT_VALUES
        assert soddy.cli._random_report_values(count + 1, n) > soddy.cli._MAX_REPORT_VALUES
        assert soddy.cli._random_audit_work(count, n) <= soddy.cli._MAX_AUDIT_WORK

    def test_work_bound_admits_the_neighbours_of_the_refused_requests(self):
        assert soddy.cli._random_audit_work(1, 111) <= soddy.cli._MAX_AUDIT_WORK
        assert soddy.cli._random_audit_work(76, 24) <= soddy.cli._MAX_AUDIT_WORK

    def test_costly_radii_audit_is_refused_before_any_work(self, call, monkeypatch):
        # 160 radii (n = 158) ran for minutes before they were bounded; the
        # closed forms' printability check already runs det(S) at size n+2
        def audit(*_):
            raise AssertionError("the audit ran")

        for name in ("check_S_properties", "check_reduction_chain", "_closed_forms"):
            monkeypatch.setattr(f"soddy.proof_witness.{name}", audit)
        code, out, err = call(["verify-proof", "--radii", ",".join(map(str, range(1, 161)))])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert "160 radii" in error["message"]
        assert f"about {soddy.cli._random_audit_work(1, 158)} entry operations" in error["message"]
        assert str(soddy.cli._MAX_AUDIT_WORK) in error["message"]
        assert "PASS" not in err

    @pytest.mark.parametrize("radii", ["1", "1,1", "-1,1/2"])
    def test_too_few_radii_name_their_count(self, call, radii):
        code, out, _ = call(["verify-proof", "--radii", radii])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "dimension"
        assert error["message"] == f"--radii needs at least 3 radii (n >= 1), got {radii.count(',') + 1}"

    def test_random_dim_zero_is_a_dimension_error(self, call):
        code, out, _ = call(["verify-proof", "--random", "1", "--dim", "0"])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {"kind": "dimension", "message": "sphere dimension n must be >= 1"}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_work_size_counts_the_report(self, call, dim):
        code, out, _ = call(["verify-proof", "--random", "2", "--dim", str(dim)])
        assert code == 0
        sides = [e[side] for e in json.loads(out)["result"]["identities"] for side in ("lhs", "rhs")]
        values = sum(len(v) * len(v[0]) if isinstance(v, list) else 1 for v in sides)
        # n = 2 adds three checks of S the estimate leaves out
        assert values == soddy.cli._random_report_values(2, dim) + (66 if dim == 2 else 0)

    def test_reproducible_with_seed(self, call):
        _, out_a, _ = call(["verify-proof", "--random", "3", "--rng-seed", "7"])
        _, out_b, _ = call(["verify-proof", "--random", "3", "--rng-seed", "7"])
        assert out_a == out_b


class TestCmDetAndVolume:
    def test_cm_det_345(self, call):
        code, out, _ = call(["cm-det", "--matrix", "[[0,9,16],[9,0,25],[16,25,0]]"])
        assert code == 0
        assert json.loads(out)["result"] == {"num": "-576", "den": "1"}

    def test_cm_det_rational_strings(self, call):
        # two points at squared distance 1/4: bordered determinant is 2*d^2
        code, out, _ = call(
            ["cm-det", "--matrix", '[[0,"1/4"],["1/4",0]]']
        )
        assert code == 0
        assert json.loads(out)["result"] == {"num": "1", "den": "2"}

    def test_volume_unit_tetrahedron(self, call):
        code, out, _ = call(
            ["volume", "--matrix", "[[0,1,1,1],[1,0,1,1],[1,1,0,1],[1,1,1,0]]"]
        )
        assert code == 0
        assert json.loads(out)["result"] == {
            "value": {"num": "1", "den": "72"},
            "dim": 3,
        }

    def test_float_mode_volume(self, call):
        code, out, _ = call(
            ["volume", "--matrix", "[[0,9,16],[9,0,25],[16,25,0]]", "--mode", "float"]
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(36.0)

    def test_float_degenerate_volume_is_positive_zero(self, call):
        code, out, _ = call(["volume", "--mode", "float", "--matrix", "[[0,1,4],[1,0,1],[4,1,0]]"])
        assert code == 0
        assert '"value": 0.0' in out

    def test_float_volume_in_range_does_not_overflow(self, call):
        code, out, _ = call(["volume", "--mode", "float", "--matrix", "[[0,1e308],[1e308,0]]"])
        assert code == 0
        assert json.loads(out)["result"] == {"value": 1e308, "dim": 1}

    @pytest.mark.parametrize("command", ["cm-det", "volume"])
    def test_float_overflow_is_non_finite(self, call, command):
        matrix = "[[0,1e200,1e200],[1e200,0,1e200],[1e200,1e200,0]]"
        code, out, _ = call([command, "--mode", "float", "--matrix", matrix])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "non-finite"

    def test_asymmetric_matrix_rejected(self, call):
        code, out, _ = call(["cm-det", "--matrix", "[[0,1],[2,0]]"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "validation"

    def test_bad_json_rejected(self, call):
        code, out, _ = call(["cm-det", "--matrix", "not json"])
        assert code == 1

    @pytest.mark.parametrize("command", ["cm-det", "volume"])
    def test_deeply_nested_matrix_is_one_validation_envelope(self, call, command):
        code, out, _ = call([command, "--matrix", "[" * 100_000 + "]" * 100_000])
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "validation", "message": "matrix is nested too deeply to parse"}


    @staticmethod
    def _no_elimination(monkeypatch):
        def eliminate(_):
            raise AssertionError("the elimination ran")

        monkeypatch.setattr("soddy.cayley_menger.symmetric_bareiss", eliminate)

    @pytest.mark.parametrize("command", ["cm-det", "volume"])
    @pytest.mark.parametrize(
        "m, bits, mode",
        # 1000-bit integers; floats spanning 10^+-300, 2,000 bits or so over one denominator
        [(60, 1000, "exact"), (40, 1000, "exact"), (32, None, "float"), (130, 1, "exact")],
    )
    def test_costly_elimination_is_refused_before_it_runs(self, call, monkeypatch, command, m, bits, mode):
        self._no_elimination(monkeypatch)
        rng = random.Random(m)
        rows = [[0] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            if bits is None:
                rows[i][j] = rows[j][i] = rng.uniform(0.1, 1) * 10.0 ** rng.randint(-300, 300)
            else:
                rows[i][j] = rows[j][i] = rng.getrandbits(bits) | 1 << (bits - 1)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        code, out, _ = call([command, "--mode", mode])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert f"a {m}x{m} matrix" in error["message"]
        assert str(soddy.cli._MAX_ELIMINATION_WORK) in error["message"]

    @pytest.mark.parametrize("m, bits", [(24, 2000), (128, 1), (2, 14000)])
    def test_elimination_bound_admits_its_neighbours(self, call, monkeypatch, m, bits):
        # each reaches the elimination, stubbed here to keep the test fast
        reached = []
        monkeypatch.setattr("soddy.cayley_menger.symmetric_bareiss", lambda a: reached.append(len(a)) or 1)
        value = (1 << (bits - 1)) | 1
        rows = [[0 if i == j else value for j in range(m)] for i in range(m)]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        code, out, _ = call(["cm-det"])
        assert code == 0 and json.loads(out)["ok"] is True
        assert reached == [m - 1]

    def test_too_many_points_are_refused_before_any_entry_is_read(self, call, monkeypatch):
        def read(*_):
            raise AssertionError("the entries were read")

        monkeypatch.setattr(soddy.cayley_menger.SquaredDistanceMatrix, "from_entries", read)
        m = 132  # 131 points pass at 0 bits
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[0] * m] * m)))
        code, out, _ = call(["cm-det"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "validation",
            "message": f"a {m}x{m} matrix would take about {m**5 * 32**2} units of elimination work, "
            f"more than the {soddy.cli._MAX_ELIMINATION_WORK} one call may run",
        }

    @pytest.mark.parametrize("command", ["cm-det", "volume"])
    @pytest.mark.parametrize("m, digits", [(10, 4300), (21, 4300), (21, 300)])
    def test_long_lcm_is_refused_before_the_entries_are_scaled(self, call, monkeypatch, command, m, digits):
        # entries 1/q with distinct q: from_entries spent 1.56 s (10x10) and
        # about 30 s (21x21, 4,300 digits) on their lcm before any bound ran
        def read(*_):
            raise AssertionError("the entries were scaled")

        monkeypatch.setattr(soddy.cayley_menger.SquaredDistanceMatrix, "from_entries", read)
        rng = random.Random(m * digits)
        rows = [[0] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            rows[i][j] = rows[j][i] = f"1/{rng.randrange(10 ** (digits - 1), 10**digits)}"
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        code, out, _ = call([command])
        assert code == 1
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert f"a {m}x{m} matrix" in error["message"]
        assert str(soddy.cli._MAX_ELIMINATION_WORK) in error["message"]

    @pytest.mark.parametrize("command", ["cm-det", "volume"])
    def test_long_lcm_is_refused_at_the_entry_that_trips_it(self, call, monkeypatch, command):
        # each entry is parsed as the bound reads it: all 420 strings were parsed
        # before the bound looked at the first
        def read(*_):
            raise AssertionError("the entries were scaled")

        monkeypatch.setattr(soddy.cayley_menger.SquaredDistanceMatrix, "from_entries", read)
        parsed = []
        parse = soddy.cli.parse_rational
        monkeypatch.setattr(soddy.cli, "parse_rational", lambda text: parsed.append(text) or parse(text))
        rng = random.Random(21)
        rows = [[0] * 21 for _ in range(21)]
        for i, j in itertools.combinations(range(21), 2):
            rows[i][j] = rows[j][i] = f"1/{rng.randrange(10**4299, 10**4300)}"
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        code, out, _ = call([command])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "validation"
        assert len(parsed) <= 3

    def test_lcm_stop_refuses_no_matrix_the_kept_bits_admit(self):
        rng = random.Random(26)
        outcomes = set()
        for _ in range(200):
            # entries of 4 to 3,000 bits, split between numerator and denominator
            m, bits = rng.randint(2, 29), rng.randint(4, 3000)
            q_bits = rng.randint(1, bits - 1)
            dens = [rng.getrandbits(q_bits) | 1 for _ in range(rng.randint(1, 6))]
            rows = [[0] * m for _ in range(m)]
            for i, j in itertools.combinations(range(m), 2):
                value = Fraction(rng.getrandbits(bits - q_bits) * rng.choice((-1, 0, 1, 1)), rng.choice(dens))
                rows[i][j] = rows[j][i] = value
            try:
                soddy.cli._require_lcm_bound(rows)
                stopped = False
            except soddy.errors.ValidationError:
                stopped = True
            d = soddy.cayley_menger.SquaredDistanceMatrix.from_entries(rows)
            try:
                soddy.cli._require_elimination_bound(m, max(v.bit_length() for row in d._upper[1] for v in row))
                admitted = True
            except soddy.errors.ValidationError:
                admitted = False
            assert not (stopped and admitted)
            outcomes.add((stopped, admitted))
        # the corpus reaches every outcome the stop allows
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_matrix_text_past_its_bound_is_refused_unread(self, call, monkeypatch):
        self._no_elimination(monkeypatch)
        text = "[[0," + "0" * soddy.cli._MAX_MATRIX_CHARS + "]]"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = call(["volume"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "validation",
            "message": f"matrix text is longer than the {soddy.cli._MAX_MATRIX_CHARS} characters one call may read",
        }


class TestIdentityCheck:
    @staticmethod
    def _no_elimination(monkeypatch):
        def eliminate(_):
            raise AssertionError("cm_determinant ran")

        monkeypatch.setattr("soddy.cayley_menger.cm_determinant", eliminate)

    def test_unprintable_sides_are_refused_before_any_elimination(self, call, monkeypatch):
        # ran 159 s before it refused the same value
        self._no_elimination(monkeypatch)
        rng = random.Random(11)
        radii = ",".join(str(rng.randrange(10**299, 10**300)) for _ in range(60))
        code, out, _ = call(["identity-check", "--n", "58", "--radii", radii])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {
            "kind": "validation",
            "message": "result of about 35397 digits is too long to print",
        }

    def test_costly_radii_are_refused_before_any_elimination(self, call, monkeypatch):
        self._no_elimination(monkeypatch)
        code, out, _ = call(["identity-check", "--n", "112", "--radii", ",".join(map(str, range(1, 115)))])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert "114 radii" in error["message"]
        assert f"about {soddy.cli._random_audit_work(1, 112)} entry operations" in error["message"]

    def test_work_bound_admits_n_111(self, call, monkeypatch):
        reached = []
        monkeypatch.setattr("soddy.cayley_menger.cm_determinant", lambda d: reached.append(d.m) or 0)
        code, out, _ = call(["identity-check", "--n", "111", "--radii", ",".join(map(str, range(1, 114)))])
        assert json.loads(out)["ok"] is True
        assert reached == [113]

    def test_flat_quadruple(self, call):
        code, out, _ = call(["identity-check", "--n", "2", "--radii", "-1,0.5,0.5,1/3"])
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["equal"] is True
        assert payload["lhs"] == payload["rhs"] == {"num": "0", "den": "1"}

    def test_generic_radii(self, call):
        code, out, _ = call(["identity-check", "--n", "3", "--radii", "1,2,3,4,5"])
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["equal"] is True
        assert not contains_float(payload)


class TestEmbed:
    def test_round_trip_against_external_recomputation(self, call):
        code, out, _ = call(["embed", "--n", "2", "--radii", "-1,1/2,1/2,1/3"])
        assert code == 0
        centers = np.array(json.loads(out)["result"]["centers"])
        radii = [-1.0, 0.5, 0.5, 1 / 3]
        for i in range(4):
            for j in range(i + 1, 4):
                d2 = ((centers[i] - centers[j]) ** 2).sum()
                expected = (radii[i] + radii[j]) ** 2
                assert abs(d2 - expected) <= 1e-9 * max(1.0, expected)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160])
    def test_tiny_radii_are_tangent_or_non_finite(self, call, scale):
        # (r_i + r_j)^2 below the smallest normal float would print centers far from tangent
        radii = [scale * v for v in (-1.0, 0.5, 0.5, 1 / 3)]
        code, out, _ = call(["embed", "--n", "2", "--radii", ",".join(map(repr, radii))])
        if scale < 1e-155:
            assert code == 1
            assert json.loads(out)["error"] == {
                "kind": "non-finite", "message": "squared distance (0,1) underflows a float"
            }
            return
        assert code == 0
        centers = json.loads(out)["result"]["centers"]
        for i, j in itertools.combinations(range(4), 2):
            expected = abs(radii[i] + radii[j])
            assert math.isclose(math.dist(centers[i], centers[j]), expected, rel_tol=1e-12)

    def test_unsolved_quadruple_exit_2(self, call):
        code, out, _ = call(["embed", "--n", "2", "--radii", "1,1,1,1"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "rank-exceeds-dim"

    def test_too_many_radii_are_refused_before_any_point_is_placed(self, call, monkeypatch):
        # 402 radii ran 5.2 s before rank-exceeds-dim refused them
        def place(*_):
            raise AssertionError("realize_points ran")

        monkeypatch.setattr("soddy.cli.realize_points", place)
        for n in (130, 400):
            code, out, _ = call(["embed", "--n", str(n), "--radii", ",".join(["1"] * (n + 2))])
            assert code == 1
            m = n + 2
            assert json.loads(out)["error"] == {
                "kind": "validation",
                "message": f"a {m}x{m} matrix would take about {m**5 * 32**2} units of elimination work, "
                f"more than the {soddy.cli._MAX_ELIMINATION_WORK} one call may run",
            }
        code, out, _ = call(["embed", "--n", "400", "--radii", "1,1,1,1"])  # the count is checked first
        assert json.loads(out)["error"] == {"kind": "validation", "message": "need 402 radii for dimension 400, got 4"}

    def test_elimination_bound_admits_131_radii(self, call, monkeypatch):
        reached = []
        monkeypatch.setattr("soddy.cli.realize_points", lambda d, n: reached.append(d.m) or SimpleNamespace(coords=[]))
        code, out, _ = call(["embed", "--n", "129", "--radii", ",".join(["1"] * 131)])
        assert code == 0 and json.loads(out)["result"] == {"dim": 129, "centers": []}
        assert reached == [131]

    @pytest.mark.parametrize("scale", [-2, -1, 0, 1, 2])
    def test_canonical_centers_in_every_order_and_scale(self, call, scale):
        for quad in ROOT_QUADRUPLES:
            for ks in sorted(set(itertools.permutations(quad))):
                radii = [Fraction(1, k) / 10**scale for k in ks]
                code, out, _ = call(["embed", "--n", "2", "--radii", ",".join(map(str, radii))])
                assert code == 0
                centers = json.loads(out)["result"]["centers"]
                assert centers[0] == [0.0, 0.0] and centers[1][0] > 0
                assert centers[1][1] == 0.0
                if ks[0] * ks[1] + ks[1] * ks[2] + ks[2] * ks[0] == 0:  # collinear prefix
                    assert centers[2][1] == 0.0 and centers[3][1] > 0
                else:
                    assert centers[2][1] > 0
                assert all(math.copysign(1.0, v) == 1.0 for c in centers for v in c if v == 0)


class TestGasket:
    def test_writes_svg_and_json(self, call, tmp_path):
        svg_path = tmp_path / "out.svg"
        json_path = tmp_path / "out.json"
        code, out, _ = call(
            [
                "gasket",
                "--seed",
                "-1,2,2",
                "--depth",
                "2",
                "--svg",
                str(svg_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["circles"] == 20
        assert svg_path.read_text(encoding="utf-8") == render_svg(generate([-1, 2, 2], 2))
        geometry = json.loads(json_path.read_text(encoding="utf-8"))
        assert len(geometry["circles"]) == 20

    def test_geometry_to_stdout_without_paths(self, call):
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "0"])
        assert code == 0
        payload = json.loads(out)["result"]
        assert len(payload["circles"]) == 4

    def test_collinear_seed_in_any_order(self, call):
        code, out, _ = call(["gasket", "--seed=-2,3,6", "--depth", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["result"]["circles"]) == 4

    def test_zero_curvature_seed_exit_1(self, call):
        code, out, _ = call(["gasket", "--seed", "1,1,0", "--depth", "1"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "seed"

    def test_zero_curvature_circle_names_depth_and_parents(self, call):
        # the partner of curvature 12 across the seed (1, 1, 4) is a line
        code, out, _ = call(["gasket", "--seed", "1,1,4", "--depth", "1"])
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "geometry"
        assert "zero-curvature circle at depth 1 across circles (0, 1, 2)" in error["message"]

    def test_depth_guard_exit_1(self, call):
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "13"])
        assert code == 1

    @pytest.mark.parametrize("depth, circles", [(11, 354296), (12, 1062884)])
    def test_too_many_circles_refused_before_generate(self, call, monkeypatch, tmp_path, depth, circles):
        def fail(*args):
            raise AssertionError("generate ran")

        monkeypatch.setattr("soddy.gasket.generate", fail)
        svg = tmp_path / "never.svg"
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", str(depth), "--svg", str(svg)])
        assert code == 1 and out.count("\n") == 1 and not svg.exists()
        error = json.loads(out)["error"]
        assert error["kind"] == "validation"
        assert error["message"] == (
            f"--depth {depth} would take about {circles} circles to draw, more than the 200000 one call may run"
        )

    @pytest.mark.parametrize("depth", [-1, 13, 10**9])
    def test_depth_outside_the_range_keeps_its_error(self, call, depth):
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", str(depth)])
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "validation", "message": "max_depth must be between 0 and 12"}

    def test_depths_up_to_10_reach_generate(self, call, monkeypatch):
        depths = []

        def small(seed, depth):
            depths.append(depth)
            return generate(seed, 0)

        monkeypatch.setattr("soddy.gasket.generate", small)
        for depth in range(11):
            code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", str(depth)])
            assert code == 0 and len(json.loads(out)["result"]["circles"]) == 4
        assert depths == list(range(11))

    def test_json_file_matches_golden(self, call, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "3", "--json", str(path)])
        assert code == 0
        assert path.read_bytes() == (GOLDEN / "gasket_m1_2_2_depth3.json").read_bytes()

    @pytest.mark.parametrize("flags", [[], ["--svg"], ["--json"], ["--svg", "--json"]])
    def test_builds_no_circle(self, call, circles_built, tmp_path, flags):
        paths = [arg for flag in flags for arg in (flag, str(tmp_path / flag.strip("-")))]
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "4", *paths])
        assert code == 0 and circles_built == []
        result = json.loads(out)["result"]
        assert (result["circles"] if flags else len(result["circles"])) == 2 * 3**4 + 2

    @pytest.mark.parametrize("flag", ["--svg", "--json"])
    def test_unwritable_path_is_named(self, call, tmp_path, flag):
        path = str(tmp_path / "no-such-dir" / "out")
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "1", flag, path])
        assert code == 1
        assert path in json.loads(out)["error"]["message"]


class TestUsage:
    def test_unknown_command(self, call):
        code, out, err = call(["frobnicate"])
        assert code == 1
        assert out == ""

    def test_unknown_flag(self, call):
        code, _, _ = call(["residual", "--n", "2", "--curvatures", "1,1,1,1", "--bogus"])
        assert code == 1

    def test_no_command_prints_usage(self, call):
        code, _, err = call([])
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, call):
        assert call(["--help"])[0] == 0
        assert call(["gasket", "--help"])[0] == 0


def test_console_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", "residual", "--n", "2", "--curvatures", "-1,2,2,3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ok": True, "result": {"num": "0", "den": "1"}}


def test_closed_stdout_exits_1_without_a_traceback():
    # 210,913 bytes of output, more than a pipe buffer holds, to a stdout closed unread
    proc = subprocess.Popen(
        [sys.executable, "-m", "soddy", "gasket", "--seed", "-1,2,2", "--depth", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_stderr_keeps_the_envelope(tmp_path):
    # 115,871 bytes of report lines, more than a pipe buffer holds, to a stderr
    # closed after 5 bytes; they follow the envelope, which reaches stdout whole
    argv = [sys.executable, "-m", "soddy", "verify-proof", "--random", "100"]
    path = tmp_path / "out.json"
    with path.open("wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=CHILD_ENV)
        head = proc.stderr.read(5)
        proc.stderr.close()
        code = proc.wait()
    full = subprocess.run(argv, capture_output=True, env=CHILD_ENV)
    assert len(full.stderr) > 1 << 16 and b"Traceback" not in full.stderr
    assert code == full.returncode == 0
    assert head == full.stderr[:5]
    assert path.read_bytes() == full.stdout
    assert json.loads(full.stdout)["ok"] is True


def test_import_leaves_numpy_unloaded_until_embed():
    script = (
        "import json, sys\n"
        "import soddy, soddy.cli\n"
        "assert 'numpy' not in sys.modules, 'import soddy.cli loaded numpy'\n"
        "soddy.cli.run(['verify-proof', '--random', '2', '--rng-seed', '1'])\n"
        "assert 'numpy' not in sys.modules, 'verify-proof loaded numpy'\n"
        "soddy.cli.run(['embed', '--n', '2', '--radii', '-1,1/2,1/2,1/3'])\n"
        "assert 'numpy' not in sys.modules, 'embed loaded numpy'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    decoder = json.JSONDecoder()
    verify, end = decoder.raw_decode(proc.stdout)
    embed, _ = decoder.raw_decode(proc.stdout, end + 1)
    assert verify["ok"] is True
    assert len(embed["result"]["centers"]) == 4


def test_deeply_nested_matrix_from_stdin_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", "cm-det"],
        input="[" * 100_000 + "]" * 100_000,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == {"kind": "validation", "message": "matrix is nested too deeply to parse"}


def test_each_subcommand_loads_gasket_and_proof_witness_only_when_it_runs_them():
    script = (
        "import sys\n"
        "import soddy.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in ('soddy.gasket', 'soddy.proof_witness') if m in sys.modules)\n"
        "assert loaded() == [], f'import soddy.cli loaded {loaded()}'\n"
        "for argv in (\n"
        "    ['residual', '--n', '2', '--curvatures', '-1,2,2,3'],\n"
        "    ['solve', '--n', '2', '--curvatures', '-1,2,2'],\n"
        "    ['cm-det', '--matrix', '[[0,9,16],[9,0,25],[16,25,0]]'],\n"
        "    ['volume', '--matrix', '[[0,9,16],[9,0,25],[16,25,0]]'],\n"
        "    ['identity-check', '--n', '2', '--radii', '-1,1/2,1/2,1/3'],\n"
        "    ['embed', '--n', '2', '--radii', '-1,1/2,1/2,1/3'],\n"
        "):\n"
        "    assert soddy.cli.run(argv) == 0, argv\n"
        "    assert loaded() == [], f'{argv[0]} loaded {loaded()}'\n"
        "assert soddy.cli.run(['gasket', '--seed', '-1,2,2', '--depth', '1']) == 0\n"
        "assert loaded() == ['soddy.gasket'], f'gasket loaded {loaded()}'\n"
        "assert soddy.cli.run(['verify-proof', '--radii', '-1,1/2,1/2,1/3']) == 0\n"
        "assert loaded() == ['soddy.gasket', 'soddy.proof_witness'], f'verify-proof loaded {loaded()}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr


def test_matrix_from_stdin_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", "cm-det"],
        input="[[0,9,16],[9,0,25],[16,25,0]]",
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"num": "-576", "den": "1"}


GOLDEN = Path(__file__).parent / "golden"
# the whole report, both streams: every identity's name, order, sides and verdict
GOLDEN_REPORTS = {
    "verify_proof_radii": ["verify-proof", "--radii", "-1,1/2,1/2,1/3"],
    "verify_proof_random": ["verify-proof", "--random", "2", "--dim", "3", "--rng-seed", "7"],
    "identity_check_n3": ["identity-check", "--n", "3", "--radii", "1,2,3,4,5"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_proof_reports_match_golden(name):
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", *GOLDEN_REPORTS[name]],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert proc.stderr == (GOLDEN / f"{name}.stderr").read_bytes()


BIG = str(10**400)
# each printed a traceback before coercion checked its input, except
# boolean-entry, which returned 2.0 while exact mode rejected booleans, and
# the *-overflow calls, whose input is in range but whose arithmetic is not:
# embed printed a traceback, residual and solve printed NaN with exit 0; and
# the verify-proof-random-* calls, which printed a passing report that
# audited no random configuration; the gasket-*-to-* calls, whose output path
# cannot be written, printed a traceback
TESTS_DIR = str(Path(__file__).resolve().parent)
MISSING_DIR_FILE = str(Path(TESTS_DIR) / "no-such-dir" / "out")
MALFORMED_CALLS = {
    "null-entry": ["cm-det", "--mode", "float", "--matrix", "[[0,null],[null,0]]"],
    "list-entry": ["cm-det", "--mode", "float", "--matrix", "[[0,[1]],[[1],0]]"],
    "huge-int-entry": ["cm-det", "--mode", "float", "--matrix", f"[[0,{BIG}],[{BIG},0]]"],
    "volume-huge-int-entry": ["volume", "--mode", "float", "--matrix", f"[[0,{BIG}],[{BIG},0]]"],
    "gasket-huge-seed": ["gasket", "--seed", "1e400,1,1"],
    "residual-huge": ["residual", "--n", "2", "--mode", "float", "--curvatures", "1e400,1,1,1"],
    "solve-huge": ["solve", "--n", "2", "--mode", "float", "--curvatures", "1e400,1,1"],
    "embed-huge": ["embed", "--n", "2", "--radii", "1e400,1,1,1"],
    "boolean-entry": ["cm-det", "--mode", "float", "--matrix", "[[0,true],[true,0]]"],
    "embed-overflow": ["embed", "--n", "2", "--radii", "1e200,1,1,1"],
    "residual-overflow": ["residual", "--n", "2", "--mode", "float", "--curvatures", "1e200,1,1,1"],
    "solve-overflow": ["solve", "--n", "2", "--mode", "float", "--curvatures", "1e200,1,1"],
    "residual-too-long": ["residual", "--n", "2", "--curvatures", "1e3000,1,1,1"],
    "string-exponent": ["cm-det", "--matrix", '[[0,"1e5000"],["1e5000",0]]'],
    "json-float-exponent": ["cm-det", "--matrix", "[[0,1e4301],[1e4301,0]]"],
    "verify-proof-random-zero": ["verify-proof", "--random", "0"],
    "verify-proof-random-negative": ["verify-proof", "--random", "-3"],
    "gasket-svg-to-missing-dir": ["gasket", "--seed", "-1,2,2", "--svg", MISSING_DIR_FILE],
    "gasket-svg-to-directory": ["gasket", "--seed", "-1,2,2", "--svg", TESTS_DIR],
    "gasket-json-to-missing-dir": ["gasket", "--seed", "-1,2,2", "--json", MISSING_DIR_FILE],
    "gasket-json-to-directory": ["gasket", "--seed", "-1,2,2", "--json", TESTS_DIR],
}
# refused as non-scalars, as exponents past the parse bound, as results too
# long to print, as an empty audit or as an output path that cannot be
# written; every other call is refused as non-finite
VALIDATION_CALLS = {
    "null-entry",
    "list-entry",
    "boolean-entry",
    "residual-too-long",
    "string-exponent",
    "json-float-exponent",
    "verify-proof-random-zero",
    "verify-proof-random-negative",
    "gasket-svg-to-missing-dir",
    "gasket-svg-to-directory",
    "gasket-json-to-missing-dir",
    "gasket-json-to-directory",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CALLS))
def test_malformed_input_gives_one_error_envelope(case):
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", *MALFORMED_CALLS[case]],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload["ok"] is False
    assert payload["error"]["kind"] == (
        "validation" if case in VALIDATION_CALLS else "non-finite"
    )


# Decimal tokens carry exponents on both sides of the parse bound.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**500), 10**500)
    | st.floats()
    | st.text(max_size=4)
    | st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-(10**7), 10**7)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _reject_constant(token):
    raise AssertionError(f"{token} is not JSON")


@settings(max_examples=150, deadline=None)
@given(
    value=JSON_VALUES,
    mode=st.sampled_from(["exact", "float"]),
    command=st.sampled_from(["cm-det", "volume"]),
)
def test_any_json_entry_gives_one_envelope(value, mode, command):
    matrix = json.dumps([[0, value], [value, 0]])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--mode", mode, "--matrix", matrix])
    assert code in (0, 1)
    assert out.getvalue().count("\n") == 1
    payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert payload["ok"] is (code == 0)


# Each printed a traceback and no envelope: a report line or error message
# could not show an exact value too long to print, or a gasket curvature
# past the float range.  Each envelope names the value it cannot show.
UNPRINTABLE_CALLS = {
    "verify-proof-long-value": (
        ["verify-proof", "--radii", "1e3000,1,1,1"], "validation", "about 6001 digits"
    ),
    "solve-long-discriminant": (
        ["solve", "--n", "2", "--curvatures", "1e200,1e4300,1"],
        "float-required",
        "<about 4501 digits>",
    ),
    "gasket-curvature-past-float-range": (
        ["gasket", "--seed", "1e155,1e308,1e308", "--depth", "1"],
        "geometry",
        "curvature 6.67522*2^1024",
    ),
}


@pytest.mark.parametrize("case", sorted(UNPRINTABLE_CALLS))
def test_unprintable_value_gives_one_error_envelope(case):
    argv, kind, named = UNPRINTABLE_CALLS[case]
    proc = subprocess.run(
        [sys.executable, "-m", "soddy", *argv], capture_output=True, text=True, env=CHILD_ENV
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == (1 if kind == "validation" else 2)
    assert proc.stdout.count("\n") == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload["ok"] is False
    assert payload["error"]["kind"] == kind
    assert named in payload["error"]["message"]


ERROR_KINDS = {
    cls.kind
    for cls in vars(soddy.errors).values()
    if isinstance(cls, type) and issubclass(cls, soddy.errors.SoddyError)
}

# Numeric tokens at and past every bound the CLI knows of: zero, the float
# range and its square root, the parse bound on exponents, the digit limit
# on printing, non-finite and malformed text.
NUMBER_TOKENS = (
    st.sampled_from(["0", "1", "-1", "2", "3", "nan", "inf", "-inf", "x", "1/0"])
    | st.fractions(-9, 9, max_denominator=9).map(str)
    | st.builds(
        "{}1e{}".format,
        st.sampled_from(["", "-"]),
        st.sampled_from([155, 308, 4300, -308, -4300]),
    )
)
MATRIX_ENTRIES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | NUMBER_TOKENS
    | st.lists(st.integers(0, 9) | NUMBER_TOKENS, max_size=2)
)


def _symmetric(m: int, upper: list) -> list:
    """m x m, zero diagonal, the upper triangle from ``upper`` mirrored below."""
    it = iter(upper)
    rows = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        rows[i][j] = rows[j][i] = next(it)
    return rows


MATRICES = (
    st.integers(1, 4).flatmap(
        lambda m: st.lists(
            MATRIX_ENTRIES, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2
        ).map(lambda upper: _symmetric(m, upper))
    )
    | st.lists(st.lists(MATRIX_ENTRIES, max_size=4), max_size=4)
    | MATRIX_ENTRIES
).map(json.dumps)
MODES = st.sampled_from(["exact", "float"])


def _number_list(size=None):
    """Comma-joined tokens: ``size`` of them, or any number up to 8."""
    lo, hi = (0, 8) if size is None else (size, size)
    return st.lists(NUMBER_TOKENS, min_size=lo, max_size=hi).map(",".join)


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(
            ["cm-det", "volume", "residual", "solve", "identity-check", "embed", "verify-proof",
             "gasket"]
        )
    )
    if command in ("cm-det", "volume"):
        return [command, "--matrix", draw(MATRICES), "--mode", draw(MODES)]
    if command == "gasket":
        seed = draw(_number_list(3) | _number_list())
        return [command, "--seed", seed, "--depth", str(draw(st.integers(-1, 3)))]
    if command == "verify-proof":
        argv = [command, "--dim", str(draw(st.integers(-1, 3)))]
        argv += ["--rng-seed", str(draw(st.integers(0, 9)))]
        if draw(st.booleans()):
            argv += ["--radii", draw(_number_list())]
        if draw(st.booleans()):
            argv += ["--random", str(draw(st.integers(-1, 2)))]
        return argv
    # n+1 known curvatures to solve, n+2 values otherwise; n is off by one a third of the time
    n = draw(st.integers(0, 6))
    values = draw(_number_list(n + (1 if command == "solve" else 2)))
    flag = "--curvatures" if command in ("residual", "solve") else "--radii"
    argv = [command, "--n", str(n + draw(st.integers(-1, 1))), flag, values]
    if command in ("residual", "solve"):
        argv += ["--mode", draw(MODES)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_any_argv_gives_one_envelope(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an exception escaping run() is the traceback a shell would print
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2)
    assert out.getvalue().count("\n") == 1
    payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert payload["ok"] is (code == 0)
    if not payload["ok"]:
        assert payload["error"]["kind"] in ERROR_KINDS


# sha256 of the seeded corpus in tests/cli_corpus.py: every subcommand's
# stdout, stderr, exit code and written files.  CI runs it on Python
# 3.10-3.13, so an output bit that depends on the interpreter fails there.
_CORPUS_DIGEST = "b2ea0a9f23afb3bbdaa0eefc3ae120ca590918a697615d305ef8a1419ffc29fc"


def test_corpus_output_is_pinned():
    assert corpus_digest() == _CORPUS_DIGEST
