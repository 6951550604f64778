"""JSON envelope, exit codes, and file outputs of the command-line surface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soddy.cli import run
from soddy.gasket import generate, render_svg

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


class TestIdentityCheck:
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

    def test_unsolved_quadruple_exit_2(self, call):
        code, out, _ = call(["embed", "--n", "2", "--radii", "1,1,1,1"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "rank-exceeds-dim"


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

    def test_depth_guard_exit_1(self, call):
        code, out, _ = call(["gasket", "--seed", "-1,2,2", "--depth", "13"])
        assert code == 1


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


def test_import_leaves_numpy_unloaded_until_embed():
    script = (
        "import json, sys\n"
        "import soddy, soddy.cli\n"
        "assert 'numpy' not in sys.modules, 'import soddy.cli loaded numpy'\n"
        "soddy.cli.run(['verify-proof', '--random', '2', '--rng-seed', '1'])\n"
        "assert 'numpy' not in sys.modules, 'verify-proof loaded numpy'\n"
        "soddy.cli.run(['embed', '--n', '2', '--radii', '-1,1/2,1/2,1/3'])\n"
        "assert 'numpy' in sys.modules\n"
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


BIG = str(10**400)
# each printed a traceback before coercion checked its input, except
# boolean-entry, which returned 2.0 while exact mode rejected booleans
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
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["error"]["kind"] in {"validation", "non-finite"}


# Strings stay short: a decimal token with a long exponent ("1e9999999")
# takes seconds to hours to parse, a fault this property does not cover.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**500), 10**500)
    | st.floats()
    | st.text(max_size=4),
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
