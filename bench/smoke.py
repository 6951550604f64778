"""Smoke tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q bench/smoke.py
Takes about a minute and a half: every workload runs one pass over its input pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongOutput  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(proc, result, listed) -> None:
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc, result = bench("--workload", workload, "--seconds", "0", "--seed", "3")
    assert_metrics(proc, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    extra = {"gasket": "circles_per_s", "audit": "identities_per_s"}.get(workload)
    assert extra is None or any(line.split()[:1] == [extra] for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", ["audit", "cli"])
def test_traced_run_reports_layers_and_self_time_fits_each_op(workload):
    proc, result = bench("--workload", workload, "--seconds", "0", "--seed", "3", "--trace", "1")
    assert_metrics(proc, result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["numeric.det_exact.calls"] > 0 and metrics["trace.overhead_ratio"] > 0
    if workload == "audit":
        assert metrics["proof_witness.identities"] == workloads.AuditWorkload.IDENTITIES
    else:
        assert metrics["cli.run.self_s"] > 0 and metrics["embedding.realize_points.self_s"] > 0
    recorded = json.loads((BENCH / "out" / f"spans-{workload}-seed3.json").read_text())
    own = spans.self_times(recorded)
    per_op: dict = {}
    for name, start, end, op, mine in zip(recorded["name"], recorded["start"], recorded["end"], recorded["op"], own):
        total, wall = per_op.get(op, (0.0, 0.0))
        per_op[op] = (total + mine, end - start if name == "op" else wall)
    assert per_op and min(own) >= 0
    assert all(total <= wall + 1e-9 for total, wall in per_op.values())


def digest(name: str, seed: int) -> str:
    pool = workloads.WORKLOADS[name]().inputs(random.Random(seed))
    return hashlib.sha256(repr(pool).encode()).hexdigest()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert digest(workload, 5) == digest(workload, 5) != digest(workload, 6)


def test_result_is_stamped_with_the_input_digest():
    stamps, counts = [], []
    for _ in range(2):
        _, result = bench("--workload", "audit", "--seconds", "0", "--seed", "5")
        counts.append((result["attempted"], result["failed"]))
        stamps.append(json.loads((BENCH / "out" / "audit-seed5-trace0.json").read_text()))
    assert stamps[0]["input_digest"] == stamps[1]["input_digest"] == digest("audit", 5)
    assert counts[0] == counts[1]
    for key in ("commit", "python", "numpy", "nproc", "seed", "src.lines"):
        assert key in stamps[0]


def first_output(w):
    """The first input of seed 1's pool that the program accepts, with its output."""
    from soddy.errors import SoddyError

    w.load()
    for inp in w.inputs(random.Random(1)):
        try:
            return inp, w.op(inp)
        except SoddyError:
            continue


def test_gasket_check_catches_a_displaced_circle():
    w = workloads.GasketWorkload()
    inp, (g, svg, text) = first_output(w)
    assert w.check(inp, (g, svg, text)) == len(g.circles)
    w.final_check()
    circles = list(g.circles)
    c = circles[100]
    circles[100] = dataclasses.replace(c, center=(c.center[0] + 1e-6 * abs(g.enclosing().radius), c.center[1]))
    with pytest.raises(WrongOutput):
        w.check(inp, (dataclasses.replace(g, circles=tuple(circles)), svg, text))


def test_audit_check_catches_a_failed_identity():
    w = workloads.AuditWorkload()
    inp, (report, text) = first_output(w)
    assert w.check(inp, (report, text)) == w.IDENTITIES
    entries = list(report.entries)
    entries[0] = dataclasses.replace(entries[0], passed=False)
    with pytest.raises(WrongOutput):
        w.check(inp, (dataclasses.replace(report, entries=tuple(entries)), text))


def test_cm_det_check_catches_a_wrong_determinant():
    w = workloads.CmDetWorkload()
    inp, (det, vol, degenerate) = first_output(w)
    w.check(inp, (det, vol, degenerate))
    with pytest.raises(WrongOutput):
        w.check(inp, (det + 1, vol, degenerate))
    with pytest.raises(WrongOutput):
        w.check(inp, (det, dataclasses.replace(vol, value=vol.value * 2), degenerate))


def test_cli_check_catches_a_wrong_envelope(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    w = workloads.CliWorkload()
    pool = w.inputs(random.Random(1))
    for inp in pool:
        w.check(inp, w.op(inp))
    residual = pool[0]
    right = json.dumps({"ok": True, "result": {"num": "0", "den": "1"}}) + "\n"
    w.check(residual, (0, right))
    for wrong in [
        (1, right),
        (0, right + right),
        (0, json.dumps({"ok": False, "error": {"kind": "validation", "message": ""}})),
        (0, json.dumps({"ok": True, "result": {"num": "1", "den": "1"}})),
    ]:
        with pytest.raises(WrongOutput):
            w.check(residual, wrong)


def test_each_input_keeps_its_median_over_passes():
    rows = [
        (0, 0.3, None, 5, 10, 0.6),
        (1, 0.2, "seed", 0, 0, 0.4),
        (0, 0.1, None, 5, 10, 0.2),
        (0, 0.2, None, 5, 10, 0.1),
    ]
    assert run.per_input(rows) == {0: (0.2, None, 5), 1: (0.2, "seed", 0)}
    assert run.per_input(rows, 5) == {0: (0.2, None, 5), 1: (0.4, "seed", 0)}


def test_a_seed_always_runs_the_same_ops():
    w = workloads.GasketWorkload()
    assert worker.pass_count(w, 0, 1) == 1 and worker.pass_count(w, 3 * w.pass_s, 2) == 3
    assert worker.pass_count(w, w.pass_s, worker.MIN_PASSES) == worker.MIN_PASSES
    orders = [list(worker.passes(list(range(9)), random.Random(4), 2)) for _ in range(2)]
    assert orders[0] == orders[1] and sorted(orders[0]) == sorted(2 * list(range(9)))


def test_an_input_that_fails_on_one_pass_only_is_a_wrong_output():
    rec = worker.Recorder(workloads.AuditWorkload(), [None])
    rec.add(0, 0.1, None, "geometry", 0.1)
    rec.add(0, 0.1, None, "geometry", 0.1)
    with pytest.raises(WrongOutput):
        rec.add(0, 0.1, None, None, 0.1)


def test_det_oracle_agrees_with_exact_elimination():
    rows = [[Fraction(2, 3), Fraction(1)], [Fraction(5), Fraction(-7, 2)]]
    det = Fraction(2, 3) * Fraction(-7, 2) - 5
    assert workloads.det_matches(det, rows) and not workloads.det_matches(det + Fraction(1, 3), rows)
