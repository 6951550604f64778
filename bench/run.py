"""Benchmark for soddy: one workload per fresh process, end-to-end or traced.

Usage (from the repository root):

    python3 bench/run.py [--workload gasket|audit|cm-det|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

``all`` runs every workload BENCHMARK.json lists.  Prints a table of every
metric by name and unit, then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"} holding the BENCHMARK.json
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).  A
wrong output from the program exits 1; failures the program reports as
``SoddyError`` are counted, not fatal.  The full result, stamped with
commit, versions, core count, seed, input digest and src line
count, goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # fresh processes whose set-up times give setup_s's median
PROBE_SAMPLES = 3  # subprocesses per cli.* import probe
TIME_LIMIT = 170.0  # seconds for one workload, all of its processes included
EXTRA_UNITS = {
    "failed_ratio": "ratio",
    "circles_per_s": "1/s",
    "identities_per_s": "1/s",
    "wall.ops_per_s": "1/s",
    "wall.op_p50_s": "s",
    "wall.op_p90_s": "s",
    "host.slowdown": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program giving a wrong answer)."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def _timeout(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"workload exceeded {TIME_LIMIT:.0f} s")
    return left


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    spawned = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), repr(seconds), mode, repr(spawned), str(OUT)]
    # In a process group of its own, so that a timeout also stops the CLI subprocesses it started.
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=_timeout(deadline))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 and "wrong" not in report:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return report


def _probe(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=_timeout(deadline))
    if proc.returncode != 0:
        raise BenchError(f"probe {argv[1:]} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def _cli_import_probes(deadline: float) -> dict[str, float]:
    """Cold-start parts of a CLI call, each the median of PROBE_SAMPLES fresh interpreters."""
    py = sys.executable
    timer = "import time; t = time.perf_counter(); import soddy.cli; print(time.perf_counter() - t)"
    startup, imports, numpy = [], [], []
    for _ in range(PROBE_SAMPLES):
        t = time.perf_counter()
        _probe([py, "-c", "pass"], deadline)
        startup.append(time.perf_counter() - t)
        imports.append(float(_probe([py, "-c", timer], deadline).stdout))
        # -X importtime lines: "import time: self [us] | cumulative | package"
        cumulative = 0.0
        for line in _probe([py, "-X", "importtime", "-c", "import soddy.cli"], deadline).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                cumulative = int(fields[1]) / 1e6
        numpy.append(cumulative)
    return {
        "cli.python_startup_s": statistics.median(startup),
        "cli.import_s": statistics.median(imports),
        "cli.numpy_import_s": statistics.median(numpy),
    }


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _stamp(workload: str, seed: int, seconds: float, trace: int, digest: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "src.lines": _src_lines(),
        "input_digest": digest,
    }


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def per_input(rows, column: int = 1) -> dict[int, tuple]:
    """Each input's median over its passes of one column of its rows, with
    its error kind and work items; a row is (input index, latency in
    reference seconds, error kind or None, work items, output bytes, wall
    latency_s)."""
    seen: dict[int, list] = {}
    for row in rows:
        seen.setdefault(row[0], []).append(row)
    return {i: (statistics.median(r[column] for r in rs), rs[0][2], rs[0][3]) for i, rs in seen.items()}


def _timings(rows, prefix: str, column: int) -> dict[str, float]:
    """ops_per_s, op_p50_s and op_p90_s from one latency column: one pass at
    each input's median latency over the run's passes."""
    ok = [v for v in per_input(rows, column).values() if v[1] is None]
    latencies = [v[0] for v in ok]
    return {
        f"{prefix}ops_per_s": len(ok) / sum(latencies),
        f"{prefix}op_p50_s": statistics.median(latencies),
        f"{prefix}op_p90_s": _quantile(latencies, 0.9),
    }


def _end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    reports = []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]:
        report = _worker(workload, seed, seconds, mode, deadline)
        if "wrong" in report:
            return report, {}, {}
        reports.append(report)
    rows = report["results"]
    inputs = per_input(rows)
    ok = [v for v in inputs.values() if v[1] is None]
    passes = len(rows) // len(inputs)
    pass_s = sum(v[0] for v in ok)
    values = {"setup_s": statistics.median(r["setup_s"] for r in reports)}
    values |= _timings(rows, "", 1)
    values |= {"failed_ratio": (len(inputs) - len(ok)) / len(inputs), "peak_rss_mb": report["peak_rss_mb"]}
    if workload == "gasket":
        values["circles_per_s"] = sum(v[2] for v in ok) / pass_s
    if workload == "audit":
        values["identities_per_s"] = sum(v[2] for v in ok) / pass_s
    values |= _timings(rows, "wall.", 5)
    values["host.slowdown"] = report["ref_s"] / worker.REF_S
    of = f"{len(ok)} successful inputs, median of {passes} passes each"
    notes = {
        "setup_s": f"median of {len(reports)} fresh processes",
        "ops_per_s": f"{of}, reference seconds",
        "op_p50_s": f"{of}, reference seconds",
        "op_p90_s": f"{of}, reference seconds",
        "failed_ratio": f"{len(inputs) - len(ok)} of {len(inputs)} inputs raised SoddyError",
        "host.slowdown": "median reference loop time over REF_S",
    }
    return report, values, notes


def _traced(workload: str, seed: int, seconds: float, deadline: float):
    report = _worker(workload, seed, seconds, "trace", deadline)
    if "wrong" in report:
        return report, {}, {}
    values = dict(report["layers"])
    values.update(_cli_import_probes(deadline))
    values["src.lines"] = _src_lines()
    notes = {"trace.overhead_ratio": f"traced over untraced time of the same {len(report['results'])} ops"}
    return report, values, notes


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    deadline = time.monotonic() + TIME_LIMIT
    report, values, notes = (_traced if trace else _end_to_end)(workload, seed, seconds, deadline)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    results = report.get("results", [])
    result = {
        "correct": "wrong" not in report,
        "attempted": max(len(results), 1),
        "failed": sum(1 for r in results if r[2] is not None),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted} if values else {},
    }
    stamp = _stamp(workload, seed, seconds, trace, report.get("digest", ""))
    print(f"== {workload}  " + "  ".join(f"{k}={v}" for k, v in stamp.items() if k != "workload"))
    if not result["correct"]:
        print(f"WRONG OUTPUT: {report['wrong']}", file=sys.stderr)
    for name in values:
        units.setdefault(name, "s/op" if name.endswith(".self_s") else "calls/op")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:>16.6g} {units[name]}{note}")
    full = dict(stamp, correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    full["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "soddy" / "__init__.py").is_file():
        print(f"error: no soddy sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    code = 0
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for workload in names:
        try:
            code = max(code, run_workload(workload, args.seed, args.seconds, args.trace, spec))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
