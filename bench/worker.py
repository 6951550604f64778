"""One workload in a fresh process, driven by a single closed-loop caller.

Usage: python bench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED OUT_DIR

MODE is ``setup`` (import and warm up, then stop), ``measure`` (the timed
loop, untraced) or ``trace`` (each op run untraced and traced).  Both loops
make a fixed number of whole passes over the seed's input pool, each pass
in a fresh seeded order: as many as make SECONDS (SECONDS/4 when tracing)
at the workload's nominal pass time, at least MIN_PASSES in a measured run
(one when SECONDS is 0) and one when tracing.  So a seed always runs the
same ops.  SPAWNED is the ``time.monotonic()`` reading taken by the
parent just before it started this process; set-up time runs from then to
the first timed op, less the time spent generating inputs.

Times are reported twice: as measured (wall) and in reference seconds.
The host's speed for plain Python code wanders by up to 2x in phases of
seconds to minutes (other virtual machines on the same cores), so every
timed op sits between two runs of ``reference()``, a fixed loop of the
benchmark's own that calls no ``soddy`` code, and its time is scaled by
REF_S over their mean: what the op takes on a host where the loop takes
REF_S.  Set-up time is left as measured: process start, imports and page
faults follow the loop's speed only weakly (about +10 % for a 1.6x slower
loop), and scaling it added more noise than it removed.  Output checks run
between ops and are not timed.  Prints one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import spans
import workloads
from workloads import ROOT, WrongOutput

SHIM = Path(__file__).resolve().parent / "cli_shim.py"
REF_S = 1e-3  # about the reference loop's fastest time on the 2-vCPU host of BASELINE.md
# A single op's scaled latency still varies by about 15 % (interquartile range
# over median, one input repeated): the host's speed changes within an op, which
# the loops beside it cannot see.  So every input is measured at least twice.
MIN_PASSES = 2


def _soddy_error():
    errors = sys.modules.get("soddy.errors")
    return errors.SoddyError if errors is not None else ()


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def reference() -> float:
    """Seconds one fixed loop of plain Python takes, in three parts after
    the work the workloads do: Fraction arithmetic (audit, cm-det), float
    geometry on tuples (gasket), and building and sorting small dicts
    (output).  It imports nothing, so the worker's memory and imports stay
    the program's.  Garbage collection is off for its length, so the
    program's heap does not show in it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    points = [(0.5, 1.0)]
    for i in range(1, 200):
        x, y = points[-1]
        points.append((math.hypot(x, i * 0.25) / (i + 1), math.atan2(y, x + i)))
    rows = [{"c": (i * 0.5, i * 1.5), "r": -i / 3.0, "p": [i, i + 1]} for i in range(500)]
    rows.sort(key=lambda row: row["r"])
    t = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return t


def timed_op(w, inp) -> tuple:
    """Run one op: (latency_s, output, error kind or None).  Callers run a
    full garbage collection first, untimed, so that each op starts from the
    same collector state and its latency does not depend on the ops run
    before it, that is on the seeded order."""
    t0 = time.perf_counter()
    try:
        out, kind = w.op(inp), None
    except _soddy_error() as exc:
        out, kind = None, exc.kind
    return time.perf_counter() - t0, out, kind


class Recorder:
    """Checks each op's output and keeps one (input index, latency in
    reference seconds, error kind or None, work items, output bytes, wall
    latency_s) row per op."""

    def __init__(self, w, pool):
        self.w, self.pool = w, pool
        self.kinds: dict[int, object] = {}
        self.rows: list[tuple] = []

    def add(self, i: int, latency: float, out, kind, wall: float) -> None:
        w, inp = self.w, self.pool[i]
        if self.kinds.setdefault(i, kind) != kind:
            raise WrongOutput(f"input {i} gave {kind!r} after {self.kinds[i]!r} on an earlier pass")
        if kind is not None:
            self.rows.append((i, latency, kind, 0, 0, wall))
        else:
            self.rows.append((i, latency, None, w.check(inp, out), w.output_bytes(out), wall))


def pass_count(w, seconds: float, least: int) -> int:
    """Whole passes that make ``seconds`` at the workload's nominal pass time; at least ``least``."""
    return max(least, round(seconds / w.pass_s))


def passes(pool, rng, count: int):
    """Input indices: ``count`` whole passes over the pool, each in a fresh seeded order."""
    for _ in range(count):
        order = list(range(len(pool)))
        rng.shuffle(order)
        yield from order


def run_ops(w, pool, rng, seconds: float) -> tuple[list, float]:
    """The measured loop, each op timed between two reference loops: the
    rows, and the median reference loop time."""
    rec = Recorder(w, pool)
    refs = [reference()]
    for i in passes(pool, rng, pass_count(w, seconds, MIN_PASSES if seconds else 1)):
        gc.collect()
        wall, out, kind = timed_op(w, pool[i])
        refs.append(reference())
        rec.add(i, wall * 2 * REF_S / (refs[-2] + refs[-1]), out, kind, wall)
    return rec.rows, statistics.median(refs)


def trace_ops(w, pool, rng, seconds: float, tracer, child_spans) -> tuple[list, list]:
    """Run each op untraced and traced, alternating which goes first, over
    the passes that make ``seconds``.  Latencies are wall times.  The op id
    of a traced op is its row number."""
    plain, traced = Recorder(w, pool), Recorder(w, pool)
    for i in passes(pool, rng, pass_count(w, seconds, 1)):
        inp = pool[i]
        for with_spans in (len(plain.rows) % 2 == 1, len(plain.rows) % 2 == 0):
            gc.collect()
            if not with_spans:
                latency, out, kind = timed_op(w, inp)
                plain.add(i, latency, out, kind, latency)
                continue
            tracer.install()
            if hasattr(w, "prefix"):  # a CLI op: run the call through the tracing shim
                w.prefix = (sys.executable, str(SHIM), str(child_spans))
            span = tracer.begin_op(len(traced.rows))
            latency, out, kind = timed_op(w, inp)
            tracer.end_op(span)
            w.__dict__.pop("prefix", None)
            tracer.uninstall()
            if child_spans.exists():
                tracer.merge(json.loads(child_spans.read_text()), span)
                child_spans.unlink()
            traced.add(i, latency, out, kind, latency)
    return plain.rows, traced.rows


def _layer_metrics(name: str, tracer: spans.Tracer, results) -> dict[str, float]:
    """Per-op layer numbers from the traced pass."""
    n = len(results)
    totals = spans.layer_totals(tracer.spans)
    names = {layer for _, _, layer, _ in spans.TARGETS if isinstance(layer, str)}
    names |= {"numeric.matmul_exact", "numeric.det_exact", *totals}
    out: dict[str, float] = {}
    for layer in sorted(names):
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = entry["calls"] / n
        out[f"{layer}.self_s"] = entry["self_s"] / n
    for key in ("proof_witness.identities", "proof_witness.failed_identities"):
        out[key] = tracer.counters.get(key, 0) / n
    out["numeric.det_exact.result_bits_max"] = tracer.counters.get("numeric.det_exact.result_bits_max", 0)
    ok_ops = {op for op, r in enumerate(results) if r[2] is None}
    out["gasket.kept_ratio"] = 0.0
    if name == "gasket":
        kept = sum(results[op][3] - 4 for op in ok_ops)
        cols = tracer.spans
        candidates = sum(label == "tangency.vieta_partner" and op in ok_ops for label, op in zip(cols["name"], cols["op"]))
        out["gasket.kept_ratio"] = kept / candidates
    out["gasket.output_bytes"] = sum(results[op][4] for op in ok_ops) / len(ok_ops) if ok_ops else 0.0
    kinds = Counter(r[2] for r in results if r[2] is not None)
    for kind in ("geometry", "seed"):
        out[f"gasket.failed.{kind}"] = kinds.pop(kind, 0) / n
    out["gasket.failed.other"] = sum(kinds.values()) / n
    return out


def main() -> int:
    name, seed, seconds, mode, spawned, out_dir = sys.argv[1:7]
    seconds, spawned, out_dir = float(seconds), float(spawned), Path(out_dir)
    w = workloads.WORKLOADS[name]()

    t = time.monotonic()
    warm = w.warmup()
    rng = random.Random(int(seed))
    pool = w.inputs(rng) if mode != "setup" else []
    digest = hashlib.sha256(repr(pool).encode()).hexdigest()
    gen_s = time.monotonic() - t

    w.load()
    warm_out = w.op(warm)
    setup_s = time.monotonic() - spawned - gen_s
    soddy = sys.modules.get("soddy")
    if soddy is not None and not Path(soddy.__file__).is_relative_to(ROOT / "src"):
        raise SystemExit(f"soddy was imported from {soddy.__file__}, not from {ROOT / 'src'}")
    try:
        w.check(warm, warm_out)
        if mode == "setup":
            report = {}
        elif mode == "measure":
            results, ref = run_ops(w, pool, rng, seconds)
            w.final_check()
            report = {"results": results, "ref_s": ref}
        else:
            tracer = spans.Tracer()
            child_spans = out_dir / f"child-spans-{os.getpid()}.json"
            untraced, traced = trace_ops(w, pool, rng, seconds / 4, tracer, child_spans)
            tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")
            layers = _layer_metrics(name, tracer, traced)
            layers["trace.overhead_ratio"] = sum(r[1] for r in traced) / sum(r[1] for r in untraced)
            report = {"results": traced, "layers": layers}
    except WrongOutput as exc:
        print(json.dumps({"wrong": str(exc)}))
        return 1
    report.update(setup_s=setup_s, gen_s=gen_s, digest=digest, peak_rss_mb=_peak_rss_mb())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
