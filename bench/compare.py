"""Summarise benchmark result files over seeds, and compare two sets of them.

Usage:
    python3 bench/compare.py DIR            # median, quartiles, spread per metric
    python3 bench/compare.py BEFORE AFTER   # and the change of each median

DIR holds the ``<workload>-seed<N>-trace<T>.json`` files that bench/run.py
writes to bench/out/.  Spread is the distance between the first and third
quartile as a share of the median.  With two sets, an end-to-end metric whose
AFTER median is worse than BEFORE's by more than its BENCHMARK.json bound is
marked REGRESSION; a change smaller than BEFORE's own spread is marked
"within noise".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over seeds."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        doc = json.loads(path.read_text())
        for name, metric in doc["metrics"].items():
            out[(doc["workload"], doc["trace"])][name].append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    regressions = 0
    for key in sorted(sets[0]):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name, before in sets[0][key].items():
            med, q1, q3 = summary(before)
            line = f"  {name:42s} n={len(before):2d} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread(before):.3f}"
            after = sets[1].get(key, {}).get(name) if len(sets) == 2 else None
            if after:
                med2 = statistics.median(after)
                change = (med2 - med) / med if med else 0.0
                line += f"  after={med2:<12.6g} change={change:+.3f}"
                spec = BOUNDS.get(name) if trace == 0 else None
                if spec:
                    worse = change if spec["better"] == "lower" else -change
                    if worse > spec["bound"]:
                        line += "  REGRESSION"
                        regressions += 1
                    elif abs(change) <= spread(before):
                        line += "  within noise"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
