"""In-memory spans around the public ``soddy`` functions, for the traced run.

``Tracer.install`` replaces each traced function, in every ``soddy`` module
namespace that binds it (``determinant`` lives in ``numeric`` and is
imported by name into ``cayley_menger``, ``proof_witness`` and the package),
with a wrapper that records a span: name, start, end, parent span and op id.
The worker installs the wrappers only for the length of each traced op, so
calls the benchmark makes to check outputs are not traced.  Times come from
``time.monotonic`` (CLOCK_MONOTONIC on Linux, shared by all processes), so
spans written by a traced CLI subprocess nest inside the op span of the
process that started it.  Spans are kept column-wise in arrays: a gasket op
makes about 4,000 of them.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction

COLUMNS = ("name", "start", "end", "parent", "op")


def _mode_name(prefix: str):
    return lambda first, *rest, **kw: f"{prefix}_{first.mode}"


def _note_det(tracer, result) -> None:
    if isinstance(result, Fraction):
        bits = abs(result.numerator).bit_length() + result.denominator.bit_length()
        key = "numeric.det_exact.result_bits_max"
        tracer.counters[key] = max(tracer.counters.get(key, 0), bits)


def _note_report(tracer, result) -> None:
    ids = result["identities"]
    tracer.add("proof_witness.identities", len(ids))
    tracer.add("proof_witness.failed_identities", sum(not e["passed"] for e in ids))


#: (module, attribute, span name, note on the result).  An attribute of the
#: form "Class.method" wraps a method; a callable span name is computed
#: from the call's arguments (exact and float kernels are separate layers).
TARGETS = (
    ("soddy.numeric", "Matrix.__matmul__", _mode_name("numeric.matmul"), None),
    ("soddy.numeric", "determinant", _mode_name("numeric.det"), _note_det),
    ("soddy.cayley_menger", "SquaredDistanceMatrix.from_entries", "cayley_menger.from_entries", None),
    ("soddy.cayley_menger", "build_cm_matrix", "cayley_menger.build_cm_matrix", None),
    ("soddy.cayley_menger", "cm_determinant", "cayley_menger.cm_determinant", None),
    ("soddy.cayley_menger", "volume_squared", "cayley_menger.volume_squared", None),
    ("soddy.tangency", "validate_radii", "tangency.validate_radii", None),
    ("soddy.tangency", "tangency_squared_distances", "tangency.tangency_squared_distances", None),
    ("soddy.tangency", "descartes_residual", "tangency.descartes_residual", None),
    ("soddy.tangency", "vieta_partner", "tangency.vieta_partner", None),
    ("soddy.proof_witness", "check_reduction_chain", "proof_witness.check_reduction_chain", None),
    ("soddy.proof_witness", "check_UWU_congruence", "proof_witness.check_UWU_congruence", None),
    ("soddy.proof_witness", "ProofReport.to_dict", "proof_witness.to_dict", _note_report),
    ("soddy.embedding", "append_point", "embedding.append_point", None),
    ("soddy.embedding", "realize_points", "embedding.realize_points", None),
    ("soddy.gasket", "generate", "gasket.generate", None),
    ("soddy.gasket", "render_svg", "gasket.render_svg", None),
    ("soddy.gasket", "gasket_to_dict", "gasket.gasket_to_dict", None),
    ("soddy.serialize", "scalar_to_json", "serialize.scalar_to_json", None),
    ("soddy.cli", "run", "cli.run", None),
)


class Tracer:
    def __init__(self):
        self.spans = {"name": [], "start": array("d"), "end": array("d"), "parent": array("q"), "op": array("q")}
        self.counters: dict[str, int] = {}
        self.op = None  # id of the op being traced
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _open(self, name: str) -> int:
        s = self.spans
        idx = len(s["name"])
        s["name"].append(name)
        s["parent"].append(self._stack[-1] if self._stack else -1)
        s["op"].append(self.op)
        s["end"].append(0.0)
        s["start"].append(time.monotonic())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans["end"][idx] = time.monotonic()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Start the root span of one op; every traced call until ``end_op`` nests inside it."""
        self.op = op_id
        return self._open("op")

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.op = None

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                note(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target whose module is loaded, in every namespace binding it."""
        for module_name, attr, name, note in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, note))
                else:
                    wrapped = self._wrap(raw, name, note)
                self._restore.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "soddy" or mod_name.startswith("soddy.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def merge(self, other: dict, parent: int) -> None:
        """Adopt the spans and counters a traced subprocess wrote, under span ``parent``."""
        s = self.spans
        offset = len(s["name"])
        op = s["op"][parent]
        s["name"].extend(other["name"])
        s["start"].extend(other["start"])
        s["end"].extend(other["end"])
        s["parent"].extend(parent if p < 0 else p + offset for p in other["parent"])
        s["op"].extend(op for _ in other["op"])
        for key, value in other["counters"].items():
            if key.endswith("_max"):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.add(key, value)

    def dump(self, path) -> None:
        doc = {col: list(self.spans[col]) for col in COLUMNS}
        doc["counters"] = self.counters
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = [0.0] * len(start)
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            covered[p] += e - s
    return [e - s - c for s, e, c in zip(start, end, covered)]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Calls and summed self time for each span name."""
    out: dict[str, dict[str, float]] = {}
    for name, own in zip(spans["name"], self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out
