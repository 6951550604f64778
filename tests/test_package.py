"""The package's public surface."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import soddy

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_public_name_resolves():
    namespace: dict = {}
    # import * raises AttributeError for a name in __all__ that the package lacks
    exec("from soddy import *", namespace)
    assert set(soddy.__all__) <= namespace.keys()
    assert len(soddy.__all__) == len(set(soddy.__all__))


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these names; one deleted or renamed breaks it
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *cls_name, name = attr.split(".")
        if cls_name:  # a method is wrapped where its class defines it
            owner = vars(getattr(owner, cls_name[0]))
            assert name in owner, f"{module_name}.{attr}"
        else:
            assert hasattr(owner, name), f"{module_name}.{attr}"
