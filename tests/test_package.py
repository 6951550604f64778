"""The package's public surface."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soddy

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_import_loads_no_submodule():
    script = (
        "import sys, soddy; print(sorted(m for m in sys.modules if m.startswith('soddy.')))\n"
        "soddy.serialize; print(sorted(m for m in sys.modules if m.startswith('soddy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # the first attribute access imports its module, and the modules it imports
    assert proc.stdout.splitlines() == ["[]", "['soddy.errors', 'soddy.numeric', 'soddy.serialize']"]


def test_every_public_name_is_its_defining_module_object():
    for name in soddy.__all__:
        owner = importlib.import_module(f"soddy.{soddy._OWNER[name]}")
        value = getattr(soddy, name)
        assert value is getattr(owner, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == owner.__name__, name


def test_submodules_resolve_as_attributes():
    assert soddy.gasket is importlib.import_module("soddy.gasket")
    assert soddy.numeric is importlib.import_module("soddy.numeric")


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError):
        soddy.no_such_name
    with pytest.raises(ImportError):
        exec("from soddy import no_such_name", {})


def test_dir_lists_the_public_names():
    assert set(soddy.__all__) <= set(dir(soddy))
