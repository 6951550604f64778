"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
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


_CLI_BASE = {"soddy", "soddy.cli", "soddy.embedding", "soddy.errors", "soddy.numeric", "soddy.serialize", "soddy.tangency"}


def _loaded_after(script: str) -> tuple[set, set]:
    """The soddy modules a fresh interpreter holds after ``script``, and which
    of ``dataclasses`` and ``inspect`` (which ``dataclasses`` imports) it loaded."""
    script += (
        "\nprint(json.dumps([[m for m in sys.modules if m.split('.')[0] == 'soddy'],"
        " [m for m in ('dataclasses', 'inspect') if m in sys.modules]]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{script}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names, heavy = json.loads(proc.stdout.splitlines()[-1])
    return set(names), set(heavy)


def test_cli_import_loads_only_what_every_subcommand_needs():
    assert _loaded_after("import soddy.cli") == (_CLI_BASE, set())


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["residual", "--n", "2", "--curvatures", "-1,2,2,3"], set()),
        (["solve", "--n", "2", "--curvatures", "-1,2,2"], set()),
        (["cm-det", "--matrix", "[[0,9,16],[9,0,25],[16,25,0]]"], {"soddy.cayley_menger"}),
        (["volume", "--matrix", "[[0,1],[1,0]]"], {"soddy.cayley_menger"}),
        (["identity-check", "--n", "2", "--radii", "-1,1/2,1/2,1/3"], {"soddy.cayley_menger"}),
        (["embed", "--n", "2", "--radii", "-1,1/2,1/2,1/3"], {"soddy.cayley_menger"}),
        (["verify-proof", "--random", "1"], {"soddy.cayley_menger", "soddy.proof_witness"}),
        (["gasket", "--seed", "-1,2,2", "--depth", "0"], {"soddy.gasket"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, extra):
    assert _loaded_after(f"import soddy.cli\nassert soddy.cli.run({argv!r}) == 0") == (_CLI_BASE | extra, set())


def test_no_module_loads_dataclasses():
    names = {f"soddy.{p.stem}" for p in (SRC / "soddy").glob("*.py") if p.stem not in ("__init__", "__main__")}
    assert _loaded_after("".join(f"import {name}\n" for name in sorted(names))) == (names | {"soddy"}, set())


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


#: Every builtin ``sum`` call in ``src/``, by defining function, with its
#: count: each adds integers only.  Builtin ``sum`` compensates floats from
#: Python 3.12 on, so a float sum goes through ``numeric._sum`` instead.
_INTEGER_SUMS = {
    "numeric.Matrix.__matmul__": 1,  # integer rows over one denominator
    "proof_witness._lifted_U": 1,  # points scaled to integers
    "proof_witness.check_UWU_congruence": 1,  # likewise
    "tangency._validated": 1,  # a count of negative values
    "tangency._tangency_residual": 2,  # the exact branch's integers
    "tangency._signed_residual": 2,  # integer curvatures
}


def test_builtin_sum_adds_integers_only():
    found: dict = {}

    def scan(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
                found[scope] = found.get(scope, 0) + 1
            scan(child, scope)

    for path in sorted((SRC / "soddy").glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == _INTEGER_SUMS
