"""A seeded corpus of ``soddy`` CLI calls over all eight subcommands, and one
sha256 over everything the calls print, return and write.

The corpus mixes exact and float inputs, tangent and arbitrary ones, and
calls that fail validation or computation, and it writes gasket SVG and JSON
files.  Any output bit that moves changes the digest: a float that depends on
the Python version (builtin ``sum`` compensates floats from 3.12 on), a
reordered circle, an edited error message.  ``tests/test_cli.py`` pins the
digest; to print it under an interpreter without pytest, run

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from soddy.cli import run

SEED = 26


def _rational(rng: random.Random) -> str:
    num = rng.choice([i for i in range(-12, 13) if i])
    den = rng.choice([1, 1, 2, 3, 4, 7, 12])
    return f"{num}/{den}" if den > 1 else str(num)


def _decimal(rng: random.Random, low: float = -5.0, high: float = 5.0) -> str:
    return repr(round(rng.uniform(low, high), rng.randint(1, 6)))


def _radii(rng: random.Random, count: int, floats: bool) -> str:
    """``count`` signed radii, at most one negative (more, now and then)."""
    values = [_decimal(rng, 0.1, 4.0) if floats else _rational(rng).lstrip("-") for _ in range(count)]
    for i in rng.sample(range(count), rng.choice([0, 1, 1, 2])):
        values[i] = "-" + values[i]
    return ",".join(values)


#: Curvatures of n+2 mutually tangent n-spheres, for n = 1, 2, 3.
_TANGENT = {
    1: [(1, 1, "-1/2"), (2, 3, "-6/5")],
    2: [(-1, 2, 2, 3), (2, 2, 3, 15), (-2, 3, 6, 23), (-6, 11, 14, 15)],
    3: [(-1, 2, 2, 3, 3), (2, 2, 2, 2, "2/3")],
}


def _tangent_radii(rng: random.Random, n: int) -> str:
    """Radii of n+2 tangent n-spheres, scaled and shuffled; now and then one
    is moved, or one dropped."""
    scale = rng.choice([1, 2, 3, 7, 12])
    radii = [str(Fraction(scale) / Fraction(str(k))) for k in rng.choice(_TANGENT[n])]
    rng.shuffle(radii)
    fault = rng.random()
    if fault < 0.15:
        radii[0] += "1"
    elif fault < 0.2:
        radii.pop()
    return ",".join(radii)


def _matrix(rng: random.Random, m: int, floats: bool) -> str:
    """A squared-distance matrix of m points as JSON text: the distances of
    integer points, or symmetric random entries, broken now and then."""
    if rng.random() < 0.5:
        points = [[rng.randint(-4, 4) for _ in range(m - 1)] for _ in range(m)]
        rows = [[str(sum((a - b) ** 2 for a, b in zip(p, q))) for q in points] for p in points]
    else:
        rows = [["0"] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = rows[j][i] = _decimal(rng, 0.0, 9.0) if floats else str(rng.randint(0, 30))
    fault = rng.random()
    if fault < 0.08:
        rows[0][-1] = "7"  # no longer symmetric
    elif fault < 0.12:
        rows[-1][-1] = "1"  # a nonzero diagonal
    elif fault < 0.16:
        rows[0][1] = rows[1][0] = "-2.5"  # negative, refused in float mode
    text = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    return text[:-3] if fault > 0.97 else text  # not JSON


def corpus(seed: int = SEED) -> list[list[str]]:
    """The argv lists, 30 per subcommand and one more; some gasket calls
    write g<i>.svg and g<i>.json in the working directory."""
    rng = random.Random(seed)
    calls = []
    for i in range(30):
        floats = rng.random() < 0.4
        mode = ["--mode", "float"] if floats else []
        n = rng.randint(1, 3)
        count = n + 2 if rng.random() < 0.9 else n + 1
        for command in ("cm-det", "volume"):
            calls.append([command, "--matrix", _matrix(rng, rng.randint(2, 5), floats), *mode])
        values = [_decimal(rng) if floats else _rational(rng) for _ in range(n + 2)]
        if rng.random() < 0.1:
            values[rng.randrange(n + 2)] = "0"
        calls.append(["residual", "--n", str(n), "--curvatures", ",".join(values[:count]), *mode])
        calls.append(["solve", "--n", str(n), "--curvatures", ",".join(values[: count - 1]), *mode])
        calls.append(["identity-check", "--n", str(n), "--radii", _radii(rng, count, False)])
        calls.append(["embed", "--n", str(n), "--radii", _tangent_radii(rng, n)])
        if i % 3:
            calls.append(["verify-proof", "--random", str(i % 3), "--dim", str(n), "--rng-seed", str(i)])
        else:
            calls.append(["verify-proof", "--radii", _radii(rng, count, False)])
        seed = rng.choice(
            [
                "-1,2,2", "2,2,3", "-6,11,14", "1,1,1", "-2,3,6", "23,27,18",
                _radii(rng, 3, True), _radii(rng, 3, False), "0,1,1",
            ]
        )
        depth = rng.choice(["0", "1", "2", "2", "-1", "13"])
        files = ["--svg", f"g{i}.svg", "--json", f"g{i}.json"] if rng.random() < 0.3 else []
        calls.append(["gasket", "--seed", seed, "--depth", depth, *files])
    calls.append(["verify-proof", "--random", "0"])
    return calls


def corpus_digest(seed: int = SEED) -> str:
    """sha256 of each call's argv, exit code, stdout, stderr and written files, in order."""
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in corpus(seed):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
                record = [repr(argv), str(code), out.getvalue(), err.getvalue()]
                for path in sorted(Path(work).iterdir()):
                    record += [path.name, path.read_text(encoding="utf-8")]
                    path.unlink()
                digest.update("\0".join(record).encode() + b"\1")
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


if __name__ == "__main__":
    print(corpus_digest())
