"""Command-line surface: JSON in/out, SVG export, stable error kinds.

Every response is a single JSON envelope on stdout: ``{"ok": true,
"result": ...}`` or ``{"ok": false, "error": {"kind": ..., "message": ...}}``.
Rationals serialize as ``{"num": "...", "den": "..."}`` strings so exact
values are never silently converted to float.  Diagnostics go to stderr
once the envelope is written and flushed, so a stderr closed early loses
only them; SVG goes to a file path.  Exit codes: 0 success, 1
validation/usage error or a stdout closed before the envelope is written, 2
computational failure.

Each call loads only the modules its subcommand runs: ``cayley_menger`` is
imported inside the handlers that build or eliminate a matrix (``cm-det``,
``volume``, ``identity-check``, and through ``tangency`` ``embed`` and
``verify-proof``), ``proof_witness`` by ``verify-proof`` and ``gasket`` by
``gasket``, so ``residual`` and ``solve`` load none of them.  No
subcommand loads ``dataclasses``: every value class is a
:class:`~soddy.numeric.Frozen`.

Each subcommand that runs a costly kernel states one estimate in that
kernel's unit, and ``_require`` refuses one past its limit, as a
``validation`` error, before the kernel runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .embedding import realize_points
from .errors import DimensionError, SoddyError, ValidationError
from .numeric import EXACT, FLOAT, coerce_vector
from .serialize import parse_rational, scalar_to_json, value_to_json
from .tangency import (
    _factored_determinant,
    curvatures_from_radii,
    descartes_residual,
    solve_missing_curvature,
    tangency_squared_distances,
    validate_curvatures,
    validate_radii,
)

if TYPE_CHECKING:
    from .cayley_menger import SquaredDistanceMatrix

# Flags whose values may start with '-' (e.g. --curvatures -1,2,2,3); they are
# rewritten to --flag=value before argparse sees them.
_LIST_FLAGS = {"--curvatures", "--radii", "--seed", "--matrix"}


def _preprocess(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_scalars(text: str, mode: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValidationError("empty scalar list")
    return coerce_vector([parse_rational(p) for p in parts], mode)[0]


# The limits of one call, each on one kernel's estimate; times on one core (Python 3.11).
# - Elimination (cm-det, volume, embed): m^5 (b + 32)^2 for m points whose kept squared
#   distances, over one denominator, have at most b bits (m^3 updates on minors of up to
#   m·b bits).  Under 2.3 s at the bound: 24x24 of 2,000 bits runs, 40x40 of 1,000 is
#   refused.  Matrix text is read up to a length far past any matrix this admits.
# - Audit (verify-proof, identity-check): (n+3)^3 work and 6(n+3)^2 + 8 report values
#   per configuration.
# - Gasket: 2·3^d + 2 circles; depth 10 (118,100: about 1.4 s to stdout, 2.5 s and 280 MB
#   with --json) runs.
_MAX_MATRIX_CHARS = 1 << 22
_MAX_ELIMINATION_WORK = 4 * 10**13
_MAX_REPORT_VALUES = 10**6
_MAX_AUDIT_WORK = 1_500_000
_MAX_GASKET_CIRCLES = 200_000


def _require(request: str, estimate: int, limit: int, unit: str) -> None:
    """Refuse ``request``, before it runs, when its estimate passes its limit."""
    if estimate > limit:
        raise ValidationError(f"{request} would take about {estimate} {unit}, more than the {limit} one call may run")


def _require_elimination_bound(m: int, bits: int) -> None:
    """Bound m points with kept entries of ``bits`` bits; bits = 0 bounds m alone."""
    _require(f"a {m}x{m} matrix", m**5 * (bits + 32) ** 2, _MAX_ELIMINATION_WORK, "units of elimination work")


def _require_lcm_bound(rows: list[list]) -> None:
    """Bound exact rows as the lcm L of their denominators above the diagonal
    is built, each string there parsed in place as it is read, before
    ``from_entries`` builds L.  A nonzero kept entry p·L/q has at least
    bits(L) - bits(q) bits, so past b_max + bits(q_min), q_min the least
    denominator of a nonzero entry, the kept-bits bound refuses L too.  Entries
    that are not rationals are left to ``from_entries``."""
    m = max(len(rows), 1)  # no rows is from_entries' error
    b_max = math.isqrt(_MAX_ELIMINATION_WORK // m**5) - 32
    scale, q_bits = 1, math.inf
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            if isinstance(v := row[j], str):
                row[j] = v = parse_rational(v)
            if isinstance(v, (int, Fraction)) and v:
                scale, q_bits = math.lcm(scale, v.denominator), min(q_bits, v.denominator.bit_length())
                if scale.bit_length() - q_bits > b_max:
                    _require_elimination_bound(m, scale.bit_length() - q_bits)


def _parse_matrix(args) -> SquaredDistanceMatrix:
    from .cayley_menger import SquaredDistanceMatrix

    text = args.matrix if args.matrix is not None else sys.stdin.read(_MAX_MATRIX_CHARS + 1)
    if len(text) > _MAX_MATRIX_CHARS:
        raise ValidationError(f"matrix text is longer than the {_MAX_MATRIX_CHARS} characters one call may read")
    try:
        # ValueError also covers integers beyond Python's digit limit
        raw = json.loads(text, parse_float=parse_rational)
    except ValueError as exc:
        raise ValidationError(f"matrix is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("matrix is nested too deeply to parse") from exc
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValidationError("matrix must be a JSON array of arrays")
    _require_elimination_bound(len(raw), 0)  # before any entry is read
    if args.mode == EXACT:  # float denominators are powers of two: L is the largest
        _require_lcm_bound(raw)
    rows = [[parse_rational(v) if isinstance(v, str) else v for v in r] for r in raw]  # the strings left
    d = SquaredDistanceMatrix.from_entries(rows, args.mode)
    _require_elimination_bound(d.m, max(v.bit_length() for row in d._upper[1] for v in row))
    return d


def _cmd_cm_det(args):
    from .cayley_menger import cm_determinant

    d = _parse_matrix(args)
    return scalar_to_json(cm_determinant(d)), 0


def _cmd_volume(args):
    from .cayley_menger import volume_squared

    d = _parse_matrix(args)
    v = volume_squared(d)
    return {"value": scalar_to_json(v.value), "dim": v.dim}, 0


def _cmd_residual(args):
    k = validate_curvatures(_parse_scalars(args.curvatures, args.mode), args.n, strict=False)
    return scalar_to_json(descartes_residual(k)), 0


def _cmd_solve(args):
    values = _parse_scalars(args.curvatures, args.mode)
    hi, lo = solve_missing_curvature(values, args.n)
    return {"roots": [scalar_to_json(hi), scalar_to_json(lo)]}, 0


def _cmd_identity_check(args):
    from .cayley_menger import cm_determinant

    r = validate_radii(_parse_scalars(args.radii, EXACT), args.n, strict=False)
    rhs = _factored_determinant(r)
    # refuse a side too long to print, then one configuration's work, before any elimination
    printed = {
        "rhs": scalar_to_json(rhs),
        "residual": scalar_to_json(descartes_residual(curvatures_from_radii(r))),
    }
    _require_audit_bounds(f"--radii with {len(r.values)} radii", 1, args.n)
    lhs = cm_determinant(tangency_squared_distances(r))
    equal = lhs == rhs
    return {"lhs": scalar_to_json(lhs), **printed, "equal": equal}, 0 if equal else 2


def _random_report_values(count: int, n: int) -> int:
    """Values in the report of ``verify-proof --random count --dim n``: per
    configuration 6 matrices of (n+3)^2 entries and 8 scalars, once the 2
    matrices of (n+2)^2 entries and 2 scalars of S (n = 2 adds 66 more)."""
    return count * (6 * (n + 3) ** 2 + 8) + 2 * (n + 2) ** 2 + 2


def _random_audit_work(count: int, n: int) -> int:
    """Work of ``verify-proof --random count --dim n``: (n+3)^3 per configuration."""
    return count * (n + 3) ** 3


def _random_nonzero(rng: random.Random) -> Fraction:
    num = rng.choice([i for i in range(-10, 11) if i != 0])
    den = rng.randint(1, 10)
    return Fraction(num, den)


def _random_radii(rng: random.Random, n: int) -> list[Fraction]:
    values = [abs(_random_nonzero(rng)) for _ in range(n + 2)]
    if rng.random() < 0.5:
        i = rng.randrange(n + 2)
        values[i] = -values[i]
    return values


def _random_points(rng: random.Random, m: int) -> list[list[Fraction]]:
    return [[_random_nonzero(rng) for _ in range(m - 1)] for _ in range(m)]


def _require_audit_bounds(request: str, count: int, n: int) -> None:
    """Bound an audit of ``count`` configurations at dimension n >= 1, its
    report and then its work; ``request`` names it."""
    _require(request, _random_report_values(count, n), _MAX_REPORT_VALUES, "values to print")
    _require(request, _random_audit_work(count, n), _MAX_AUDIT_WORK, "entry operations")


def _cmd_verify_proof(args):
    from . import proof_witness

    if args.radii is None and args.random is None:
        raise ValidationError("pass --radii or --random N")
    if args.random is not None and args.random < 1:
        raise ValidationError(f"--random needs N >= 1, got {args.random}")
    if args.random is not None and args.dim >= 1:  # n < 1 is build_S's dimension error
        _require_audit_bounds(f"--random {args.random} --dim {args.dim}", args.random, args.dim)
    reports = []
    if args.radii is not None:
        values = _parse_scalars(args.radii, EXACT)
        if len(values) < 3:
            raise DimensionError(f"--radii needs at least 3 radii (n >= 1), got {len(values)}")
        n = len(values) - 2
        r = validate_radii(values, n, strict=False)
        # estimated as one --random configuration, before anything runs S at size n+2
        _require_audit_bounds(f"--radii with {len(values)} radii", 1, n)
        for _, value in proof_witness._closed_forms(r):  # refuse before the audit what to_dict would refuse
            value_to_json(value)
        reports.append(proof_witness.check_S_properties(n))
        reports.append(proof_witness.check_reduction_chain(r))
    if args.random is not None:
        n = args.dim
        rng = random.Random(args.rng_seed)
        reports.append(proof_witness.check_S_properties(n))
        for _ in range(args.random):
            r = validate_radii(_random_radii(rng, n), n, strict=False)
            reports.append(proof_witness.check_reduction_chain(r))
            reports.append(proof_witness.check_UWU_congruence(_random_points(rng, n + 2)))
    report = proof_witness.ProofReport.combine(reports)
    result = report.to_dict()  # refuses a value too long to print before any line is written
    return result, 0 if report.passed else 2, *report.lines()


def _cmd_embed(args):
    r = validate_radii(_parse_scalars(args.radii, FLOAT), args.n)
    _require_elimination_bound(args.n + 2, 0)  # on the point count alone, as a matrix before its entries
    pts = realize_points(tangency_squared_distances(r), args.n)
    centers = [list(row) for row in pts.coords]
    return {"dim": args.n, "centers": centers}, 0


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_gasket(args):
    from .gasket import MAX_DEPTH, gasket_to_dict, generate, render_svg

    seed = _parse_scalars(args.seed, FLOAT)
    if 0 <= args.depth <= MAX_DEPTH:  # any other depth is generate's own error
        _require(f"--depth {args.depth}", 2 * 3**args.depth + 2, _MAX_GASKET_CIRCLES, "circles to draw")
    g = generate(seed, args.depth)
    written = {}
    if args.svg:
        _write(args.svg, render_svg(g))
        written["svg"] = args.svg
    if args.json_path:
        _write(args.json_path, json.dumps(gasket_to_dict(g), indent=2) + "\n")
        written["json"] = args.json_path
    if written:
        # counted on a column: reading g.circles would build every Circle
        result = {"circles": len(g._depths), "max_depth": g.max_depth, **written}
    else:
        result = gasket_to_dict(g)
    return result, 0


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=[EXACT, FLOAT],
        default=EXACT,
        help="scalar mode (default exact; decimals like 0.5 parse as exact 1/2)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soddy",
        description="Distance geometry of tangent circles and spheres.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cm-det", help="bordered determinant of a squared-distance matrix")
    p.add_argument("--matrix", help="JSON matrix of squared distances (default: stdin)")
    _add_mode(p)
    p.set_defaults(handler=_cmd_cm_det)

    p = sub.add_parser("volume", help="squared simplex content of a squared-distance matrix")
    p.add_argument("--matrix", help="JSON matrix of squared distances (default: stdin)")
    _add_mode(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("residual", help="tangency residual (sum k)^2 - n sum k^2")
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--curvatures", required=True, help="n+2 comma-separated curvatures")
    _add_mode(p)
    p.set_defaults(handler=_cmd_residual)

    p = sub.add_parser("solve", help="complete n+1 curvatures to a tangent configuration")
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--curvatures", required=True, help="n+1 comma-separated curvatures")
    _add_mode(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "identity-check",
        help="both sides of det(D) = (-1)^n 2^(2n+1) (prod r)^2 residual, exactly",
    )
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--radii", required=True, help="n+2 comma-separated signed radii")
    p.set_defaults(handler=_cmd_identity_check)

    p = sub.add_parser("verify-proof", help="exact audit of the matrix-identity chain")
    p.add_argument("--radii", help="signed radii of one configuration (n inferred)")
    p.add_argument("--random", type=int, metavar="N", help="audit N random rational configurations")
    p.add_argument("--dim", type=int, default=2, help="sphere dimension for --random (default 2)")
    p.add_argument("--rng-seed", type=int, default=0, help="seed for --random sampling")
    p.set_defaults(handler=_cmd_verify_proof)

    p = sub.add_parser("embed", help="realize tangent-sphere centers as coordinates")
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--radii", required=True, help="n+2 comma-separated signed radii")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("gasket", help="generate an Apollonian gasket")
    p.add_argument("--seed", required=True, help="three comma-separated curvatures")
    p.add_argument("--depth", type=int, default=3, help=f"expansion depth (2*3^d + 2 circles, at most {_MAX_GASKET_CIRCLES})")
    p.add_argument("--svg", help="write SVG to this path")
    p.add_argument("--json", dest="json_path", help="write geometry JSON to this path")
    p.set_defaults(handler=_cmd_gasket)

    return parser


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess(list(argv)))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; --help exits 0
        return 0 if not exc.code else 1
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:  # a handler may return stderr lines after its result and exit code
        result, code, *notes = args.handler(args)
    except SoddyError as exc:
        _emit({"ok": False, "error": {"kind": exc.kind, "message": str(exc)}})
        code, notes = exc.exit_code, [f"error: {exc}"]
    else:
        _emit({"ok": True, "result": result})
    sys.stdout.flush()
    try:
        for line in notes:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except BrokenPipeError:
        # stderr was closed early: the envelope is out, so keep its exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early: point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
