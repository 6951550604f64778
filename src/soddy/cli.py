"""Command-line surface: JSON in/out, SVG export, stable error kinds.

Every response is a single JSON envelope on stdout: ``{"ok": true,
"result": ...}`` or ``{"ok": false, "error": {"kind": ..., "message": ...}}``.
Rationals serialize as ``{"num": "...", "den": "..."}`` strings so exact
values are never silently converted to float.  Diagnostics go to stderr,
SVG to a file path.  Exit codes: 0 success, 1 validation/usage error,
2 computational failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .cayley_menger import (
    SquaredDistanceMatrix,
    cm_determinant,
    volume_squared,
)
from .embedding import realize_points
from .errors import SoddyError, ValidationError
from .gasket import gasket_to_dict, generate, render_svg
from .numeric import EXACT, FLOAT, coerce_vector
from .proof_witness import ProofReport, check_reduction_chain, check_S_properties, check_UWU_congruence
from .serialize import parse_rational, scalar_to_json
from .tangency import (
    curvatures_from_radii,
    descartes_residual,
    solve_missing_curvature,
    tangency_squared_distances,
    validate_curvatures,
    validate_radii,
)

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
    return coerce_vector([parse_rational(p) for p in parts], mode)


def _parse_matrix(args) -> SquaredDistanceMatrix:
    text = args.matrix if args.matrix is not None else sys.stdin.read()
    try:
        # ValueError also covers integers beyond Python's digit limit
        raw = json.loads(text, parse_float=Fraction)
    except ValueError as exc:
        raise ValidationError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValidationError("matrix must be a JSON array of arrays")
    rows = [[parse_rational(v) if isinstance(v, str) else v for v in r] for r in raw]
    return SquaredDistanceMatrix.from_entries(rows, args.mode)


def _cmd_cm_det(args):
    d = _parse_matrix(args)
    return scalar_to_json(cm_determinant(d)), 0


def _cmd_volume(args):
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
    r = validate_radii(_parse_scalars(args.radii, EXACT), args.n, strict=False)
    lhs = cm_determinant(tangency_squared_distances(r))
    res = descartes_residual(curvatures_from_radii(r))
    rhs = (-1) ** args.n * 2 ** (2 * args.n + 1) * r.product() ** 2 * res
    equal = lhs == rhs
    result = {
        "lhs": scalar_to_json(lhs),
        "rhs": scalar_to_json(rhs),
        "residual": scalar_to_json(res),
        "equal": equal,
    }
    return result, 0 if equal else 2


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


def _cmd_verify_proof(args):
    if args.radii is None and args.random is None:
        raise ValidationError("pass --radii or --random N")
    reports = []
    if args.radii is not None:
        values = _parse_scalars(args.radii, EXACT)
        n = len(values) - 2
        r = validate_radii(values, n, strict=False)
        reports.append(check_S_properties(n))
        reports.append(check_reduction_chain(r))
    if args.random is not None:
        n = args.dim
        rng = random.Random(args.rng_seed)
        reports.append(check_S_properties(n))
        for _ in range(args.random):
            r = validate_radii(_random_radii(rng, n), n, strict=False)
            reports.append(check_reduction_chain(r))
            reports.append(check_UWU_congruence(_random_points(rng, n + 2)))
    report = ProofReport.combine(reports)
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.to_dict(), 0 if report.passed else 2


def _cmd_embed(args):
    r = validate_radii(_parse_scalars(args.radii, FLOAT), args.n)
    pts = realize_points(tangency_squared_distances(r), args.n)
    centers = [[float(v) for v in row] for row in pts.coords]
    return {"dim": args.n, "centers": centers}, 0


def _cmd_gasket(args):
    seed = _parse_scalars(args.seed, FLOAT)
    g = generate(seed, args.depth)
    written = {}
    if args.svg:
        Path(args.svg).write_text(render_svg(g), encoding="utf-8")
        written["svg"] = args.svg
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(gasket_to_dict(g), indent=2) + "\n", encoding="utf-8"
        )
        written["json"] = args.json_path
    if written:
        result = {"circles": len(g.circles), "max_depth": g.max_depth, **written}
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
    p.add_argument("--depth", type=int, default=3, help="expansion depth (max 12)")
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
    try:
        result, code = args.handler(args)
    except SoddyError as exc:
        _emit({"ok": False, "error": {"kind": exc.kind, "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    _emit({"ok": True, "result": result})
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
