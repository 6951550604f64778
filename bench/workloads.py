"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop run by one caller: the next op starts only
after the previous one returned.  Inputs come from ``random.Random(seed)``
alone, so one seed always yields the same inputs; the program under test
sees only those inputs.  Input pools are balanced (each ordering, n, size
or subcommand appears equally often, in a seeded random order) so that the
work per run barely depends on the seed.  ``pass_s`` is a workload's
nominal time for one pass over its pool, in reference seconds (see
``worker.py``); it fixes how many passes a run of given length makes.

This module imports no ``soddy`` code at import time: input generation must
not pay for, or hide, the library's import.  ``load`` binds the ``soddy``
modules, and ops call functions through those module objects so that the
tracer's wrappers (see ``spans.py``) see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Integer root triples of Apollonian packings and the fourth curvature each
#: determines (the larger Descartes root).
ROOT_QUADRUPLES = ((-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 12), (-4, 8, 9, 17), (-6, 10, 15, 19))
GASKET_DEPTH = 6
GASKET_TOL = 1e-9  # tangency gap relative to the enclosing radius; seed code is near 1e-14
GOLDEN_SVG = ROOT / "tests" / "golden" / "gasket_m1_2_2_depth5.svg"
AUDIT_NS = range(1, 7)
CM_SIZES = range(10, 25)
COORD_LCM = 2520  # lcm(1..10): common denominator of every generated coordinate
PRIME = (1 << 61) - 1


class WrongOutput(Exception):
    """The program returned a result that fails the workload's check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def _nonzero_rational(rng) -> Fraction:
    """Nonzero num/den with |num| <= 10 and den <= 10, as ``verify-proof --random`` draws."""
    return Fraction(rng.choice([i for i in range(-10, 11) if i]), rng.randint(1, 10))


def _random_radii(rng, n: int) -> list[Fraction]:
    values = [abs(_nonzero_rational(rng)) for _ in range(n + 2)]
    if rng.random() < 0.5:
        i = rng.randrange(n + 2)
        values[i] = -values[i]
    return values


def _random_points(rng, m: int) -> list[list[Fraction]]:
    """m points of dimension m-1."""
    return [[_nonzero_rational(rng) for _ in range(m - 1)] for _ in range(m)]


def _squared_distances(points) -> list[list[Fraction]]:
    """Exact squared distances, computed on integers scaled by COORD_LCM."""
    scaled = [[int(c * COORD_LCM) for c in p] for p in points]
    m = len(points)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = sum((a - b) ** 2 for a, b in zip(scaled[i], scaled[j]))
            rows[i][j] = rows[j][i] = Fraction(s, COORD_LCM * COORD_LCM)
    return rows


def _balanced(rng, choices, rounds: int) -> list:
    """``rounds`` shuffled copies of ``choices``: uniform marginally, balanced per round."""
    out = []
    for _ in range(rounds):
        block = list(choices)
        rng.shuffle(block)
        out.extend(block)
    return out


def bordered(rows) -> list[list[Fraction]]:
    """The Cayley-Menger matrix of a squared-distance matrix: zero corner, ones border."""
    return [[Fraction(0)] + [Fraction(1)] * len(rows)] + [[Fraction(1)] + list(r) for r in rows]


def det_matches(value: Fraction, rows) -> bool:
    """Whether ``value`` is det(rows), checked modulo a 61-bit prime.

    The oracle clears denominators and eliminates over GF(p); it shares no
    code with the library's exact kernel.
    """
    n = len(rows)
    scale = math.lcm(*(Fraction(x).denominator for r in rows for x in r))
    a = [[Fraction(x).numerator * (scale // Fraction(x).denominator) % PRIME for x in r] for r in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            det = 0
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % PRIME
        inv = pow(a[k][k], PRIME - 2, PRIME)
        rowk = a[k]
        for i in range(k + 1, n):
            f = a[i][k] * inv % PRIME
            if f:
                rowi = a[i]
                for j in range(k, n):
                    rowi[j] = (rowi[j] - f * rowk[j]) % PRIME
    scaled = Fraction(value) * scale**n
    return scaled.denominator == 1 and (scaled.numerator - det) % PRIME == 0


def volume_constant(m: int) -> Fraction:
    """(-1)^m / (2^(m-1) ((m-1)!)^2): the simplex content of m points is this times the CM determinant."""
    return Fraction((-1) ** m, 2 ** (m - 1) * math.factorial(m - 1) ** 2)


class Workload:
    name = ""
    pass_s: float  # nominal reference seconds of one pass over the pool

    def inputs(self, rng) -> list:
        """The run's input pool; every pass runs each input once."""
        raise NotImplementedError

    def warmup(self):
        """The input of the untimed warm-up op; the same for every seed."""
        return self.inputs(random.Random(0))[0]

    def load(self) -> None:
        """Import the program; called after input generation."""

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> int:
        """Raise WrongOutput on a wrong result, else return the op's work items
        (circles emitted, identities checked; 0 where none apply)."""
        raise NotImplementedError

    def output_bytes(self, out) -> int:
        """Bytes of rendered output the op produced."""
        return 0

    def final_check(self) -> None:
        """A one-off untimed check after the measured loop."""


class GasketWorkload(Workload):
    """generate(seed, 6), then render_svg and json.dumps(gasket_to_dict(...)).

    The pool is the whole grid of every ordering of every root triple (27)
    at every scale 10^-2, 10^-1, 1, 10, 100, in an order the workload seed
    picks, so every workload seed runs the same 135 gasket seeds and meets
    the same failures.  The
    mix is documented input: seeds the code cannot place surface as counted
    failures, not as hidden skips.  A failing seed fails in well under a
    millisecond, so the failures barely move the timings.
    """

    name = "gasket"
    pass_s = 9.0
    ORDERS = sorted({p for q in ROOT_QUADRUPLES for p in itertools.permutations(q[:3])})
    SCALES = (-2, -1, 0, 1, 2)  # decimal exponents

    def inputs(self, rng) -> list:
        pool = [(order, 10.0**e) for order in self.ORDERS for e in self.SCALES]
        rng.shuffle(pool)
        return pool

    def warmup(self):
        return (-1, 2, 2), 1.0

    def load(self) -> None:
        import soddy.gasket

        self.gasket = soddy.gasket

    def op(self, inp):
        order, scale = inp
        g = self.gasket.generate([k * scale for k in order], GASKET_DEPTH)
        svg = self.gasket.render_svg(g)
        text = json.dumps(self.gasket.gasket_to_dict(g))
        return g, svg, text

    def check(self, inp, out) -> int:
        g, svg, text = out
        circles = g.circles
        n = 2 * 3**GASKET_DEPTH + 2
        expect(len(circles) == n, f"{len(circles)} circles, expected {n}")
        enclosing = [c for c in circles if c.radius < 0]
        expect(len(enclosing) == 1, f"{len(enclosing)} enclosing circles")
        enc = enclosing[0]
        tol = GASKET_TOL * -enc.radius

        def gap(a, b) -> float:
            d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            return abs(d - abs(a.radius + b.radius))

        seeds = [c for c in circles if c.depth == 0]
        expect(len(seeds) == 4, f"{len(seeds)} depth-0 circles")
        for a, b in itertools.combinations(seeds, 2):
            expect(gap(a, b) <= tol, "seed circles are not mutually tangent")
        for c in circles:
            for p in c.parents:
                expect(gap(c, circles[p]) <= tol, f"circle not tangent to parent {p}")
            if c is not enc:
                d = math.hypot(c.center[0] - enc.center[0], c.center[1] - enc.center[1])
                expect(d + c.radius <= -enc.radius + tol, "circle outside the enclosing circle")
        expect(svg.count("<circle ") == n, "SVG circle count differs")
        expect(len(json.loads(text)["circles"]) == n, "JSON circle count differs")
        return n

    def output_bytes(self, out) -> int:
        return len(out[1]) + len(out[2])

    def final_check(self) -> None:
        g = self.gasket.generate([-1, 2, 2], 5)
        ours = sorted(line for line in self.gasket.render_svg(g).splitlines() if "<circle" in line)
        golden = sorted(line for line in GOLDEN_SVG.read_text().splitlines() if "<circle" in line)
        expect(ours == golden, "depth-5 (-1,2,2) SVG circles differ from the golden file")


class AuditWorkload(Workload):
    """One random rational configuration per op, n uniform in 1..6, as
    ``verify-proof --random`` draws them: the reduction chain, the U^T W U
    congruence on n+2 points, and the factored identity, serialized."""

    name = "audit"
    pass_s = 2.0
    IDENTITIES = 8  # 5 reduction-chain steps, 2 congruence checks, 1 factored identity

    def inputs(self, rng) -> list:
        return [(n, _random_radii(rng, n), _random_points(rng, n + 2)) for n in _balanced(rng, AUDIT_NS, 30)]

    def load(self) -> None:
        import soddy.cayley_menger
        import soddy.proof_witness
        import soddy.tangency

        self.cm, self.pw, self.tangency = soddy.cayley_menger, soddy.proof_witness, soddy.tangency

    def op(self, inp):
        n, radii, points = inp
        pw, tg = self.pw, self.tangency
        r = tg.validate_radii(radii, n, strict=False)
        chain = pw.check_reduction_chain(r)
        uwu = pw.check_UWU_congruence(points)
        lhs = self.cm.cm_determinant(tg.tangency_squared_distances(r))
        residual = tg.descartes_residual(tg.curvatures_from_radii(r))
        rhs = Fraction((-1) ** n * 2 ** (2 * n + 1)) * r.product() ** 2 * residual
        identity = pw.IdentityCheck("det(D) equals factored residual", n, lhs == rhs, lhs, rhs)
        report = pw.ProofReport.combine([chain, uwu, pw.ProofReport(entries=(identity,))])
        return report, json.dumps(report.to_dict())

    def check(self, inp, out) -> int:
        report, text = out
        failed = [e.name for e in report.entries if not e.passed]
        expect(not failed, f"identities failed: {failed}")
        expect(len(report.entries) == self.IDENTITIES, f"{len(report.entries)} identities")
        doc = json.loads(text)
        expect(doc["passed"] is True and len(doc["identities"]) == self.IDENTITIES, "serialized report differs")
        return self.IDENTITIES


class CmDetWorkload(Workload):
    """cm_determinant, volume_squared and exact is_degenerate on an m x m
    squared-distance matrix, m uniform in 10..24; half are realizable from
    rational points in R^(m-1), half generic symmetric with entries of the
    same size."""

    name = "cm-det"
    pass_s = 1.7

    def inputs(self, rng) -> list:
        pool = []
        for m, realizable in _balanced(rng, itertools.product(CM_SIZES, (True, False)), 1):
            if realizable:
                points = _random_points(rng, m)
                pool.append((_squared_distances(points), points))
            else:
                den = COORD_LCM * COORD_LCM
                rows = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i + 1, m):
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 400 * (m - 1) * den), den)
                pool.append((rows, None))
        return pool

    def load(self) -> None:
        import soddy.cayley_menger

        self.cm = soddy.cayley_menger

    def op(self, inp):
        rows, _ = inp
        cm = self.cm
        d = cm.SquaredDistanceMatrix.from_entries(rows)
        return cm.cm_determinant(d), cm.volume_squared(d), cm.is_degenerate(d)

    def check(self, inp, out) -> int:
        rows, points = inp
        det, vol, degenerate = out
        m = len(rows)
        expect(det_matches(det, bordered(rows)), f"m={m}: determinant differs from the modular oracle")
        expect(vol.dim == m - 1 and vol.value == volume_constant(m) * det, f"m={m}: volume differs")
        expect(degenerate == (det == 0), f"m={m}: is_degenerate differs")
        if points is not None:
            oracle = self.cm.volume_squared_from_coordinates(points)
            expect(vol.value == oracle.value, f"m={m}: volume differs from coordinates")
        return 0


class CliWorkload(Workload):
    """One ``python -m soddy <subcommand>`` subprocess per op, cycling through
    eight subcommands with small inputs."""

    name = "cli"
    pass_s = 1.7

    def inputs(self, rng) -> list:
        pool = []
        for _ in range(2):
            quad = list(rng.choice(ROOT_QUADRUPLES))
            rng.shuffle(quad)
            scale = rng.randint(1, 9)
            ks = [k * scale for k in quad]
            pts = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
            rows = _squared_distances(pts)
            matrix = json.dumps([[str(v) for v in r] for r in rows])
            n = rng.randint(1, 3)
            radii = ",".join(str(v) for v in _random_radii(rng, n))
            embed_radii = ",".join(str(Fraction(1, k)) for k in ks)
            pool += [
                (("residual", "--n", "2", "--curvatures", ",".join(map(str, ks))), None),
                (("solve", "--n", "2", "--curvatures", ",".join(map(str, ks[:3]))), ks[3]),
                (("cm-det", "--matrix", matrix), rows),
                (("volume", "--matrix", matrix), rows),
                (("identity-check", "--n", str(n), "--radii", radii), None),
                (("embed", "--n", "2", "--radii", embed_radii), [Fraction(1, k) for k in ks]),
                (("verify-proof", "--random", "2", "--rng-seed", str(rng.randrange(1 << 30))), None),
                (("gasket", "--seed", "-1,2,2", "--depth", "3"), None),
            ]
        return pool

    #: How an op starts the CLI; the traced run swaps in the tracing shim.
    prefix = (sys.executable, "-m", "soddy")

    def op(self, inp):
        args, _ = inp
        proc = subprocess.run([*self.prefix, *args], capture_output=True, text=True, cwd=ROOT, timeout=60)
        return proc.returncode, proc.stdout

    def check(self, inp, out) -> int:
        args, expected = inp
        code, stdout = out
        sub = args[0]
        expect(code == 0, f"{sub}: exit code {code}")
        lines = stdout.splitlines()
        expect(len(lines) == 1, f"{sub}: {len(lines)} stdout lines, expected one envelope")
        envelope = json.loads(lines[0])
        expect(envelope.get("ok") is True and "result" in envelope, f"{sub}: not an ok envelope")
        result = envelope["result"]

        def rational(v) -> Fraction:
            return Fraction(int(v["num"]), int(v["den"]))

        if sub == "residual":
            expect(rational(result) == 0, "residual of a Descartes quadruple is not zero")
        elif sub == "solve":
            expect(Fraction(expected) in [rational(v) for v in result["roots"]], "solve misses the known root")
        elif sub == "cm-det":
            expect(det_matches(rational(result), bordered(expected)), "cm-det differs from the modular oracle")
        elif sub == "volume":
            m = len(expected)
            det = rational(result["value"]) / volume_constant(m)
            expect(result["dim"] == m - 1 and det_matches(det, bordered(expected)), "volume differs")
        elif sub in ("identity-check", "verify-proof"):
            expect(result.get("equal", result.get("passed")) is True, f"{sub} reports a failed identity")
        elif sub == "embed":
            centers, radii = result["centers"], expected
            expect(len(centers) == len(radii), "embed returned the wrong number of centers")
            big = max(abs(float(r)) for r in radii)
            for i, j in itertools.combinations(range(len(radii)), 2):
                d = math.dist(centers[i], centers[j])
                expect(abs(d - abs(float(radii[i] + radii[j]))) <= 1e-6 * big, "embedded centers are not tangent")
        elif sub == "gasket":
            expect(len(result["circles"]) == 2 * 3**3 + 2, "gasket --depth 3 circle count differs")
        return 0


WORKLOADS = {w.name: w for w in (GasketWorkload, AuditWorkload, CmDetWorkload, CliWorkload)}
