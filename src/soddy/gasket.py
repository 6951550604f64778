"""Apollonian circle packings grown from a seed triple of curvatures.

Each circle carries its curvature k and w = k*z, with z its center as a
complex number.  By the complex Descartes theorem (Lagarias-Mallows-Wilks)
the other circle tangent to three members of a quadruple has
k' = 2*(k_a + k_b + k_c) - k and w' = 2*(w_a + w_b + w_c) - w, so expansion
takes no square root and integer seeds keep integer curvatures.  Every new
circle is checked to touch its three parents and every quadruple is audited
against the tangency residual.  The gasket is canonically ordered by (depth,
curvature, center): generation is a pure function of (seed, max_depth) and
the SVG output is byte-reproducible.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

from .errors import GeometryError, NoRealSolutionError, NonFiniteError, SeedError, ValidationError
from .numeric import as_float
from .tangency import Curvatures, solve_missing_curvature, vieta_partner

#: Hard output-size guard on the expansion depth.
MAX_DEPTH = 12

#: Checks compare as ``not err <= _AUDIT_TOL`` so that a NaN error fails them.
_AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class Circle:
    """One packed circle; ``parents`` are gasket indices of the tangent triple
    that spawned it (empty for the seed circles)."""

    center: tuple[float, float]
    radius: float
    curvature: float
    depth: int
    parents: tuple[int, ...]


@dataclass(frozen=True)
class Gasket:
    circles: tuple[Circle, ...]
    seed_curvatures: tuple[float, float, float]
    max_depth: int

    def curvatures(self) -> list[float]:
        return [c.curvature for c in self.circles]

    def enclosing(self) -> Circle | None:
        for c in self.circles:
            if c.radius < 0:
                return c
        return None


@dataclass(frozen=True)
class SvgOptions:
    width: int = 512
    stroke: str = "#1f2430"
    palette: tuple[str, ...] = (
        "#f4f1e8",
        "#bcd8e6",
        "#8fbcd4",
        "#679dc0",
        "#477ca6",
        "#2f5d87",
        "#1f4066",
    )


def _validate_seed(seed) -> tuple[float, float, float]:
    if len(seed) != 3:
        raise SeedError(f"seed needs exactly 3 curvatures, got {len(seed)}")
    try:
        ks = tuple(as_float(v) for v in seed)
    except ValidationError as exc:
        raise SeedError(str(exc)) from exc
    if any(k == 0.0 for k in ks):
        raise SeedError("zero curvature (a straight line) is not supported")
    if sum(1 for k in ks if k < 0) > 1:
        raise SeedError("at most one seed curvature may be negative")
    return ks


class _Builder:
    """Mutable working state during generation; frozen into a Gasket at the end."""

    def __init__(self, seed: tuple[float, float, float]):
        self.seed = seed
        self.ws: list[complex] = []
        self.centers: list[complex] = []
        self.radii: list[float] = []
        self.curvatures: list[float] = []
        self.depths: list[int] = []
        self.parents: list[tuple[int, ...]] = []

    def misfit(self, w: complex, curvature: float, touching: tuple[int, ...]) -> float:
        """Worst error of the squared distances from center w/k to the circles
        ``touching`` against their tangency values, relative to the largest."""
        center, radius = w / curvature, 1.0 / curvature
        want = [(radius + self.radii[i]) ** 2 for i in touching]
        got = [abs(center - self.centers[i]) ** 2 for i in touching]
        return max(abs(g - t) for g, t in zip(got, want)) / max(want)

    def add(
        self, w: complex, curvature: float, depth: int, parents: tuple[int, ...], touching=None
    ) -> int:
        """Append the circle (k, w), checked to touch ``touching`` (default: its parents)."""
        touching = parents if touching is None else touching
        if touching and not (err := self.misfit(w, curvature, touching)) <= _AUDIT_TOL:
            raise GeometryError(
                f"circle placement failed: curvature {curvature:.6g} at depth {depth} "
                f"misses circles {touching} by {err:.3e}"
            )
        self.ws.append(w)
        self.centers.append(w / curvature)
        self.radii.append(1.0 / curvature)
        self.curvatures.append(curvature)
        self.depths.append(depth)
        self.parents.append(parents)
        return len(self.ws) - 1

    def audit_residual(self, quad: tuple[int, int, int, int]) -> None:
        ks = [self.curvatures[i] for i in quad]
        s = sum(ks)
        res = s * s - 2.0 * sum(k * k for k in ks)
        scale = max(k * k for k in ks)
        if not abs(res) <= _AUDIT_TOL * scale:
            raise GeometryError(f"tangency residual {res:.3e} failed the audit")

    def freeze(self, max_depth: int) -> Gasket:
        order = sorted(
            range(len(self.centers)),
            key=lambda i: (
                self.depths[i],
                self.curvatures[i],
                self.centers[i].real,
                self.centers[i].imag,
            ),
        )
        remap = {old: new for new, old in enumerate(order)}
        circles = tuple(
            Circle(
                # + 0.0 keeps negative zeros out of the output
                center=(self.centers[i].real + 0.0, self.centers[i].imag + 0.0),
                radius=self.radii[i],
                curvature=self.curvatures[i],
                depth=self.depths[i],
                parents=tuple(sorted(remap[p] for p in self.parents[i])),
            )
            for i in order
        )
        return Gasket(circles=circles, seed_curvatures=self.seed, max_depth=max_depth)


def _build_initial(seed: tuple[float, float, float]) -> tuple[_Builder, tuple[int, int, int, int]]:
    ks = _validate_seed(seed)
    try:
        k3, k3_other = solve_missing_curvature(list(ks), 2)
    except NoRealSolutionError as exc:
        raise SeedError(
            f"seed curvatures admit no tangent circle: {exc}", exit_code=2
        ) from exc
    k0, k1, k2 = ks
    r0, r1, r2 = (1.0 / k for k in ks)
    d01, d02, d12 = abs(r0 + r1), abs(r0 + r2), abs(r1 + r2)
    if d01 == 0.0:
        raise GeometryError("circle placement failed: seed circles 0 and 1 are concentric")
    # Law of cosines for x.  By Heron the triangle of centers has area
    # sqrt(k0*k1 + k1*k2 + k2*k0) / |k0*k1*k2|, and k3 - k3_other is four
    # times that square root, so y is 0 exactly when the roots coincide.
    x2 = (d01 * d01 + d02 * d02 - d12 * d12) / (2.0 * d01)
    y2 = (k3 - k3_other) / abs(2.0 * k2) / abs(k0 + k1)
    if not (math.isfinite(x2) and math.isfinite(y2)):
        raise NonFiniteError("seed curvatures are too large or too small to place in floats")
    b = _Builder(ks)
    b.add(0j, k0, 0, ())
    b.add(complex(k1 * d01), k1, 0, (), touching=(0,))
    b.add(k2 * complex(x2, y2), k2, 0, (), touching=(0, 1))
    # Complex Descartes: w3 = sum(w) +- 2*sqrt(w0*w1 + w1*w2 + w2*w0).  One
    # root is the circle of curvature k3, the other the second Soddy circle;
    # for a double root both touch the seed and the larger y wins.
    w0, w1, w2 = b.ws
    root = 2.0 * cmath.sqrt(w0 * w1 + w1 * w2 + w2 * w0)
    w3 = min(
        (w0 + w1 + w2 + root, w0 + w1 + w2 - root),
        key=lambda w: (not b.misfit(w, k3, (0, 1, 2)) <= _AUDIT_TOL, -(w / k3).imag),
    )
    b.add(w3, k3, 0, (0, 1, 2))
    b.audit_residual((0, 1, 2, 3))
    return b, (0, 1, 2, 3)


def initial_configuration(seed) -> Gasket:
    """Place the three seed circles and the tangent circle they determine
    (the larger curvature root, i.e. the inner one)."""
    b, _ = _build_initial(tuple(seed))
    return b.freeze(0)


def generate(seed, max_depth: int) -> Gasket:
    """Breadth-first Apollonian expansion to the given depth.

    Each quadruple spawns the reflection partner of every member except the
    one it was itself created by, reflecting curvature and curvature-center
    alike.  The Apollonian tree has no repeats, so nothing is deduplicated;
    every new circle is checked against its three parents and every emitted
    quadruple is residual-audited.
    """
    if not 0 <= max_depth <= MAX_DEPTH:
        raise ValidationError(f"max_depth must be between 0 and {MAX_DEPTH}")
    b, quad0 = _build_initial(tuple(seed))
    queue: deque[tuple[tuple[int, int, int, int], int | None, int]] = deque()
    queue.append((quad0, None, 1))
    while queue:
        quad, skip, depth = queue.popleft()
        if depth > max_depth:
            continue
        kq = Curvatures(
            values=tuple(b.curvatures[i] for i in quad), n=2, mode="float"
        )
        w_sum = sum(b.ws[i] for i in quad)
        for pos in range(4):
            if pos == skip:
                continue
            triple = tuple(quad[t] for t in range(4) if t != pos)
            k_new = vieta_partner(kq, pos)
            if abs(k_new) < 1e-12 * max(abs(v) for v in kq.values):
                raise GeometryError("expansion produced a zero-curvature circle")
            w_pos = b.ws[quad[pos]]
            idx = b.add(2.0 * (w_sum - w_pos) - w_pos, k_new, depth, triple)
            b.audit_residual((*triple, idx))
            queue.append(((*triple, idx), 3, depth + 1))
    return b.freeze(max_depth)


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def render_svg(g: Gasket, options: SvgOptions = SvgOptions()) -> str:
    """Deterministic SVG 1.1 document: one circle element per packed circle,
    in canonical order, coordinates fixed at six decimals.  Negative-radius
    (enclosing) circles render as unfilled outlines."""
    if not g.circles:
        raise ValidationError("cannot render an empty gasket")
    xmin = min(c.center[0] - abs(c.radius) for c in g.circles)
    xmax = max(c.center[0] + abs(c.radius) for c in g.circles)
    ymin = min(c.center[1] - abs(c.radius) for c in g.circles)
    ymax = max(c.center[1] + abs(c.radius) for c in g.circles)
    pad = 0.02 * max(xmax - xmin, ymax - ymin)
    vx, vy = xmin - pad, ymin - pad
    vw, vh = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad
    height = max(1, round(options.width * vh / vw))
    stroke_width = vw / options.width
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.width}" height="{height}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
    ]
    for c in g.circles:
        fill = "none" if c.radius < 0 else options.palette[c.depth % len(options.palette)]
        lines.append(
            f'  <circle cx="{_fmt(c.center[0])}" cy="{_fmt(c.center[1])}" '
            f'r="{_fmt(abs(c.radius))}" fill="{fill}" stroke="{options.stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def gasket_to_dict(g: Gasket) -> dict:
    """JSON-ready geometry export."""
    return {
        "seed": list(g.seed_curvatures),
        "max_depth": g.max_depth,
        "circles": [
            {
                "center": [c.center[0], c.center[1]],
                "radius": c.radius,
                "curvature": c.curvature,
                "depth": c.depth,
                "parents": list(c.parents),
            }
            for c in g.circles
        ],
    }
