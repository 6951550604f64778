"""Apollonian circle packings grown from a seed triple of curvatures.

Each circle carries its curvature k and w = k*z, with z its center as a
complex number.  By the complex Descartes theorem (Lagarias-Mallows-Wilks)
the other circle tangent to three members of a quadruple has
k' = 2*(k_a + k_b + k_c) - k and w' = 2*(w_a + w_b + w_c) - w, so expansion
takes no square root and integer seeds keep integer curvatures.  One check
places every circle: a seed circle touches those before it, a new circle its
three parents.  Each spawning quadruple is tested once, by the one
vieta_partner call that returns its children's curvatures.
The gasket is canonically ordered by (depth, curvature, center): generation
is a pure function of (seed, max_depth) and the SVG output is
byte-reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, index, itemgetter, sub

from .errors import GeometryError, NoRealSolutionError, NonFiniteError, SeedError, ValidationError
from .numeric import FLOAT, REL_TOL, as_float
from .tangency import Curvatures, _validated, solve_missing_curvature, vieta_partner

#: Hard output-size guard on the expansion depth.
MAX_DEPTH = 12

#: The three members of a quadruple other than the one at position 0, 1, 2, 3.
_OTHERS = tuple(itemgetter(*(j for j in range(4) if j != pos)) for pos in range(4))

#: SVG width in pixels, circle outline color, and fill color by depth (cycled).
_SVG_WIDTH = 512
_SVG_STROKE = "#1f2430"
_SVG_PALETTE = ("#f4f1e8", "#bcd8e6", "#8fbcd4", "#679dc0", "#477ca6", "#2f5d87", "#1f4066")


@dataclass(frozen=True, init=False)
class Circle:
    """One packed circle; ``parents`` are gasket indices of the tangent triple
    that spawned it (empty for the seed circles)."""

    center: tuple[float, float]
    radius: float
    curvature: float
    depth: int
    parents: tuple[int, ...]

    def __init__(self, center, radius, curvature, depth, parents):
        # one write, where a frozen dataclass's own __init__ makes five object.__setattr__ calls
        self.__dict__.update(
            center=center, radius=radius, curvature=curvature, depth=depth, parents=parents
        )


@dataclass(frozen=True)
class Gasket:
    circles: tuple[Circle, ...]
    seed_curvatures: tuple[float, float, float]
    max_depth: int

    def enclosing(self) -> Circle | None:
        for c in self.circles:
            if c.radius < 0:
                return c
        return None


def _misfit(center, radius, centers, radii, i, j, k) -> float:
    """Worst error of the squared distances from ``center`` to circles i, j, k
    against their tangency values with ``radius``, relative to the largest."""
    # squares by *, not ** 2 (a libm pow call): a square past the float range is
    # then inf, and the check fails on an inf or NaN error instead of raising
    # OverflowError
    ti, tj, tk = radius + radii[i], radius + radii[j], radius + radii[k]
    di, dj, dk = abs(center - centers[i]), abs(center - centers[j]), abs(center - centers[k])
    ti, tj, tk = ti * ti, tj * tj, tk * tk
    ei, ej, ek = abs(di * di - ti), abs(dj * dj - tj), abs(dk * dk - tk)
    # max keeps only a leading NaN; a NaN in any slot must fail the check
    if math.isnan(ei + ej + ek):
        return math.nan
    return max(ei, ej, ek) / max(ti, tj, tk)


class _Builder:
    """Mutable working state during generation; frozen into a Gasket at the end."""

    def __init__(self, seed: tuple[float, float, float], exp: int):
        self.seed = seed  # as given; the circles below are in units of 2^-exp
        self.exp = exp
        self.ws: list[complex] = []
        self.centers: list[complex] = []
        self.radii: list[float] = []
        self.curvatures: list[float] = []
        self.depths: list[int] = []
        self.parents: list[tuple[int, ...]] = []

    def misfit(self, w: complex, curvature: float, touching: tuple[int, ...]) -> float:
        """:func:`_misfit` of the circle (k, w) against the circles ``touching``;
        one or two circles fill the three slots by repetition."""
        i, j, k = (touching * 3)[:3]
        return _misfit(w / curvature, 1.0 / curvature, self.centers, self.radii, i, j, k)

    def fail(
        self, curvature: float, depth: int, touching: tuple[int, ...], err: float
    ) -> GeometryError:
        """The error for a circle of ``curvature`` that misses ``touching`` by ``err``."""
        try:
            named = f"{math.ldexp(curvature, self.exp):.6g}"
        except OverflowError:  # past the float range: the scaled value and its scale
            named = f"{curvature:.6g}*2^{self.exp}"
        return GeometryError(
            f"circle placement failed: curvature {named} "
            f"at depth {depth} misses circles {touching} by {err:.3e}"
        )

    def add(
        self, w: complex, curvature: float, depth: int, parents: tuple[int, ...], touching=None
    ) -> int:
        """Append the seed circle (k, w), checked to touch ``touching`` (default:
        its parents); ``generate`` appends the grown circles itself."""
        touching = parents if touching is None else touching
        # not <=, so that a NaN error fails the check
        if touching and not (err := self.misfit(w, curvature, touching)) <= REL_TOL:
            raise self.fail(curvature, depth, touching, err)
        self.ws.append(w)
        self.centers.append(w / curvature)
        self.radii.append(1.0 / curvature)
        self.curvatures.append(curvature)
        self.depths.append(depth)
        self.parents.append(parents)
        return len(self.ws) - 1

    def freeze(self, max_depth: int) -> Gasket:
        centers, radii, ks, depths = self.centers, self.radii, self.curvatures, self.depths
        keys = [(k, z.real, z.imag) for k, z in zip(ks, centers)].__getitem__
        # Generation is breadth-first, so each depth is one contiguous run and
        # sorting the runs one by one on (k, x, y) gives the order of one global
        # sort on (depth, k, x, y); stable, so exact ties keep generation order.
        ends = [depths.index(d) for d in range(1, depths[-1] + 1)] + [len(depths)]
        order, start = [], 0
        for end in ends:
            order += sorted(range(start, end), key=keys)
            start = end
        del keys  # freed before the circles are built
        remap = [0] * len(order)
        for new, old in enumerate(order):
            remap[old] = new
        ldexp, exp, parents = math.ldexp, self.exp, self.parents
        # A circle has three parents or none; three are remapped and ordered by
        # compare-and-swap, cheaper than sorted().  + 0.0 keeps negative zeros
        # out of the output.
        circles = []
        append = circles.append
        try:
            for i in order:
                z, p = centers[i], parents[i]
                if p:
                    a, b, c = p
                    a, b, c = remap[a], remap[b], remap[c]
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                    p = (a, b, c)
                append(Circle(
                    (ldexp(z.real, -exp) + 0.0, ldexp(z.imag, -exp) + 0.0),
                    ldexp(radii[i], -exp), ldexp(ks[i], exp), depths[i], p,
                ))
        except OverflowError:
            raise NonFiniteError("gasket values pass the float range at this seed scale") from None
        return Gasket(circles=tuple(circles), seed_curvatures=self.seed, max_depth=max_depth)


def _build_initial(seed) -> tuple[_Builder, tuple[int, int, int, int]]:
    try:  # the seed as floats: three curvatures, nonzero, at most one negative
        seed, _ = _validated([as_float(v) for v in seed], 2, 3, True, "curvature", "seed curvatures")
    except ValidationError as exc:
        raise SeedError(str(exc)) from exc
    # Place the seed scaled by 2^-exp to bring max |k| into [1/2, 1): every
    # float step commutes exactly with that scale, and freeze undoes it.
    exp = math.frexp(max(abs(k) for k in seed))[1]
    ks = tuple(math.ldexp(k, -exp) for k in seed)
    if 0.0 in ks:
        raise NonFiniteError("seed curvatures span too wide a range to place in floats")
    try:
        k3, k3_other = solve_missing_curvature(list(ks), 2)
    except NoRealSolutionError as exc:
        raise SeedError(
            f"seed curvatures admit no tangent circle: {exc}", exit_code=2
        ) from exc
    k0, k1, k2 = ks
    r0, r1, r2 = (1.0 / k for k in ks)
    d01, d02, d12 = abs(r0 + r1), abs(r0 + r2), abs(r1 + r2)
    if d01 == 0.0 or k0 == -k1:  # d01 is NaN if both radii overflow
        raise GeometryError("circle placement failed: seed circles 0 and 1 are concentric")
    # Law of cosines for x.  By Heron the triangle of centers has area
    # sqrt(k0*k1 + k1*k2 + k2*k0) / |k0*k1*k2|, and k3 - k3_other is four
    # times that square root, so y is 0 exactly when the roots coincide.
    x2 = (d01 * d01 + d02 * d02 - d12 * d12) / (2.0 * d01)
    y2 = (k3 - k3_other) / abs(2.0 * k2) / abs(k0 + k1)
    if not (math.isfinite(x2) and math.isfinite(y2)):
        raise NonFiniteError("seed curvatures are too large or too small to place in floats")
    b = _Builder(seed, exp)
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
        key=lambda w: (not b.misfit(w, k3, (0, 1, 2)) <= REL_TOL, -(w / k3).imag),
    )
    b.add(w3, k3, 0, (0, 1, 2))
    return b, (0, 1, 2, 3)


def initial_configuration(seed) -> Gasket:
    """Place the three seed circles and the tangent circle they determine
    (the larger curvature root, i.e. the inner one)."""
    return generate(seed, 0)


def generate(seed, max_depth: int) -> Gasket:
    """Breadth-first Apollonian expansion to the given depth.

    Each quadruple spawns the reflection partner of every member except the
    one it was itself created by, reflecting curvature and curvature-center
    alike.  The Apollonian tree has no repeats, so nothing is deduplicated;
    every new circle is checked against its three parents, and each spawning
    quadruple is tested once, before any of its children, by the one
    :func:`vieta_partner` call that returns their curvatures.  A new circle's
    center and radius are computed once, checked by the one :func:`_misfit`
    the seed circles also pass through, and appended here, not by
    ``_Builder.add``.  ``max_depth`` is any integer (``operator.index``) but
    a bool, and is stored as an int.
    """
    try:
        if isinstance(max_depth, bool):
            raise TypeError
        max_depth = int(index(max_depth))
    except TypeError:
        raise ValidationError(
            f"max_depth must be an integer, not {type(max_depth).__name__}"
        ) from None
    if not 0 <= max_depth <= MAX_DEPTH:
        raise ValidationError(f"max_depth must be between 0 and {MAX_DEPTH}")
    b, quad0 = _build_initial(seed)
    ks, ws, centers, radii = b.curvatures, b.ws, b.centers, b.radii
    depths, parents = b.depths, b.parents
    # the root spawns across all four members, a child not back across its last (new) circle
    level, spawn = [quad0], 4
    for depth in range(1, max_depth + 1):
        children = []
        for quad in level:
            i0, i1, i2, i3 = quad
            k0, k1, k2, k3 = ks[i0], ks[i1], ks[i2], ks[i3]
            kq = Curvatures((k0, k1, k2, k3), 2, FLOAT)
            floor = 1e-12 * max(abs(k0), abs(k1), abs(k2), abs(k3))
            w_sum = ws[i0] + ws[i1] + ws[i2] + ws[i3]
            for k_new, i_pos, others in zip(vieta_partner(kq, slice(spawn)), quad, _OTHERS):
                triple = others(quad)
                if abs(k_new) < floor:
                    raise GeometryError(
                        f"expansion produced a zero-curvature circle at depth {depth} "
                        f"across circles {triple}"
                    )
                w_pos = ws[i_pos]
                w = 2.0 * (w_sum - w_pos) - w_pos
                center, radius = w / k_new, 1.0 / k_new
                # the seeds' check in _Builder.add, inline: not <=, so that a NaN error fails it
                if not (err := _misfit(center, radius, centers, radii, *triple)) <= REL_TOL:
                    raise b.fail(k_new, depth, triple, err)
                if depth < max_depth:  # leaf quadruples spawn nothing
                    children.append((*triple, len(ws)))
                ws.append(w)
                centers.append(center)
                radii.append(radius)
                ks.append(k_new)
                depths.append(depth)
                parents.append(triple)
        level, spawn = children, 3
    return b.freeze(max_depth)


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def render_svg(g: Gasket) -> str:
    """Deterministic SVG 1.1 document: one circle element per packed circle,
    in canonical order, drawn in units of the largest radius with coordinates
    fixed at six decimals, so the picture reads the same at every scale.
    Negative-radius (enclosing) circles render as unfilled outlines."""
    if not g.circles:
        raise ValidationError("cannot render an empty gasket")
    xs, ys, rs, fills, palette = [], [], [], [], _SVG_PALETTE
    for c in g.circles:
        x, y = c.center
        r = c.radius
        xs.append(x)
        ys.append(y)
        rs.append(abs(r))
        fills.append("none" if r < 0 else palette[c.depth % len(palette)])
    unit = max(rs)
    xmin = min(map(sub, xs, rs)) / unit
    xmax = max(map(add, xs, rs)) / unit
    ymin = min(map(sub, ys, rs)) / unit
    ymax = max(map(add, ys, rs)) / unit
    pad = 0.02 * max(xmax - xmin, ymax - ymin)
    vx, vy = xmin - pad, ymin - pad
    vw, vh = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad
    height = max(1, round(_SVG_WIDTH * vh / vw))
    tail = f'stroke="{_SVG_STROKE}" stroke-width="{_fmt(vw / _SVG_WIDTH)}"/>'
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{height}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
    ]
    row = f'  <circle cx="%.6f" cy="%.6f" r="%.6f" fill="%s" {tail}'
    lines.extend(
        row % (x / unit, y / unit, r / unit, fill) for x, y, r, fill in zip(xs, ys, rs, fills)
    )
    lines.append("</svg>")
    # a coordinate in (-5e-7, 0) prints as -0.000000 here; _fmt writes 0.000000
    return ("\n".join(lines) + "\n").replace('="-0.000000"', '="0.000000"')


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
