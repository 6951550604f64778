"""Apollonian circle packings grown from a seed triple of curvatures.

Each circle carries its curvature k and w = k*z, with z its center as a
complex number.  By the complex Descartes theorem (Lagarias-Mallows-Wilks)
the other circle tangent to three members of a quadruple has
k' = 2*(k_a + k_b + k_c) - k and w' = 2*(w_a + w_b + w_c) - w, so expansion
takes no square root and integer seeds keep integer curvatures.

Two paths grow the same tree.  A seed whose D = k0*k1 + k1*k2 + k2*k0 is a
rational square >= 0 at its binary values (every integer seed among them)
has rational seed circles, placed exactly; over one integer scale every
circle is integer lanes (K, X, Y), grown by that reflection on integers.
By the theorem each child touches its parents, so no circle is checked and
nothing needs a tolerance; each output float is one correctly rounded
division of lane integers, and each depth is ordered by the exact key
(K, X*sign K, Y*sign K).  Any other seed takes the float path: one check
places every circle (a seed circle touches those before it, a new circle
its three parents), and each spawning quadruple is tested once, by the one
vieta_partner call that returns its children's curvatures; its order
follows its floats.  Both paths share one freeze.  The gasket is
canonically ordered by (depth, curvature, center): generation is a pure
function of (seed, max_depth) and the SVG output is byte-reproducible.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import repeat
from operator import add, index, itemgetter, sub, truediv

from .errors import GeometryError, NoRealSolutionError, NonFiniteError, SeedError, ValidationError
from .numeric import FLOAT, REL_TOL, Frozen, as_float
from .tangency import Curvatures, _validated, solve_missing_curvature, vieta_partner

#: Hard output-size guard on the expansion depth.
MAX_DEPTH = 12

#: The three members of a quadruple other than the one at position 0, 1, 2, 3.
_OTHERS = tuple(itemgetter(*(j for j in range(4) if j != pos)) for pos in range(4))

#: The error text for output values past the float range.
_PAST_FLOAT_RANGE = "gasket values pass the float range at this seed scale"

#: SVG width in pixels, circle outline color, and fill color by depth (cycled).
_SVG_WIDTH = 512
_SVG_STROKE = "#1f2430"
_SVG_PALETTE = ("#f4f1e8", "#bcd8e6", "#8fbcd4", "#679dc0", "#477ca6", "#2f5d87", "#1f4066")


class Circle(Frozen):
    """One packed circle; ``parents`` are gasket indices of the tangent triple
    that spawned it (empty for the seed circles)."""

    __match_args__ = ("center", "radius", "curvature", "depth", "parents")

    center: tuple[float, float]
    radius: float
    curvature: float
    depth: int
    parents: tuple[int, ...]

    def __init__(self, center, radius, curvature, depth, parents):
        # one __dict__ write: the five object.__setattr__ calls that slots
        # would need build a circle slower
        self.__dict__.update(
            center=center, radius=radius, curvature=curvature, depth=depth, parents=parents
        )


class Gasket(Frozen):
    """The packing grown from ``seed_curvatures`` (floats, in the order
    given) to ``max_depth``: ``circles`` in canonical order, by depth, then
    curvature, then center."""

    __slots__ = __match_args__ = ("circles", "seed_curvatures", "max_depth")

    circles: tuple[Circle, ...]
    seed_curvatures: tuple[float, float, float]
    max_depth: int

    def __init__(
        self, circles: tuple[Circle, ...], seed_curvatures: tuple[float, float, float], max_depth: int
    ):
        object.__setattr__(self, "circles", circles)
        object.__setattr__(self, "seed_curvatures", seed_curvatures)
        object.__setattr__(self, "max_depth", max_depth)

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
    """The float path's working state; frozen into a Gasket at the end."""

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
        its parents); :func:`_float_gasket` appends the grown circles itself."""
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
        """The gasket of the circles added so far, scaled back by 2^exp."""
        ldexp, exp, centers = math.ldexp, self.exp, self.centers
        try:
            # + 0.0 keeps negative zeros out of the output
            scaled = [(ldexp(z.real, -exp) + 0.0, ldexp(z.imag, -exp) + 0.0) for z in centers]
            radii = [ldexp(r, -exp) for r in self.radii]
            curvatures = [ldexp(k, exp) for k in self.curvatures]
        except OverflowError:
            raise NonFiniteError(_PAST_FLOAT_RANGE) from None
        return _freeze(
            self.seed, max_depth, self.depths, self.parents,
            [(k, z.real, z.imag) for k, z in zip(self.curvatures, centers)].__getitem__,
            scaled, radii, curvatures,
        )


def _freeze(seed, max_depth, depths, parents, key, centers, radii, curvatures) -> Gasket:
    """The gasket of circles given in generation order, canonically ordered.

    ``key(i)`` orders circle i among those of its depth as (curvature, x, y)
    does; ``centers``, ``radii`` and ``curvatures`` are the output floats.
    """
    # Generation is breadth-first, so each depth is one contiguous run and
    # sorting the runs one by one on their keys gives the order of one global
    # sort on (depth, key); stable, so exact ties keep generation order.
    ends = [depths.index(d) for d in range(1, depths[-1] + 1)] + [len(depths)]
    order, start = [], 0
    for end in ends:
        order += sorted(range(start, end), key=key)
        start = end
    del key  # the keys are freed before the circles are built
    remap = [0] * len(order)
    for new, old in enumerate(order):
        remap[old] = new
    # A circle has three parents or none; three are remapped and ordered by
    # compare-and-swap, cheaper than sorted().
    circles = []
    append = circles.append
    for i in order:
        p = parents[i]
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
        append(Circle(centers[i], radii[i], curvatures[i], depths[i], p))
    return Gasket(circles=tuple(circles), seed_curvatures=seed, max_depth=max_depth)


def _seed(seed) -> tuple[float, float, float]:
    """The seed as floats: three curvatures, nonzero, at most one negative."""
    try:
        return _validated([as_float(v) for v in seed], 2, 3, True, "curvature", "seed curvatures")[0]
    except ValidationError as exc:
        raise SeedError(str(exc)) from exc


def _build_initial(seed) -> tuple[_Builder, tuple[int, int, int, int]]:
    """The float path's builder holding the four seed circles of a checked seed."""
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


def _float_gasket(seed, max_depth: int) -> Gasket:
    """The float path, for a seed whose D is no rational square >= 0: each
    spawning quadruple is tested once, before any of its children, by the
    one :func:`vieta_partner` call that returns their curvatures, and each
    new circle is checked against its three parents by :func:`_misfit`."""
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
                    raise _zero_curvature(depth, triple)
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


def _zero_curvature(depth: int, triple: tuple[int, ...]) -> GeometryError:
    return GeometryError(
        f"expansion produced a zero-curvature circle at depth {depth} across circles {triple}"
    )


def _exact_lanes(seed, max_depth: int):
    """The whole tree on integers, or None for a seed whose
    D = k0*k1 + k1*k2 + k2*k0 is no rational square >= 0.

    The seed's binary values are c * m_i, with integers m_i of gcd 1 and
    c = a/b in lowest terms.  In units where the seed curvatures are the
    m_i, the four seed circles have rational centers z_i (below); with u
    the lcm of their denominators they are the integer lanes K = u*a*m and
    X + iY = u*b*m*z.  So with L = u*b a circle's center is (X/K, Y/K), its
    radius L/K and its curvature K/L.  A child is 2*(sum of its quadruple)
    - 3*(the circle it reflects), lane by lane: tangent by the Descartes
    theorem, so no circle is checked.  Returns (K, X, Y, L, depths,
    parents), lists in generation order, the order the float path grows in.
    """
    ratios = [k.as_integer_ratio() for k in seed]
    den = max(d for _, d in ratios)  # powers of two, so this is their lcm
    ints = [n * (den // d) for n, d in ratios]
    g = math.gcd(*ints)
    m0, m1, m2 = (v // g for v in ints)
    disc = m0 * m1 + m1 * m2 + m2 * m0
    s = math.isqrt(max(disc, 0))
    if disc < 0 or s * s != disc:
        return None
    # The float path's frame: circle 0 at the origin, circle 1 on the +x
    # axis, circle 2 at y >= 0 and circle 3 (the larger root) on whichever
    # side touches circle 2, above if both do.  By Heron each triangle of
    # centers has area sqrt(D of its curvatures) / |product|, and the D of
    # m0, m1, m3 is (m0 + m1 + s)^2.  m0 + m1 != 0, as D = -m0^2 < 0 otherwise.
    m3 = m0 + m1 + m2 + 2 * s
    h = abs(m0 + m1)
    r0, r1, r2, r3 = (Fraction(1, m) for m in (m0, m1, m2, m3))
    d01 = abs(r0 + r1)
    x2, x3 = ((d01 * d01 + (r0 - r1) * (r0 + r1 + 2 * r)) / (2 * d01) for r in (r2, r3))
    y2, y3 = Fraction(2 * s, abs(m2) * h), Fraction(2 * abs(m0 + m1 + s), m3 * h)
    if (x3 - x2) ** 2 + (y3 - y2) ** 2 != (r3 + r2) ** 2:
        y3 = -y3
    ws = ((0, 0), (m1 * d01, 0), (m2 * x2, m2 * y2), (m3 * x3, m3 * y3))
    a, b = Fraction(g, den).as_integer_ratio()
    u = math.lcm(*(v.denominator for w in ws for v in w))
    ks = [u * a * m for m in (m0, m1, m2, m3)]
    xs = [int(x * u) * b for x, _ in ws]
    ys = [int(y * u) * b for _, y in ws]
    depths, parents = [0] * 4, [(), (), (), (0, 1, 2)]
    if max_depth:  # the root quadruple spawns across all four of its circles
        for lane in (ks, xs, ys):
            total = 2 * (lane[0] + lane[1] + lane[2] + lane[3])
            lane += [total - 3 * v for v in lane]
        parents += [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    start = 4
    for depth in range(1, max_depth + 1):
        end = len(ks)
        if 0 in ks[start:]:
            raise _zero_curvature(depth, parents[ks.index(0, start)])
        depths += [depth] * (end - start)
        if depth == max_depth:  # leaf quadruples spawn nothing
            break
        # circle n of this depth closes the quadruple (*parents[n], n), which
        # spawns across each of its parents, not back across n
        for n in range(start, end):
            i0, i1, i2 = parents[n]
            k0, k1, k2, k3 = ks[i0], ks[i1], ks[i2], ks[n]
            x0, x1, x2, x3 = xs[i0], xs[i1], xs[i2], xs[n]
            y0, y1, y2, y3 = ys[i0], ys[i1], ys[i2], ys[n]
            k, x, y = 2 * (k0 + k1 + k2 + k3), 2 * (x0 + x1 + x2 + x3), 2 * (y0 + y1 + y2 + y3)
            ks += (k - 3 * k0, k - 3 * k1, k - 3 * k2)
            xs += (x - 3 * x0, x - 3 * x1, x - 3 * x2)
            ys += (y - 3 * y0, y - 3 * y1, y - 3 * y2)
            parents += ((i1, i2, n), (i0, i2, n), (i0, i1, n))
        start = end
    return ks, xs, ys, u * b, depths, parents


def initial_configuration(seed) -> Gasket:
    """Place the three seed circles and the tangent circle they determine
    (the larger curvature root, i.e. the inner one)."""
    return generate(seed, 0)


def generate(seed, max_depth: int) -> Gasket:
    """Breadth-first Apollonian expansion to the given depth.

    Each quadruple spawns the reflection partner of every member except the
    one it was itself created by, reflecting curvature and curvature-center
    alike.  The Apollonian tree has no repeats, so nothing is deduplicated.
    A seed whose D = k0*k1 + k1*k2 + k2*k0 is a rational square >= 0 at its
    binary values grows on integers (:func:`_exact_lanes`) and is ordered by
    its exact keys; each output float is one correctly rounded integer
    division.  Any other seed takes the float path (:func:`_float_gasket`).
    ``max_depth`` is any integer (``operator.index``) but a bool, and is
    stored as an int.
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
    seed = _seed(seed)
    lanes = _exact_lanes(seed, max_depth)
    if lanes is None:
        return _float_gasket(seed, max_depth)
    ks, xs, ys, scale, depths, parents = lanes
    # (K, X*sign K, Y*sign K) orders the circles of one curvature by x, then
    # y; divided by |K| they are x and y, with no negative zero
    size = list(map(abs, ks))
    for i in [i for i, k in enumerate(ks) if k < 0]:
        xs[i], ys[i] = -xs[i], -ys[i]
    try:
        centers = list(zip(map(truediv, xs, size), map(truediv, ys, size)))
        radii = list(map(truediv, repeat(scale), ks))
        curvatures = list(map(truediv, ks, repeat(scale)))
    except OverflowError:
        raise NonFiniteError(_PAST_FLOAT_RANGE) from None
    return _freeze(
        seed, max_depth, depths, parents, list(zip(ks, xs, ys)).__getitem__, centers, radii, curvatures
    )


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
