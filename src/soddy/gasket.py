"""Apollonian circle packings grown from a seed triple of curvatures.

Each circle carries its curvature k and w = k*z, with z its center as a
complex number.  By the complex Descartes theorem (Lagarias-Mallows-Wilks)
the other circle tangent to three members of a quadruple has
k' = 2*(k_a + k_b + k_c) - k and w' = 2*(w_a + w_b + w_c) - w, so expansion
takes no square root and integer seeds keep integer curvatures.

One function places the four seed circles of every seed exactly: with
D = k0*k1 + k1*k2 + k2*k0 at the seed's binary values, each k and w is
a + b*sqrt(D) for rationals a, b.  Two paths grow the tree from them.  A
seed whose D is a rational square >= 0 (every integer seed among them)
grows on integer lanes (K, X, Y): by the theorem each child touches its
parents, so nothing is checked or needs a tolerance; each output float is
one correctly rounded division, and each depth is ordered by the exact
key (K, X*sign K, Y*sign K).  Any other seed grows in floats from its seed
circles rounded once: each spawning quadruple is tested once, by the one
vieta_partner call that returns its children's curvatures, each new
circle is checked against its parents, and its order follows its floats.
Both paths share one freeze, which orders the gasket by (depth, curvature,
center): generation is a pure function of (seed, max_depth) and the SVG
output is byte-reproducible.  A gasket keeps its circles as columns, which
the SVG and JSON writers read; its ``Circle`` objects are built only when
``Gasket.circles`` is first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, index, itemgetter, sub, truediv

from .errors import GeometryError, NonFiniteError, SeedError, ValidationError
from .numeric import FLOAT, REL_TOL, Frozen, as_float
from .tangency import Curvatures, _double_root, _validated, vieta_partner

#: Hard output-size guard on the expansion depth.
MAX_DEPTH = 12

#: The three members of a quadruple other than the one at position 0, 1, 2, 3.
_OTHERS = tuple(itemgetter(*(j for j in range(4) if j != pos)) for pos in range(4))

#: The error text for output values past the float range.
_PAST_FLOAT_RANGE = "gasket values pass the float range at this seed scale"

#: The least magnitude that rounds past the largest float.
_FLOAT_LIMIT = 2**1024 - 2**970

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
    curvature, then center.

    The circles are stored as columns (x, y, radius, curvature, depth and
    parents, one list each), which :func:`render_svg` and
    :func:`gasket_to_dict` read; ``circles`` is a view of them, built on
    first read and then kept.  A gasket built from a tuple of circles keeps
    that tuple as its view and takes its columns from it."""

    __match_args__ = ("circles", "seed_curvatures", "max_depth")
    __slots__ = (
        "_circles", "_xs", "_ys", "_radii", "_curvatures", "_depths", "_parents", "seed_curvatures", "max_depth"
    )

    circles: tuple[Circle, ...]
    seed_curvatures: tuple[float, float, float]
    max_depth: int

    def __init__(
        self, circles: tuple[Circle, ...], seed_curvatures: tuple[float, float, float], max_depth: int
    ):
        rows = [(c.center[0], c.center[1], c.radius, c.curvature, c.depth, c.parents) for c in circles]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(6)]
        self._set(circles, *columns, seed_curvatures, max_depth)

    def _set(self, circles, xs, ys, radii, curvatures, depths, parents, seed_curvatures, max_depth) -> Gasket:
        """Set every slot once; ``circles`` None leaves the view to build."""
        for name, value in zip(
            self.__slots__, (circles, xs, ys, radii, curvatures, depths, parents, seed_curvatures, max_depth)
        ):
            object.__setattr__(self, name, value)
        return self

    @property
    def circles(self) -> tuple[Circle, ...]:
        if self._circles is None:
            centers = zip(self._xs, self._ys)
            circles = map(Circle, centers, self._radii, self._curvatures, self._depths, self._parents)
            object.__setattr__(self, "_circles", tuple(circles))
        return self._circles

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


def _freeze(seed, max_depth, depths, parents, key, xs, ys, radii, curvatures) -> Gasket:
    """The gasket of circles given in generation order, canonically ordered.

    ``key(i)`` orders circle i among those of its depth as (curvature, x, y)
    does; ``xs``, ``ys``, ``radii`` and ``curvatures`` are the output floats.
    """
    # Generation is breadth-first, so each depth is one contiguous run and
    # sorting the runs one by one on their keys gives the order of one global
    # sort on (depth, key); stable, so exact ties keep generation order.  Each
    # run keeps its place, so the depths need no reordering.
    ends = [depths.index(d) for d in range(1, depths[-1] + 1)] + [len(depths)]
    order, start = [], 0
    for end in ends:
        order += sorted(range(start, end), key=key)
        start = end
    del key  # the keys are freed before the columns are reordered
    remap = [0] * len(order)
    for new, old in enumerate(order):
        remap[old] = new
    # A circle has three parents or none; three are remapped and ordered by
    # compare-and-swap, cheaper than sorted().
    ordered = []
    append = ordered.append
    for p in map(parents.__getitem__, order):
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
        append(p)
    columns = [list(map(column.__getitem__, order)) for column in (xs, ys, radii, curvatures)]
    return object.__new__(Gasket)._set(None, *columns, depths, ordered, seed, max_depth)


def _seed(seed) -> tuple[float, float, float]:
    """The seed as floats: three curvatures, nonzero, at most one negative."""
    try:
        return _validated([as_float(v) for v in seed], 2, 3, True, "curvature", "seed curvatures")[0]
    except ValidationError as exc:
        raise SeedError(str(exc)) from exc


def _rounded(a, b, d: int) -> float:
    """a + b*sqrt(d) for rationals a, b and an integer d >= 0, rounded once,
    or NonFiniteError past the float range.  Ziv's loop: |b|*sqrt(d) is in
    [q, q + 1] / 2^p, and p doubles until both ends round alike, as they do
    once p is large, an irrational never being a rounding midpoint.  A
    rational is its own bracket."""
    r, p = math.isqrt(d), 64
    while True:
        if not b or r * r == d:
            ends = [a + b * r]
        else:
            q = math.isqrt(int(b * b * d * 4**p))
            ends = [a + Fraction(v if b > 0 else -v, 2**p) for v in (q, q + 1)]
        rounded = {float(end) if abs(end) < _FLOAT_LIMIT else math.inf for end in ends}
        if rounded == {math.inf}:
            raise NonFiniteError(_PAST_FLOAT_RANGE)
        if len(rounded) == 1:
            return rounded.pop()
        p *= 2


def _pair_defect(ci, cj, d: int) -> tuple:
    """dx^2 + dy^2 - (ki + kj)^2 for seed circles ci, cj given as (k, w_x, w_y),
    each value a pair (a, b) of a + b*sqrt(d), where (dx, dy) = wi*kj - wj*ki;
    that is (ki*kj)^2 * (|zi - zj|^2 - (ri + rj)^2), zero iff they touch."""
    ((k, l), *wi), ((m, n), *wj) = ci, cj  # ki = k + l*s, kj = m + n*s
    t0, t1 = k + m, l + n
    e0, e1 = -(t0 * t0 + t1 * t1 * d), -2 * t0 * t1
    for (a, b), (p, q) in zip(wi, wj):
        s0 = a * m + b * n * d - p * k - q * l * d
        s1 = a * n + b * m - p * l - q * k
        e0, e1 = e0 + s0 * s0 + s1 * s1 * d, e1 + 2 * s0 * s1
    return e0, e1


def _seed_lanes(seed) -> tuple:
    """The four seed circles, placed exactly: (square, c, d, circles).

    The seed's binary values are c * m_i, integers m_i of gcd 1.  In units
    where the seed curvatures are the m_i, with D = m0*m1 + m1*m2 + m2*m0
    and s = sqrt(D), ``circles`` holds each circle's (k, w_x, w_y) as pairs
    (a, b) of a + b*s: circle 0 at the origin, 1 on the +x axis, 2 at y >= 0
    and 3, of k3 = sum(m) + 2s, on the side that touches 2, above if s = 0.
    ``square`` says D is a rational square >= 0; then, and for a D the
    double-root rule takes as 0 (s = 0, checked by the float path), each
    value is rational and d = 0, else d = D."""
    ratios = [k.as_integer_ratio() for k in seed]
    den = max(q for _, q in ratios)  # powers of two, so this is their lcm
    ints = [n * (den // q) for n, q in ratios]
    g = math.gcd(*ints)
    m0, m1, m2 = (v // g for v in ints)
    disc = m0 * m1 + m1 * m2 + m2 * m0
    root = math.isqrt(max(disc, 0))
    square = root * root == disc
    if not square:
        if _double_root(4 * disc, m0 + m1 + m2, 2):
            root = 0
        elif disc > 0:
            root = None
        else:
            four_d = 4 * disc * Fraction(g, den) ** 2  # in the seed's units, rounded once below
            named = float(four_d) if -four_d < _FLOAT_LIMIT else -math.inf
            message = f"seed curvatures admit no tangent circle: negative discriminant {named!r}"
            raise SeedError(message, exit_code=2)
    h = m0 + m1
    if 0 in (h, m0 + m2, m1 + m2):  # then D = -m_i^2 < 0: only a snapped D gets here
        raise GeometryError("circle placement failed: two seed circles are concentric")

    # sigma = sign(r0 + r1): circle 1 is at x = |r0 + r1|, and by the law of
    # cosines circle i >= 2 at x = x0 + x1/k_i; by Heron a triangle of centers
    # has area sqrt(D of its curvatures) / |product|; D(m0, m1, k3) = (h + s)^2
    sigma = 1 if h * m0 * m1 > 0 else -1
    x0, x1 = Fraction(sigma, m0), Fraction(sigma * (m1 - m0), h)
    total = m0 + m1 + m2
    circles = [
        ((m0, 0), (0, 0), (0, 0)),
        ((m1, 0), (h * x0, 0), (0, 0)),
        ((m2, 0), (m2 * x0 + x1, 0), (0, Fraction(2 if m2 > 0 else -2, abs(h)))),
        ((total, 2), (total * x0 + x1, 2 * x0), (Fraction(2 * h, abs(h)), Fraction(2, abs(h)))),
    ]
    if root is not None:  # s is rational
        circles = [tuple((a + b * root, 0) for a, b in circle) for circle in circles]
    d = 0 if root is not None else disc
    if root != 0 and any(_pair_defect(circles[2], circles[3], d)):
        circles[3] = (*circles[3][:2], tuple(-v for v in circles[3][2]))
    return square, Fraction(g, den), d, circles


def _missed(curvature: float, exp: int, depth: int, touching: tuple, err: float) -> GeometryError:
    """The error for a circle of ``curvature`` (units of 2^-exp) missing ``touching`` by ``err``."""
    try:
        named = f"{math.ldexp(curvature, exp):.6g}"
    except OverflowError:  # past the float range: the scaled value and its scale
        named = f"{curvature:.6g}*2^{exp}"
    return GeometryError(
        f"circle placement failed: curvature {named} "
        f"at depth {depth} misses circles {touching} by {err:.3e}"
    )


def _float_gasket(seed, placed, max_depth: int) -> Gasket:
    """The checked float growth from the seed circles, each k and w rounded
    once; a snapped seed's pairs must touch within ``REL_TOL``.  Each
    spawning quadruple is tested once, before its children, by the one
    :func:`vieta_partner` call that returns their curvatures, and each new
    circle against its three parents by :func:`_misfit`."""
    _, c, d, seed_circles = placed
    # Work in units of 2^-exp, which bring max |k| into [1/2, 1): every float
    # step commutes exactly with that scale, and the output undoes it.
    exp = math.frexp(max(map(abs, seed)))[1]
    unit = c / Fraction(2) ** exp
    ks = [_rounded(unit * k, unit * b, d) for (k, b), _, _ in seed_circles]
    if 0.0 in ks:
        raise NonFiniteError("seed curvatures span too wide a range to place in floats")
    if not d:  # snapped: the circles of a double root, only near tangent
        for j, cj in enumerate(seed_circles[1:], 1):
            err = max(
                abs(_pair_defect(ci, cj, 0)[0]) / (ci[0][0] + cj[0][0]) ** 2 for ci in seed_circles[:j]
            )
            if not err <= REL_TOL:
                raise _missed(ks[j], exp, 0, tuple(range(j)), float(err))
    ws = [complex(_rounded(*x, d), _rounded(*y, d)) for _, x, y in seed_circles]
    centers = [w / k for w, k in zip(ws, ks)]
    radii = [1.0 / k for k in ks]
    depths, parents = [0] * 4, [(), (), (), (0, 1, 2)]
    # the root spawns across all four members, a child not back across its last (new) circle
    level, spawn = [(0, 1, 2, 3)], 4
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
                # not <=, so that a NaN error fails the check
                if not (err := _misfit(center, radius, centers, radii, *triple)) <= REL_TOL:
                    raise _missed(k_new, exp, depth, triple, err)
                if depth < max_depth:  # leaf quadruples spawn nothing
                    children.append((*triple, len(ws)))
                ws.append(w)
                centers.append(center)
                radii.append(radius)
                ks.append(k_new)
                depths.append(depth)
                parents.append(triple)
        level, spawn = children, 3
    # outputs from k and w, as a working radius may pass the float range
    try:
        curvatures = [math.ldexp(k, exp) for k in ks]
        radii = [1.0 / k for k in curvatures]
        # + 0.0 keeps negative zeros out of the output
        xs = [w.real / k + 0.0 for w, k in zip(ws, curvatures)]
        ys = [w.imag / k + 0.0 for w, k in zip(ws, curvatures)]
    except (OverflowError, ZeroDivisionError):
        raise NonFiniteError(_PAST_FLOAT_RANGE) from None
    if math.inf in map(abs, chain(radii, xs, ys)):
        raise NonFiniteError(_PAST_FLOAT_RANGE)
    return _freeze(
        seed, max_depth, depths, parents,
        [(k, z.real, z.imag) for k, z in zip(ks, centers)].__getitem__,
        xs, ys, radii, curvatures,
    )


def _zero_curvature(depth: int, triple: tuple[int, ...]) -> GeometryError:
    return GeometryError(
        f"expansion produced a zero-curvature circle at depth {depth} across circles {triple}"
    )


def _exact_lanes(placed, max_depth: int):
    """The whole tree on integers, for a seed :func:`_seed_lanes` placed
    with a square D.  With c = a/b and u the lcm of the denominators of the
    seed circles' w, they are the integer lanes K = u*a*k and X + iY = u*b*w,
    so with L = u*b a circle's center is (X/K, Y/K), its radius L/K and its
    curvature K/L.  A child is 2*(sum of its quadruple) - 3*(the circle it
    reflects), lane by lane: tangent by the Descartes theorem, so no circle
    is checked.  Returns (K, X, Y, L, depths, parents), lists in generation
    order, the order the float path grows in."""
    _, c, _, circles = placed
    a, b = c.as_integer_ratio()
    u = math.lcm(*(v.denominator for _, (x, _), (y, _) in circles for v in (x, y)))
    ks = [u * a * k for (k, _), _, _ in circles]
    xs = [int(x * u) * b for _, (x, _), _ in circles]
    ys = [int(y * u) * b for _, _, (y, _) in circles]
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
    The seed circles are placed exactly (:func:`_seed_lanes`); a seed whose
    D = k0*k1 + k1*k2 + k2*k0 is a rational square >= 0 at its binary values
    grows on integers (:func:`_exact_lanes`), any other in checked floats
    (:func:`_float_gasket`).  ``max_depth`` is any integer
    (``operator.index``) but a bool, and is stored as an int.
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
    placed = _seed_lanes(seed)
    if not placed[0]:
        return _float_gasket(seed, placed, max_depth)
    ks, xs, ys, scale, depths, parents = _exact_lanes(placed, max_depth)
    # (K, X*sign K, Y*sign K) orders the circles of one curvature by x, then
    # y; divided by |K| they are x and y, with no negative zero
    size = list(map(abs, ks))
    for i in [i for i, k in enumerate(ks) if k < 0]:
        xs[i], ys[i] = -xs[i], -ys[i]
    try:
        out_xs, out_ys = list(map(truediv, xs, size)), list(map(truediv, ys, size))
        radii = list(map(truediv, repeat(scale), ks))
        curvatures = list(map(truediv, ks, repeat(scale)))
    except OverflowError:
        raise NonFiniteError(_PAST_FLOAT_RANGE) from None
    return _freeze(
        seed, max_depth, depths, parents, list(zip(ks, xs, ys)).__getitem__, out_xs, out_ys, radii, curvatures
    )


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def render_svg(g: Gasket) -> str:
    """Deterministic SVG 1.1 document: one circle element per packed circle,
    in canonical order, drawn in units of the largest radius with coordinates
    fixed at six decimals, so the picture reads the same at every scale.
    Negative-radius (enclosing) circles render as unfilled outlines."""
    xs, ys, palette = g._xs, g._ys, _SVG_PALETTE
    if not xs:
        raise ValidationError("cannot render an empty gasket")
    rs = list(map(abs, g._radii))
    fills = ["none" if r < 0 else palette[d % len(palette)] for r, d in zip(g._radii, g._depths)]
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
            {"center": [x, y], "radius": r, "curvature": k, "depth": d, "parents": list(p)}
            for x, y, r, k, d, p in zip(g._xs, g._ys, g._radii, g._curvatures, g._depths, g._parents)
        ],
    }
