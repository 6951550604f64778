"""Gasket construction, audits, and deterministic rendering."""

from __future__ import annotations

import copy
import dataclasses
import decimal
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import soddy.gasket
import soddy.tangency
from soddy.numeric import REL_TOL
from soddy.errors import GeometryError, NonFiniteError, SeedError, SoddyError, ValidationError
from soddy.gasket import (
    Circle,
    Gasket,
    _misfit,
    _pair_defect,
    _rounded,
    _seed,
    _seed_lanes,
    gasket_to_dict,
    generate,
    initial_configuration,
    render_svg,
)

GOLDEN = Path(__file__).parent / "golden"

# Integer seeds of root quadruples; (-1,2,2), (-2,3,6) and (-6,10,15) are collinear.
ROOT_TRIPLES = ((-1, 2, 2), (-2, 3, 6), (-3, 5, 8), (-4, 8, 9), (-6, 10, 15))
SEED_ORDERS = sorted({p for t in ROOT_TRIPLES for p in itertools.permutations(t)})
# the benchmark's gasket seeds: every order at every decade scale
SCALES = (1e-2, 1e-1, 1.0, 1e1, 1e2)
GRID = [tuple(k * scale for k in order) for order in SEED_ORDERS for scale in SCALES]


def tangency_error(g: Gasket, unit: float = 1.0) -> float:
    """Worst tangency gap, with lengths measured in ``unit`` so that squares stay in range."""
    worst = 0.0
    scale = max(
        ((c.radius + g.circles[p].radius) / unit) ** 2 for c in g.circles for p in c.parents
    ) if any(c.parents for c in g.circles) else 1.0
    for c in g.circles:
        for p in c.parents:
            pc = g.circles[p]
            dx, dy = ((a - b) / unit for a, b in zip(c.center, pc.center))
            d2 = dx**2 + dy**2
            worst = max(worst, abs(d2 - ((c.radius + pc.radius) / unit) ** 2))
    return worst / scale


def worst_gap(g: Gasket) -> float:
    """The benchmark's tangency check: the worst gap |d - |r_a + r_b|| over the
    seed pairs and each circle's parents, relative to the enclosing radius."""
    circles = g.circles

    def gap(a, b) -> float:
        d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
        return abs(d - abs(a.radius + b.radius))

    pairs = [*itertools.combinations(circles[:4], 2)]
    pairs += [(c, circles[p]) for c in circles for p in c.parents]
    return max(gap(a, b) for a, b in pairs) / -g.enclosing().radius


def quadruple_residuals(g: Gasket):
    for c in g.circles:
        if len(c.parents) == 3:
            ks = [g.circles[p].curvature for p in c.parents] + [c.curvature]
            s = sum(ks)
            yield (s * s - 2 * sum(k * k for k in ks)), max(k * k for k in ks)


class TestInitialConfiguration:
    def test_minus1_2_2(self):
        g = initial_configuration([-1, 2, 2])
        ks = sorted(c.curvature for c in g.circles)
        assert ks == [-1, 2, 2, 3]
        by_k = {round(c.curvature, 6): c for c in g.circles}
        assert by_k[-1.0].radius == -1.0
        assert by_k[3.0].radius == pytest.approx(1 / 3)
        # the two half-radius circles flank the origin inside the unit circle
        two = sorted(c.center[0] for c in g.circles if c.curvature == 2.0)
        assert two == pytest.approx([-0.5, 0.5])

    def test_positive_seed_has_no_enclosing_circle(self):
        assert generate([1, 1, 1], 0).enclosing() is None

    def test_unit_seed_inner_soddy(self):
        g = initial_configuration([1, 1, 1])
        ks = sorted(c.curvature for c in g.circles)
        assert ks[:3] == [1, 1, 1]
        assert ks[3] == pytest.approx(3 + 2 * math.sqrt(3), rel=1e-12)

    def test_zero_curvature_rejected(self):
        with pytest.raises(SeedError):
            initial_configuration([1, 1, 0])

    def test_two_negatives_rejected(self):
        with pytest.raises(SeedError):
            initial_configuration([-1, -1, 2])

    def test_unsolvable_seed_is_computational_failure(self):
        with pytest.raises(SeedError) as excinfo:
            initial_configuration([1, 1, -1])
        assert excinfo.value.exit_code == 2

    def test_enclosing_seed_in_last_position(self):
        g = initial_configuration([2, 2, -1])
        assert sorted(c.curvature for c in g.circles) == [-1, 2, 2, 3]
        enc = g.enclosing()
        for c in g.circles:
            if c is enc:
                continue
            dist = math.hypot(c.center[0] - enc.center[0], c.center[1] - enc.center[1])
            assert dist + c.radius <= abs(enc.radius) + 1e-9

    def test_wrong_count_rejected(self):
        with pytest.raises(SeedError):
            initial_configuration([1, 1])

    @pytest.mark.parametrize(
        "seed, error",
        [
            ([1e308] * 3, NonFiniteError),  # the fourth curvature passes the float range
            ([1e-308] * 3, NonFiniteError),  # the centers pass the float range
            ([1e300, 1e300, 1e-300], NonFiniteError),  # 1e-300 / 2^997 underflows to 0
            ([1, 1, 1e-310], NonFiniteError),  # the third radius passes the float range
            ([-1, 1, 1e9], GeometryError),  # circles 0 and 1 concentric
        ],
    )
    def test_unplaceable_seed_raises(self, seed, error):
        with pytest.raises(error):
            initial_configuration(seed)

    def test_fourth_circle_has_parents(self):
        g = initial_configuration([-1, 2, 2])
        with_parents = [c for c in g.circles if c.parents]
        assert len(with_parents) == 1
        assert len(with_parents[0].parents) == 3


class TestGenerate:
    def test_depth0_equals_initial(self):
        assert generate([-1, 2, 2], 0) == initial_configuration([-1, 2, 2])

    def test_depth2_contains_expected_partners(self):
        g = generate([-1, 2, 2], 2)
        ks = {round(c.curvature) for c in g.circles}
        # 15 is the partner of -1 across (2,2,3); 6 of 2 across (-1,2,3)
        assert 15 in ks and 6 in ks

    def test_depth5_integer_curvatures(self):
        g = generate([-1, 2, 2], 5)
        assert all(abs(c.curvature - round(c.curvature)) <= 1e-9 for c in g.circles)

    def test_double_root_circles_are_distinct(self):
        g = generate([-1, 2, 2], 1)
        threes = [c for c in g.circles if abs(c.curvature - 3) < 1e-9]
        assert len(threes) == 2
        assert threes[0].center[1] == pytest.approx(-threes[1].center[1])
        assert abs(threes[0].center[1]) == pytest.approx(2 / 3)

    def test_canonical_ordering(self, monkeypatch):
        g = generate([-1, 2, 2], 3)
        keys = [(c.depth, c.curvature, c.center[0], c.center[1]) for c in g.circles]
        assert keys == sorted(keys)
        # freeze sorts each depth's run on its own; over the pinned seeds that
        # is the stable global sort of (depth, k, x, y) keys: the working
        # floats on the float path, (depth, K, X*sign K, Y*sign K) on the
        # integer lanes of the exact path
        frozen, freeze = [], soddy.gasket._freeze
        monkeypatch.setattr(
            soddy.gasket, "_freeze", lambda *args: frozen.append(args) or freeze(*args)
        )
        paths = Counter()
        for seed, *_ in PINNED_OUTPUT.values():
            circles = generate(seed, 6).circles
            keys = [(c.depth, c.curvature, c.center[0], c.center[1]) for c in circles]
            assert keys == sorted(keys)
            placed = soddy.gasket._seed_lanes(soddy.gasket._seed(seed))
            paths[placed[0]] += 1
            _, _, depths, parents, key, _, _, _, curvatures = frozen.pop()
            if placed[0]:
                ks, xs, ys, scale, depths, parents = soddy.gasket._exact_lanes(placed, 6)
                full = [
                    (d, k, x * sign, y * sign)
                    for d, k, x, y in zip(depths, ks, xs, ys)
                    for sign in [1 if k > 0 else -1]
                ]
                curvatures = [k / scale for k in ks]
            else:
                full = [(d, *key(i)) for i, d in enumerate(depths)]
            assert not frozen
            order = sorted(range(len(full)), key=full.__getitem__)
            new = {old: i for i, old in enumerate(order)}
            assert [(c.curvature, c.parents) for c in circles] == [
                (curvatures[i], tuple(sorted(new[p] for p in parents[i]))) for i in order
            ]
        assert paths == {True: 9, False: 2}

    def test_parents_precede_children(self):
        g = generate([-1, 2, 2], 3)
        for i, c in enumerate(g.circles):
            assert all(p < i for p in c.parents)

    def test_tangency_audit(self):
        g = generate([-1, 2, 2], 4)
        assert tangency_error(g) <= 1e-9

    def test_residual_audit(self):
        g = generate([-1, 2, 2], 4)
        for res, k2max in quadruple_residuals(g):
            assert abs(res) <= 1e-9 * k2max

    def test_containment(self):
        g = generate([-1, 2, 2], 4)
        enc = g.enclosing()
        for c in g.circles:
            if c is enc:
                continue
            dist = math.hypot(c.center[0] - enc.center[0], c.center[1] - enc.center[1])
            assert dist + c.radius <= abs(enc.radius) + 1e-9

    def test_determinism(self):
        assert generate([-1, 2, 2], 4) == generate([-1, 2, 2], 4)

    def test_all_positive_seed_grows_enclosing_circle(self):
        g = generate([1, 1, 1], 2)
        negs = [c for c in g.circles if c.curvature < 0]
        assert len(negs) == 1
        assert negs[0].curvature == pytest.approx(3 - 2 * math.sqrt(3), rel=1e-12)

    def test_depth_guard(self):
        with pytest.raises(ValidationError):
            generate([-1, 2, 2], 13)
        with pytest.raises(ValidationError):
            generate([-1, 2, 2], -1)
        # any integer is a depth, stored as a plain int; a bool or non-integer is not
        for depth in (2, np.int64(2), np.uint8(2)):
            g = generate([-1, 2, 2], depth)
            assert type(g.max_depth) is int and g.max_depth == 2
            assert json.loads(json.dumps(gasket_to_dict(g)))["max_depth"] == 2
        for depth in (True, False, np.bool_(True), 2.0, "2", None):
            with pytest.raises(ValidationError, match="max_depth"):
                generate([-1, 2, 2], depth)
        with pytest.raises(ValidationError, match="max_depth"):
            generate([-1, 2, 2], np.int64(13))

    def test_circle_count_growth(self):
        # each quadruple spawns 3 children: 4, +4, +12, +36
        assert len(generate([-1, 2, 2], 0).circles) == 4
        assert len(generate([-1, 2, 2], 1).circles) == 8
        assert len(generate([-1, 2, 2], 2).circles) == 20
        assert len(generate([-1, 2, 2], 3).circles) == 56

    def test_fractional_seed(self):
        g = generate([2, 3, 6], 2)
        assert tangency_error(g) <= 1e-9
        for res, k2max in quadruple_residuals(g):
            assert abs(res) <= 1e-9 * k2max

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("order", SEED_ORDERS, ids=lambda o: ",".join(map(str, o)))
    def test_every_seed_order_and_scale(self, order, scale):
        g = generate([k * scale for k in order], 3)
        assert len(g.circles) == 56
        assert tangency_error(g) <= 1e-9
        # every quadruple, leaves included, though no leaf is reflected
        for res, k2max in quadruple_residuals(g):
            assert abs(res) <= 1e-9 * k2max

    def test_overflowing_curvatures_fail_the_audit(self):
        # the seed places, but by depth 6 curvatures pass the float range
        with pytest.raises(NonFiniteError):
            generate([1e305] * 3, 6)

    @pytest.mark.parametrize("j", [-1000, -60, 0, 40, 1000])
    def test_power_of_two_scale_is_bit_exact(self, j):
        base = generate([-1, 2, 2], 4).circles
        scaled = generate([math.ldexp(k, j) for k in (-1, 2, 2)], 4).circles
        assert [
            (c.center, c.radius, c.curvature, c.depth, c.parents) for c in scaled
        ] == [
            (
                (math.ldexp(c.center[0], -j) + 0.0, math.ldexp(c.center[1], -j) + 0.0),
                math.ldexp(c.radius, -j),
                math.ldexp(c.curvature, j),
                c.depth,
                c.parents,
            )
            for c in base
        ]

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_seed_beyond_square_range_generates(self, scale):
        # k^2 and the squared distances of these seeds pass the float range
        g = generate([scale] * 3, 3)
        assert len(g.circles) == 56
        assert tangency_error(g, unit=1 / scale) <= 1e-9

    def test_nan_fails_placement_and_residual_checks(self, monkeypatch):
        # the partner of circle 0 of (-1, 2, 2) places cleanly by _misfit, the
        # float path's check of each new circle, until any one parent or the
        # new circle itself turns NaN
        seeds = generate([-1, 2, 2], 0).circles
        centers = [complex(*c.center) for c in seeds]
        radii = [c.radius for c in seeds]
        i0 = next(i for i, c in enumerate(seeds) if c.curvature < 0)
        parents = tuple(i for i in range(4) if i != i0)
        k = 2.0 * sum(seeds[i].curvature for i in parents) - seeds[i0].curvature
        w = 2.0 * sum(centers[i] / radii[i] for i in parents) - centers[i0] / radii[i0]
        assert _misfit(w / k, 1.0 / k, centers, radii, *parents) <= 1e-9
        assert math.isnan(_misfit(complex(math.nan, 0.0), 1.0 / k, centers, radii, *parents))
        for values, nan in ((centers, complex(math.nan, 0.0)), (radii, math.nan)):
            for i in parents:
                kept, values[i] = values[i], nan
                assert math.isnan(_misfit(w / k, 1.0 / k, centers, radii, *parents))
                values[i] = kept
        # a NaN partner must fail that check in the expansion loop
        monkeypatch.setattr(
            soddy.gasket, "vieta_partner", lambda k, i: (math.nan,) * len(k.values[i])
        )
        with pytest.raises(GeometryError, match="by nan"):
            generate([1, 1, 1], 1)

    def test_placement_error_reports_the_true_curvature(self):
        # the builder works in units of 2^-1 here, where this circle has curvature 6
        with pytest.raises(GeometryError) as info:
            generate([-1e-9, 1, 1], 1)
        assert "curvature 12 at depth 1" in str(info.value)

    def test_placement_error_past_the_float_range_names_the_scale(self):
        # the failing circle's true curvature, 6.67522 * 2^1024, is no float
        with pytest.raises(GeometryError, match=r"curvature 6\.67522\*2\^1024 at depth 1"):
            generate([1e155, 1e308, 1e308], 1)

    def test_zero_curvature_error_names_depth_and_parents(self):
        # the fourth circle of (1, 1, 4) has curvature 12; its partner across
        # the seed circles is a straight line
        assert [c.curvature for c in generate([1, 1, 4], 0).circles] == [1.0, 1.0, 4.0, 12.0]
        with pytest.raises(GeometryError, match=r"zero-curvature circle at depth 1 across circles \(0, 1, 2\)"):
            generate([1, 1, 4], 1)

    def test_coincident_seed_circles_past_the_float_range(self):
        # both radii overflow to +-inf, so their distance is NaN, not 0
        with pytest.raises(GeometryError, match="concentric"):
            generate([1, -1, 1e308], 1)

    @pytest.mark.parametrize(
        "seed, message",
        [
            ([1, 1], "need 3 seed curvatures for dimension 2, got 2"),
            ([1, 1, 0], "zero curvature is not allowed"),
            ([-1, -1, 2], "at most one curvature may be negative (one enclosing sphere)"),
        ],
    )
    def test_seed_is_checked_as_a_curvature_list(self, seed, message):
        with pytest.raises(SeedError) as info:
            generate(seed, 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("depth, quadruples", [(0, 0), (3, 17), (5, 161), (6, 485)])
    def test_one_vieta_partner_call_per_spawning_quadruple(self, monkeypatch, depth, quadruples):
        # on the float path (here D = 3, no square) each spawning quadruple is
        # tested once, by the call that returns its children's curvatures:
        # 485 tests for 1456 new circles at depth 6; tests are counted by
        # code object, so a caller holding its own binding counts too
        calls, tests = [], []
        real = soddy.gasket.vieta_partner
        monkeypatch.setattr(
            soddy.gasket, "vieta_partner", lambda k, i: calls.append(i) or real(k, i)
        )
        code = soddy.tangency._tangency_residual.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                tests.append(frame.f_back.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            circles = generate([1, 1, 1], depth).circles
        finally:
            sys.setprofile(previous)
        # the root, then one quadruple closed by each circle at depths 1..d-1
        assert (depth > 0) + sum(0 < c.depth < depth for c in circles) == quadruples
        assert len(calls) == len(tests) == quadruples

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
    def test_wide_ratio_square_seeds_generate(self, n):
        # D = 0 for (-n, n + 1, n(n + 1)), so these grow on integers; the float
        # path misses its 1e-9 placement check in two of the three orders
        seed = (-n, n + 1, n * (n + 1))
        for rotation in range(3):
            g = generate(seed[rotation:] + seed[:rotation], 6)
            assert len(g.circles) == 1460
            assert worst_gap(g) <= 1e-9

    def test_depth8_fractional_seed(self):
        assert len(generate([2, 3, 6], 8).circles) == 13124

    def test_no_duplicate_circles(self):
        by_curvature = sorted(generate([-1, 2, 2], 6).circles, key=lambda c: c.curvature)
        for i, a in enumerate(by_curvature):
            for b in by_curvature[i + 1 :]:
                if b.curvature - a.curvature > 1e-9 * abs(a.curvature):
                    break
                gap = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
                assert gap > 1e-9

    def test_equal_x_ties_ascend_in_y(self):
        g = generate([-1, 2, 2], 5)
        ties = [
            (a, b)
            for a, b in zip(g.circles, g.circles[1:])
            if (a.depth, a.curvature) == (b.depth, b.curvature)
            and abs(a.center[0] - b.center[0]) <= 1e-12
        ]
        assert ties
        assert all(a.center[1] < b.center[1] for a, b in ties)


class TestRenderSvg:
    def test_element_count(self):
        g = initial_configuration([-1, 2, 2])
        svg = render_svg(g)
        assert svg.count("<circle") == 4
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        g = generate([-1, 2, 2], 3)
        assert render_svg(g).encode() == render_svg(g).encode()

    def test_golden_depth3(self):
        svg = render_svg(generate([-1, 2, 2], 3))
        golden = (GOLDEN / "gasket_m1_2_2_depth3.svg").read_bytes()
        assert svg.encode("utf-8") == golden

    def test_negative_radius_unfilled(self):
        svg = render_svg(initial_configuration([-1, 2, 2]))
        first_circle = svg.split("<circle")[1]
        assert 'fill="none"' in first_circle

    def test_six_decimal_formatting(self):
        svg = render_svg(initial_configuration([-1, 2, 2]))
        for token in ("cx=", "cy=", "r="):
            for part in svg.split(token)[1:]:
                value = part.split('"')[1]
                assert len(value.split(".")[1]) == 6

    @pytest.mark.parametrize("j", [-60, 0, 40])
    def test_drawn_in_units_of_the_largest_radius(self, j):
        scaled = generate([math.ldexp(k, j) for k in (-1, 2, 2)], 4)
        assert render_svg(scaled) == render_svg(generate([-1, 2, 2], 4))

    def test_tiny_circles_are_drawn(self):
        svg = render_svg(generate([1e7] * 3, 1))
        assert svg.count("<circle") == 8
        assert 'r="0.000000"' not in svg
        assert 'viewBox="0.000000 0.000000 0.000000 0.000000"' not in svg

    def test_empty_gasket_rejected(self):
        empty = Gasket(circles=(), seed_curvatures=(1.0, 1.0, 1.0), max_depth=0)
        with pytest.raises(ValidationError):
            render_svg(empty)


def test_circle_keeps_the_dataclass_contract():
    # Circle writes its own __init__; the generated eq, hash, repr, replace,
    # pickle and frozen fields must read as a plain frozen dataclass's
    names = [f.name for f in dataclasses.fields(Circle)]
    assert names == ["center", "radius", "curvature", "depth", "parents"]
    for c in generate([-1, 2, 2], 3).circles:
        copies = (
            Circle(**dataclasses.asdict(c)),
            Circle(*dataclasses.astuple(c)),
            dataclasses.replace(c),
            pickle.loads(pickle.dumps(c)),
        )
        for copy in copies:
            assert copy == c and hash(copy) == hash(c) and repr(copy) == repr(c)
        assert repr(c) == (
            f"Circle(center={c.center!r}, radius={c.radius!r}, curvature={c.curvature!r}, "
            f"depth={c.depth!r}, parents={c.parents!r})"
        )
        moved = dataclasses.replace(c, radius=2 * c.radius)
        assert moved.radius == 2 * c.radius and moved.center == c.center and moved != c
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.radius = 1.0


def test_gasket_to_dict_roundtrips():
    g = generate([-1, 2, 2], 1)
    d = gasket_to_dict(g)
    assert d["seed"] == [-1.0, 2.0, 2.0]
    assert len(d["circles"]) == len(g.circles)
    assert all(len(c["center"]) == 2 for c in d["circles"])


# sha256 prefixes of repr(g), render_svg(g) and json.dumps(gasket_to_dict(g))
# at depth 6: every root triple out of order, non-dyadic scales, an irrational
# seed, a fractional one and a power-of-two scale.  Any change to a float step
# of generation, ordering or output shows here.  1,1,1 and 1e-1*(3,-2,6)
# take the float path, the others the exact one; 1e-2*(2,2,-1) draws the
# SVG of 2,-1,2, the same picture.
PINNED_OUTPUT = {
    "2,-1,2": ((2, -1, 2), "f2f159aac4f9a1f6", "179b6600c15f324f", "5d4489d73c4e501e"),
    "6,-2,3": ((6, -2, 3), "72b6aac8763e2ad2", "cdf23ac874c44b4e", "30a440d6ecca441c"),
    "8,5,-3": ((8, 5, -3), "979ba8c6f94b9adb", "37a898929ab6548b", "625def100558e341"),
    "9,-4,8": ((9, -4, 8), "57a5854b8bc704bb", "45654dbf87790b5e", "8e89c76882f2a747"),
    "15,-6,10": ((15, -6, 10), "4206f8cb4eb6d7ac", "1fb2cca3e587eb05", "8e49b6c3c390ba6b"),
    "1e-2*(2,2,-1)": (
        tuple(k * 1e-2 for k in (2, 2, -1)),
        "8acd3f55847eb809", "179b6600c15f324f", "0bfc483109d9a9eb",
    ),
    "1e-1*(3,-2,6)": (
        tuple(k * 1e-1 for k in (3, -2, 6)),
        "700f25fa144f9e8c", "4d9ecf4d11ef73ea", "4c4b4831dd6601c0",
    ),
    "1e2*(5,-3,8)": (
        tuple(k * 1e2 for k in (5, -3, 8)),
        "38245dca6dda2380", "fe350ca3fface1ca", "f8fa764c57eb38d5",
    ),
    "1,1,1": ((1, 1, 1), "33da72a05edfceea", "338eefe8ef62a9ac", "37a3e22388b531d0"),
    "2,3,6": ((2, 3, 6), "1d1a1517cd52b41c", "392c7f706c878dca", "d718e203ca07e5ab"),
    "2^40*(-1,2,2)": (
        tuple(math.ldexp(k, 40) for k in (-1, 2, 2)),
        "3210206ca1ec07fe", "5c356cfcb6958cd6", "54ae8947d5119f83",
    ),
}


@pytest.mark.parametrize("name", PINNED_OUTPUT)
def test_output_is_pinned(name):
    seed, *want = PINNED_OUTPUT[name]
    g = generate(seed, 6)
    texts = (repr(g), render_svg(g), json.dumps(gasket_to_dict(g)))
    assert [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts] == want


@pytest.mark.parametrize("name", PINNED_OUTPUT)
def test_columns_write_the_pinned_output(name):
    # test_output_is_pinned reads repr(g) first, which builds g.circles; here
    # the SVG and JSON come from a fresh gasket's columns alone
    seed, _, *want = PINNED_OUTPUT[name]
    g = generate(seed, 6)
    texts = (render_svg(g), json.dumps(gasket_to_dict(g)), json.dumps(gasket_to_dict(g), indent=2))
    assert g._circles is None
    assert [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts[:2]] == want
    circles = [
        {"center": [c.center[0], c.center[1]], "radius": c.radius, "curvature": c.curvature,
         "depth": c.depth, "parents": list(c.parents)}
        for c in g.circles
    ]
    written = {"seed": list(g.seed_curvatures), "max_depth": g.max_depth, "circles": circles}
    assert texts[2] == json.dumps(written, indent=2)


@pytest.mark.parametrize("seed", [(-1, 2, 2), (1, 1, 1)], ids=["exact", "float"])
def test_output_path_builds_no_circle(circles_built, seed):
    g = generate(seed, 4)
    render_svg(g)
    json.dumps(gasket_to_dict(g))
    json.dumps(gasket_to_dict(g), indent=2)
    assert circles_built == []
    # the first read builds every circle once, and later reads return them
    circles = g.circles
    assert g.circles is circles and len(circles_built) == len(circles) == 2 * 3**4 + 2


@pytest.mark.parametrize("seed", [(-1, 2, 2), (1, 1, 1)], ids=["exact", "float"])
def test_a_gasket_built_from_its_circles_is_the_same_value(seed):
    g = generate(seed, 4)
    svg, text = render_svg(g), json.dumps(gasket_to_dict(g))
    again = Gasket(g.circles, g.seed_curvatures, g.max_depth)
    assert again == g and hash(again) == hash(g) and repr(again) == repr(g)
    assert again.circles is g.circles
    assert render_svg(again) == svg and json.dumps(gasket_to_dict(again)) == text
    # a replaced circle tuple is what the gasket draws and writes
    circles = list(g.circles)
    c = circles[100]
    circles[100] = dataclasses.replace(c, center=(c.center[0] - 1e-3 * g.enclosing().radius, c.center[1]))
    moved = dataclasses.replace(g, circles=tuple(circles))
    assert moved.circles == tuple(circles) and moved != g
    rows, moved_rows = svg.splitlines(), render_svg(moved).splitlines()
    assert [i for i, (a, b) in enumerate(zip(rows, moved_rows)) if a != b] == [2 + 100]
    entries, moved_entries = gasket_to_dict(g)["circles"], gasket_to_dict(moved)["circles"]
    assert [i for i, (a, b) in enumerate(zip(entries, moved_entries)) if a != b] == [100]
    assert moved_entries[100]["center"] == list(circles[100].center)
    # a gasket whose circles were never read copies and unpickles as the same value
    for copied in (pickle.loads(pickle.dumps(generate(seed, 4))), copy.deepcopy(generate(seed, 4))):
        assert copied == g and hash(copied) == hash(g) and repr(copied) == repr(g)
        assert render_svg(copied) == svg and json.dumps(gasket_to_dict(copied)) == text


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_of_a_gasket():
    g = generate([-1, 2, 2], 3)
    assert copy.replace(generate([-1, 2, 2], 3)) == g
    head = copy.replace(g, circles=g.circles[:4], max_depth=0)
    assert head == generate([-1, 2, 2], 0) and render_svg(head) == render_svg(generate([-1, 2, 2], 0))


def test_seeds_across_the_float_range_generate_or_fail_as_soddy_errors():
    # 500 seeds with |k| log-uniform by octave over 2^+-997 (about 10^+-300),
    # random signs, at depths 0-3, where placement meets values past the
    # float range: every seed must either generate or raise a SoddyError,
    # never OverflowError.  The digest pins each failure's kind and message
    # and each gasket's repr.
    rng = random.Random(34)
    digest, kinds = hashlib.sha256(), Counter()
    for _ in range(500):
        seed = [
            rng.choice((-1, 1, 1)) * math.ldexp(rng.uniform(1, 2), rng.randint(-997, 996))
            for _ in range(3)
        ]
        depth = rng.randint(0, 3)
        try:
            g = generate(seed, depth)
        except SoddyError as exc:
            kinds[exc.kind] += 1
            digest.update(f"{exc.kind}: {exc}\n".encode())
        else:
            kinds["ok"] += 1
            digest.update(repr(g).encode())
    assert kinds == {"ok": 57, "seed": 149, "non-finite": 165, "geometry": 129}
    assert digest.hexdigest()[:16] == "316bb2d6dbe3baf8"


@pytest.mark.parametrize(
    "seed",
    [*SEED_ORDERS, *itertools.permutations((2, 3, 6))],
    ids=lambda t: ",".join(map(str, t)),
)
def test_exact_tree_keeps_every_tangency(seed):
    # The exact path checks no circle: by the Descartes theorem a reflection
    # of a tangent quadruple is tangent again.  This tests that theorem on the
    # integer lanes to depth 8, in every seed order, since the order decides
    # the side circle 3 takes.  Centers X/K, Y/K and radii L/K touch iff
    # (X_i K_j - X_j K_i)^2 + (Y_i K_j - Y_j K_i)^2 = L^2 (K_i + K_j)^2.
    ks, xs, ys, scale, depths, parents = soddy.gasket._exact_lanes(
        soddy.gasket._seed_lanes(soddy.gasket._seed(seed)), 8
    )

    def touch(i: int, j: int) -> bool:
        dx, dy = xs[i] * ks[j] - xs[j] * ks[i], ys[i] * ks[j] - ys[j] * ks[i]
        return dx * dx + dy * dy == (scale * (ks[i] + ks[j])) ** 2

    assert len(ks) == len(parents) == len(depths) == 13124
    assert all(touch(i, j) for i, j in itertools.combinations(range(4), 2))
    assert all(touch(i, p) for i in range(4, len(ks)) for p in parents[i])


def test_power_of_two_sweep_generates_or_fails_as_soddy_errors():
    # the seed (-1, 2, 2) scaled by 2^j, every seventh octave of the float
    # range, on the exact path: each call returns or raises a SoddyError,
    # never OverflowError or ZeroDivisionError, and the octaves that return
    # are those the float path returns for
    returned, kinds = [], Counter()
    for j in range(-1074, 1024, 7):
        try:
            generate([math.ldexp(k, j) for k in (-1, 2, 2)], 6)
        except SoddyError as exc:
            kinds[exc.kind] += 1
        else:
            returned.append(j)
    assert returned == list(range(-1018, 1013, 7))
    assert kinds == {"non-finite": 9}


def test_small_negative_coordinates_print_as_zero():
    # six decimals print an x/unit or y/unit in (-5e-7, 0) as -0.000000; the SVG writes 0.000000
    circles = (Circle((0.0, 0.0), -2.0, -0.5, 0, ()), Circle((-4e-7, -1e-9), 1.0, 1.0, 0, ()))
    svg = render_svg(Gasket(circles=circles, seed_curvatures=(-0.5, 1.0, 1.0), max_depth=0))
    assert '<circle cx="0.000000" cy="0.000000" r="0.500000"' in svg
    assert "-0.000000" not in svg
    # the pinned seeds draw 2 such coordinates at depth 6 (both from the float
    # path's 1e-1*(3,-2,6)), and none as -0.000000
    small = 0
    for seed, *_ in PINNED_OUTPUT.values():
        g = generate(seed, 6)
        unit = max(abs(c.radius) for c in g.circles)
        small += sum(-5e-7 < v / unit < 0 for c in g.circles for v in c.center)
        assert '"-0.000000' not in render_svg(g)
    assert small == 2


def _reference(a: Fraction, b: Fraction, d: int) -> float:
    """a + b*sqrt(d) to 120 digits, then rounded to a float (inf past the range)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        ctx.Emax, ctx.Emin = 10**6, -(10**6)
        dec = decimal.Decimal
        value = dec(a.numerator) / dec(a.denominator)
        value += dec(b.numerator) / dec(b.denominator) * dec(d).sqrt()
        return float(value)


def test_rounded_matches_a_120_digit_reference():
    rng = random.Random(38)
    cases = []
    for _ in range(300):  # irrational values, with a and b of either sign and any size
        d = rng.randint(2, 10**12)
        d += math.isqrt(d) ** 2 == d
        a, b = (
            Fraction(rng.randint(-(10**30), 10**30) or 1, rng.randint(1, 10**20))
            * Fraction(2) ** rng.randint(-300, 300)
            for _ in range(2)
        )
        cases.append((a, b, d))
    for _ in range(100):  # a near -b*sqrt(d): the leading digits cancel
        d = rng.randint(2, 10**12)
        d += math.isqrt(d) ** 2 == d
        scale = 10 ** rng.randint(5, 25)
        cases.append((Fraction(math.isqrt(d * scale * scale), scale), Fraction(-1), d))
    for _ in range(200):  # rationals on a rounding midpoint, which round to even
        f = rng.choice((-1, 1)) * math.ldexp(rng.random() + 0.5, rng.randint(-40, 40))
        mid = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
        assert _rounded(mid, 0, rng.randint(0, 100)) == _reference(mid, Fraction(0), 0)
        assert _rounded(mid, 0, 0) in (f, math.nextafter(f, math.inf))
    big = Fraction(2**1024) - 2**970  # halfway from the largest float to 2^1024
    cases += [
        (big - 2**960, Fraction(0), 0),  # just below: the largest float
        (Fraction(0), Fraction(2**500), 2**900 + 1),
        (Fraction(-(2**1000)), Fraction(-(2**520)), 2**960 + 1),
        (Fraction(1, 2**1080), Fraction(1, 2**1090), 3),  # subnormal
    ]
    for a, b, d in cases:
        assert _rounded(a, b, d) == _reference(a, b, d)
    for a, b, d in [(big, Fraction(0), 0), (Fraction(0), Fraction(-(2**600)), 2**900 + 1)]:
        assert math.isinf(_reference(a, b, d))
        with pytest.raises(NonFiniteError):
            _rounded(a, b, d)


def _placed(seed):
    return _seed_lanes(_seed(seed))


def test_seed_circles_are_exact_or_checked():
    # in Q(sqrt D) the six seed pairs of every seed whose D is no square
    # touch exactly; one the double-root rule snaps (s = 0) is within REL_TOL
    irrational = [*itertools.permutations((1, 1, 1)), *itertools.permutations((2, 3, 7))]
    snapped, squares = [], 0
    for seed in GRID:
        square, _, d, _ = _placed(seed)
        if square:
            squares += 1
        else:
            (irrational if d else snapped).append(seed)
    assert (squares, len(irrational), len(snapped)) == (87, 6 + 6 + 24, 24)
    for seed in irrational:
        square, _, d, circles = _placed(seed)
        assert not square and d
        assert all(_pair_defect(a, b, d) == (0, 0) for a, b in itertools.combinations(circles, 2))
    for seed in snapped:
        _, _, d, circles = _placed(seed)
        for a, b in itertools.combinations(circles, 2):
            defect, surd = _pair_defect(a, b, d)
            assert surd == 0 and abs(defect) <= REL_TOL * (a[0][0] + b[0][0]) ** 2
    # D = +-80,000 is snapped for these seeds, whose double-root circles miss
    for seed in [(-100000, 100001, 10000180000), (-100000, 100001, 10000020000)]:
        missed = r"at depth 0 misses circles \(0, 1\) by 3\.200e-05"
        with pytest.raises(GeometryError, match=missed):
            generate(seed, 0)


def test_tiny_third_curvature_places_until_its_radius_passes_the_float_range():
    for e in range(154, 324):
        if e <= 308:
            circles = generate([1, 1, 10.0**-e], 0).circles
            values = [v for c in circles for v in (*c.center, c.radius, c.curvature)]
            assert all(map(math.isfinite, values)), e
        else:
            with pytest.raises(NonFiniteError):
                generate([1, 1, 10.0**-e], 0)


def test_wide_ratio_seeds_place_at_depth_0():
    # |k| log-uniform over 10^+-12, random signs: every seed places, or is no
    # seed (two negatives, or no tangent circle)
    rng = random.Random(3812)
    kinds = Counter()
    for _ in range(300):
        seed = [rng.choice((-1, 1)) * 10 ** rng.uniform(-12, 12) for _ in range(3)]
        try:
            generate(seed, 0)
        except SeedError:
            kinds["seed"] += 1
        else:
            kinds["ok"] += 1
    assert kinds["ok"] > 50
