"""Gasket construction, audits, and deterministic rendering."""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import pytest

from soddy.errors import GeometryError, NonFiniteError, SeedError, SoddyError, ValidationError
from soddy.gasket import (
    Gasket,
    SvgOptions,
    _build_initial,
    gasket_to_dict,
    generate,
    initial_configuration,
    render_svg,
)

GOLDEN = Path(__file__).parent / "golden"

# Integer seeds of root quadruples; (-1,2,2), (-2,3,6) and (-6,10,15) are collinear.
ROOT_TRIPLES = ((-1, 2, 2), (-2, 3, 6), (-3, 5, 8), (-4, 8, 9), (-6, 10, 15))
SEED_ORDERS = sorted({p for t in ROOT_TRIPLES for p in itertools.permutations(t)})


def tangency_error(g: Gasket) -> float:
    worst = 0.0
    scale = max(
        (c.radius + g.circles[p].radius) ** 2 for c in g.circles for p in c.parents
    ) if any(c.parents for c in g.circles) else 1.0
    for c in g.circles:
        for p in c.parents:
            pc = g.circles[p]
            d2 = (c.center[0] - pc.center[0]) ** 2 + (c.center[1] - pc.center[1]) ** 2
            worst = max(worst, abs(d2 - (c.radius + pc.radius) ** 2))
    return worst / scale


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
            ([1e300] * 3, NonFiniteError),  # S^2 overflows
            ([1e160] * 3, NonFiniteError),
            ([1e-300] * 3, NonFiniteError),  # squared distances overflow
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

    def test_canonical_ordering(self):
        g = generate([-1, 2, 2], 3)
        keys = [(c.depth, c.curvature, c.center[0], c.center[1]) for c in g.circles]
        assert keys == sorted(keys)

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

    @pytest.mark.parametrize("scale", [1e-2, 1e-1, 1.0, 1e1, 1e2])
    @pytest.mark.parametrize("order", SEED_ORDERS, ids=lambda o: ",".join(map(str, o)))
    def test_every_seed_order_and_scale(self, order, scale):
        g = generate([k * scale for k in order], 3)
        assert len(g.circles) == 56
        assert tangency_error(g) <= 1e-9

    def test_overflowing_curvatures_fail_the_audit(self):
        # the seed places, but by depth 6 curvatures pass 1e156 and k^2 = inf
        with pytest.raises(SoddyError):
            generate([1e153] * 3, 6)

    def test_nan_fails_placement_and_residual_checks(self):
        b, quad = _build_initial((-1.0, 2.0, 2.0))
        with pytest.raises(GeometryError):
            b.add(complex(math.nan, 0.0), 15.0, 1, quad[1:])
        b.curvatures.append(math.nan)
        with pytest.raises(GeometryError):
            b.audit_residual((0, 1, 2, len(b.curvatures) - 1))

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

    def test_empty_gasket_rejected(self):
        empty = Gasket(circles=(), seed_curvatures=(1.0, 1.0, 1.0), max_depth=0)
        with pytest.raises(ValidationError):
            render_svg(empty)

    def test_options_change_output(self):
        g = initial_configuration([-1, 2, 2])
        assert render_svg(g) != render_svg(g, SvgOptions(width=256))


def test_gasket_to_dict_roundtrips():
    g = generate([-1, 2, 2], 1)
    d = gasket_to_dict(g)
    assert d["seed"] == [-1.0, 2.0, 2.0]
    assert len(d["circles"]) == len(g.circles)
    assert all(len(c["center"]) == 2 for c in d["circles"])
