"""Shared randomness and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest


def rand_nonzero_fraction(rng: random.Random, span: int = 10, max_den: int = 10) -> Fraction:
    num = rng.choice([i for i in range(-span, span + 1) if i != 0])
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def rand_radii(rng: random.Random, n: int) -> list[Fraction]:
    """Random rational radii, at most one negative."""
    values = [abs(rand_nonzero_fraction(rng)) for _ in range(n + 2)]
    if rng.random() < 0.5:
        i = rng.randrange(n + 2)
        values[i] = -values[i]
    return values


def rand_points(rng: random.Random, m: int, dim: int | None = None) -> list[list[Fraction]]:
    """m random rational points of dimension dim (default m-1)."""
    if dim is None:
        dim = m - 1
    return [[rand_nonzero_fraction(rng) for _ in range(dim)] for _ in range(m)]


def shoelace_area_squared(p0, p1, p2) -> Fraction:
    """Exact squared triangle area straight from coordinates."""
    cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    return (Fraction(cross) / 2) ** 2


def random_solved_quadruple(rng: random.Random) -> list[Fraction]:
    """Random rational curvature quadruple satisfying the tangency identity.

    Walks the reflection orbit of the integer (-1, 2, 2, 3) configuration
    (partner = 2 * sum(others) - k preserves the identity exactly), then
    rescales by a random rational and shuffles.  Every quadruple produced is
    exactly solvable, so the missing-curvature discriminants are perfect
    squares by construction.
    """
    k = [Fraction(-1), Fraction(2), Fraction(2), Fraction(3)]
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(4)
        partner = 2 * (sum(k) - k[i]) - k[i]
        if partner != 0:
            k[i] = partner
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    k = [v / scale for v in k]
    rng.shuffle(k)
    return k


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose the call-phase outcome to fixtures (used by the acceptance
    # module to print one pass/fail line per criterion)
    outcome = yield
    report = outcome.get_result()
    setattr(item, "rep_" + report.when, report)


@pytest.fixture
def circles_built(monkeypatch) -> list:
    """The arguments of each ``Circle`` built while the test runs."""
    from soddy.gasket import Circle

    built, init = [], Circle.__init__
    monkeypatch.setattr(Circle, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    return built
