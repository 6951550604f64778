"""Bounds on what the CLI parses and prints."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from soddy.errors import ValidationError
from soddy.serialize import MAX_EXPONENT, format_scalar, parse_rational, scalar_to_json


@pytest.mark.parametrize("text", ["1e4300", "1E+4300", "-2.5e-4300", "1e4_300", "3e04300"])
def test_exponent_at_the_bound_parses(text):
    assert parse_rational(text) == Fraction(text.replace("_", ""))


@pytest.mark.parametrize("text", ["1e4301", "1E+4301", "-2.5e-4301", "1e10000000", "1e" + "9" * 5000])
def test_exponent_past_the_bound_is_refused(text):
    with pytest.raises(ValidationError, match=str(MAX_EXPONENT)):
        parse_rational(text)


def test_rational_too_long_to_print_names_its_digits():
    assert scalar_to_json(Fraction(10**4299)) == {"num": "1" + "0" * 4299, "den": "1"}
    with pytest.raises(ValidationError, match="6001 digits"):
        scalar_to_json(Fraction(-(10**6000)))
    with pytest.raises(ValidationError, match="4301 digits"):
        scalar_to_json(Fraction(1, 10**4300))


def test_text_of_a_rational_too_long_to_print_names_its_digits():
    long = Fraction(10**4999, 3)
    assert format_scalar(long) == "<about 5000 digits>"
    with pytest.raises(ValidationError, match="5000 digits"):
        scalar_to_json(long)
    assert format_scalar(Fraction(-(10**4299), 3)) == "-1" + "0" * 4299 + "/3"


def test_numpy_ints_print_as_rationals():
    assert scalar_to_json(np.int64(3)) == {"num": "3", "den": "1"}
    assert format_scalar(np.int64(-7)) == "-7"


def test_non_number_is_refused():
    with pytest.raises(ValidationError, match="cannot serialize 'x'"):
        scalar_to_json("x")
