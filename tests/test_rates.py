"""Unit tests for repro.core.rates (exact rational helpers)."""

import math
import time
from fractions import Fraction

import pytest

from repro.core.rates import (
    INFINITY,
    as_cost,
    as_fraction,
    as_weight,
    format_fraction,
    is_infinite,
    lcm_denominators,
    lcm_ints,
    rate_of,
    scaled_integer,
    time_of,
)
from repro.exceptions import PlatformError


class TestAsFraction:
    def test_int(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(18, 5)
        assert as_fraction(f) is f

    def test_string_ratio(self):
        assert as_fraction("18/5") == Fraction(18, 5)

    def test_string_decimal(self):
        assert as_fraction("3.6") == Fraction(18, 5)

    def test_string_whitespace(self):
        assert as_fraction("  7 ") == Fraction(7)

    def test_float_decimal_semantics(self):
        # 0.1 must become 1/10, not the binary expansion
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_float_half(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_negative_allowed(self):
        assert as_fraction(-3) == Fraction(-3)

    def test_bool_rejected(self):
        with pytest.raises(PlatformError):
            as_fraction(True)

    def test_nan_rejected(self):
        with pytest.raises(PlatformError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(PlatformError):
            as_fraction(float("inf"))

    def test_bad_string(self):
        with pytest.raises(PlatformError):
            as_fraction("three")

    def test_bad_type(self):
        with pytest.raises(PlatformError):
            as_fraction([1, 2])

    @pytest.mark.parametrize("text", ["1e100000000", "1E-100000000",
                                      " 2.5e+1001 ", "1e1_000_000",
                                      "1e" + "9" * 5000])
    def test_huge_exponent_fails_fast_naming_the_value(self, text):
        start = time.perf_counter()
        with pytest.raises(PlatformError, match="exponent") as info:
            as_fraction(text)
        assert time.perf_counter() - start < 0.05
        assert text[:11] in str(info.value)

    @pytest.mark.parametrize("text, value", [
        ("1e3", Fraction(1000)), ("2.5E-3", Fraction(1, 400)),
        ("1e1000", Fraction(10) ** 1000), ("1e-0_1000", Fraction(1, 10**1000)),
    ])
    def test_exponent_within_bound_parses(self, text, value):
        assert as_fraction(text) == value


class TestWeightsAndCosts:
    def test_weight_positive(self):
        assert as_weight("2/3") == Fraction(2, 3)

    def test_weight_infinity(self):
        assert as_weight(INFINITY) == INFINITY

    def test_weight_zero_rejected(self):
        with pytest.raises(PlatformError):
            as_weight(0)

    def test_weight_negative_rejected(self):
        with pytest.raises(PlatformError):
            as_weight(-1)

    def test_cost_positive(self):
        assert as_cost(2) == Fraction(2)

    def test_cost_zero_rejected(self):
        with pytest.raises(PlatformError):
            as_cost(0)

    def test_cost_infinity_rejected(self):
        with pytest.raises(PlatformError):
            as_cost(INFINITY)


class TestRateDuality:
    def test_rate_of_finite(self):
        assert rate_of(Fraction(1, 3)) == Fraction(3)

    def test_rate_of_infinity_is_zero(self):
        assert rate_of(INFINITY) == 0

    def test_rate_of_nonpositive_rejected(self):
        with pytest.raises(PlatformError):
            rate_of(Fraction(0))

    def test_time_of_positive(self):
        assert time_of(Fraction(4)) == Fraction(1, 4)

    def test_time_of_zero_is_infinity(self):
        assert is_infinite(time_of(Fraction(0)))

    def test_time_of_negative_rejected(self):
        with pytest.raises(PlatformError):
            time_of(Fraction(-1))

    def test_round_trip(self):
        w = Fraction(18, 5)
        assert time_of(rate_of(w)) == w


class TestIsInfinite:
    def test_inf(self):
        assert is_infinite(math.inf)

    def test_negative_inf_not(self):
        assert not is_infinite(-math.inf)

    def test_fraction_not(self):
        assert not is_infinite(Fraction(10**9))

    def test_plain_float_not(self):
        assert not is_infinite(3.5)


class TestLcm:
    def test_lcm_ints(self):
        assert lcm_ints([4, 6]) == 12

    def test_lcm_empty(self):
        assert lcm_ints([]) == 1

    def test_lcm_single(self):
        assert lcm_ints([7]) == 7

    def test_lcm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lcm_ints([4, 0])

    def test_lcm_denominators(self):
        assert lcm_denominators([Fraction(1, 6), Fraction(5, 4)]) == 12

    def test_lcm_denominators_integers(self):
        assert lcm_denominators([Fraction(3), Fraction(7)]) == 1

    def test_lcm_denominators_empty(self):
        assert lcm_denominators([]) == 1


class TestScaledInteger:
    def test_exact(self):
        assert scaled_integer(Fraction(5, 18), 18) == 5

    def test_zero(self):
        assert scaled_integer(Fraction(0), 12) == 0

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            scaled_integer(Fraction(1, 3), 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scaled_integer(Fraction(-1, 2), 2)


class TestFormatting:
    def test_integer(self):
        assert format_fraction(Fraction(3)) == "3"

    def test_ratio(self):
        assert format_fraction(Fraction(18, 5)) == "18/5"

    def test_infinity(self):
        assert format_fraction(INFINITY) == "inf"
