from fractions import Fraction

import pytest
from mpmath.libmp import finf, fnan, fninf, from_rational, fzero, round_floor

from vfzero import Interval
from vfzero.intervals import (
    PI,
    EnclosureError,
    _raw_to_fraction,
    cos_2pi_range,
    pi_power,
    sin_2pi_range,
)


class TestRawEndpoints:
    @pytest.mark.parametrize("raw", [finf, fninf, fnan], ids=["inf", "-inf", "nan"])
    def test_special_values_raise(self, raw):
        with pytest.raises(EnclosureError):
            _raw_to_fraction(raw)

    def test_zero_and_finite_values(self):
        assert _raw_to_fraction(fzero) == 0
        assert _raw_to_fraction(from_rational(-3, 8, 128, round_floor)) == Fraction(-3, 8)


class TestDyadicForm:
    def test_shared_power_of_two(self):
        assert Interval(Fraction(-3, 8), Fraction(5, 2)).dyadic == (-3, 20, 3)
        assert Interval.point(7).dyadic == (7, 7, 0)

    def test_non_dyadic_endpoint(self):
        assert Interval(Fraction(1, 3), Fraction(1)).dyadic is None
        assert Interval(Fraction(0), Fraction(5, 6)).dyadic is None

    def test_cached_enclosures_are_dyadic(self):
        for iv in (PI, pi_power(3), sin_2pi_range(Fraction(1, 3), Fraction(1, 2)),
                   cos_2pi_range(Fraction(1, 8), Fraction(3, 8))):
            a, b, e = iv.dyadic
            assert (Fraction(a, 1 << e), Fraction(b, 1 << e)) == (iv.lo, iv.hi)
