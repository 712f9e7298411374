from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_rational, fzero, round_floor

from vfzero import Interval
from vfzero.intervals import (
    PI,
    EnclosureError,
    _raw_to_fraction,
    atan2_range,
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


class _Mpz:
    """A mantissa that, like gmpy2.mpz, converts to int but is not one."""

    def __init__(self, v):
        self.v = v

    def __int__(self):
        return self.v

    __index__ = __int__

    def __bool__(self):
        return bool(self.v)


class TestRawToFraction:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 1), st.integers(1, 2**160), st.integers(-400, 400), st.booleans())
    def test_equals_power_formula(self, sign, man, exp, wrapped):
        # the formula the shift construction replaced
        ref = Fraction(man) * Fraction(2) ** exp
        raw = (sign, _Mpz(man) if wrapped else man, exp, man.bit_length())
        assert _raw_to_fraction(raw) == (-ref if sign else ref)

    @pytest.mark.parametrize("raw", [finf, fninf, fnan], ids=["inf", "-inf", "nan"])
    def test_wrapped_special_values_raise(self, raw):
        sign, man, exp, bc = raw
        with pytest.raises(EnclosureError):
            _raw_to_fraction((sign, _Mpz(man), exp, bc))


class TestDyadicForm:
    def test_shared_power_of_two(self):
        assert Interval(Fraction(-3, 8), Fraction(5, 2)).dyadic == (-3, 20, 3)
        assert Interval.point(7).dyadic == (7, 7, 0)

    def test_non_dyadic_endpoint(self):
        assert Interval(Fraction(1, 3), Fraction(1)).dyadic is None
        assert Interval(Fraction(0), Fraction(5, 6)).dyadic is None

    def test_cached_enclosures_are_dyadic(self):
        for iv in (PI, pi_power(3), sin_2pi_range(2, 3, 6),
                   cos_2pi_range(1, 3, 8)):
            a, b, e = iv.dyadic
            assert (Fraction(a, 1 << e), Fraction(b, 1 << e)) == (iv.lo, iv.hi)


class TestAtan2IntegerForm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4), st.integers(1, 40),
           st.integers(1, 40))
    def test_integer_form_gives_the_interval_result(self, ends, yden, xden):
        # unreduced numerators over any positive denominator
        ylo, yhi, xlo, xhi = min(ends[:2]), max(ends[:2]), min(ends[2:]), max(ends[2:])
        y = Interval(Fraction(ylo, yden), Fraction(yhi, yden))
        x = Interval(Fraction(xlo, xden), Fraction(xhi, xden))
        try:
            ref = atan2_range(y, x)
        except EnclosureError:
            with pytest.raises(EnclosureError):
                atan2_range((ylo, yhi, yden), (xlo, xhi, xden))
            return
        assert atan2_range((ylo, yhi, yden), (xlo, xhi, xden)) == ref
        assert atan2_range(y, (xlo, xhi, xden)) == ref
