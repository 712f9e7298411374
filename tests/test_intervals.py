import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import finf, fnan, fninf, from_rational, fzero, round_floor

from conftest import NO_SHRINK
from oracles import dyadic_interval
from vfzero import Box, Interval, isolate_zeros, parse_field
from vfzero.intervals import (
    EnclosureError,
    _phase_in,
    _raw_to_fraction,
    _reduce_dyadic,
    atan2_range,
    cos_2pi_range,
    dyadic_form,
    pi_power,
    sin_2pi_range,
)


class TestExactEndpoints:
    @pytest.mark.parametrize("make", [
        lambda: Interval(0.1, 1),
        lambda: Interval(0, 0.5),
        lambda: Interval.point(0.5),
        lambda: Interval("1/3", 1),
    ], ids=["float-lo", "float-hi", "float-point", "string"])
    def test_inexact_endpoints_raise(self, make):
        with pytest.raises(TypeError, match="is not an int or Fraction"):
            make()

    def test_decimal_corner_is_not_rounded_to_binary(self):
        # 0.1 as a float is 3602879701896397/2^55, just right of the zero
        # line x = 1/10; only the exact corner keeps the zero in the region
        field = parse_field("(x - 1/10, y)")
        with pytest.raises(TypeError):
            isolate_zeros(field, Box.from_corners(0.1, -1, 1, 1), 6)
        assert isolate_zeros(field, Box.from_corners(Fraction(1, 10), -1, 1, 1), 6).blocks


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


def _is_reduced(t: tuple[int, int, int]) -> bool:
    """Whether the triple is the ``dyadic_form`` of its own endpoints."""
    iv = dyadic_interval(t)
    return dyadic_form(iv.lo, iv.hi) == t


class TestDyadicForm:
    def test_shared_power_of_two(self):
        assert dyadic_form(Fraction(-3, 8), Fraction(5, 2)) == (-3, 20, 3)
        assert dyadic_form(Fraction(7), Fraction(7)) == (7, 7, 0)

    def test_non_dyadic_endpoint(self):
        assert dyadic_form(Fraction(1, 3), Fraction(1)) is None
        assert dyadic_form(Fraction(0), Fraction(5, 6)) is None

    def test_cached_enclosures_are_dyadic(self):
        for t in (pi_power(1), pi_power(3), sin_2pi_range(2, 3, 6), cos_2pi_range(1, 3, 8)):
            assert _is_reduced(t), t

    def test_pi_powers_are_products_of_pi(self):
        # the Fraction interval powers that pi_power's integers replace
        pi, power = dyadic_interval(pi_power(1)), Interval.point(1)
        for k in range(8):
            assert dyadic_form(power.lo, power.hi) == pi_power(k)
            power = power * pi


# numerators with up to 140 trailing zero bits, zero among them
_shifted = st.builds(lambda m, s: m << s, st.integers(-2**20, 2**20), st.integers(0, 140))


class TestReduceDyadic:
    @settings(max_examples=500, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_shifted, _shifted, st.integers(0, 200))
    @example(0, 0, 7)
    @example(0, -24, 5)
    @example(-16, 0, 3)
    @example(-6, 12, 0)
    def test_equals_fraction_reduction(self, a, b, e):
        assert _reduce_dyadic(a, b, e) == dyadic_form(Fraction(a, 1 << e), Fraction(b, 1 << e))


def _ref_phase_in(a: int, b: int, den: int, quarter: int) -> bool:
    # is there an integer k with a/den <= quarter/4 + k <= b/den?
    lo, hi, phase = Fraction(a, den), Fraction(b, den), Fraction(quarter, 4)
    k = math.ceil(lo - phase)
    return lo <= phase + k <= hi


class TestPhaseIn:
    @settings(max_examples=1000, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 15, 40, 105, 3 << 20]), st.integers(0, 1 << 30),
           st.integers(0, 1 << 30), st.integers(0, 3))
    @example(4, 11, 0, 3)  # [-1/4, -1/4] is the phase 3/4
    @example(6, 17, 1, 0)  # [-1/6, 0] ends on the phase 0
    @example(12, 37, 1, 1)  # [1/12, 1/6] misses the phase 1/4
    def test_equals_fraction_definition(self, den, a, width, quarter):
        # [a/den, b/den] with a in [-3 den, 3 den) and a width of at most
        # two periods
        a = a % (6 * den) - 3 * den
        b = a + width % (2 * den + 1)
        assert _phase_in(a, b, den, quarter) == _ref_phase_in(a, b, den, quarter)


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


# mpmath's interval context at 256 bits: the oracle of the integer pi and
# sin/cos(2*pi*t) enclosures, which are rounded outward to 2^-126 and
# 2^-128 and so must hold it and exceed it by at most 2^-120 a side
_IV256 = MPIntervalContext()
_IV256.prec = 256
_SLACK = Fraction(1, 2**120)


def _oracle_endpoints(v) -> tuple[Fraction, Fraction]:
    lo, hi = v._mpi_
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def _trig_keys() -> list[tuple[int, int, int]]:
    """(a, b, den) keys: every pair of quarter and eighth points in
    [-1, 1], then fixed pseudo-random keys with negative numerators,
    denominators with odd factors 3, 5 and 7 (times powers of two), point
    intervals and intervals of one period or more."""
    keys = [(a, b, 8) for a, b in itertools.combinations_with_replacement(range(-8, 9), 2)]
    rng = random.Random(20240)
    odd = [1, 3, 5, 7, 15, 21, 35, 105]
    while len(keys) < 2000:
        den = rng.choice(odd) << rng.choice([0, 1, 2, 3, 6, 10, 20, 40])
        a = rng.randint(-3 * den, 3 * den)
        width = rng.choice([0, 0, 1, rng.randint(0, den // 4 + 1), rng.randint(0, den), den,
                            den + rng.randint(0, den)])
        keys.append((a, a + width, den))
    return keys


class TestTrigEnclosures:
    def test_pi_holds_mpmath_pi(self):
        lo, hi = _oracle_endpoints(+_IV256.pi)
        pi = dyadic_interval(pi_power(1))
        assert pi.lo <= lo <= hi <= pi.hi
        assert pi.hi - pi.lo <= Fraction(1, 2**126)

    @pytest.mark.parametrize("fn, ref", [(sin_2pi_range, _IV256.sin), (cos_2pi_range, _IV256.cos)],
                             ids=["sin", "cos"])
    def test_holds_the_256_bit_enclosure(self, fn, ref):
        keys = _trig_keys()
        assert len(keys) >= 2000
        for a, b, den in keys:
            t = fn(a, b, den)
            assert _is_reduced(t), (a, b, den, t)
            got = dyadic_interval(t)
            lo, hi = _oracle_endpoints(ref(2 * _IV256.pi * (_IV256.mpf([a, b]) / den)))
            lo, hi = max(lo, Fraction(-1)), min(hi, Fraction(1))
            # an exact value (at a multiple of 1/4, or a critical phase) is
            # the true one, which lies in the oracle but need not hold it
            assert got.lo <= lo or (got.lo in (-1, 0, 1) and lo <= got.lo <= hi), (a, b, den, got)
            assert got.hi >= hi or (got.hi in (-1, 0, 1) and lo <= got.hi <= hi), (a, b, den, got)
            assert lo - got.lo <= _SLACK and got.hi - hi <= _SLACK, (a, b, den, got)

    @pytest.mark.parametrize("q, sin, cos", [(0, 0, 1), (1, 1, 0), (2, 0, -1), (3, -1, 0), (-1, -1, 0)])
    def test_quarter_points_are_exact(self, q, sin, cos):
        for den in (4, 12, 20):
            a = q * den // 4
            assert sin_2pi_range(a, a, den) == (sin, sin, 0)
            assert cos_2pi_range(a, a, den) == (cos, cos, 0)


def test_import_does_not_load_mpmath():
    # the runtime is stdlib-only: mpmath is a test oracle, and atan2_range
    # imports it on first use
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import vfzero, vfzero.cli; " \
           "assert 'mpmath' not in sys.modules, sorted(m for m in sys.modules if 'mpmath' in m)"
    subprocess.run([sys.executable, "-c", code], check=True)
