"""Exact rational intervals and boxes.

All interval endpoints are exact ``fractions.Fraction`` values, so every
enclosure computed here is unconditional: no floating-point rounding mode
games are needed.  The transcendental enclosures the runtime needs, pi
and sin/cos(2*pi*t), are computed here on integers with explicit error
bounds: pi by Machin's formula, sin and cos by alternating Taylor series
after an exact reduction of t to a phase in [0, 1/8].  They are rounded
outward to multiples of 2^-126 (pi) and 2^-128 (sin, cos), which is the
only approximation; t at a multiple of 1/4 gives the exact value.

Every coordinate the geometry handles has an integer form: a numerator
over q * 2^e, where q is the lcm of the odd parts of the denominators of
a region's corners (``odd_denominator``; q = 1 for a dyadic region), and
every corner of its quadtree cells and every vertex of its boundary
pieces shares that q.  ``lattice_form`` gives the numerators of an
interval.
The pi/sin/cos endpoints and the exact values -1, 0, 1 are *dyadic*,
q = 1: ``Interval.dyadic`` exposes that form, cached on the interval
object, so the pi powers and the trig enclosures held by
``sin_2pi_range`` and ``cos_2pi_range``'s ``lru_cache`` convert once per
cache entry.  ``Expr.range_on`` evaluates every box in pure ``int``
arithmetic on these forms.

Enclosures also travel in integer form, ``IntRange`` (lo, hi, den) for
[lo/den, hi/den]: ``Interval.from_ints`` and ``Interval.ints`` convert,
and ``imul`` multiplies.  ``Fraction`` endpoints are built where an
``Interval`` is returned or stored; the trig caches are keyed on the
reduced integer form of their interval.

Only ``atan2_range``, which the tests' winding oracle and the benchmark
tracer use, still takes its enclosure from mpmath's interval context at
128 bits; it imports mpmath, which comes with the ``test`` extra, on its
first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Optional, Union

Rational = Fraction
RationalLike = Union[Fraction, int]
# An interval in integer form: (lo, hi, den) with den > 0 is [lo/den, hi/den].
IntRange = tuple[int, int, int]


class EnclosureError(ArithmeticError):
    """An enclosure could not be produced: an atan2 rectangle that contains
    the origin, or a non-finite mpmath endpoint.  Only ``atan2_range``
    raises it; that needs mpmath from the ``test`` extra, and both move to
    ``tests/oracles.py`` once the benchmark stops binding ``atan2_range``
    (ROADMAP item 3)."""


def dyadic_form(lo: Fraction, hi: Fraction) -> Optional[tuple[int, int, int]]:
    """(a, b, e) with lo = a / 2**e and hi = b / 2**e, or None when an
    endpoint's denominator is not a power of two."""
    d_lo, d_hi = lo.denominator, hi.denominator
    if d_lo & (d_lo - 1) or d_hi & (d_hi - 1):
        return None
    # powers of two: the larger denominator is a multiple of the other
    den = max(d_lo, d_hi)
    return lo.numerator * (den // d_lo), hi.numerator * (den // d_hi), den.bit_length() - 1


def odd_denominator(*values: Fraction) -> int:
    """The lcm of the odd parts of the values' denominators: the least q
    such that every value is an integer over q * 2^e for some e."""
    q = 1
    for v in values:
        d = v.denominator
        if d & (d - 1):  # not a power of two
            q = math.lcm(q, d >> ((d & -d).bit_length() - 1))
    return q


def lattice_form(lo: Fraction, hi: Fraction, q: int) -> tuple[int, int, int]:
    """(a, b, e) with lo = a / (q * 2**e) and hi = b / (q * 2**e); q must
    be a multiple of ``odd_denominator(lo, hi)``."""
    return dyadic_form(lo * q, hi * q) if q != 1 else dyadic_form(lo, hi)


def _exact(v: RationalLike) -> Fraction:
    """An ``int`` endpoint as a ``Fraction``; a float would silently become
    a nearby binary fraction, so it raises ``TypeError``."""
    if not isinstance(v, int):
        raise TypeError(f"endpoint {v!r} is not an int or Fraction")
    return Fraction(v)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints: an ``int``
    endpoint becomes a ``Fraction``, and any other non-``Fraction`` one, a
    float above all, raises ``TypeError``, as an ``Expr`` coefficient
    does."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", _exact(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", _exact(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(v: RationalLike) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def from_ints(lo: int, hi: int, den: int) -> "Interval":
        """The interval of the integer form (lo, hi, den); the inverse of
        ``ints``."""
        return Interval(Fraction(lo, den), Fraction(hi, den))

    def __add__(self, other: "Interval") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-other if isinstance(other, Interval) else Interval.point(-other))

    def __mul__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = Interval.point(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def int_pow(self, n: int) -> "Interval":
        """Tight enclosure of {t**n : t in self} for integer n >= 0."""
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return Interval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return Interval(self.hi**n, self.lo**n)
        # even power over an interval straddling zero
        return Interval(Fraction(0), max(self.lo**n, self.hi**n))

    def contains(self, v: RationalLike) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def mig(self) -> Fraction:
        """Minimum of |t| over the interval (0 if it contains zero)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def mag(self) -> Fraction:
        """Maximum of |t| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def ints(self) -> IntRange:
        """The interval in integer form."""
        lo, hi = self.lo, self.hi
        return lo.numerator * hi.denominator, hi.numerator * lo.denominator, lo.denominator * hi.denominator

    @cached_property
    def dyadic(self) -> Optional[tuple[int, int, int]]:
        """``dyadic_form(lo, hi)``, computed once per interval object."""
        return dyadic_form(self.lo, self.hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def imul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """[a, b] * [c, d] over the integers: the min and max of the four
    corner products, chosen by the signs of the factors."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


def _machin_pi(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= pi * 2**bits <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) on integers over 2**(bits + 32)."""
    guard = 32
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> tuple[int, int]:
        # atan(1/x) * one within +-err: each term one / ((2k+1) x^(2k+1))
        # is rounded down (by less than 1), and the alternating series
        # stops at the first term below 1, which bounds the tail
        total, power, k = 0, one // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total, k + 1

    a, err_a = atan_inv(5)
    b, err_b = atan_inv(239)
    mid, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    return (mid - err) >> guard, -(-(mid + err) >> guard)


# The trig kernel works on integers over 2**_W and rounds its enclosures
# outward to multiples of 2**-_GRID.
_W = 160
_GRID = 128
_ROUND = _W - _GRID
_PI_LO, _PI_HI = _machin_pi(_W)

# between consecutive multiples of 2^-126, the ulp of a 128-bit mantissa
PI: Interval = Interval(Fraction(_PI_LO >> (_W - 126), 1 << 126),
                        Fraction(-(-_PI_HI >> (_W - 126)), 1 << 126))

_PI_POWERS: dict[int, Interval] = {0: Interval.point(1), 1: PI}


def pi_power(k: int) -> Interval:
    if k not in _PI_POWERS:
        _PI_POWERS[k] = pi_power(k - 1) * PI
    return _PI_POWERS[k]


def _taylor(u: int, k: int) -> tuple[int, int]:
    """(lo, hi) over 2**_W enclosing sin(u / 2**_W) for k = 1 and
    cos(u / 2**_W) for k = 0, where 0 <= u < 2**_W.

    The terms u^k/k! of the series fall, so its partial sums alternate
    around the value: a sum that ends on a subtracted term is a lower
    bound, one that ends on an added term an upper bound.  Each term is
    the one before times u^2/((k+1)(k+2)), rounded down, so the j-th term
    after the first is low by less than j units."""
    u2, shift = u * u, 2 * _W
    t = u if k else 1 << _W
    s_lo = s_hi = hi = t
    j = 0
    while True:
        t = ((t * u2) >> shift) // ((k + 1) * (k + 2))
        k += 2
        j += 1
        if j % 2:
            s_lo -= t + j
            s_hi -= t
            lo = s_lo
        else:
            s_lo += t
            s_hi += t + j
            hi = s_hi
        if not t:
            return lo, hi


def _sin_2pi(n: int, d: int) -> tuple[int, int]:
    """(lo, hi) over 2**_W enclosing sin(2*pi*n/d), d > 0.

    The phase is reduced exactly: 2*pi*n/d = quarter*pi/2 + pi*f/(2d) with
    0 <= f < d, and past pi/4 the angle pi*f/(2d) is traded for its
    complement pi*(d - f)/(2d), which swaps sin and cos.  The series thus
    only meets angles u in [0, pi/4], where sin rises and cos falls, both
    with slope at most 1; u itself is enclosed in [u_lo, u_hi] from the
    enclosure of pi."""
    quarter, f = divmod(4 * (n % d), d)
    cos = quarter % 2 == 1
    if 2 * f > d:
        f, cos = d - f, not cos
    if f == 0:
        lo = hi = (1 << _W) if cos else 0
    else:
        u_lo, u_hi = _PI_LO * f // (2 * d), -(-_PI_HI * f // (2 * d))
        lo, hi = _taylor(u_lo, 0 if cos else 1)
        if cos:
            lo -= u_hi - u_lo
        else:
            hi += u_hi - u_lo
    return (-hi, -lo) if quarter >= 2 else (lo, hi)


def _trig_2pi_range(a: int, b: int, den: int, quarter: int, top: Fraction, bottom: Fraction) -> Interval:
    # sin(2*pi*(t + quarter/4)) on [a/den, b/den], the hull of its values
    # at the two ends, rounded outward, and the value 1 (-1) where the
    # phase top (bottom) lies inside (mod 1): between those critical
    # phases the function is monotone, so the hull holds every value
    if b - a >= den:
        return Interval(Fraction(-1), Fraction(1))
    lo, hi = _sin_2pi(4 * a + quarter * den, 4 * den)
    if b != a:
        lo_b, hi_b = _sin_2pi(4 * b + quarter * den, 4 * den)
        lo, hi = min(lo, lo_b), max(hi, hi_b)
    lo = max(Fraction(lo >> _ROUND, 1 << _GRID), Fraction(-1))
    hi = min(Fraction(-(-hi >> _ROUND), 1 << _GRID), Fraction(1))
    t_lo, t_hi = Fraction(a, den), Fraction(b, den)
    if _grid_point_in(t_lo, t_hi, top):
        hi = Fraction(1)
    if _grid_point_in(t_lo, t_hi, bottom):
        lo = Fraction(-1)
    return Interval(lo, hi)


@lru_cache(maxsize=1 << 16)
def sin_2pi_range(a: int, b: int, den: int) -> Interval:
    """Enclosure of {sin(2*pi*t) : t in [a/den, b/den]}, keyed on that
    integer form reduced by gcd(a, b, den): one key per interval, and
    ``Fraction`` endpoints only on a miss."""
    return _trig_2pi_range(a, b, den, 0, Fraction(1, 4), Fraction(3, 4))


@lru_cache(maxsize=1 << 16)
def cos_2pi_range(a: int, b: int, den: int) -> Interval:
    """Enclosure of {cos(2*pi*t) : t in [a/den, b/den]}, keyed as
    ``sin_2pi_range``."""
    return _trig_2pi_range(a, b, den, 1, Fraction(0), Fraction(1, 2))


def _grid_point_in(lo: Fraction, hi: Fraction, phase: Fraction) -> bool:
    # is there an integer k with lo <= phase + k <= hi?
    k = math.ceil(lo - phase)
    return lo <= phase + k <= hi


# atan2 from mpmath, which only the test extra installs.  Unused by the
# winding; kept for the tests' atan2 oracle and the benchmark tracer,
# which bind it.
_PREC_BITS = 128


@cache
def _iv():
    """mpmath's interval context at 128-bit precision, built on first use."""
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = _PREC_BITS
    return ctx


class _RawMpf:
    """Adapter letting a raw libmp value tuple pass through iv.convert."""

    __slots__ = ("_mpf_",)

    def __init__(self, raw):
        self._mpf_ = raw


def _raw_to_fraction(raw) -> Fraction:
    # raw is an mpf value tuple (sign, mantissa, exponent, bitcount);
    # mantissa may arrive as gmpy2.mpz, so coerce to plain int.  libmp
    # encodes +-inf and nan with a zero mantissa and a nonzero exponent or
    # bit count (zero itself is all zeros); those have no rational value.
    sign, man, exp, bc = raw
    if not man and (exp or bc):
        raise EnclosureError(f"non-finite mpmath endpoint {raw!r}")
    man, exp = int(man), int(exp)
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _iv_endpoints(x) -> tuple[Fraction, Fraction]:
    lo, hi = x._mpi_
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def _iv_from_ratios(p_lo: int, q_lo: int, p_hi: int, q_hi: int):
    from mpmath.libmp import from_rational, round_ceiling, round_floor

    # from_rational rounds the exact quotient, so p/q need not be reduced
    a = from_rational(p_lo, q_lo, _PREC_BITS, round_floor)
    b = from_rational(p_hi, q_hi, _PREC_BITS, round_ceiling)
    return _iv().mpf([_RawMpf(a), _RawMpf(b)])


def atan2_range(y: Union[Interval, IntRange], x: Union[Interval, IntRange]) -> Interval:
    """Enclosure of atan2 over the rectangle y x x.

    Each of ``y`` and ``x`` is an ``Interval`` or its integer form
    (``IntRange``); both forms give the same enclosure.  Raises
    EnclosureError when the rectangle contains the origin (the angle is
    then undefined).  Near the branch cut (x < 0, y straddling 0) a sound
    but wide enclosure is returned; callers detect the width and refine
    their inputs.

    This is the one enclosure still taken from mpmath, at 128 bits; it
    needs the ``test`` extra and moves to ``tests/oracles.py`` once the
    benchmark stops binding it (ROADMAP item 3).
    """
    (ylo, yhi, yden), (xlo, xhi, xden) = (v.ints() if isinstance(v, Interval) else v for v in (y, x))
    if xlo <= 0 <= xhi and ylo <= 0 <= yhi:
        raise EnclosureError("atan2 rectangle contains the origin")
    res = _iv().atan2(_iv_from_ratios(ylo, yden, yhi, yden), _iv_from_ratios(xlo, xden, xhi, xden))
    lo, hi = _iv_endpoints(res)
    return Interval(lo, hi)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with exact rational corners."""

    x: Interval
    y: Interval

    @staticmethod
    def from_corners(x0, y0, x1, y1) -> "Box":
        return Box(Interval(x0, x1), Interval(y0, y1))

    def contains_point(self, p: tuple[Fraction, Fraction]) -> bool:
        return self.x.contains(p[0]) and self.y.contains(p[1])

    def midpoint(self) -> tuple[Fraction, Fraction]:
        return (self.x.midpoint(), self.y.midpoint())

    def intersects(self, other: "Box") -> bool:
        return self.x.intersects(other.x) and self.y.intersects(other.y)

    def sample(self, tx: Fraction, ty: Fraction) -> tuple[Fraction, Fraction]:
        """Point at barycentric coordinates (tx, ty) in [0,1]^2."""
        return (
            self.x.lo + tx * self.x.width(),
            self.y.lo + ty * self.y.width(),
        )

    def __str__(self) -> str:
        return f"[{self.x.lo}, {self.x.hi}] x [{self.y.lo}, {self.y.hi}]"
