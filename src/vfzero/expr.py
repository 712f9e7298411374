"""Exact symbolic expressions on the plane and the flat torus.

An ``Expr`` is a normalized sum of terms

    coeff * pi^k * x^a * y^b * sin2px^p * cos2px^e * sin2py^q * cos2py^f

with exact rational coefficients.  On the plane only ``x``, ``y`` (and the
scalar unit ``pi``) may appear; on the torus the generators are the four
trig functions sin(2*pi*x), cos(2*pi*x), sin(2*pi*y), cos(2*pi*y) plus
``pi``.  Normal form eliminates squares of cosines via cos^2 = 1 - sin^2,
so every stored term has cosine exponents 0 or 1; with that convention two
expressions are equal as functions on their domain iff their normal forms
are identical.

The coefficients are stored as integer numerators over one shared
positive denominator (``_num`` and ``_den``), reduced so that
``gcd(_den, *_num.values()) == 1``; the zero expression has ``_den == 1``.
Addition, multiplication, negation, powers and derivatives therefore run
on ``int`` numerators only, with one gcd reduction per result.
``Fraction`` values are built only where coefficients are read:
``terms()``, ``coefficient()``, ``eval_at``, printing and hashing.  Exact
polynomial division (``divide_exact``) runs on the integer numerators as
well.  A coefficient must be an ``int`` or a ``Fraction``; a float or a
string raises ``TypeError``, also as the plain operand of a ring
operation.

``derivation_sum`` is the Lie bracket's primitive: a sum of products
``a * b.derive(var)`` computed as one integer sum over a common
denominator and normalized once.  It shares its product loop
(``_add_product``) with ``*`` and its derivative rule (``_derivative``)
with ``derive``; since the normal form is unique its result is ``==`` to
the composition of those operations, with the terms in another order.

Enclosures over boxes take one exact path: ``dyadic_kernel()`` compiles
the numerators once, and its ``range_dyadic`` evaluates a box whose
coordinates are integers over q * 2^e in ``int`` arithmetic.
``range_on`` converts a ``Box`` to that form and the result back to an
``Interval``.  The compiled kernel works as little as it can per box: a
term without pi has the point coefficient [n, n], so its first factor is
a scaling whose endpoint order the sign of n fixes; odd powers and powers
of nonnegative axes keep the endpoint order; only the axes that the trig
generators use become trig cache keys.  None of this changes a value:
every term is Moore's natural interval extension of it, and the result
is the interval of term-by-term ``Fraction`` interval arithmetic,
endpoint for endpoint.

The unit ``pi`` enters through derivatives of the trig generators
(d/dx sin(2*pi*x) = 2*pi*cos(2*pi*x)) and is carried symbolically, never
as a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .intervals import (
    Box, IntRange, Interval, cos_2pi_range, imul, lattice_form, odd_denominator, pi_power,
    sin_2pi_range,
)

PLANE = "plane"
TORUS = "torus"

# term key: (kpi, ex, ey, s1, c1, s2, c2)
Key = tuple[int, int, int, int, int, int, int]

_ONE_KEY: Key = (0, 0, 0, 0, 0, 0, 0)

_PLANE_GEN_KEYS = {"x": (0, 1, 0, 0, 0, 0, 0), "y": (0, 0, 1, 0, 0, 0, 0)}
_TORUS_GEN_KEYS = {
    "sin2px": (0, 0, 0, 1, 0, 0, 0),
    "cos2px": (0, 0, 0, 0, 1, 0, 0),
    "sin2py": (0, 0, 0, 0, 0, 1, 0),
    "cos2py": (0, 0, 0, 0, 0, 0, 1),
}
_PI_KEY: Key = (1, 0, 0, 0, 0, 0, 0)

_SIN_QUARTER = {
    Fraction(0): Fraction(0),
    Fraction(1, 4): Fraction(1),
    Fraction(1, 2): Fraction(0),
    Fraction(3, 4): Fraction(-1),
}
_COS_QUARTER = {
    Fraction(0): Fraction(1),
    Fraction(1, 4): Fraction(0),
    Fraction(1, 2): Fraction(-1),
    Fraction(3, 4): Fraction(0),
}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    pass


class ExactEvalError(ArithmeticError):
    """The requested point has no exact rational value for this expression."""


def _normalize(terms: dict[Key, int]) -> dict[Key, int]:
    """Combine like terms and rewrite cos^2 -> 1 - sin^2 until cosine
    exponents are at most 1.

    The coefficients are numerators over a denominator the caller keeps.
    Terms leave in stack order (the input order reversed when nothing is
    rewritten), which is the order ``eval_float`` sums in.
    """
    out: dict[Key, int] = {}
    get = out.get
    stack = [(k, c) for k, c in terms.items() if c]
    while stack:
        key, coeff = stack.pop()
        if key[4] >= 2 or key[6] >= 2:
            kpi, ex, ey, s1, c1, s2, c2 = key
            if c1 >= 2:
                m, r = divmod(c1, 2)
                for j in range(m + 1):
                    cj = coeff * math.comb(m, j) * (-1) ** j
                    stack.append(((kpi, ex, ey, s1 + 2 * j, r, s2, c2), cj))
            else:
                m, r = divmod(c2, 2)
                for j in range(m + 1):
                    cj = coeff * math.comb(m, j) * (-1) ** j
                    stack.append(((kpi, ex, ey, s1, c1, s2 + 2 * j, r), cj))
            continue
        acc = get(key, 0) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _reduce(num: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
    """Divide the common factor out of numerators ``num`` over ``den`` > 0
    (no numerators leave ``den == 1``)."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {k: c // g for k, c in num.items()}, den // g
    return num, den


def _add_product(out: dict[Key, int], a: dict[Key, int], b: dict[Key, int], scale: int) -> None:
    """Add ``scale * a * b`` to the numerators ``out``, term by term in the
    order of ``a``, then of ``b``; the result is left unnormalized."""
    get = out.get
    items2 = b.items()
    for (a0, a1, a2, a3, a4, a5, a6), c1 in a.items():
        c1 *= scale
        for (b0, b1, b2, b3, b4, b5, b6), c2 in items2:
            key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6)
            out[key] = get(key, 0) + c1 * c2


def _derivative(num: dict[Key, int], var: str) -> dict[Key, int]:
    """Partial derivative in ``var`` ('x' or 'y') of the numerators ``num``,
    over the same denominator and unnormalized: a cosine exponent may reach
    2 and a combined coefficient may be 0."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    out: dict[Key, int] = {}

    def acc(key: Key, c: int):
        out[key] = out.get(key, 0) + c

    for (kpi, ex, ey, s1, c1, s2, c2), coeff in num.items():
        if var == "x":
            if ex:
                acc((kpi, ex - 1, ey, s1, c1, s2, c2), coeff * ex)
            if s1:
                acc((kpi + 1, ex, ey, s1 - 1, c1 + 1, s2, c2), coeff * s1 * 2)
            if c1:
                acc((kpi + 1, ex, ey, s1 + 1, c1 - 1, s2, c2), -coeff * c1 * 2)
        else:
            if ey:
                acc((kpi, ex, ey - 1, s1, c1, s2, c2), coeff * ey)
            if s2:
                acc((kpi + 1, ex, ey, s1, c1, s2 - 1, c2 + 1), coeff * s2 * 2)
            if c2:
                acc((kpi + 1, ex, ey, s1, c1, s2 + 1, c2 - 1), -coeff * c2 * 2)
    return out


def derivation_sum(terms: Sequence[tuple[int, "Expr", "Expr", str]]) -> "Expr":
    """The exact sum of ``sign * a * b.derive(var)`` over the tuples
    ``(sign, a, b, var)`` in the nonempty ``terms``, all of whose Exprs
    live on one domain.

    One integer sum of products: each derivative is taken on ``b``'s
    numerators without normalizing, each product is scaled to the lcm of
    the ``a._den * b._den``, and the sum is normalized and reduced once.
    The normal form is unique, so the result is ``==`` to the composition
    of ``derive``, ``*``, ``+`` and ``-``; its terms are in another order.
    """
    domain = terms[0][1].domain
    dens = []
    for _, a, b, _ in terms:
        if a.domain != domain or b.domain != domain:
            raise DomainError("domain mismatch")
        dens.append(a._den * b._den)
    den = math.lcm(*dens)
    out: dict[Key, int] = {}
    for (sign, a, b, var), d in zip(terms, dens):
        _add_product(out, a._num, _derivative(b._num, var), sign * (den // d))
    return _make(domain, *_reduce(_normalize(out), den))


class Expr:
    """Immutable normal-form expression tied to a domain.

    The coefficient of the term with key ``k`` is ``_num[k] / _den``: the
    numerators are nonzero ints over one positive denominator, and
    ``gcd(_den, *_num.values()) == 1``, so equal expressions have equal
    ``_num`` and ``_den``.
    """

    # _hash and _kernel are set on first use only (see _DyadicKernel), so
    # construction and ring operations never pay for them
    __slots__ = ("domain", "_num", "_den", "_hash", "_kernel")

    def __init__(self, domain: str, terms: dict[Key, Fraction]):
        """``terms`` maps keys to rationals (``Fraction`` or ``int``)."""
        if domain not in (PLANE, TORUS):
            raise DomainError(f"unknown domain {domain!r}")
        try:
            den = math.lcm(*(c.denominator for c in terms.values()))
        except AttributeError:
            key, c = next((k, c) for k, c in terms.items() if not hasattr(c, "denominator"))
            raise TypeError(f"coefficient {c!r} of term {key} is not an int or Fraction") from None
        num, den = _reduce(
            _normalize({k: c.numerator * (den // c.denominator) for k, c in terms.items()}), den
        )
        _set_domain(self, domain)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(domain: str) -> "Expr":
        return Expr(domain, {})

    @staticmethod
    def const(value, domain: str) -> "Expr":
        return Expr(domain, {_ONE_KEY: value})

    @staticmethod
    def gen(name: str, domain: str) -> "Expr":
        if domain not in (PLANE, TORUS):
            raise DomainError(f"unknown domain {domain!r}: expected {PLANE!r} or {TORUS!r}")
        if name == "pi":
            return Expr(domain, {_PI_KEY: 1})
        if name in _PLANE_GEN_KEYS:
            if domain != PLANE:
                raise DomainError(f"generator {name!r} is not a function on the torus")
            return Expr(domain, {_PLANE_GEN_KEYS[name]: 1})
        if name in _TORUS_GEN_KEYS:
            if domain != TORUS:
                raise DomainError(f"torus generator {name!r} used under plane domain")
            return Expr(domain, {_TORUS_GEN_KEYS[name]: 1})
        raise DomainError(f"unknown generator {name!r}")

    # -- ring operations ----------------------------------------------
    # integer numerators only: operands are brought to a common
    # denominator, and _reduce divides out one gcd at the end

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.domain != self.domain:
                raise DomainError("domain mismatch")
            return other
        return Expr.const(other, self.domain)

    def __add__(self, other) -> "Expr":
        other = self._coerce(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._num)
            items = other._num.items()
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            out = {k: c * m1 for k, c in self._num.items()}
            items = [(k, c * m2) for k, c in other._num.items()]
            d1 *= m1
        for k, c in items:
            out[k] = out.get(k, 0) + c
        return _make(self.domain, *_reduce(_normalize(out), d1))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        # reversed, as _normalize orders a copy; the gcd is unchanged
        return _make(self.domain, {k: -c for k, c in reversed(self._num.items())}, self._den)

    def __sub__(self, other) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Expr":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = self._coerce(other)
        out: dict[Key, int] = {}
        _add_product(out, self._num, other._num, 1)
        return _make(self.domain, *_reduce(_normalize(out), self._den * other._den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Expr.const(1, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def has_trig(self) -> bool:
        return any(k[3] or k[4] or k[5] or k[6] for k in self._num)

    def terms(self) -> Iterator[tuple[Key, Fraction]]:
        den = self._den
        return ((k, Fraction(self._num[k], den)) for k in sorted(self._num, reverse=True))

    def coefficient(self, key: Key) -> Fraction:
        return Fraction(self._num.get(key, 0), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.domain == other.domain and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            den = self._den
            h = hash((self.domain, frozenset((k, Fraction(c, den)) for k, c in self._num.items())))
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus ------------------------------------------------------

    def derive(self, var: str) -> "Expr":
        """Exact partial derivative with respect to 'x' or 'y'."""
        return _make(self.domain, *_reduce(_normalize(_derivative(self._num, var)), self._den))

    # -- evaluation ----------------------------------------------------

    def eval_at(self, p: tuple[Fraction, Fraction]) -> Fraction:
        """Exact value at a rational point.

        On the torus this is only defined on the quarter grid (coordinates
        that are multiples of 1/4 mod 1), where sin and cos of 2*pi*t take
        values in {-1, 0, 1}; elsewhere use range_on with a degenerate box.
        """
        px, py = Fraction(p[0]), Fraction(p[1])
        total = 0  # the numerator over _den
        for (kpi, ex, ey, s1, c1, s2, c2), coeff in self._num.items():
            if kpi:
                raise ExactEvalError("pi power has no exact rational value")
            v = coeff
            if ex:
                v *= px**ex
            if ey:
                v *= py**ey
            if s1 or c1 or s2 or c2:
                rx, ry = px % 1, py % 1
                if rx not in _SIN_QUARTER or ry not in _SIN_QUARTER:
                    raise ExactEvalError(
                        f"no exact trig value at ({px}, {py}); use interval evaluation"
                    )
                if s1:
                    v *= _SIN_QUARTER[rx] ** s1
                if c1:
                    v *= _COS_QUARTER[rx] ** c1
                if s2:
                    v *= _SIN_QUARTER[ry] ** s2
                if c2:
                    v *= _COS_QUARTER[ry] ** c2
            total += v
        return Fraction(total, self._den)

    def eval_float(self, x: float, y: float) -> float:
        """Fast float evaluation (flow integration, plotting, oracles)."""
        # n / den is the correctly rounded float(Fraction(n, den))
        den = self._den
        total = 0.0
        for (kpi, ex, ey, s1, c1, s2, c2), coeff in self._num.items():
            v = coeff / den
            if kpi:
                v *= math.pi**kpi
            if ex:
                v *= x**ex
            if ey:
                v *= y**ey
            if s1:
                v *= math.sin(2 * math.pi * x) ** s1
            if c1:
                v *= math.cos(2 * math.pi * x) ** c1
            if s2:
                v *= math.sin(2 * math.pi * y) ** s2
            if c2:
                v *= math.cos(2 * math.pi * y) ** c2
            total += v
        return total

    def range_on(self, box: Box) -> Interval:
        """Certified enclosure of the expression over the box.

        Term-wise interval arithmetic with tight integer powers; containment
        of the true range is unconditional since all endpoints are exact.
        The corners become integers over q * 2^e (``lattice_form``) and
        the kernel evaluates them in pure ``int`` arithmetic; the endpoints
        are those of the same interval operations on ``Fraction`` values.
        """
        x, y = box.x, box.y
        q = odd_denominator(x.lo, x.hi, y.lo, y.hi)
        return Interval.from_ints(*self.dyadic_kernel().range_dyadic(
            lattice_form(x.lo, x.hi, q), lattice_form(y.lo, y.hi, q), q))

    def dyadic_kernel(self) -> "_DyadicKernel":
        """The integer enclosure kernel, compiled on first use.

        Its ``range_dyadic(x, y, q)`` is the integer entry behind
        ``range_on``: quadtree cells and boundary pieces, which are held as
        integer numerators, call it directly."""
        try:
            return self._kernel
        except AttributeError:
            kernel = _DyadicKernel(self._num, self._den)
            object.__setattr__(self, "_kernel", kernel)
            return kernel

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts: list[str] = []
        for key, coeff in self.terms():
            gens = _gens_string(key)
            mag = abs(coeff)
            if gens:
                body = gens if mag == 1 else f"{mag}*{gens}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self.domain!r}, {self})"


# the slot setters themselves, which Expr.__setattr__ would refuse
_set_domain, _set_num, _set_den = Expr.domain.__set__, Expr._num.__set__, Expr._den.__set__


def _make(domain: str, num: dict[Key, int], den: int) -> Expr:
    """An Expr of canonical numerators over ``den``, built without checks."""
    e = object.__new__(Expr)
    _set_domain(e, domain)
    _set_num(e, num)
    _set_den(e, den)
    return e


def _gens_string(key: Key) -> str:
    kpi, ex, ey, s1, c1, s2, c2 = key
    names = ("pi", "x", "y", "sin2px", "cos2px", "sin2py", "cos2py")
    factors = []
    for name, e in zip(names, (kpi, ex, ey, s1, c1, s2, c2)):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


# ---------------------------------------------------------------------------
# dyadic-integer enclosure kernel


def _trig_key(axis: tuple[int, int, int], q: int) -> tuple[int, int, int]:
    """The axis (a, b, e) over q as a trig cache key: (a, b, q 2^e) reduced."""
    a, b, e = axis
    den = q << e
    g = math.gcd(a, b, den)
    return a // g, b // g, den // g


# generator indices of a term key's exponents (ex, ey, s1, c1, s2, c2)
_SX, _CX, _SY, _CY = 2, 3, 4, 5


class _DyadicKernel:
    """An Expr compiled for exact integer evaluation on boxes.

    A box whose coordinates are integers over q * 2^e is evaluated term by
    term with the interval products and tight powers of Fraction interval
    arithmetic, on integers scaled by Q * q^D * 2^s, where Q is the Expr's
    denominator and D the top x/y degree; terms are added after aligning
    their shifts.  The result is the interval that term-by-term Fraction
    interval arithmetic gives, endpoint for endpoint.

    Compiled once per Expr:

    * a term's head is its pi power (an integer interval over 2^shift)
      if it has one, else its first factor, else the unit.  Its numerator
      n is the point coefficient [n, n], so it scales the head [a, b] to
      (n a, n b) if n >= 0 and to (n b, n a) otherwise, which is what
      ``imul(n, n, a, b)`` returns; only the other factors go through
      ``imul``;
    * every distinct (generator, exponent) factor is one slot of the
      per-call power table: exponent 1 passes the axis through, an odd
      exponent keeps the endpoint order, and only even powers test signs;
    * the trig generators are looked up once each per box, in the order a
      term-by-term evaluation meets them, and only the axes they use are
      reduced to cache keys.
    """

    __slots__ = ("den", "terms", "degrees", "top_degree", "constants", "odd", "even", "trig",
                 "trig_x", "trig_y")

    def __init__(self, num: dict[Key, int], den: int):
        self.den = den
        trig: list[int] = []  # trig generators in the order first met
        raw = []
        for (kpi, ex, ey, s1, c1, s2, c2), n in num.items():
            factors = [(gen, e) for gen, e in enumerate((ex, ey, s1, c1, s2, c2)) if e]
            trig += [gen for gen, _ in factors if gen >= _SX and gen not in trig]
            raw.append((n, kpi, factors))
        # the per-call power table: the heads (the unit and pi powers),
        # the bases x, y and the trig ranges in lookup order, then the odd
        # and the even powers; a factor of exponent 1 is its base's slot
        heads = sorted({kpi for _, kpi, factors in raw if kpi or not factors})
        base = {gen: len(heads) + k for k, gen in enumerate([0, 1, *trig])}
        pairs = {(base[gen], e) for _, _, factors in raw for gen, e in factors if e > 1}
        odd = sorted(p for p in pairs if p[1] % 2)
        even = sorted(p for p in pairs if p[1] % 2 == 0)
        power = {p: len(heads) + len(base) + k for k, p in enumerate(odd + even)}
        terms = []
        degrees = []
        for (n, kpi, factors), (_, ex, ey, *_) in zip(raw, num):
            slots = [base[gen] if e == 1 else power[base[gen], e] for gen, e in factors]
            if kpi or not slots:
                slots.insert(0, heads.index(kpi))
            terms.append((n, slots[0], tuple(slots[1:])))
            degrees.append(ex + ey)
        self.terms = tuple(terms)
        self.degrees = tuple(degrees)
        self.top_degree = max(degrees, default=0)
        self.constants = tuple(pi_power(kpi).dyadic for kpi in heads)
        self.odd = tuple(odd)
        self.even = tuple(even)
        self.trig = tuple((sin_2pi_range if gen in (_SX, _SY) else cos_2pi_range, gen >= _SY)
                          for gen in trig)
        self.trig_x = _SX in trig or _CX in trig
        self.trig_y = _SY in trig or _CY in trig

    def range_dyadic(self, x, y, q: int) -> IntRange:
        """The enclosure over the box with axes ``x = (a, b, e)``, the
        interval [a/(q 2^e), b/(q 2^e)], and ``y`` alike, in integer form:
        the interval that Fraction interval arithmetic gives.  The
        numerators need not be reduced, and q > 0."""
        # x and y keep their own power-of-two denominators; the shifts of
        # the factors add up per term, and terms are aligned when summed.
        # Their common factor q is cleared by scaling a term of
        # x/y degree d by q^(D - d): positive scalings commute with interval
        # products and tight powers, and every term is then over q^D
        powers = [*self.constants, x, y]
        if self.trig:
            xkey = _trig_key(x, q) if self.trig_x else None
            ykey = _trig_key(y, q) if self.trig_y else None
            for fn, on_y in self.trig:
                # the lookups of term-by-term Fraction interval arithmetic,
                # in its order, so the lru_cache statistics match it
                powers.append(fn(*(ykey if on_y else xkey)).dyadic)  # trig endpoints are dyadic
        for k, n in self.odd:
            a, b, s = powers[k]
            powers.append((a**n, b**n, s * n))
        for k, n in self.even:
            # tight {t**n : t in [a, b]}, as Interval.int_pow
            a, b, s = powers[k]
            if a >= 0:
                powers.append((a**n, b**n, s * n))
            elif b <= 0:
                powers.append((b**n, a**n, s * n))
            else:
                powers.append((0, max(a**n, b**n), s * n))
        terms = self.terms
        den = self.den
        if q != 1:
            deg = self.top_degree
            terms = [(n * q ** (deg - d), head, rest) for (n, head, rest), d in zip(terms, self.degrees)]
            den *= q**deg
        lo_sum = hi_sum = top = 0
        for n, head, rest in terms:
            a, b, shift = powers[head]
            lo, hi = (n * a, n * b) if n >= 0 else (n * b, n * a)
            for k in rest:
                a, b, s = powers[k]
                lo, hi = imul(lo, hi, a, b)
                shift += s
            if shift > top:
                lo_sum <<= shift - top
                hi_sum <<= shift - top
                top = shift
            elif shift < top:
                lo <<= top - shift
                hi <<= top - shift
            lo_sum += lo
            hi_sum += hi
        return lo_sum, hi_sum, den << top


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, domain: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[0] == "*":
            self.take()
            e = e * self.unary()
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return -self.unary()
        if tok[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("NUM")
            return base ** int(tok[1])
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "NUM":
            self.take()
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.take()
                den = self.take("NUM")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator in ratio literal", den[2])
                value = Fraction(int(tok[1]), int(den[1]))
            return Expr.const(value, self.domain)
        if tok[0] == "IDENT":
            self.take()
            try:
                return Expr.gen(tok[1], self.domain)
            except DomainError as exc:
                raise ParseError(str(exc), tok[2]) from exc
        if tok[0] == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(text: str, domain: str = PLANE) -> Expr:
    """Parse an expression string into normal form.

    Grammar: identifiers x, y, sin2px, cos2px, sin2py, cos2py, pi;
    operators + - * ^, parentheses, integer and ratio literals "a/b".
    """
    return _Parser(text, domain).parse()


# ---------------------------------------------------------------------------
# exact polynomial division


def _long_divide(a: dict[tuple, int], b: dict[tuple, int]) -> Optional[tuple[dict, int]]:
    """Integer long division of polynomials held as ``{exponents: int}``.

    Divides ``a`` by the nonzero ``b`` term by term from the
    lexicographically largest exponent tuple down, and returns
    ``(q, m)`` with ``m * a == q * b``, or None when ``b`` does not divide
    ``a`` over the rationals.  ``m > 0`` collects the factors by which the
    remainder was scaled whenever ``b``'s leading coefficient did not
    divide the remainder's (a pseudo-division); when ``b`` divides ``a``
    over the integers, ``m == 1``.  ``q`` holds its terms in decreasing
    exponent order.
    """
    bterms = sorted(b.items(), reverse=True)
    (blead, bc), rest = bterms[0], bterms[1:]
    rem = dict(a)
    quo: dict[tuple, int] = {}
    m = 1
    while rem:
        rkey = max(rem)
        diff = tuple(r - s for r, s in zip(rkey, blead))
        if min(diff) < 0:
            return None
        rc = rem.pop(rkey)
        scale = abs(bc) // math.gcd(rc, bc)
        if scale != 1:
            rem = {k: c * scale for k, c in rem.items()}
            quo = {k: c * scale for k, c in quo.items()}
            m *= scale
            rc *= scale
        c = rc // bc
        quo[diff] = c
        for k, v in rest:
            key = tuple(d + e for d, e in zip(diff, k))
            acc = rem.get(key, 0) - c * v
            if acc:
                rem[key] = acc
            else:
                del rem[key]
    return quo, m


def divide_exact(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact quotient a/b in the polynomial term ring, or None.

    Long division by the leading monomial in lexicographic order; with a
    single divisor, a zero remainder occurs iff b divides a exactly.
    Intended for pure polynomials (trig-free expressions); pi is treated
    as one more formal variable.  The division runs on the integer
    numerators (``_long_divide``), so no ``Fraction`` is built.
    """
    if a.domain != b.domain:
        raise DomainError("domain mismatch")
    if a.has_trig() or b.has_trig():
        raise ValueError("divide_exact requires trig-free expressions")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero expression")
    out = _long_divide(a._num, b._num)
    if out is None:
        return None
    # m * A == Q * B for the numerators, so a/b = (Q/m) * (b._den / a._den);
    # the terms are stored in increasing key order, as Expr() would order them
    quo, m = out
    db = b._den
    return _make(a.domain, *_reduce({k: c * db for k, c in reversed(quo.items())}, m * a._den))
