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

A term's key is its exponent tuple ``(kpi, ex, ey, s1, c1, s2, c2)``
packed into one ``int``: seven 32-bit fields, ``kpi`` most significant,
so the order of the ints is the lexicographic order of the tuples.  Every
stored exponent is below ``EXP_BOUND`` = 2^30, so the key of a product
is the sum of its factors' keys with no carry between fields, the
cos^2 test is one mask, and the long division's divisibility test is one
subtraction against a guard bit per field.  A result with an exponent
past the bound raises ``DomainError``.  Only this module reads packed
keys: the constructor, ``terms()``, ``coefficient()``, hashing and
printing take and give the tuples.

The coefficients are stored as integer numerators over one shared
positive denominator (``_num`` and ``_den``), reduced so that
``gcd(_den, *_num.values()) == 1``; the zero expression has ``_den == 1``.
Addition, multiplication, negation, powers and derivatives therefore run
on ``int`` numerators only, with one gcd reduction per result.
``Fraction`` values are built only where coefficients are read:
``terms()``, ``coefficient()``, printing and hashing.  A coefficient must
be an ``int`` or a ``Fraction``; a float or a string raises
``TypeError``, also as the plain operand of a ring operation.

``divide_exact`` is the one exact division, for both domains, and runs on
the integer numerators as well: a long division in the free polynomial
ring of the term keys.  On the torus it first multiplies dividend and
divisor by the divisor's conjugate in each cosine it uses (the sign of
every term with that cosine flipped), which leaves a divisor free of
cosines, so the long division stays in normal form; the trig ring is an
integral domain, so this changes no quotient.

``poly_gcd``, next to it, is the gcd of two trig-free expressions, on
the integer numerators too: content/primitive-part Euclid in
Z[pi][y][x], made monic in the lexicographic order x > y > pi (sympy's
normalization, which the tests check it against; the package does not
use sympy).  It reduces a rational tracking cofactor
(``tracking.track_check``) and splits the scalar factor off a plane
field (``blocks.index_blocks``).

``derivation_sum`` is the Lie bracket's primitive: a sum of products
``a * b.derive(var)`` computed as one integer sum over a common
denominator and normalized once.  It shares its product loop
(``_products``) with ``*`` and its derivative rule (``_derivative``)
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
from typing import Iterable, Iterator, Optional, Sequence

from .intervals import (
    Box, IntRange, Interval, cos_2pi_range, imul, lattice_form, odd_denominator, pi_power,
    sin_2pi_range,
)

PLANE = "plane"
TORUS = "torus"

# the exponent tuple of a term, as the constructor, terms() and
# coefficient() take and give it: (kpi, ex, ey, s1, c1, s2, c2)
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

# The packed key: exponent e of field i (0 = kpi ... 6 = c2) is
# e << 32 * (6 - i).  Exponents below EXP_BOUND leave bits 30 and 31 of
# every field clear, so a sum of two keys cannot carry into the next field.
EXP_BOUND = 1 << 30
_FIELD = (1 << 32) - 1
_PI, _X, _Y, _S1, _C1, _S2, _C2 = (1 << 32 * (6 - i) for i in range(7))
_TRIG = (1 << 128) - 1  # the fields s1, c1, s2, c2
_OVER = sum(3 << 30 << 32 * i for i in range(7))  # an exponent >= EXP_BOUND
_GUARD = sum(1 << 31 << 32 * i for i in range(7))
_COS2 = (_FIELD - 1) * (_C1 | _C2)  # a cosine exponent >= 2
# derive(var): (shift of var's exponent, shift of its sine, var's unit,
# the step d/dvar sin -> 2 pi cos, the step d/dvar cos -> -2 pi sin)
_DERIVE = {"x": (160, 96, _X, _PI + _C1 - _S1, _PI + _S1 - _C1),
           "y": (128, 32, _Y, _PI + _C2 - _S2, _PI + _S2 - _C2)}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    pass


def _pack(key: Key, plane: bool) -> int:
    """The packed form of the exponent tuple ``key``: seven nonnegative
    ints below ``EXP_BOUND``, with no trig exponent on the plane."""
    try:
        kpi, ex, ey, s1, c1, s2, c2 = key
        if 0 <= (kpi | ex | ey | s1 | c1 | s2 | c2) < EXP_BOUND and not (plane and s1 | c1 | s2 | c2):
            return kpi << 192 | ex << 160 | ey << 128 | s1 << 96 | c1 << 64 | s2 << 32 | c2
    except (TypeError, ValueError):
        pass
    raise DomainError(f"term key {key!r} is not 7 exponents in [0, 2^30)"
                      + (" without a trig exponent on the plane" if plane else ""))


def _unpack(key: int) -> Key:
    return (key >> 192, key >> 160 & _FIELD, key >> 128 & _FIELD, key >> 96 & _FIELD,
            key >> 64 & _FIELD, key >> 32 & _FIELD, key & _FIELD)


def _normalize(terms: dict[int, int]) -> dict[int, int]:
    """Combine like terms and rewrite cos^2 -> 1 - sin^2 until cosine
    exponents are at most 1; raise ``DomainError`` when a term's exponent
    reaches ``EXP_BOUND``.

    The coefficients are numerators over a denominator the caller keeps,
    and the keys of ``terms`` are distinct.  Terms leave in stack order:
    the input order reversed, zeros dropped, when nothing is rewritten
    (always so on the plane).  That is the order ``eval_float`` sums in.
    """
    for key in terms:
        if key & (_COS2 | _OVER):
            break
    else:
        return {k: c for k, c in reversed(terms.items()) if c}
    out: dict[int, int] = {}
    get = out.get
    stack = [(k, c) for k, c in terms.items() if c]
    while stack:
        key, coeff = stack.pop()
        if key & _COS2:
            # cos^(2m + r) = (1 - sin^2)^m cos^r, in c1 first
            c1 = key >> 64 & _FIELD
            if c1 >= 2:
                m = c1 // 2
                key -= 2 * m * _C1
                step = 2 * _S1
            else:
                m = (key & _FIELD) // 2
                key -= 2 * m * _C2
                step = 2 * _S2
            for j in range(m + 1):
                stack.append((key + j * step, coeff * math.comb(m, j) * (-1) ** j))
            continue
        acc = get(key, 0) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    for key in out:
        if key & _OVER:
            raise DomainError(f"exponent past the bound 2^30 - 1 in term {_unpack(key)}")
    return out


def _reduce(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide the common factor out of numerators ``num`` over ``den`` > 0
    (no numerators leave ``den == 1``)."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {k: c // g for k, c in num.items()}, den // g
    return num, den


def _products(triples: Iterable[tuple[dict[int, int], dict[int, int], int]]) -> dict[int, int]:
    """The sum of ``scale * a * b`` over the triples ``(a, b, scale)`` of
    numerator dicts, unnormalized: terms in the order of the triples, then
    of ``a``, then of ``b``."""
    out: dict[int, int] = {}
    get = out.get
    for a, b, scale in triples:
        items = b.items()
        for ka, ca in a.items():
            ca *= scale
            for kb, cb in items:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
    return out


def _derivative(num: dict[int, int], var: str) -> dict[int, int]:
    """Partial derivative in ``var`` ('x' or 'y') of the numerators ``num``,
    over the same denominator and unnormalized: a cosine exponent may reach
    2 and a combined coefficient may be 0."""
    try:
        shift, sin_shift, unit, sin_step, cos_step = _DERIVE[var]
    except KeyError:
        raise ValueError("var must be 'x' or 'y'") from None
    out: dict[int, int] = {}
    get = out.get
    for key, coeff in num.items():
        e = key >> shift & _FIELD
        if e:
            k = key - unit
            out[k] = get(k, 0) + coeff * e
        if key & _TRIG:
            e = key >> sin_shift & _FIELD
            if e:
                k = key + sin_step
                out[k] = get(k, 0) + coeff * e * 2
            e = key >> sin_shift - 32 & _FIELD
            if e:
                k = key + cos_step
                out[k] = get(k, 0) - coeff * e * 2
    return out


def derivation_sum(terms: Sequence[tuple[int, "Expr", "Expr", str]]) -> "Expr":
    """The exact sum of ``sign * a * b.derive(var)`` over the tuples
    ``(sign, a, b, var)`` in the nonempty ``terms``, all of whose Exprs
    live on one domain.

    One integer sum of products: each derivative is taken on ``b``'s
    numerators without normalizing, each product is scaled to the lcm of
    the ``a._den * b._den``, and one pass of the product loop
    (``_products``) sums them all; the sum is normalized and reduced once.
    A product key is the sum of two packed keys.  The normal form is
    unique, so the result is ``==`` to the composition of ``derive``,
    ``*``, ``+`` and ``-``; its terms are in another order.
    """
    domain = terms[0][1].domain
    dens = []
    for _, a, b, _ in terms:
        if a.domain != domain or b.domain != domain:
            raise DomainError("domain mismatch")
        dens.append(a._den * b._den)
    den = math.lcm(*dens)
    out = _products([(a._num, _derivative(b._num, var), sign * (den // d))
                     for (sign, a, b, var), d in zip(terms, dens)])
    return _make(domain, *_reduce(_normalize(out), den))


class Expr:
    """Immutable normal-form expression tied to a domain.

    The coefficient of the term with packed key ``k`` is
    ``_num[k] / _den``: the numerators are nonzero ints over one positive
    denominator, and ``gcd(_den, *_num.values()) == 1``, so equal
    expressions have equal ``_num`` and ``_den``.
    """

    # _hash, _kernel and _float are set on first use only (see
    # _DyadicKernel and eval_float), so construction and ring operations
    # never pay for them
    __slots__ = ("domain", "_num", "_den", "_hash", "_kernel", "_float")

    def __init__(self, domain: str, terms: dict[Key, Fraction]):
        """``terms`` maps exponent tuples ``(kpi, ex, ey, s1, c1, s2, c2)``
        to rationals (``Fraction`` or ``int``).  Each exponent is an int in
        [0, ``EXP_BOUND``), and a plane key has no trig exponent; any other
        key raises ``DomainError``."""
        if domain not in (PLANE, TORUS):
            raise DomainError(f"unknown domain {domain!r}")
        try:
            den = math.lcm(*(c.denominator for c in terms.values()))
        except AttributeError:
            key, c = next((k, c) for k, c in terms.items() if not hasattr(c, "denominator"))
            raise TypeError(f"coefficient {c!r} of term {key} is not an int or Fraction") from None
        plane = domain == PLANE
        num, den = _reduce(_normalize(
            {_pack(k, plane): c.numerator * (den // c.denominator) for k, c in terms.items()}), den)
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
        out = _products(((self._num, other._num, 1),))
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
            n >>= 1
            if n:
                base = base * base
        return result

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def has_trig(self) -> bool:
        return any(k & _TRIG for k in self._num)

    def terms(self) -> Iterator[tuple[Key, Fraction]]:
        """The terms as (exponent tuple, coefficient), the largest tuple
        first."""
        num, den = self._num, self._den
        return ((_unpack(k), Fraction(num[k], den)) for k in sorted(num, reverse=True))

    def coefficient(self, key: Key) -> Fraction:
        """The coefficient of the exponent tuple ``key``; 0 for a key this
        domain cannot hold."""
        try:
            packed = _pack(key, self.domain == PLANE)
        except DomainError:
            return Fraction(0)
        return Fraction(self._num.get(packed, 0), self._den)

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
            h = hash((self.domain,
                      frozenset((_unpack(k), Fraction(c, den)) for k, c in self._num.items())))
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus ------------------------------------------------------

    def derive(self, var: str) -> "Expr":
        """Exact partial derivative with respect to 'x' or 'y'."""
        return _make(self.domain, *_reduce(_normalize(_derivative(self._num, var)), self._den))

    # -- evaluation ----------------------------------------------------

    def eval_float(self, x: float, y: float) -> float:
        """Fast float evaluation (flow integration, plotting, oracles).

        Term by term in stored order: the coefficient, times pi^kpi, times
        each generator power in key order.  The coefficients times their
        pi powers and the unpacked exponents are computed on the first
        call (``_float_terms``)."""
        try:
            terms = self._float
        except AttributeError:
            terms = _float_terms(self._num, self._den)
            object.__setattr__(self, "_float", terms)
        total = 0.0
        for v, ex, ey, s1, c1, s2, c2 in terms:
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


def _make(domain: str, num: dict[int, int], den: int) -> Expr:
    """An Expr of canonical numerators over ``den``, built without checks."""
    e = object.__new__(Expr)
    _set_domain(e, domain)
    _set_num(e, num)
    _set_den(e, den)
    return e


def _float_terms(num: dict[int, int], den: int) -> tuple:
    """The terms of ``eval_float``: (coefficient * pi^kpi as a float, ex,
    ey, s1, c1, s2, c2) in stored order."""
    out = []
    for key, n in num.items():
        v = n / den  # the correctly rounded float(Fraction(n, den))
        kpi = key >> 192
        if kpi:
            v *= math.pi**kpi
        out.append((v, key >> 160 & _FIELD, key >> 128 & _FIELD, key >> 96 & _FIELD,
                    key >> 64 & _FIELD, key >> 32 & _FIELD, key & _FIELD))
    return tuple(out)


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

    def __init__(self, num: dict[int, int], den: int):
        self.den = den
        trig: list[int] = []  # trig generators in the order first met
        raw = []
        for key, n in num.items():
            ex, ey = key >> 160 & _FIELD, key >> 128 & _FIELD
            factors = [(gen, e) for gen, e in enumerate((
                ex, ey, key >> 96 & _FIELD, key >> 64 & _FIELD, key >> 32 & _FIELD, key & _FIELD)) if e]
            trig += [gen for gen, _ in factors if gen >= _SX and gen not in trig]
            raw.append((n, key >> 192, factors, ex + ey))
        # the per-call power table: the heads (the unit and pi powers),
        # the bases x, y and the trig ranges in lookup order, then the odd
        # and the even powers; a factor of exponent 1 is its base's slot
        heads = sorted({kpi for _, kpi, factors, _ in raw if kpi or not factors})
        base = {gen: len(heads) + k for k, gen in enumerate([0, 1, *trig])}
        pairs = {(base[gen], e) for _, _, factors, _ in raw for gen, e in factors if e > 1}
        odd = sorted(p for p in pairs if p[1] % 2)
        even = sorted(p for p in pairs if p[1] % 2 == 0)
        power = {p: len(heads) + len(base) + k for k, p in enumerate(odd + even)}
        terms = []
        degrees = []
        for n, kpi, factors, degree in raw:
            slots = [base[gen] if e == 1 else power[base[gen], e] for gen, e in factors]
            if kpi or not slots:
                slots.insert(0, heads.index(kpi))
            terms.append((n, slots[0], tuple(slots[1:])))
            degrees.append(degree)
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
# exact polynomial division and gcd


def _long_divide(a: dict[int, int], b: dict[int, int]) -> Optional[tuple[dict, int]]:
    """Integer long division of polynomials held as ``{packed key: int}``.

    Divides ``a`` by the nonzero ``b`` term by term from the largest key
    (the lexicographically largest exponent tuple) down, and returns
    ``(q, m)`` with ``m * a == q * b``, or None when ``b`` does not divide
    ``a`` over the rationals.  ``m > 0`` collects the factors by which the
    remainder was scaled whenever ``b``'s leading coefficient did not
    divide the remainder's (a pseudo-division); when ``b`` divides ``a``
    over the integers, ``m == 1``.  ``q`` holds its terms in decreasing
    key order.

    The remainder's leading key r is divisible by b's leading key s when
    no field of r is below s's: with every field of r below 2^31, that
    holds iff ``(r | _GUARD) - s`` keeps every guard bit, and the
    quotient key is that difference without them.  A leading key with an
    exponent past ``EXP_BOUND`` raises ``DomainError``; the keys below it
    are sums of two keys under the bound, so no field carries.
    """
    bterms = sorted(b.items(), reverse=True)
    (blead, bc), rest = bterms[0], bterms[1:]
    rem = dict(a)
    quo: dict[int, int] = {}
    m = 1
    while rem:
        rkey = max(rem)
        if rkey & _OVER:
            raise DomainError(f"exponent past the bound 2^30 - 1 in term {_unpack(rkey)}")
        diff = (rkey | _GUARD) - blead
        if diff & _GUARD != _GUARD:
            return None
        diff ^= _GUARD
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
            key = diff + k
            acc = rem.get(key, 0) - c * v
            if acc:
                rem[key] = acc
            else:
                del rem[key]
    return quo, m


def divide_exact(a: Expr, b: Expr) -> Optional[Expr]:
    """The exact quotient a/b as an Expr of the same domain, or None when
    b does not divide a.  The one exact division, for the plane and the
    torus; pi is one more formal variable (it is transcendental).

    Long division by the leading monomial in lexicographic order; with a
    single divisor, a zero remainder occurs iff b divides a exactly in the
    free polynomial ring of the term keys.  That ring is the normal-form
    ring as long as b has no cosine, which is always so on the plane.

    On the torus, each cosine that b uses (cos2px, then cos2py) is first
    cleared: a and b are both multiplied by b's conjugate b', which is b
    with the sign flipped on every term that has that cosine.

    * b * b' has no term with that cosine: with b = P + c*Q for P, Q free
      of the cosine c, b * b' = P^2 - (1 - s^2)*Q^2.  The conjugation is
      the automorphism x -> 1/2 - x (resp. y), under which sin(2*pi*x) is
      fixed and cos(2*pi*x) changes sign, so b' != 0.
    * The divisor is then free of cosines, so quotient times divisor never
      makes a cos^2, and the long division stays in normal form.
    * The trig ring is a ring of functions on the connected torus, so it
      is an integral domain: the quotient is unique, and f*(b*b') == a*b'
      holds exactly when f*b == a.

    The division runs on the integer numerators (``_long_divide``), so no
    ``Fraction`` is built.
    """
    if a.domain != b.domain:
        raise DomainError("domain mismatch")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero expression")
    for mask in (_FIELD * _C1, _FIELD * _C2):  # cos2px, cos2py
        if any(k & mask for k in b._num):
            conj = _make(b.domain, {k: -c if k & mask else c for k, c in b._num.items()}, b._den)
            a, b = a * conj, b * conj
    out = _long_divide(a._num, b._num)
    if out is None:
        return None
    # m * A == Q * B for the numerators, so a/b = (Q/m) * (b._den / a._den);
    # the terms are stored in increasing key order, as Expr() would order them
    quo, m = out
    db = b._den
    return _make(a.domain, *_reduce({k: c * db for k, c in reversed(quo.items())}, m * a._den))


# The gcd's polynomials are dicts {exponent tuple: int}; the first
# exponent is the main variable, and the rest are the coefficient ring's
# variables.


def _mul(f: dict, g: dict) -> dict:
    out: dict[tuple, int] = {}
    for kf, cf in f.items():
        for kg, cg in g.items():
            key = tuple(a + b for a, b in zip(kf, kg))
            out[key] = out.get(key, 0) + cf * cg
    return {k: c for k, c in out.items() if c}


def _sub(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        acc = out.get(k, 0) - c
        if acc:
            out[k] = acc
        else:
            del out[k]
    return out


def _coeffs(f: dict) -> dict[int, dict]:
    """``f`` as a polynomial in its main variable: {degree: coefficient}."""
    out: dict[int, dict] = {}
    for (e, *rest), c in f.items():
        out.setdefault(e, {})[tuple(rest)] = c
    return out


def _lift(c: dict, e: int) -> dict:
    """The coefficient ``c`` times the main variable to the power ``e``."""
    return {(e, *k): v for k, v in c.items()}


def _is_unit(c: dict) -> bool:
    """Whether ``c`` is the constant 1 or -1."""
    if len(c) != 1:
        return False
    (k, v), = c.items()
    return abs(v) == 1 and not any(k)


def _pack_tuples(f: dict) -> dict[int, int]:
    """``f`` with each exponent tuple (at most 3 long here) in the low
    fields of a packed key, its last exponent least significant, for
    ``_long_divide``."""
    out = {}
    for k, c in f.items():
        packed = 0
        for e in k:
            if e >= EXP_BOUND:
                raise DomainError(f"exponent past the bound 2^30 - 1 in the gcd term {k}")
            packed = packed << 32 | e
        out[packed] = c
    return out


def _content_pp(f: dict) -> tuple[dict, dict]:
    """Content (a gcd of the coefficients in the main variable) and
    primitive part of ``f``."""
    coeffs = iter(_coeffs(f).values())
    cont = next(coeffs)
    for c in coeffs:
        if _is_unit(cont):
            break
        cont = _gcd(cont, c)
    if _is_unit(cont):
        return cont, f
    shifts = range(32 * len(next(iter(f))) - 32, -1, -32)
    quo = _long_divide(_pack_tuples(f), _pack_tuples(_lift(cont, 0)))[0]  # exact over Z
    return cont, {tuple(k >> s & _FIELD for s in shifts): c for k, c in quo.items()}


def _gcd(f: dict, g: dict) -> dict:
    """A gcd of the nonzero ``f`` and ``g`` in Z[v1, ..., vn], up to sign:
    content/primitive-part Euclid in the main variable, with the contents'
    gcd taken recursively in the remaining variables (Brown, 1971)."""
    if not next(iter(f)):
        # no variables left: integers
        return {(): math.gcd(f[()], g[()])}
    cf, f = _content_pp(f)
    cg, g = _content_pp(g)
    cont = _gcd(cf, cg)
    if max(k[0] for k in f) < max(k[0] for k in g):
        f, g = g, f
    while True:
        # pseudo-remainder of f by g: lc(g) * r - lc(r) * x^k * g cancels the
        # leading term of r; the powers of lc(g) it leaves are content and
        # drop out with the primitive part
        dg = max(k[0] for k in g)
        lg = _lift(_coeffs(g)[dg], 0)
        r = f
        while r:
            dr = max(k[0] for k in r)
            if dr < dg:
                break
            lr = _lift(_coeffs(r)[dr], dr - dg)
            r = _sub(_mul(lg, r), _mul(lr, g))
        if not r:
            return _mul(_lift(cont, 0), g)
        f, g = g, _content_pp(r)[1]


def poly_gcd(a: Expr, b: Expr) -> Expr:
    """Multivariate gcd over the rationals of trig-free ``a`` and ``b``,
    as sympy's ``Poly(..., x, y, pi, domain="QQ").gcd`` gives it: monic
    in the lexicographic order x > y > pi.

    The integer numerators are taken as polynomials in Z[pi][y][x]
    (denominators only scale them, which a gcd over the rationals
    ignores), their gcd comes from ``_gcd``, and it is divided by its
    leading coefficient.
    """
    f = {(k >> 160 & _FIELD, k >> 128 & _FIELD, k >> 192): c for k, c in a._num.items()}
    g = {(k >> 160 & _FIELD, k >> 128 & _FIELD, k >> 192): c for k, c in b._num.items()}
    h = _gcd(f, g) if f and g else f or g
    if not h:
        return Expr.zero(a.domain)
    lead = h[max(h)]
    sign = 1 if lead > 0 else -1
    # increasing (x, y, pi) order, the order Expr() stores sympy's terms in
    num = {kpi << 192 | ex << 160 | ey << 128: sign * h[ex, ey, kpi] for ex, ey, kpi in sorted(h)}
    return _make(a.domain, *_reduce(num, abs(lead)))
