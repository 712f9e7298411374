import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfzero import (
    Box,
    DomainError,
    ExactEvalError,
    Expr,
    Interval,
    ParseError,
    divide_exact,
    parse_expr,
)

from vfzero.intervals import cos_2pi_range, lattice_form, odd_denominator, sin_2pi_range

from conftest import NO_SHRINK, boxes, pi_polys, plane_polys, plane_terms, torus_polys, torus_terms
from oracles import (
    RefDyadicKernel,
    range_on_fractions,
    ref_add,
    ref_derive,
    ref_divide_exact,
    ref_eval_float,
    ref_hash,
    ref_mul,
    ref_neg,
    ref_normalize,
    ref_pow,
    ref_str,
    ref_sub,
    same_expr,
)


def _epsilons():
    # the m / (2 s) scales that stability_test multiplies perturbations by
    return st.builds(lambda m, s: Fraction(m, 2 * s), st.integers(1, 99), st.integers(1, 99))


def _times_pi(polys):
    return st.tuples(polys, st.integers(1, 3)).map(
        lambda t: t[0] * Expr.gen("pi", t[0].domain) ** t[1]
    )


def kernel_exprs():
    plane, torus = plane_polys(), torus_polys()
    base = st.one_of(
        plane,
        torus,
        _times_pi(plane),
        torus.map(lambda e: e.derive("x") + e.derive("y")),  # pi from the chain rule
    )
    return st.one_of(
        base,
        st.tuples(base, _epsilons()).map(lambda t: t[0] * t[1]),
        # X + eps * P: a perturbed field component
        st.tuples(plane, plane, _epsilons()).map(lambda t: t[0] + t[1] * t[2]),
    )


def _dyadics(bound: int = 4, max_exp: int = 12):
    return st.integers(0, max_exp).flatmap(
        lambda k: st.integers(-bound << k, bound << k).map(lambda n: Fraction(n, 1 << k))
    )


@st.composite
def dyadic_boxes(draw):
    """Dyadic boxes, including point and segment boxes."""
    shape = draw(st.sampled_from(["box", "x-segment", "y-segment", "point"]))
    x0, x1 = sorted((draw(_dyadics()), draw(_dyadics())))
    y0, y1 = sorted((draw(_dyadics()), draw(_dyadics())))
    if shape in ("y-segment", "point"):
        x1 = x0
    if shape in ("x-segment", "point"):
        y1 = y0
    return Box(Interval(x0, x1), Interval(y0, y1))


def _lattice_rationals(bound: int = 2, max_exp: int = 6):
    # integers over d * 2^k; d = 1 gives the dyadic corners mixed in
    return st.tuples(st.sampled_from([1, 3, 5, 7, 9, 15]), st.integers(0, max_exp)).flatmap(
        lambda t: st.integers(-bound * (t[0] << t[1]), bound * (t[0] << t[1])).map(
            lambda n: Fraction(n, t[0] << t[1])))


@st.composite
def odd_denominator_boxes(draw):
    """Boxes with corners over 3, 5, 7, 9 and 15 (times powers of two)
    mixed with dyadic corners, including point and segment boxes."""
    shape = draw(st.sampled_from(["box", "x-segment", "y-segment", "point"]))
    x0, x1 = sorted((draw(_lattice_rationals()), draw(_lattice_rationals())))
    y0, y1 = sorted((draw(_lattice_rationals()), draw(_lattice_rationals())))
    if shape in ("y-segment", "point"):
        x1 = x0
    if shape in ("x-segment", "point"):
        y1 = y0
    return Box(Interval(x0, x1), Interval(y0, y1))


@st.composite
def depth10_cells(draw):
    x0, y0, side = draw(st.sampled_from([(-2, -2, 4), (0, 0, 1)]))
    i, j = draw(st.integers(0, 1023)), draw(st.integers(0, 1023))
    w = Fraction(side, 1024)
    return Box(Interval(x0 + i * w, x0 + (i + 1) * w), Interval(y0 + j * w, y0 + (j + 1) * w))


@st.composite
def lattice_boxes(draw, odd=(3, 5)):
    """Boxes with every corner an integer over q * 2^k for one odd q drawn
    from ``odd``, straddling 0 or not, including point and segment boxes."""
    q, k = draw(st.sampled_from(odd)), draw(st.integers(0, 6))
    d = q << k
    corner = st.integers(-2 * d, 2 * d).map(lambda n: Fraction(n, d))
    shape = draw(st.sampled_from(["box", "x-segment", "y-segment", "point"]))
    x0, x1 = sorted((draw(corner), draw(corner)))
    y0, y1 = sorted((draw(corner), draw(corner)))
    if shape in ("y-segment", "point"):
        x1 = x0
    if shape in ("x-segment", "point"):
        y1 = y0
    return Box(Interval(x0, x1), Interval(y0, y1))


def point_constant_exprs():
    """Constants and monomials with negative or positive point
    coefficients, plus the zero expression, on both domains."""
    plane_keys = [(0, ex, ey, 0, 0, 0, 0) for ex in range(4) for ey in range(4)]
    torus_keys = [(0, 0, 0, s1, c1, s2, c2) for s1 in range(3) for c1 in (0, 1)
                  for s2 in range(3) for c2 in (0, 1)]
    coeffs = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    return st.one_of(
        st.sampled_from([Expr.zero("plane"), Expr.zero("torus")]),
        st.tuples(st.sampled_from(["plane", "torus"]), coeffs).map(lambda t: Expr.const(t[1], t[0])),
        st.lists(st.tuples(st.sampled_from(plane_keys), coeffs), min_size=1, max_size=3).map(
            lambda items: Expr("plane", dict(items))),
        st.lists(st.tuples(st.sampled_from(torus_keys), coeffs), min_size=1, max_size=3).map(
            lambda items: Expr("torus", dict(items))),
    )


def even_power_exprs():
    """Even powers of x and y, alone and in products, with a sign: their
    tight powers on axes that straddle 0 start at 0."""
    powers = st.tuples(st.sampled_from([0, 2, 4]), st.sampled_from([0, 2, 4]), st.integers(-3, 3))
    return st.lists(powers, min_size=1, max_size=3).map(
        lambda items: Expr("plane", {(0, ex, ey, 0, 0, 0, 0): c for ex, ey, c in items}))


def _kernel_triples(e: Expr, box: Box):
    """The integer triples of the compiled kernel and of the reference
    kernel on the box."""
    x, y = box.x, box.y
    q = odd_denominator(x.lo, x.hi, y.lo, y.hi)
    axes = (lattice_form(x.lo, x.hi, q), lattice_form(y.lo, y.hi, q), q)
    return e.dyadic_kernel().range_dyadic(*axes), RefDyadicKernel(e._num, e._den).range_dyadic(*axes)


class TestParse:
    def test_normalization_forced(self):
        assert parse_expr("x*y + x*y") == parse_expr("2*x*y")

    def test_expansion_forced(self):
        assert parse_expr("(x+y)^2") == parse_expr("x^2 + 2*x*y + y^2")

    def test_pythagorean_rewrite(self):
        e = parse_expr("sin2px^2 + cos2px^2", "torus")
        assert e == Expr.const(1, "torus")

    def test_ratio_literals(self):
        assert parse_expr("1/3 + 1/6").eval_at((0, 0)) == Fraction(1, 2)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_expr("-x^2") == -parse_expr("x^2")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x + * y")
        assert err.value.position == 4

    def test_torus_generator_rejected_on_plane(self):
        with pytest.raises(ParseError):
            parse_expr("sin2px", "plane")

    def test_plane_variable_rejected_on_torus(self):
        # x is not a well-defined function on the torus
        with pytest.raises(ParseError):
            parse_expr("x + sin2px", "torus")

    def test_str_round_trip(self):
        for text, domain in [
            ("x^2 - y^2 + 1/3*x*y", "plane"),
            ("-2 + x", "plane"),
            ("sin2px*cos2py - 3*sin2py", "torus"),
            ("0", "plane"),
        ]:
            e = parse_expr(text, domain)
            assert parse_expr(str(e), domain) == e


class TestEval:
    def test_polynomial_value(self):
        e = parse_expr("x^2 - y^2")
        assert e.eval_at((Fraction(3), Fraction(2))) == 5

    def test_zero_expr_everywhere(self):
        z = Expr.zero("plane")
        assert z.eval_at((Fraction(7, 3), Fraction(-1, 2))) == 0

    def test_exact_trig_grid(self):
        s = parse_expr("sin2px", "torus")
        assert s.eval_at((Fraction(1, 4), Fraction(0))) == 1
        assert s.eval_at((Fraction(3, 4), Fraction(0))) == -1
        c = parse_expr("cos2py", "torus")
        assert c.eval_at((Fraction(0), Fraction(1, 2))) == -1

    def test_off_grid_trig_raises(self):
        s = parse_expr("sin2px", "torus")
        with pytest.raises(ExactEvalError):
            s.eval_at((Fraction(1, 3), Fraction(0)))

    def test_pi_power_raises(self):
        d = parse_expr("sin2px", "torus").derive("x")
        with pytest.raises(ExactEvalError):
            d.eval_at((Fraction(0), Fraction(0)))


class TestIntervalEval:
    def test_coordinate_exact(self):
        r = parse_expr("x").range_on(Box.from_corners(2, 0, 3, 1))
        assert (r.lo, r.hi) == (2, 3)

    def test_difference_of_squares_bound(self):
        r = parse_expr("x^2 - y^2").range_on(Box.from_corners(0, 0, 1, 1))
        assert r.lo <= -1 and r.hi >= 1

    def test_positivity_certified(self):
        r = parse_expr("x^2 + y^2 + 1").range_on(Box.from_corners(-1, -1, 1, 1))
        assert r.lo >= 1

    def test_trig_range_caps(self):
        s = parse_expr("sin2px", "torus")
        r = s.range_on(Box.from_corners(0, 0, 1, 1))
        assert r.lo == -1 and r.hi == 1

    @settings(max_examples=40, deadline=None)
    @given(plane_polys(), boxes())
    def test_enclosure_soundness(self, e, box):
        enc = e.range_on(box)
        rng = random.Random(1234)
        for _ in range(100):
            tx = Fraction(rng.randint(0, 64), 64)
            ty = Fraction(rng.randint(0, 64), 64)
            p = box.sample(tx, ty)
            assert enc.contains(e.eval_at(p))
            # a point box encloses a polynomial exactly: winding vertex
            # values rely on this
            point = Box(Interval.point(p[0]), Interval.point(p[1]))
            assert e.range_on(point) == Interval.point(e.eval_at(p))

    @settings(max_examples=30, deadline=None)
    @given(torus_polys())
    def test_enclosure_soundness_torus(self, e):
        # exact values exist on the quarter grid; check them against the
        # enclosure of every grid-aligned sub-box
        quarters = [Fraction(k, 4) for k in range(4)]
        for x0 in quarters:
            for y0 in quarters:
                box = Box(Interval(x0, x0 + Fraction(1, 4)), Interval(y0, y0 + Fraction(1, 4)))
                enc = e.range_on(box)
                for px in (x0, x0 + Fraction(1, 4)):
                    for py in (y0, y0 + Fraction(1, 4)):
                        assert enc.contains(e.eval_at((px % 1, py % 1)))
                # the point-box enclosure goes through the 128-bit trig
                # enclosures even where the exact value exists
                point = Box(Interval.point(x0), Interval.point(y0))
                assert e.range_on(point).contains(e.eval_at((x0, y0)))


class TestDyadicKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kernel_exprs(), st.one_of(dyadic_boxes(), depth10_cells()))
    def test_equals_fraction_path(self, e, box):
        assert e.range_on(box) == range_on_fractions(e, box)

    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(st.one_of(pi_polys(max_deg=3), pi_polys(domain="torus")), odd_denominator_boxes())
    def test_non_dyadic_equals_fraction_path(self, e, box):
        assert e.range_on(box) == range_on_fractions(e, box)

    def test_non_dyadic_corner_on_integers(self):
        e = parse_expr("x^3 - 3*x*y^2 - 1/3*x")
        box = Box.from_corners(Fraction(1, 3), 0, 1, Fraction(1, 2))
        assert e.range_on(box) == range_on_fractions(e, box)

    def test_compiled_on_first_enclosure_only(self):
        e = parse_expr("x^2 - y") * parse_expr("x + 1")
        assert not hasattr(e, "_kernel")
        e.range_on(Box.from_corners(0, 0, 1, 1))
        assert hasattr(e, "_kernel")

    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(kernel_exprs(), st.one_of(dyadic_boxes(), depth10_cells()))
    def test_same_triple_as_reference_kernel(self, e, box):
        got, ref = _kernel_triples(e, box)
        assert got == ref

    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(st.one_of(pi_polys(max_deg=3), pi_polys(domain="torus")), lattice_boxes())
    def test_same_triple_over_odd_denominators(self, e, box):
        got, ref = _kernel_triples(e, box)
        assert got == ref

    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(st.one_of(point_constant_exprs(), even_power_exprs()),
           st.one_of(dyadic_boxes(), lattice_boxes(), lattice_boxes(odd=(1,))))
    def test_same_triple_on_point_constants_and_even_powers(self, e, box):
        got, ref = _kernel_triples(e, box)
        assert got == ref

    def test_zero_expression(self):
        for domain in ("plane", "torus"):
            kernel = Expr.zero(domain).dyadic_kernel()
            assert kernel.range_dyadic((-1, 3, 2), (0, 5, 7), 3) == (0, 0, 1)

    def test_same_trig_cache_traffic(self):
        e = parse_expr("sin2px*cos2py - cos2px + pi*sin2py^2", "torus")
        w = Fraction(1, 64)
        cells = [Box(Interval(i * w, (i + 1) * w), Interval(j * w, (j + 2) * w))
                 for i in range(0, 64, 5) for j in range(0, 62, 7)]
        # with a side over 3 * 2^e, the kernel's numerators of the other
        # side carry the factor 3 and reduce to the same cache keys
        cells += [Box(Interval(i * w, (i + 2) * w), Interval(Fraction(j, 3), Fraction(j + 1, 3)))
                  for i in range(0, 62, 9) for j in range(3)]
        traffic = []
        for evaluate in (lambda box: range_on_fractions(e, box), e.range_on):
            sin_2pi_range.cache_clear()
            cos_2pi_range.cache_clear()
            for box in cells + cells[::3]:
                evaluate(box)
            traffic.append((sin_2pi_range.cache_info(), cos_2pi_range.cache_info()))
        assert traffic[0] == traffic[1]


_ONE = (0, 0, 0, 0, 0, 0, 0)
_PI = (1, 0, 0, 0, 0, 0, 0)


def _cos_power_terms():
    # raw torus terms with cos^2 and cos^3 factors: the constructor rewrites them
    keys = [(0, 0, 0, s1, c1, 0, c2) for s1 in range(2) for c1 in range(4) for c2 in range(3)]
    return st.lists(st.tuples(st.sampled_from(keys), st.integers(-3, 3)), max_size=4).map(
        lambda items: {k: Fraction(c) for k, c in items})


def _scaled(terms):
    return st.tuples(terms, _epsilons()).map(lambda t: {k: c * t[1] for k, c in t[0].items()})


_RING_OPS = ("add", "sub", "neg", "mul", "dx", "dy", "pow", "pi", "scale")


@st.composite
def ring_programs(draw):
    """Leaf term dicts of one domain and a list of ring operations on them."""
    domain = draw(st.sampled_from(["plane", "torus"]))
    base = plane_terms() if domain == "plane" else st.one_of(torus_terms(), _cos_power_terms())
    leaves = draw(st.lists(st.one_of(base, _scaled(base)), min_size=1, max_size=4))
    ops = draw(st.lists(st.tuples(st.sampled_from(_RING_OPS), st.integers(0, 99),
                                  st.integers(0, 99), _epsilons()), min_size=1, max_size=8))
    return domain, leaves, ops


class TestIntegerRing:
    """The integer-numerator ring against the reference Fraction ring of
    ``oracles``: the same terms in the same order, the same string, and
    equality and hashing that agree with the Fraction coefficients."""

    @staticmethod
    def _check(e, ref, domain):
        assert [(k, Fraction(c, e._den)) for k, c in e._num.items()] == list(ref.items())
        assert e._den > 0 and math.gcd(e._den, *e._num.values()) == 1
        assert str(e) == ref_str(ref)
        twin = Expr(domain, ref)
        assert e == twin and twin == e
        assert hash(e) == hash(twin) == ref_hash(domain, ref)
        for x, y in ((0.3, -1.7), (1.25, 0.6)):
            assert e.eval_float(x, y) == ref_eval_float(ref, x, y)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ring_programs())
    def test_matches_fraction_ring(self, program):
        domain, leaves, ops = program
        vals = [(Expr(domain, t), ref_normalize(t)) for t in leaves]
        for e, ref in vals:
            self._check(e, ref, domain)
        for op, i, j, eps in ops:
            (a, ra), (b, rb) = vals[i % len(vals)], vals[j % len(vals)]
            if op in ("mul", "pow") and len(ra) * max(len(ra), len(rb)) > 150:
                op = "add"
            if op == "add":
                out = a + b, ref_add(ra, rb)
            elif op == "sub":
                out = a - b, ref_sub(ra, rb)
            elif op == "neg":
                out = -a, ref_neg(ra)
            elif op == "mul":
                out = a * b, ref_mul(ra, rb)
            elif op in ("dx", "dy"):
                out = a.derive(op[1]), ref_derive(ra, op[1])
            elif op == "pow":
                out = a ** (j % 3), ref_pow(ra, j % 3)
            elif op == "pi":
                out = a * Expr.gen("pi", domain), ref_mul(ra, ref_normalize({_PI: Fraction(1)}))
            else:
                out = a * eps, ref_mul(ra, ref_normalize({_ONE: eps}))
            self._check(*out, domain)
            vals.append(out)

    def test_cancellation_to_zero(self):
        a = parse_expr("1/3*x + 5/6*y^2")
        z = a - a
        assert z.is_zero and z._num == {} and z._den == 1
        assert z == Expr.zero("plane") and hash(z) == hash(Expr.zero("plane"))
        t = parse_expr("1/2*sin2px^2 + 1/2*cos2px^2 - 1/2", "torus")
        assert t._num == {} and t._den == 1

    def test_half_times_two_is_integral(self):
        x = parse_expr("x")
        e = (x * Fraction(1, 2)) * 2
        assert e == x and e._den == 1 and e._num == {(0, 1, 0, 0, 0, 0, 0): 1}

    def test_int_coefficient(self):
        k = (0, 1, 0, 0, 0, 0, 0)
        e = Expr("plane", {k: 3})
        assert e == Expr("plane", {k: Fraction(3)}) and e._num == {k: 3} and e._den == 1
        assert str(e) == "3*x" and e.coefficient(k) == 3

    def test_common_denominator(self):
        e = Expr("plane", {_ONE: Fraction(1, 3), (0, 1, 0, 0, 0, 0, 0): Fraction(1, 6)})
        assert e._den == 6 and list(e._num.values()) == [1, 2]
        assert e.derive("x") == Expr.const(Fraction(1, 6), "plane")

    @pytest.mark.parametrize("bad", [0.5, "1/2"])
    def test_non_rational_coefficient_names_its_term(self, bad):
        k = (0, 1, 0, 0, 0, 0, 0)
        with pytest.raises(TypeError, match=r"\(0, 1, 0, 0, 0, 0, 0\)"):
            Expr("plane", {_ONE: Fraction(1, 3), k: bad})

    @pytest.mark.parametrize("make", [
        lambda x: Expr.const(0.1, "plane"),
        lambda x: Expr.const("1/2", "plane"),
        lambda x: x * 0.1,
        lambda x: 0.1 * x,
        lambda x: x + 0.1,
        lambda x: 0.1 + x,
        lambda x: x - 0.1,
        lambda x: 0.1 - x,
    ])
    def test_plain_operand_must_be_rational(self, make):
        # a float would otherwise enter as the binary fraction it rounds to
        with pytest.raises(TypeError, match="not an int or Fraction"):
            make(parse_expr("x"))


class TestDerive:
    def test_power_rule(self):
        assert parse_expr("x^2*y").derive("x") == parse_expr("2*x*y")

    def test_chain_rule_trig(self):
        s = parse_expr("sin2px", "torus")
        assert s.derive("x") == parse_expr("2*pi*cos2px", "torus")
        assert s.derive("x").derive("x") == parse_expr("-4*pi^2*sin2px", "torus")

    def test_constant(self):
        assert parse_expr("7/2").derive("y").is_zero

    @settings(max_examples=40, deadline=None)
    @given(plane_polys(), plane_polys())
    def test_linearity_and_leibniz(self, a, b):
        assert (a + b).derive("x") == a.derive("x") + b.derive("x")
        assert (a * b).derive("x") == a.derive("x") * b + a * b.derive("x")

    @settings(max_examples=30, deadline=None)
    @given(torus_polys(), torus_polys())
    def test_leibniz_torus(self, a, b):
        assert (a * b).derive("y") == a.derive("y") * b + a * b.derive("y")


class TestRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(plane_polys(), plane_polys(), plane_polys())
    def test_commutativity_distributivity_associativity(self, a, b, c):
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=30, deadline=None)
    @given(torus_polys(), torus_polys(), torus_polys())
    def test_ring_laws_torus(self, a, b, c):
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


class TestDivision:
    def test_difference_of_squares(self):
        q = divide_exact(parse_expr("x^2 - y^2"), parse_expr("x - y"))
        assert q == parse_expr("x + y")

    def test_not_divisible(self):
        assert divide_exact(parse_expr("x"), parse_expr("y")) is None

    def test_monomial_quotient(self):
        assert divide_exact(parse_expr("2*x^2*y"), parse_expr("x")) == parse_expr("2*x*y")

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(parse_expr("x"), Expr.zero("plane"))

    @settings(max_examples=40, deadline=None)
    @given(plane_polys(max_deg=2), plane_polys(max_deg=2))
    def test_round_trip(self, a, b):
        if b.is_zero:
            return
        q = divide_exact(a * b, b)
        assert q is not None and q * b == a * b
        q2 = divide_exact(a, b)
        if q2 is not None:
            assert q2 * b == a


class TestDomainDiscipline:
    def test_cross_domain_addition_rejected(self):
        with pytest.raises(DomainError):
            parse_expr("x") + parse_expr("sin2px", "torus")

    @pytest.mark.parametrize("name", ["x", "sin2px", "pi"])
    def test_unknown_domain_named_before_generator(self, name):
        with pytest.raises(DomainError, match="unknown domain 'sphere': expected 'plane' or 'torus'"):
            Expr.gen(name, "sphere")

    def test_divide_requires_trig_free(self):
        with pytest.raises(ValueError):
            divide_exact(parse_expr("sin2px", "torus"), parse_expr("sin2px", "torus"))


class TestIntegerDivision:
    """``divide_exact`` on integer numerators against the Fraction long
    division of ``oracles``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pi_polys(), pi_polys())
    def test_exact_quotient_matches_fraction_division(self, p, b):
        if b.is_zero:
            return
        a = p * b
        q = divide_exact(a, b)
        assert same_expr(q, ref_divide_exact(a, b))
        assert q == p

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pi_polys(), pi_polys())
    def test_any_division_matches_fraction_division(self, a, b):
        # mostly not exact: None must come back exactly when the Fraction
        # division gives None
        if b.is_zero:
            return
        assert same_expr(divide_exact(a, b), ref_divide_exact(a, b))

    @pytest.mark.parametrize("a, b", [
        ("x^2*y + 1", "x*y"),
        ("x + pi", "2*x"),
        ("x^2 - 1/3", "x - 1"),
        ("pi*x*y", "pi^2"),
        ("3*x - 6*y", "-2*x + 4*y"),
        ("(x + pi)*(2*x - 3/5*y)", "-2*x + 3/5*y"),
        ("0", "-7*pi*y"),
    ])
    def test_hand_cases(self, a, b):
        a, b = parse_expr(a), parse_expr(b)
        assert same_expr(divide_exact(a, b), ref_divide_exact(a, b))
