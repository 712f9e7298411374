from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfzero import (
    DomainError,
    Expr,
    VectorField,
    euler_field,
    jacobian,
    lie_bracket,
    parse_expr,
    parse_field,
    wedge,
)

from conftest import NO_SHRINK, pi_polys, plane_fields, plane_polys
from oracles import brackets_agree, ref_lie_bracket


class TestJacobian:
    def test_identity_field(self):
        j = jacobian(parse_field("(x, y)"))
        assert j.dxx == parse_expr("1") and j.dyy == parse_expr("1")
        assert j.dxy.is_zero and j.dyx.is_zero

    def test_squaring_field(self):
        j = jacobian(parse_field("(x^2 - y^2, 2*x*y)"))
        assert j.dxx == parse_expr("2*x")
        assert j.dxy == parse_expr("-2*y")
        assert j.dyx == parse_expr("2*y")
        assert j.dyy == parse_expr("2*x")

    def test_zero_field(self):
        j = jacobian(VectorField.zero("plane"))
        assert all(e.is_zero for e in (j.dxx, j.dxy, j.dyx, j.dyy))


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        x = parse_field("(x^2 - y^2, 2*x*y)")
        assert lie_bracket(x, x).is_zero

    def test_euler_against_squaring(self):
        # oracle-checked: [E, X] for homogeneous degree-2 X equals X
        e = euler_field()
        x = parse_field("(x^2 - y^2, 2*x*y)")
        b = lie_bracket(e, x)
        assert b == x
        assert brackets_agree(e, x, b)

    def test_shear_pair(self):
        y = parse_field("(0, x)")
        x = parse_field("(1, 0)")
        b = lie_bracket(y, x)
        assert b == parse_field("(0, -1)")
        assert brackets_agree(y, x, b)

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            lie_bracket(parse_field("(x, y)"), parse_field("(sin2px, sin2py)", "torus"))

    @settings(max_examples=30, deadline=None)
    @given(plane_fields(max_deg=2), plane_fields(max_deg=2))
    def test_antisymmetry(self, a, b):
        assert (lie_bracket(a, b) + lie_bracket(b, a)).is_zero

    @settings(max_examples=20, deadline=None)
    @given(plane_fields(max_deg=3, coeff=2), plane_fields(max_deg=3, coeff=2),
           plane_fields(max_deg=3, coeff=2))
    def test_jacobi_identity(self, x, y, z):
        j = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert j.is_zero

    @pytest.mark.parametrize("k", range(1, 7))
    def test_euler_identity(self, k):
        e = euler_field()
        # componentwise power field is homogeneous of degree k
        x = VectorField(parse_expr(f"x^{k}"), parse_expr(f"y^{k}"))
        assert lie_bracket(e, x) == x.scale(Fraction(k - 1))

    @settings(max_examples=30, deadline=None)
    @given(plane_polys(max_deg=2))
    def test_multiple_of_x_law(self, p):
        x = parse_field("(x^2 - y^2, 2*x*y)")
        lhs = lie_bracket(x.scale(p), x)
        minus_xp = -(x.cx * p.derive("x") + x.cy * p.derive("y"))
        assert lhs == x.scale(minus_xp)


def _fields(polys):
    return st.tuples(polys, polys).map(lambda t: VectorField(*t))


# plane fields mix denominators up to 6 and powers of pi; torus fields
# also do, and products of their cosines give cos^2 terms to rewrite
_PLANE_FIELDS = _fields(pi_polys())
_TORUS_FIELDS = _fields(pi_polys(domain="torus"))
_ANY_FIELDS = st.one_of(_PLANE_FIELDS, _TORUS_FIELDS)
_FIELD_PAIRS = st.one_of(st.tuples(_PLANE_FIELDS, _PLANE_FIELDS),
                         st.tuples(_TORUS_FIELDS, _TORUS_FIELDS))


class TestFusedBracket:
    """``lie_bracket`` (one integer sum of products per component) against
    ``ref_lie_bracket``, the same formula as a composition of ``Expr``
    ring operations.  ``==`` compares the reduced numerators and
    denominator, so it also checks that the result is in normal form.  A
    failing example is reported unshrunk: shrinking the composite
    ``pi_polys`` draws takes minutes."""

    @staticmethod
    def _bracket(y, x):
        got = lie_bracket(y, x)
        assert got == ref_lie_bracket(y, x)
        return got

    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_PLANE_FIELDS, _PLANE_FIELDS)
    def test_plane_mixed_denominators_and_pi(self, y, x):
        self._bracket(y, x)

    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_TORUS_FIELDS, _TORUS_FIELDS)
    def test_torus_cosine_squares_and_pi(self, y, x):
        self._bracket(y, x)

    @settings(max_examples=40, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_ANY_FIELDS)
    def test_zero_field(self, f):
        zero = VectorField.zero(f.domain)
        for y, x in ((zero, f), (f, zero), (zero, zero)):
            b = self._bracket(y, x)
            assert b.is_zero and b.cx._den == b.cy._den == 1

    @settings(max_examples=60, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_ANY_FIELDS)
    def test_self_bracket(self, f):
        b = self._bracket(f, f)
        assert b.cx._num == {} == b.cy._num and b.cx._den == b.cy._den == 1

    @settings(max_examples=60, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_FIELD_PAIRS)
    def test_antisymmetry(self, pair):
        y, x = pair
        assert self._bracket(x, y) == -self._bracket(y, x)

    def test_pythagorean_identity(self):
        # sin * d(cos) - cos * d(sin) = -2 pi (sin^2 + cos^2): the cos^2
        # of the second product is rewritten and cancels the first's sin^2
        y = parse_field("(sin2px, 0)", "torus")
        x = parse_field("(cos2px, 0)", "torus")
        assert self._bracket(y, x) == parse_field("(-2*pi, 0)", "torus")


class TestWedge:
    def test_self_wedge_zero(self):
        x = parse_field("(x + y^2, 1 - x)")
        assert wedge(x, x).is_zero

    def test_rotation_pair(self):
        assert wedge(parse_field("(x, y)"), parse_field("(-y, x)")) == parse_expr("x^2 + y^2")

    def test_unit_frame(self):
        assert wedge(parse_field("(1, 0)"), parse_field("(0, 1)")) == parse_expr("1")
