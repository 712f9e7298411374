from fractions import Fraction

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from vfzero import Box, Expr, Interval, VectorField, builtin_catalog

# Phases for the derandomized oracle comparisons: a failing example is
# reported unshrunk, because shrinking composite expression draws (sums of
# mapped Exprs) takes minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

# shared hypothesis strategies


def plane_terms(max_deg: int = 3, coeff: int = 4):
    """The term dicts that ``plane_polys`` builds its expressions from."""
    keys = [
        (0, ex, ey, 0, 0, 0, 0)
        for ex in range(max_deg + 1)
        for ey in range(max_deg + 1 - ex)
    ]
    return st.lists(
        st.tuples(st.sampled_from(keys), st.integers(-coeff, coeff)),
        max_size=6,
    ).map(lambda items: {k: Fraction(c) for k, c in items})


def plane_polys(max_deg: int = 3, coeff: int = 4):
    return plane_terms(max_deg, coeff).map(lambda terms: Expr("plane", terms))


@st.composite
def pi_polys(draw, max_deg: int = 2, coeff: int = 4, domain: str = "plane"):
    """Polynomials in pi and the domain's generators with rational
    coefficients: a sum of ``plane_terms`` (or, on the torus,
    ``torus_terms``) polynomials, each times a rational and a power of
    pi."""
    terms = plane_terms(max_deg, coeff) if domain == "plane" else torus_terms(max_deg, coeff)
    total = Expr.zero(domain)
    for t, k, r in draw(st.lists(
        st.tuples(terms, st.integers(0, 2), rationals(-3, 3, 6)),
        min_size=1, max_size=3,
    )):
        total = total + Expr(domain, t) * Expr.gen("pi", domain) ** k * r
    return total


def torus_terms(max_deg: int = 2, coeff: int = 3):
    """The term dicts that ``torus_polys`` builds its expressions from."""
    keys = [
        (0, 0, 0, s1, c1, s2, c2)
        for s1 in range(max_deg + 1)
        for c1 in (0, 1)
        for s2 in range(max_deg + 1)
        for c2 in (0, 1)
        if s1 + c1 + s2 + c2 <= max_deg
    ]
    return st.lists(
        st.tuples(st.sampled_from(keys), st.integers(-coeff, coeff)),
        max_size=5,
    ).map(lambda items: {k: Fraction(c) for k, c in items})


def torus_polys(max_deg: int = 2, coeff: int = 3):
    return torus_terms(max_deg, coeff).map(lambda terms: Expr("torus", terms))


def plane_fields(max_deg: int = 3, coeff: int = 4):
    return st.tuples(plane_polys(max_deg, coeff), plane_polys(max_deg, coeff)).map(
        lambda t: VectorField(*t)
    )


def rationals(lo: int = -2, hi: int = 2, den: int = 16):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=den)


@st.composite
def boxes(draw, lo: int = -2, hi: int = 2):
    a = draw(rationals(lo, hi))
    b = draw(rationals(lo, hi))
    c = draw(rationals(lo, hi))
    d = draw(rationals(lo, hi))
    x0, x1 = sorted((a, b))
    y0, y1 = sorted((c, d))
    if x0 == x1:
        x1 = x0 + 1
    if y0 == y1:
        y1 = y0 + 1
    return Box(Interval(x0, x1), Interval(y0, y1))


@pytest.fixture(scope="session")
def catalog():
    return {e.name: e for e in builtin_catalog()}
