"""Tracking relations, cofactor extraction and dependency sets.

Y tracks X when [Y, X] = f*X for a continuous scalar f.  The decidable
certificates here are symbolic: a polynomial (or trig-polynomial) cofactor
proves tracking outright, while a reduced rational cofactor is reported
with the explicit caveat that continuity of f across Z(X) has not been
certified.  The necessary condition is exact: [Y, X] wedge X must vanish
identically, otherwise the pair is NOT_TRACKING and the wedge residual is
the counterexample witness.

The polynomial cofactor is one exact division of a bracket component by
the matching component of X, ``expr.divide_exact``, on the plane and on
the torus alike; on the torus it first clears the divisor's cosines by
multiplying with its conjugates (see its docstring).

A rational cofactor num/den is reduced by the gcd of the two polynomials,
computed here on their integer numerators by content/primitive-part
Euclid in Z[pi][y][x] and made monic in the lexicographic order
x > y > pi (sympy's normalization, which the tests check it against);
the package does not use sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .blocks import ZeroBlock, scalar_zero_blocks
from .errors import FalsificationError
from .expr import Expr, _long_divide, _make, _reduce, divide_exact
from .fields import VectorField, lie_bracket, wedge
from .intervals import Box

POLY_TRACKING = "POLY_TRACKING"
RATIONAL_TRACKING = "RATIONAL_TRACKING"
NOT_TRACKING = "NOT_TRACKING"

_RATIONAL_CAVEAT = "continuity of the cofactor across the zero set is not certified"


@dataclass(frozen=True)
class TrackReport:
    status: str
    bracket: VectorField
    wedge_residual: Expr
    cofactor: Optional[Expr] = None
    cofactor_num: Optional[Expr] = None
    cofactor_den: Optional[Expr] = None
    caveat: Optional[str] = None

    @property
    def tracking(self) -> bool:
        return self.status != NOT_TRACKING


# -- integer polynomial gcd ---------------------------------------------
# Polynomials are dicts {exponent tuple: int}; the first exponent is the
# main variable, and the rest are the coefficient ring's variables.


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
    return cont, _long_divide(f, _lift(cont, 0))[0]  # exact over Z


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


def _poly_gcd(a: Expr, b: Expr) -> Expr:
    """Multivariate gcd over the rationals of trig-free ``a`` and ``b``,
    as sympy's ``Poly(..., x, y, pi, domain="QQ").gcd`` gives it: monic
    in the lexicographic order x > y > pi.

    The integer numerators are taken as polynomials in Z[pi][y][x]
    (denominators only scale them, which a gcd over the rationals
    ignores), their gcd comes from ``_gcd``, and it is divided by its
    leading coefficient.
    """
    f = {(ex, ey, kpi): c for (kpi, ex, ey, *_), c in a._num.items()}
    g = {(ex, ey, kpi): c for (kpi, ex, ey, *_), c in b._num.items()}
    h = _gcd(f, g) if f and g else f or g
    if not h:
        return Expr.zero(a.domain)
    lead = h[max(h)]
    sign = 1 if lead > 0 else -1
    # increasing (x, y, pi) order, the order Expr() stores sympy's terms in
    num = {(kpi, ex, ey, 0, 0, 0, 0): sign * h[ex, ey, kpi] for ex, ey, kpi in sorted(h)}
    return _make(a.domain, *_reduce(num, abs(lead)))


def track_check(y_field: VectorField, x_field: VectorField) -> TrackReport:
    """Classify whether Y tracks X, extracting a cofactor when possible.

    Once the wedge of B = [Y, X] with X vanishes, B = f*X as soon as one
    component divides: X is nonzero and the (trig-)polynomials are an
    integral domain, so x_i*f = b_i gives b_j*x_i = b_i*x_j = f*x_i*x_j and
    b_j = f*x_j.  The first nonzero component x_i of X decides, and b_i is
    nonzero when the division fails; the rational cofactor is b_i / x_i,
    reduced by their gcd on plane polynomials."""
    if x_field.is_zero:
        raise ValueError("tracking against the zero field is undefined")
    if y_field.domain != x_field.domain:
        raise ValueError("domain mismatch")
    bracket = lie_bracket(y_field, x_field)
    residual = wedge(bracket, x_field)
    if not residual.is_zero:
        return TrackReport(NOT_TRACKING, bracket, residual)
    b_i, x_i = (bracket.cx, x_field.cx) if not x_field.cx.is_zero else (bracket.cy, x_field.cy)
    f = divide_exact(b_i, x_i)
    if f is not None:
        return TrackReport(POLY_TRACKING, bracket, residual, cofactor=f)
    if b_i.has_trig() or x_i.has_trig():
        num, den = b_i, x_i
    else:
        g = _poly_gcd(b_i, x_i)
        num, den = divide_exact(b_i, g), divide_exact(x_i, g)
    return TrackReport(RATIONAL_TRACKING, bracket, residual, cofactor_num=num, cofactor_den=den,
                       caveat=_RATIONAL_CAVEAT)


def bracket_closure_track(
    y_field: VectorField, z_field: VectorField, x_field: VectorField
) -> TrackReport:
    """Check that [Y, Z] tracks X when Y and Z both do.

    This is a theorem-level consequence of the Jacobi identity; a
    NOT_TRACKING outcome is raised as a falsification event rather than
    returned.
    """
    rep_y = track_check(y_field, x_field)
    rep_z = track_check(z_field, x_field)
    if not (rep_y.tracking and rep_z.tracking):
        raise ValueError("precondition failed: Y and Z must both track X")
    rep = track_check(lie_bracket(y_field, z_field), x_field)
    if not rep.tracking:
        raise FalsificationError(
            f"bracket closure falsified: wedge residual {rep.wedge_residual}"
        )
    return rep


@dataclass(frozen=True)
class DepSetResult:
    wedge: Expr
    blocks: tuple[ZeroBlock, ...]
    identically_dependent: bool


def dep_set(
    x_field: VectorField, y_field: VectorField, region: Box, max_depth: int
) -> DepSetResult:
    """Dependency set {X wedge Y = 0} as certified scalar zero blocks."""
    w = wedge(x_field, y_field)
    if w.is_zero:
        return DepSetResult(w, (), True)
    return DepSetResult(w, tuple(scalar_zero_blocks(w, region, max_depth)), False)

