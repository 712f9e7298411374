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
multiplying with its conjugates (see its docstring).  The division comes
first, and one product checks the other component; the wedge is built
only when that check fails, since B = f*X makes it zero.

A rational cofactor num/den of plane polynomials is reduced by their
gcd, ``expr.poly_gcd``; that gcd refuses trig terms, so a torus cofactor
is reported unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import ZeroBlock, check_lattice, scalar_zero_blocks
from .errors import FalsificationError
from .expr import Expr, divide_exact, poly_gcd
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


def track_check(y_field: VectorField, x_field: VectorField) -> TrackReport:
    """Classify whether Y tracks X, extracting a cofactor when possible.

    With B = [Y, X] and x_i the first nonzero component of X, the
    division f = b_i / x_i comes first.  When it is exact and
    f*x_j == b_j for the other component, B = f*X: the pair is
    POLY_TRACKING and the wedge residual is exactly zero, so it is not
    built.  Otherwise the wedge B wedge X decides.  It is nonzero when
    f exists but f*x_j != b_j, since it equals +-x_i*(f*x_j - b_j) and
    the (trig-)polynomials are an integral domain; a nonzero wedge is
    NOT_TRACKING.  A zero wedge with no exact quotient is
    RATIONAL_TRACKING: b_i is then nonzero, and the cofactor is
    b_i / x_i, reduced by their gcd on plane polynomials."""
    if x_field.is_zero:
        raise ValueError("tracking against the zero field is undefined")
    if y_field.domain != x_field.domain:
        raise ValueError("domain mismatch")
    bracket = lie_bracket(y_field, x_field)
    if x_field.cx.is_zero:
        b_i, x_i, b_j, x_j = bracket.cy, x_field.cy, bracket.cx, x_field.cx
    else:
        b_i, x_i, b_j, x_j = bracket.cx, x_field.cx, bracket.cy, x_field.cy
    f = divide_exact(b_i, x_i)
    if f is not None and f * x_j == b_j:
        return TrackReport(POLY_TRACKING, bracket, Expr.zero(x_field.domain), cofactor=f)
    residual = wedge(bracket, x_field)
    if not residual.is_zero:
        return TrackReport(NOT_TRACKING, bracket, residual)
    if b_i.has_trig() or x_i.has_trig():
        num, den = b_i, x_i
    else:
        g = poly_gcd(b_i, x_i)
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
    """Dependency set {X wedge Y = 0} as certified scalar zero blocks.

    The region and depth are checked as for any isolation, also when the
    wedge vanishes identically and nothing is isolated."""
    w = wedge(x_field, y_field)
    check_lattice(w.domain, region, max_depth)
    if w.is_zero:
        return DepSetResult(w, (), True)
    return DepSetResult(w, tuple(scalar_zero_blocks(w, region, max_depth)), False)

