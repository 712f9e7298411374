"""Tracking relations, cofactor extraction, dependency and common zero sets.

Y tracks X when [Y, X] = f*X for a continuous scalar f.  The decidable
certificates here are symbolic: a polynomial (or trig-polynomial) cofactor
proves tracking outright, while a reduced rational cofactor is reported
with the explicit caveat that continuity of f across Z(X) has not been
certified.  The necessary condition is exact: [Y, X] wedge X must vanish
identically, otherwise the pair is NOT_TRACKING and the wedge residual is
the counterexample witness.

A rational cofactor num/den is reduced by the gcd of the two polynomials,
computed here on their integer numerators by content/primitive-part
Euclid in Z[pi][y][x] and made monic in the lexicographic order
x > y > pi (sympy's normalization, which the tests check it against);
the package does not use sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import ZeroBlock, common_zero_blocks, scalar_zero_blocks
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


@dataclass(frozen=True)
class LieAlgebraSpec:
    name: str
    generators: tuple[VectorField, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a Lie algebra spec needs at least one generator")
        domains = {g.domain for g in self.generators}
        if len(domains) != 1:
            raise ValueError("generators live on different domains")

    @property
    def domain(self) -> str:
        return self.generators[0].domain


def _try_divide(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact quotient a/b, via polynomial long division when trig-free and
    a bounded-support linear solve in the trig ring otherwise."""
    if b.is_zero:
        return None
    if a.is_zero:
        return Expr.zero(a.domain)
    if not (a.has_trig() or b.has_trig()):
        return divide_exact(a, b)
    return _solve_quotient_trig(a, b)


def _per_variable_degrees(e: Expr) -> tuple[int, int, int]:
    """(pi degree, x-pair degree, y-pair degree) of a torus expression."""
    kp = dx = dy = 0
    for (kpi, ex, ey, s1, c1, s2, c2), _ in e.terms():
        kp = max(kp, kpi)
        dx = max(dx, ex + s1 + c1)
        dy = max(dy, ey + s2 + c2)
    return kp, dx, dy


def _solve_quotient_trig(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact division in the trig normal-form ring by linear algebra.

    Per-variable trig degree is additive under multiplication (leading
    Fourier harmonics cannot cancel), so the quotient's support is bounded
    and the coefficients solve an exact linear system.
    """
    ka, dxa, dya = _per_variable_degrees(a)
    kb, dxb, dyb = _per_variable_degrees(b)
    if ka < kb or dxa < dxb or dya < dyb:
        return None
    kf, dxf, dyf = ka - kb, dxa - dxb, dya - dyb
    candidates = []
    for kpi in range(kf + 1):
        for c1 in (0, 1):
            for s1 in range(dxf - c1 + 1):
                for c2 in (0, 1):
                    for s2 in range(dyf - c2 + 1):
                        candidates.append((kpi, 0, 0, s1, c1, s2, c2))
    if len(candidates) > 4000:
        return None
    basis = [Expr(a.domain, {key: Fraction(1)}) * b for key in candidates]
    rows: dict[tuple, int] = {}
    for prod in basis:
        for key, _ in prod.terms():
            rows.setdefault(key, len(rows))
    for key, _ in a.terms():
        rows.setdefault(key, len(rows))
    m, n = len(rows), len(candidates)
    mat = [[Fraction(0)] * (n + 1) for _ in range(m)]
    for col, prod in enumerate(basis):
        for key, coeff in prod.terms():
            mat[rows[key]][col] = coeff
    for key, coeff in a.terms():
        mat[rows[key]][n] = coeff
    sol = _solve_exact(mat, n)
    if sol is None:
        return None
    f = Expr(a.domain, {key: c for key, c in zip(candidates, sol) if c != 0})
    return f if f * b == a else None


def _solve_exact(mat: list[list[Fraction]], n: int) -> Optional[list[Fraction]]:
    """Gaussian elimination over the rationals for an (m x n | rhs) system;
    returns a solution or None when inconsistent.  Free columns get zero."""
    m = len(mat)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                fac = mat[i][c]
                mat[i] = [vi - fac * vr for vi, vr in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
        if r == m:
            break
    for i in range(m):
        if all(v == 0 for v in mat[i][:n]) and mat[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for c, pr in pivot_of_col.items():
        sol[c] = mat[pr][n]
    return sol


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
    """Classify whether Y tracks X, extracting a cofactor when possible."""
    if x_field.is_zero:
        raise ValueError("tracking against the zero field is undefined")
    if y_field.domain != x_field.domain:
        raise ValueError("domain mismatch")
    bracket = lie_bracket(y_field, x_field)
    residual = wedge(bracket, x_field)
    if not residual.is_zero:
        return TrackReport(NOT_TRACKING, bracket, residual)
    if bracket.is_zero:
        return TrackReport(
            POLY_TRACKING, bracket, residual, cofactor=Expr.zero(x_field.domain)
        )
    # polynomial cofactor: divide on a nonzero component pair, cross-check the other
    for b_i, x_i, b_j, x_j in (
        (bracket.cx, x_field.cx, bracket.cy, x_field.cy),
        (bracket.cy, x_field.cy, bracket.cx, x_field.cx),
    ):
        if x_i.is_zero:
            continue
        f = _try_divide(b_i, x_i)
        if f is not None and b_j == f * x_j:
            return TrackReport(POLY_TRACKING, bracket, residual, cofactor=f)
    # rational cofactor with gcd reduction (plane polynomials only)
    for b_i, x_i in ((bracket.cx, x_field.cx), (bracket.cy, x_field.cy)):
        if x_i.is_zero or b_i.is_zero:
            continue
        if b_i.has_trig() or x_i.has_trig():
            num, den = b_i, x_i
        else:
            g = _poly_gcd(b_i, x_i)
            num = divide_exact(b_i, g)
            den = divide_exact(x_i, g)
        if num is None or den is None:
            num, den = b_i, x_i
        # identity check: bracket * den == num * X
        if bracket.cx * den == num * x_field.cx and bracket.cy * den == num * x_field.cy:
            return TrackReport(
                RATIONAL_TRACKING,
                bracket,
                residual,
                cofactor_num=num,
                cofactor_den=den,
                caveat=_RATIONAL_CAVEAT,
            )
    # wedge vanished but no usable quotient representation was found
    return TrackReport(
        RATIONAL_TRACKING,
        bracket,
        residual,
        caveat=_RATIONAL_CAVEAT + "; no reduced quotient representation found",
    )


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


def common_zeros(
    algebra: LieAlgebraSpec, region: Box, max_depth: int
) -> list[ZeroBlock]:
    """Blocks of the simultaneous zero set of all generators."""
    return list(common_zero_blocks(algebra.generators, region, max_depth).blocks)
