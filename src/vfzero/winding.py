"""Certified winding numbers and Poincare-Hopf block indices.

The degree of the field direction map along a boundary loop is computed by
certified angle accumulation: each loop segment is refined until the field
enclosure over the piece misses the origin, which confines the field to an
open half-plane and bounds the angle variation on the piece below pi.  The
signed principal angle between consecutive endpoint values is then
enclosed with 128-bit interval atan2, and the loop total must land within
a quarter period of an integer multiple of 2*pi for the degree to be
accepted.  Endpoint values are enclosures too: the enclosure of the
degenerate box at the vertex, which is the exact value for polynomials
and a 128-bit-wide enclosure where trigonometric terms enter.

Boundary pieces are bisected in integer form (``blocks.DyadicSegment``:
numerators over q * 2^e, q = 1 for a dyadic segment).  The piece and
endpoint enclosures and their cross and dot products are integers, and
``atan2_range`` takes them as such; its increment ``Interval`` is the
first ``Fraction`` a piece produces (apart from the keys of the trig
caches).  Endpoint values are memoized per loop, keyed by the vertex in
lowest terms, and the memo is kept across that loop's gate retries, so a
vertex shared by two pieces or revisited by a retry is evaluated once.

The index of a block is the sum of the winding numbers of its boundary
loops taken with the interior-on-the-left orientation, which makes hole
contributions enter with the correct sign automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import (
    MAX_SEG_REFINE,
    BoundaryLoop,
    DyadicSegment,
    Segment,
    ZeroBlock,
    ZeroProblem,
    bisect,
    boundary_piece,
    certify_boundary,
    enclose,
    excludes_zero,
    isolate_zeros,
    piece_segment,
)
from .errors import CertificationError, FalsificationError
from .expr import Expr
from .fields import VectorField, dot, wedge
from .intervals import Box, EnclosureError, HALF_PI, IntRange, Interval, TWO_PI, atan2_range, imul


@dataclass(frozen=True)
class LoopWinding:
    winding: int
    pieces: int
    angle_sum: Interval
    max_piece_width: Fraction


@dataclass(frozen=True)
class IndexReport:
    block: str
    index: int
    loops: tuple[LoopWinding, ...]
    method: str = "winding"

    @property
    def angle_sum(self) -> Interval:
        return Interval(
            sum((lw.angle_sum.lo for lw in self.loops), Fraction(0)),
            sum((lw.angle_sum.hi for lw in self.loops), Fraction(0)),
        )


_MAX_INC_WIDTH = Fraction(4, 5)  # radians; keeps atan2 away from the branch cut
_GATE_RETRIES = 3


def _vertex_value(field: VectorField, p, values: dict) -> tuple[IntRange, IntRange]:
    """Enclosures of the field's components at a piece endpoint, memoized
    in the loop's ``values``.  ``p`` is the (x, y, e, q) of a piece's
    endpoint, the point (x, y) / (q 2^e), which is keyed in lowest terms
    so that pieces of every level, and over every q, share it."""
    x, y, e, q = p
    low = ((x | y) & -(x | y)).bit_length() - 1  # trailing zeros shared by x and y
    k = e if low < 0 else min(low, e)
    x, y, e = x >> k, y >> k, e - k
    if q != 1:
        g = math.gcd(x, y, q)
        x, y, q = x // g, y // g, q // g
    p = (x, y, e, q)
    out = values.get(p)
    if out is None:
        xs, ys = (x, x, e), (y, y, e)
        out = (field.cx.dyadic_kernel().range_dyadic(xs, ys, q),
               field.cy.dyadic_kernel().range_dyadic(xs, ys, q))
        values[p] = out
    return out


def _cross_dot(u: tuple[IntRange, IntRange], v: tuple[IntRange, IntRange]) -> tuple[IntRange, IntRange]:
    """Interval cross u x v and dot u . v, over the common denominator of
    the four components; the same intervals as the Fraction products."""
    (a, b, p), (c, d, q) = u
    (e, f, r), (g, h, s) = v
    qr, ps, qs, pr = q * r, p * s, q * s, p * r
    den = ps * qr
    xy_lo, xy_hi = imul(a, b, g, h)  # ux * vy, over p * s
    yx_lo, yx_hi = imul(c, d, e, f)  # uy * vx, over q * r
    xx_lo, xx_hi = imul(a, b, e, f)  # ux * vx, over p * r
    yy_lo, yy_hi = imul(c, d, g, h)  # uy * vy, over q * s
    cross = (xy_lo * qr - yx_hi * ps, xy_hi * qr - yx_lo * ps, den)
    dotv = (xx_lo * qs + yy_lo * pr, xx_hi * qs + yy_hi * pr, den)
    return cross, dotv


def _increment(field: VectorField, piece: DyadicSegment, max_width: Fraction, values: dict) -> Optional[Interval]:
    """Certified angle increment over the piece, or None while the field
    enclosure may meet the origin or the increment is wider than max_width.
    Endpoint values come from the loop's memo ``values``."""
    # both components, as field.range_on evaluates them: the trig cache
    # traffic then does not depend on which one excludes zero
    rx, ry = enclose(field.cx, piece), enclose(field.cy, piece)
    if not (excludes_zero(rx) or excludes_zero(ry)):
        return None
    cross, dotv = _cross_dot(_vertex_value(field, piece.start, values),
                             _vertex_value(field, piece.end, values))
    try:
        inc = atan2_range(cross, dotv)
    except EnclosureError:
        return None
    if inc is None or inc.width() > max_width:
        return None
    return inc


def winding_number(field: VectorField, loop: BoundaryLoop) -> int:
    """Exact degree of the field direction map along the closed loop."""
    return _loop_winding(field, loop).winding


def _loop_winding(field: VectorField, loop: BoundaryLoop) -> LoopWinding:
    max_width = _MAX_INC_WIDTH
    segments = [boundary_piece(seg) for seg in loop.segments]
    values: dict = {}  # vertex values of this loop, kept across the gate retries
    for _ in range(_GATE_RETRIES + 1):
        increments: list[Interval] = []
        for seg in segments:
            pieces = bisect(seg, lambda s: _increment(field, s, max_width, values), MAX_SEG_REFINE)
            for piece, inc in pieces:
                if inc is None:
                    piece = piece_segment(piece)
                    raise CertificationError(
                        "zero too close to boundary: segment near "
                        f"({float(piece.x0):.6g}, {float(piece.y0):.6g})"
                    )
                increments.append(inc)
        total = Interval(
            sum((i.lo for i in increments), Fraction(0)),
            sum((i.hi for i in increments), Fraction(0)),
        )
        mid = total.midpoint()
        k = int(round(mid / TWO_PI.midpoint()))
        lower = TWO_PI * k - HALF_PI
        upper = TWO_PI * k + HALF_PI
        if total.lo > lower.hi and total.hi < upper.lo:
            return LoopWinding(
                winding=k,
                pieces=len(increments),
                angle_sum=total,
                max_piece_width=max((i.width() for i in increments), default=Fraction(0)),
            )
        # widen certification by refining every piece before giving up
        max_width = max_width / 8
    raise CertificationError(
        f"winding sum {float(total.lo):.4f}..{float(total.hi):.4f} not within a "
        f"quarter period of 2*pi*{k} after {_GATE_RETRIES} refinement passes"
    )


def block_index(field: VectorField, block: ZeroBlock) -> IndexReport:
    """Certified Poincare-Hopf index of the field on the block.

    The index is the sum over boundary loops (interior-left orientation).
    The winding refinement certifies on every boundary piece that the
    field enclosure misses the origin, which is the isolating certificate;
    a block whose boundary runs through a zero of the field fails there.
    """
    if block.coarse:
        raise CertificationError(f"block {block.label} is coarse; refine the isolation")
    loops = tuple(_loop_winding(field, lp) for lp in block.boundary)
    return IndexReport(
        block=block.label,
        index=sum(lw.winding for lw in loops),
        loops=loops,
    )


def region_boundary_loop(region: Box) -> BoundaryLoop:
    """Counterclockwise rectangle boundary of the region."""
    x0, x1 = region.x.lo, region.x.hi
    y0, y1 = region.y.lo, region.y.hi
    return BoundaryLoop(
        (
            Segment(x0, y0, x1, y0),
            Segment(x1, y0, x1, y1),
            Segment(x1, y1, x0, y1),
            Segment(x0, y1, x0, y0),
        )
    )


def region_index(field: VectorField, region: Box, max_depth: int) -> int:
    """Sum of block indices inside the region; checked against the direct
    winding of the field along the region boundary."""
    if field.domain == "torus":
        raise ValueError("region_index applies to plane regions; the torus has no boundary")
    loop = region_boundary_loop(region)
    boundary_winding = winding_number(field, loop)
    result = isolate_zeros(field, region, max_depth)
    total = sum(block_index(field, blk).index for blk in result.blocks)
    if total != boundary_winding:
        raise FalsificationError(
            f"block index sum {total} != region boundary winding {boundary_winding}"
        )
    return total


# ---------------------------------------------------------------------------
# index transfer certificates


MODE_NO_NEGATIVE_RATIO = "no-negative-ratio"
MODE_NO_POSITIVE_RATIO = "no-positive-ratio"


@dataclass(frozen=True)
class TransferReport:
    mode: str
    certified: bool
    pieces: int
    index_x: Optional[int]
    index_y: Optional[int]
    failed_segment: Optional[Segment] = None


def index_transfer_check(
    x_field: VectorField,
    y_field: VectorField,
    block: ZeroBlock,
    mode: str = MODE_NO_NEGATIVE_RATIO,
) -> TransferReport:
    """Certify on the block boundary that X is never a negative (mode
    no-negative-ratio) or positive (mode no-positive-ratio) multiple of Y;
    on success the two indices are asserted equal.

    The straight-line deformation between X and Y (or -Y) then has no zero
    on the boundary, which is exactly what makes the two indices agree.
    Both indices are computed first: ``block_index`` raises
    ``CertificationError`` when the block is coarse or not isolating for
    either field, so ``certify_isolating`` is not called.  A failed
    certificate reports the first uncertified boundary piece.
    """
    if mode not in (MODE_NO_NEGATIVE_RATIO, MODE_NO_POSITIVE_RATIO):
        raise ValueError(f"unknown mode {mode!r}")
    sign = -1 if mode == MODE_NO_NEGATIVE_RATIO else +1
    ix = block_index(x_field, block).index
    iy = block_index(y_field, block).index
    w = wedge(x_field, y_field)
    d = dot(x_field, y_field)

    def never_ratio(piece: DyadicSegment) -> Optional[bool]:
        # X != lambda*Y on the piece for every lambda of the given sign
        if excludes_zero(enclose(w, piece)):
            return True
        lo, hi, _ = enclose(d, piece)
        if (sign < 0 and lo > 0) or (sign > 0 and hi < 0):
            return True
        return None

    pieces = 0
    for loop in block.boundary:
        for seg in loop.segments:
            certs = 0
            for piece, cert in bisect(boundary_piece(seg), never_ratio, MAX_SEG_REFINE):
                if cert is None:
                    return TransferReport(mode, False, pieces, None, None, piece_segment(piece))
                certs += 1
            pieces += certs
    if ix != iy:
        raise FalsificationError(
            f"transfer certified but indices differ: {ix} != {iy} (mode {mode})"
        )
    return TransferReport(mode, True, pieces, ix, iy)


@dataclass(frozen=True)
class ScalarFactorReport:
    index_y: int
    index_scaled: int
    factor_sign_certified: bool

    @property
    def implication_holds(self) -> bool:
        return self.index_y != 0 or self.index_scaled == 0


def scalar_factor_index_check(y_field: VectorField, factor: Expr, block: ZeroBlock) -> ScalarFactorReport:
    """Check the scalar-multiplier index implication on a block.

    With X := factor * Y and factor certified nonvanishing on the block
    boundary, a zero index for Y forces a zero index for X; both indices
    are computed and the implication asserted.
    """
    cert = certify_boundary(ZeroProblem([("value", factor)]), block.boundary)
    if not cert.ok:
        raise CertificationError("factor sign could not be certified on the boundary")
    scaled = y_field.scale(factor)
    iy = block_index(y_field, block).index
    ix = block_index(scaled, block).index
    if iy == 0 and ix != 0:
        raise FalsificationError(f"index of scaled field is {ix} despite index 0 for Y")
    return ScalarFactorReport(index_y=iy, index_scaled=ix, factor_sign_certified=True)
