"""Certified winding numbers and Poincare-Hopf block indices.

The degree of the field direction map along a closed boundary loop is the
signed number of times the field crosses the positive x-axis, counted +1
from below to above.  Each loop segment is bisected until the enclosure of
one component on the piece has a strict sign, trying cx first and then cy:
the piece is then certified ``cx > 0``, ``cx < 0``, ``cy > 0`` or
``cy < 0``, and the field misses the origin on it.  Only a ``cx > 0`` piece
can meet the positive x-axis.  Such a piece never touches a ``cx < 0``
piece, since at their shared vertex cx would have both signs, so a maximal
run of ``cx > 0`` pieces sits between two ``cy``-certified pieces with
signs s0 before and s1 after.  On the run the field stays in the right
half-plane, so it crosses the positive x-axis a net (s1 - s0) / 2 times.
The winding number is the sum over the runs; a loop with no ``cy`` piece
or no ``cx > 0`` run stays in an open half-plane and winds 0.  No angle,
vertex value or transcendental function enters: every decision is the
sign of an integer enclosure (Stenger 1975, Kearfott 1979; Franek and
Ratschan, Math. Comp. 2015).

Boundary loops hold their pieces in integer form (``blocks.DyadicSegment``:
numerators over q * 2^e on the region's lattice, q = 1 for a dyadic
region), and each piece is bisected by the sign certificate of the
field's zero problem, ``blocks.ZeroProblem.sign_certificate``, whose
enclosures come from ``Expr.dyadic_kernel().range_dyadic``.

The index of a block is the sum of the winding numbers of its boundary
loops taken with the interior-on-the-left orientation, which makes hole
contributions enter with the correct sign automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import (
    MAX_SEG_REFINE,
    BoundaryLoop,
    DyadicSegment,
    Grid,
    Segment,
    ZeroBlock,
    ZeroProblem,
    _boundary_loops,
    _field_parts,
    bisect,
    enclose,
    excludes_zero,
    isolate_zeros,
    piece_segment,
    strict_sign,
)
from .errors import CertificationError, FalsificationError
from .fields import VectorField, dot, wedge
from .intervals import Box


@dataclass(frozen=True)
class LoopWinding:
    winding: int
    pieces: int


@dataclass(frozen=True)
class IndexReport:
    block: str
    index: int
    loops: tuple[LoopWinding, ...]
    method: str = "winding"


def _crossings(certs: list[tuple[int, int]]) -> int:
    """Signed count of crossings of the positive x-axis along a closed loop
    of pieces with the given sign certificates (k, sign), in loop order,
    where k = 0 is cx and k = 1 is cy: each maximal run of ``cx > 0``
    pieces between ``cy`` pieces of signs s0 and s1 adds (s1 - s0) / 2."""
    first = next((i for i, (comp, _) in enumerate(certs) if comp == 1), None)
    if first is None:
        return 0
    total = 0
    before = certs[first][1]  # cy sign before the current run
    in_run = False
    for comp, sign in certs[first + 1:] + certs[:first + 1]:
        if comp == 1:
            if in_run:
                total += (sign - before) // 2
                in_run = False
            before = sign
        elif sign > 0:
            in_run = True
    return total


def winding_number(field: VectorField, loop: BoundaryLoop) -> int:
    """Exact degree of the field direction map along the closed loop."""
    return _loop_winding(field, loop).winding


def _loop_winding(field: VectorField, loop: BoundaryLoop) -> LoopWinding:
    sign_certificate = ZeroProblem(_field_parts(field)).sign_certificate
    certs: list[tuple[int, int]] = []
    for seg in loop.segments:
        for piece, cert in bisect(seg, sign_certificate, MAX_SEG_REFINE):
            if cert is None:
                piece = piece_segment(piece)
                raise CertificationError(
                    "zero too close to boundary: segment near "
                    f"({float(piece.x0):.6g}, {float(piece.y0):.6g})"
                )
            certs.append(cert)
    return LoopWinding(winding=_crossings(certs), pieces=len(certs))


def block_index(field: VectorField, block: ZeroBlock) -> IndexReport:
    """Certified Poincare-Hopf index of the field on the block.

    The index is the sum over boundary loops (interior-left orientation).
    The winding bisection certifies a strict sign of one component on
    every boundary piece, so the field misses the origin there, which is
    the isolating certificate; a block whose boundary runs through a zero
    of the field fails there.
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
    """Counterclockwise rectangle boundary of the region: the boundary of
    its one cell at depth 0."""
    return _boundary_loops(Grid(0, torus=False), [(0, 0)], region)[0]


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
    either field, so ``certify_isolating`` is not called.  A piece is
    decided from component signs first, and only then from the enclosures
    of wedge(X, Y) and dot(X, Y).  A failed certificate reports the first
    uncertified boundary piece.
    """
    if mode not in (MODE_NO_NEGATIVE_RATIO, MODE_NO_POSITIVE_RATIO):
        raise ValueError(f"unknown mode {mode!r}")
    sign = -1 if mode == MODE_NO_NEGATIVE_RATIO else +1
    ix = block_index(x_field, block).index
    iy = block_index(y_field, block).index
    w = wedge(x_field, y_field)
    d = dot(x_field, y_field)

    def never_ratio(piece: DyadicSegment) -> Optional[bool]:
        # X != lambda*Y on the piece for every lambda of the given sign:
        # first from one component with strict signs in X and Y, the same
        # (no negative ratio) or opposite (no positive ratio) ones
        for a, b in ((x_field.cx, y_field.cx), (x_field.cy, y_field.cy)):
            if strict_sign(enclose(a, piece)) * strict_sign(enclose(b, piece)) == -sign:
                return True
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
            for piece, cert in bisect(seg, never_ratio, MAX_SEG_REFINE):
                if cert is None:
                    return TransferReport(mode, False, pieces, None, None, piece_segment(piece))
                certs += 1
            pieces += certs
    if ix != iy:
        raise FalsificationError(
            f"transfer certified but indices differ: {ix} != {iy} (mode {mode})"
        )
    return TransferReport(mode, True, pieces, ix, iy)
