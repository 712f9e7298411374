"""Independent oracles used to cross-check certified results.

These deliberately avoid the library's certified code paths: winding
numbers come from dense float sampling of the direction angle, and Lie
brackets are recomputed symbolically with sympy from the coordinate
formula.  Expression evaluation for the dense oracle is compiled to a
plain lambda straight from the term data.  The reference enclosure,
``range_on_fractions``, is term-by-term ``Fraction`` interval
arithmetic, kept to check the integer kernel behind ``Expr.range_on``
on every kind of box; ``RefDyadicKernel`` is the first integer kernel,
which runs every factor of a term through ``imul`` and a tight power,
kept to check the compiled kernel's integer triples call for call.  The
Fraction geometry reference bisects quadtree
cells as ``Box``es and boundary pieces as ``Segment``s with its own
``fraction_bisect``, on that reference enclosure, to check the integer
cells and pieces against, and ``fraction_cell_box`` and ``fraction_hull``
build a cell's box and a block's hull in Fraction arithmetic, to check
``blocks.lattice_box`` against; ``fraction_boundary_loops`` reads each block
boundary edge off the corners of its cell's box, to check the lattice
pieces of ``blocks._boundary_loops`` against; ``box_overlap`` tests
every pair of boxes of two blocks, to check the witnesses that
``ZeroBlock.overlap_box`` reads off cell indices; ``box_block`` builds
a block of one given box, a hand-made isolating neighbourhood; ``full_cover`` decides
every cover of the common-zero theorem over the whole region, to check
the window decision of ``blocks.cover_witnesses`` against, and
``factor_cover`` maps its report to the factored form, to check the
factored path of ``main_theorem_check`` against; ``v_cover`` decides the
same covers on the blocks of V = X / g's isolation, with X's indices on
them from X's own loop certificates, for the depths where the
whole-region isolation of X merges a curve of g with a zero of V.  The
reference loop
winding, ``fraction_loop_winding``,
is certified atan2 angle accumulation from ``Interval`` cross and dot
products of endpoint values: an index law independent of the library's
count of axis crossings.  The reference ring is the original
``Fraction`` implementation of the ``Expr`` ring operations, kept to check
the integer-numerator ones term by term; after it come the cofactor gcd
through sympy's ``Poly.gcd``, the ``Fraction`` long division and the
``Fraction`` linear solve for torus quotients (``ref_trig_quotient``),
kept to check the integer gcd and the one integer division of both
domains, and ``ref_track_check``, the tracking classification that tried
both components and re-proved the cofactor identities, kept to check
the one-division ``track_check``.  ``exact_value`` evaluates a pi-free expression exactly at a
rational point (a torus one on the quarter grid), to check enclosures
against.  The reference Lie bracket is the
bracket composed of ``Expr`` ring operations (``derive``, ``*``, ``+``,
``-``), kept to check the fused integer bracket.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy

from vfzero import (
    NOT_TRACKING, POLY_TRACKING, RATIONAL_TRACKING, BoundaryLoop, Box, CertificationError, Expr, Interval,
    TrackReport, VectorField, ZeroBlock, block_index, common_zero_blocks, divide_exact, isolate_zeros, jacobian,
    lie_bracket, region_boundary_loop, track_check, wedge,
)
from vfzero.blocks import MAX_SEG_REFINE, Segment, piece_segment
from vfzero.harness import MainTheoremReport, Witness
from vfzero.tracking import _RATIONAL_CAVEAT, _poly_gcd
from vfzero.expr import DomainError, Key, _gens_string
from vfzero.intervals import (
    PI, EnclosureError, IntRange, atan2_range, cos_2pi_range, imul, pi_power, sin_2pi_range,
)


# ---------------------------------------------------------------------------
# dense-sampling winding oracle


def compile_float(e: Expr):
    """Compile an Expr into a fast float lambda (oracle-local)."""
    pieces = []
    for (kpi, ex, ey, s1, c1, s2, c2), coeff in e.terms():
        factors = [f"({float(coeff)!r})"]
        if kpi:
            factors.append(f"{math.pi!r}**{kpi}")
        if ex:
            factors.append(f"x**{ex}")
        if ey:
            factors.append(f"y**{ey}")
        if s1:
            factors.append(f"sin(tau*x)**{s1}")
        if c1:
            factors.append(f"cos(tau*x)**{c1}")
        if s2:
            factors.append(f"sin(tau*y)**{s2}")
        if c2:
            factors.append(f"cos(tau*y)**{c2}")
        pieces.append("*".join(factors))
    body = " + ".join(pieces) if pieces else "0.0"
    return eval(
        f"lambda x, y: {body}",
        {"sin": math.sin, "cos": math.cos, "tau": 2 * math.pi},
    )


def _accumulate(fx, fy, points) -> int:
    total = 0.0
    prev = None
    for x, y in points:
        a = math.atan2(fy(x, y), fx(x, y))
        if prev is not None:
            d = a - prev
            if d > math.pi:
                d -= 2 * math.pi
            elif d < -math.pi:
                d += 2 * math.pi
            total += d
        prev = a
    return round(total / (2 * math.pi))


def dense_circle_winding(
    field: VectorField,
    center: tuple[float, float] = (0.0, 0.0),
    radius: float = 0.75,
    samples: int = 100_000,
) -> int:
    """Winding of the field along a circle, via dense angle accumulation."""
    fx = compile_float(field.cx)
    fy = compile_float(field.cy)
    cx, cy = center
    points = [
        (cx + radius * math.cos(2 * math.pi * k / samples),
         cy + radius * math.sin(2 * math.pi * k / samples))
        for k in range(samples + 1)
    ]
    return _accumulate(fx, fy, points)


def _sample_loop(loop: BoundaryLoop, samples: int):
    segments = [piece_segment(piece) for piece in loop.segments]
    lengths = [
        abs(float(s.x1 - s.x0)) + abs(float(s.y1 - s.y0)) for s in segments
    ]
    total = sum(lengths) or 1.0
    points = []
    for seg, ln in zip(segments, lengths):
        n = max(2, int(samples * ln / total))
        x0, y0, x1, y1 = (float(seg.x0), float(seg.y0), float(seg.x1), float(seg.y1))
        for k in range(n):
            t = k / n
            points.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    points.append(points[0])
    return points


def dense_loop_winding(field: VectorField, loop: BoundaryLoop, samples: int = 20_000) -> int:
    fx = compile_float(field.cx)
    fy = compile_float(field.cy)
    return _accumulate(fx, fy, _sample_loop(loop, samples))


def dense_block_winding(field: VectorField, block, samples: int = 20_000) -> int:
    """Sum of dense loop windings over a block boundary (interior-left)."""
    return sum(dense_loop_winding(field, loop, samples) for loop in block.boundary)


# ---------------------------------------------------------------------------
# Fraction enclosure and geometry reference


def fraction_trig_key(iv: Interval) -> tuple[int, int, int]:
    """The trig cache key of an interval from its Fraction endpoints: their
    numerators over the lcm of their denominators, a triple that is
    already reduced."""
    lo, hi = iv.lo, iv.hi
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def range_on_fractions(e: Expr, box: Box) -> Interval:
    """Reference enclosure in Fraction interval arithmetic."""
    sx = cx = sy = cy = None
    den = e._den
    total = Interval.point(0)
    for (kpi, ex, ey, s1, c1, s2, c2), coeff in e._num.items():
        v = Interval.point(Fraction(coeff, den))
        if kpi:
            v = v * pi_power(kpi)
        if ex:
            v = v * box.x.int_pow(ex)
        if ey:
            v = v * box.y.int_pow(ey)
        if s1:
            if sx is None:
                sx = sin_2pi_range(*fraction_trig_key(box.x))
            v = v * sx.int_pow(s1)
        if c1:
            if cx is None:
                cx = cos_2pi_range(*fraction_trig_key(box.x))
            v = v * cx.int_pow(c1)
        if s2:
            if sy is None:
                sy = sin_2pi_range(*fraction_trig_key(box.y))
            v = v * sy.int_pow(s2)
        if c2:
            if cy is None:
                cy = cos_2pi_range(*fraction_trig_key(box.y))
            v = v * cy.int_pow(c2)
        total = total + v
    return total


# sin and cos of 2*pi*t at the quarter grid t = 0, 1/4, 1/2, 3/4
_SIN_QUARTER = {Fraction(0): 0, Fraction(1, 4): 1, Fraction(1, 2): 0, Fraction(3, 4): -1}
_COS_QUARTER = {Fraction(0): 1, Fraction(1, 4): 0, Fraction(1, 2): -1, Fraction(3, 4): 0}


def exact_value(e: Expr, p: tuple[Fraction, Fraction]) -> Fraction:
    """The exact value of the pi-free ``e`` at the rational point ``p``;
    trig generators only on the quarter grid, where sin and cos of
    2*pi*t are -1, 0 or 1."""
    px, py = Fraction(p[0]), Fraction(p[1])
    total = Fraction(0)
    for (kpi, ex, ey, s1, c1, s2, c2), coeff in e.terms():
        assert not kpi, "pi has no exact rational value"
        v = coeff * px**ex * py**ey
        if s1 or c1 or s2 or c2:
            rx, ry = px % 1, py % 1
            v *= _SIN_QUARTER[rx] ** s1 * _COS_QUARTER[rx] ** c1
            v *= _SIN_QUARTER[ry] ** s2 * _COS_QUARTER[ry] ** c2
        total += v
    return total


def _ref_ipow(a: int, b: int, n: int) -> tuple[int, int]:
    """Tight {t**n : t in [a, b]} over the integers (Interval.int_pow)."""
    if n % 2 == 1 or a >= 0:
        return a**n, b**n
    if b <= 0:
        return b**n, a**n
    return 0, max(a**n, b**n)


def _ref_trig_key(axis: tuple[int, int, int], q: int) -> tuple[int, int, int]:
    """The axis (a, b, e) over q as a trig cache key: (a, b, q 2^e) reduced."""
    a, b, e = axis
    den = q << e
    g = math.gcd(a, b, den)
    return a // g, b // g, den // g


# generator indices of a compiled factor: x, y, then the four trig
# functions in the order a term-by-term evaluation meets them
_GEN_SX, _GEN_CX, _GEN_SY, _GEN_CY = 2, 3, 4, 5


class RefDyadicKernel:
    """An Expr compiled for exact integer evaluation on boxes.

    Every integer numerator of the Expr, over its denominator Q, is folded
    together with its pi power into a constant integer interval over
    2^shift.  A box whose coordinates are integers over q * 2^e is then
    evaluated term by term with the same interval products and tight
    powers as Fraction interval arithmetic would use, on integers scaled
    by Q * q^D * 2^s, where D is the top x/y degree; terms are added after
    aligning their shifts.
    """

    __slots__ = ("den", "terms", "factors", "trig_order", "degrees", "top_degree")

    def __init__(self, num: dict[Key, int], den: int):
        self.den = den
        factors: dict[tuple[int, int], int] = {}
        compiled = []
        degrees = []
        trig_order: list[int] = []
        for (kpi, ex, ey, s1, c1, s2, c2), n in num.items():
            if kpi:
                a, b, shift = pi_power(kpi).dyadic
                lo, hi = (n * a, n * b) if n >= 0 else (n * b, n * a)
            else:
                lo = hi = n
                shift = 0
            slots = []
            for gen, e in enumerate((ex, ey, s1, c1, s2, c2)):
                if e:
                    slots.append(factors.setdefault((gen, e), len(factors)))
                    if gen >= _GEN_SX and gen not in trig_order:
                        trig_order.append(gen)
            compiled.append((lo, hi, shift, tuple(slots)))
            degrees.append(ex + ey)
        self.terms = tuple(compiled)
        self.factors = tuple(factors)
        self.trig_order = tuple(trig_order)
        self.degrees = tuple(degrees)
        self.top_degree = max(degrees, default=0)

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
        bases = [x, y, None, None, None, None]
        if self.trig_order:
            xkey, ykey = _ref_trig_key(x, q), _ref_trig_key(y, q)
        for gen in self.trig_order:
            # the lookups of term-by-term Fraction interval arithmetic, in
            # its order, so the lru_cache statistics match that reference
            if gen == _GEN_SX:
                iv = sin_2pi_range(*xkey)
            elif gen == _GEN_CX:
                iv = cos_2pi_range(*xkey)
            elif gen == _GEN_SY:
                iv = sin_2pi_range(*ykey)
            else:
                iv = cos_2pi_range(*ykey)
            bases[gen] = iv.dyadic  # trig endpoints are dyadic
        powers = []
        for gen, n in self.factors:
            a, b, shift = bases[gen]
            powers.append(_ref_ipow(a, b, n) + (shift * n,))
        terms = self.terms
        den = self.den
        if q != 1:
            deg = self.top_degree
            terms = [(lo * q ** (deg - d), hi * q ** (deg - d), shift, slots)
                     for (lo, hi, shift, slots), d in zip(terms, self.degrees)]
            den *= q**deg
        lo_sum = hi_sum = 0
        top = 0
        for lo, hi, shift, slots in terms:
            for k in slots:
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


def _split4(box: Box) -> tuple[Box, Box, Box, Box]:
    xm, ym = box.x.midpoint(), box.y.midpoint()
    return (
        Box(Interval(box.x.lo, xm), Interval(box.y.lo, ym)),
        Box(Interval(xm, box.x.hi), Interval(box.y.lo, ym)),
        Box(Interval(box.x.lo, xm), Interval(ym, box.y.hi)),
        Box(Interval(xm, box.x.hi), Interval(ym, box.y.hi)),
    )


def _halves(seg: Segment) -> tuple[Segment, Segment]:
    mx, my = (seg.x0 + seg.x1) / 2, (seg.y0 + seg.y1) / 2
    return Segment(seg.x0, seg.y0, mx, my), Segment(mx, my, seg.x1, seg.y1)


def fraction_bisect(piece, certify, max_level: int):
    """``blocks.bisect`` on a Fraction ``Box`` (into quarters) or
    ``Segment`` (into halves)."""
    split = _split4 if isinstance(piece, Box) else _halves
    stack = [(piece, 0)]
    while stack:
        piece, level = stack.pop()
        cert = certify(piece)
        if cert is None and level < max_level:
            stack.extend((child, level + 1) for child in reversed(split(piece)))
        else:
            yield piece, cert


def fraction_empty_certificate(problem, box: Box):
    """The emptiness certificate of a box on the Fraction enclosure loop."""
    for label, expr in problem.components:
        r = range_on_fractions(expr, box)
        if r.excludes_zero():
            return (label, r)
    return None


def fraction_subdivide(problem, region: Box, max_depth: int):
    """Quadtree subdivision by Fraction boxes: ({cell: leaf box}, [(box,
    label, enclosure)]) in traversal order, the boxes of the cells and
    leaves that ``blocks._subdivide`` returns."""
    n = 1 << max_depth
    wx, wy = region.x.width() / n, region.y.width() / n
    retained, empties = {}, []
    for box, cert in fraction_bisect(region, lambda b: fraction_empty_certificate(problem, b), max_depth):
        if cert is None:
            retained[(int((box.x.lo - region.x.lo) / wx), int((box.y.lo - region.y.lo) / wy))] = box
        else:
            empties.append((box, *cert))
    return retained, empties


def fraction_cell_box(region: Box, depth: int, cell) -> Box:
    """The box of cell (i, j) at ``depth`` of the region: the region's low
    corner plus (i, j) and (i + 1, j + 1) cell widths, in Fraction
    arithmetic."""
    (i, j), n = cell, 1 << depth
    (x0, x1), (y0, y1) = (region.x.lo, region.x.hi), (region.y.lo, region.y.hi)
    wx, wy = (x1 - x0) / n, (y1 - y0) / n
    return Box.from_corners(x0 + i * wx, y0 + j * wy, x0 + (i + 1) * wx, y0 + (j + 1) * wy)


def fraction_hull(boxes) -> Box:
    """The least box that holds every given box."""
    boxes = list(boxes)
    return Box.from_corners(min(b.x.lo for b in boxes), min(b.y.lo for b in boxes),
                            max(b.x.hi for b in boxes), max(b.y.hi for b in boxes))


def box_overlap(block, other) -> Optional[Box]:
    """The overlap of the first meeting pair of boxes of two blocks (own
    boxes outer), or None when no pair of closed boxes meets: the all-pairs
    box test that ``ZeroBlock.overlap_box`` replaced with cell indices.  It
    does not wrap on the torus."""
    for a in block.boxes:
        for b in other.boxes:
            if a.intersects(b):
                return Box(
                    Interval(max(a.x.lo, b.x.lo), min(a.x.hi, b.x.hi)),
                    Interval(max(a.y.lo, b.y.lo), min(a.y.hi, b.y.hi)),
                )
    return None


def box_block(box: Box) -> ZeroBlock:
    """A hand-built plane block of one box: the box's one cell at depth 0
    of its own lattice, bounded by ``region_boundary_loop(box)``."""
    return ZeroBlock(label="box", domain="plane", region=box, resolution=0, cells=((0, 0),),
                     boundary=(region_boundary_loop(box),), coarse=False)


def wrap(grid, cell):
    """A cell or vertex index reduced mod the grid size on the torus,
    unchanged on the plane."""
    if grid.torus:
        return (cell[0] % grid.n, cell[1] % grid.n)
    return cell


def full_cover(entry, max_depth: int = 8) -> MainTheoremReport:
    """``main_theorem_check`` with every cover decided over the whole
    region: every tracker's zero set (once per distinct field) and the
    common zero set are isolated at full depth, and each essential block
    takes its witness from the first of their blocks that meets it.  The
    whole-region check that ``blocks.cover_witnesses`` replaced with the
    cells around each essential block, and that the intersection of the
    trackers' window cells replaced for the common zero set."""
    isolation = isolate_zeros(entry.field, entry.region, max_depth)
    for blk in isolation.blocks:
        if blk.coarse:
            raise CertificationError(f"coarse block {blk.label} in {entry.name}")
    indices = tuple((blk.label, block_index(entry.field, blk).index) for blk in isolation.blocks)
    return _whole_region_covers(entry, isolation.blocks, indices, max_depth, {entry.field: isolation})


def v_cover(entry, max_depth: int = 8) -> MainTheoremReport:
    """``full_cover``'s covers on the blocks of V = X / g, for the gcd g
    of X's components (sympy's, through ``ref_poly_gcd``), in the form of
    the factored path: ("G", 0) first, then each of V's blocks with X's
    index on it, computed from a new zero problem of X and not from V's
    loop certificates."""
    f = entry.field
    g = ref_poly_gcd(f.cx, f.cy)
    v = VectorField(ref_divide_exact(f.cx, g), ref_divide_exact(f.cy, g))
    v_blocks = isolate_zeros(v, entry.region, max_depth).blocks
    indices = (("G", 0),) + tuple(
        (blk.label, block_index(f, dataclasses.replace(blk, problem=None)).index) for blk in v_blocks)
    return _whole_region_covers(entry, v_blocks, indices, max_depth, {})


def _whole_region_covers(entry, blocks, indices, max_depth: int, isolated: dict) -> MainTheoremReport:
    """The report of ``main_theorem_check`` with the given blocks of Z(X)
    and their (label, index) pairs, each cover decided from the blocks of
    a whole-region isolation; ``isolated`` maps fields to isolations
    already at hand."""
    reports = [track_check(y, entry.field) for y in entry.trackers]
    statuses = tuple(r.status for r in reports)
    hypotheses_ok = bool(reports) and all(r.status == POLY_TRACKING for r in reports)
    essential = tuple(label for label, ix in indices if ix != 0)
    essential_blocks = [blk for blk in blocks if blk.label in essential]
    witnesses, missed = [], []

    def check_cover(tag, zero_blocks):
        for blk in essential_blocks:
            w = next((w for w in map(blk.overlap_box, zero_blocks) if w is not None), None)
            if w is None:
                missed.append((tag, blk.label))
            else:
                witnesses.append(Witness(tag, blk.label, w))

    for k, y in enumerate(entry.trackers):
        if y.is_zero:
            raise ValueError(f"tracker {k} of {entry.name} is the zero field")
        if y not in isolated:
            isolated[y] = isolate_zeros(y, entry.region, max_depth)
        check_cover(f"Y{k}", isolated[y].blocks)
    if entry.trackers:
        check_cover("common", common_zero_blocks(entry.trackers, entry.region, max_depth).blocks)
    return MainTheoremReport(
        entry=entry.name,
        tracker_statuses=statuses,
        hypotheses_ok=hypotheses_ok,
        block_indices=indices,
        essential_blocks=essential,
        witnesses=tuple(witnesses),
        missed=tuple(missed),
        conclusion_holds=not missed,
    )


def factor_cover(entry, report: MainTheoremReport, max_depth: int = 8) -> MainTheoremReport:
    """A whole-region report (``full_cover``) in the form that the
    factored path of ``main_theorem_check`` gives: with V = X / g for the
    gcd g of X's components (sympy's, through ``ref_poly_gcd``), every
    whole-region block of X that shares no cell with a block of V's
    isolation must have index 0 and is dropped, ("G", 0) goes first, and
    the other blocks are relabelled K0, K1, ... in order, in
    ``essential_blocks``, ``witnesses`` and ``missed`` too."""
    f = entry.field
    g = ref_poly_gcd(f.cx, f.cy)
    v = VectorField(ref_divide_exact(f.cx, g), ref_divide_exact(f.cy, g))
    v_cells = {c for blk in isolate_zeros(v, entry.region, max_depth).blocks for c in blk.cells}
    relabel = {}
    for blk, (label, ix) in zip(isolate_zeros(f, entry.region, max_depth).blocks, report.block_indices,
                                strict=True):
        assert blk.label == label
        if v_cells.isdisjoint(blk.cells):
            assert ix == 0, (entry.name, label, ix)
        else:
            relabel[label] = f"K{len(relabel)}"
    return dataclasses.replace(
        report,
        block_indices=(("G", 0),) + tuple((relabel[label], ix) for label, ix in report.block_indices
                                          if label in relabel),
        essential_blocks=tuple(relabel[label] for label in report.essential_blocks),
        witnesses=tuple(Witness(w.tracker, relabel[w.block], w.box) for w in report.witnesses),
        missed=tuple((tag, relabel[label]) for tag, label in report.missed),
    )


_LEFT = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT = {"E": "S", "S": "W", "W": "N", "N": "E"}


def fraction_boundary_loops(grid, comp: dict) -> tuple[tuple[Segment, ...], ...]:
    """The oriented boundary loops of a cell union, interior on the left,
    as ``Segment``s read off the corners of each cell's box: ``comp`` maps
    each cell of the grid to its box.  The box-corner extraction that
    ``blocks._boundary_loops`` replaced with lattice pieces."""

    def is_member(cell) -> bool:
        return wrap(grid, cell) in comp

    # directed edges: (from-vertex, to-vertex, direction, segment)
    edges = []
    for (i, j) in sorted(comp):
        b = comp[(i, j)]
        x0, x1, y0, y1 = b.x.lo, b.x.hi, b.y.lo, b.y.hi
        if not is_member((i, j - 1)):  # south side, heading east
            edges.append(((i, j), (i + 1, j), "E", Segment(x0, y0, x1, y0)))
        if not is_member((i + 1, j)):  # east side, heading north
            edges.append(((i + 1, j), (i + 1, j + 1), "N", Segment(x1, y0, x1, y1)))
        if not is_member((i, j + 1)):  # north side, heading west
            edges.append(((i + 1, j + 1), (i, j + 1), "W", Segment(x1, y1, x0, y1)))
        if not is_member((i - 1, j)):  # west side, heading south
            edges.append(((i, j + 1), (i, j), "S", Segment(x0, y1, x0, y0)))

    by_from: dict = {}
    for idx, e in enumerate(edges):
        by_from.setdefault(wrap(grid, e[0]), []).append(idx)

    used = [False] * len(edges)
    loops = []
    for start_idx in range(len(edges)):
        if used[start_idx]:
            continue
        chain = [start_idx]
        used[start_idx] = True
        start_v = wrap(grid, edges[start_idx][0])
        cur = edges[start_idx]
        while wrap(grid, cur[1]) != start_v:
            v = wrap(grid, cur[1])
            candidates = [k for k in by_from.get(v, ()) if not used[k]]
            if not candidates:
                raise AssertionError("open boundary chain: inconsistent cell union")
            # prefer left turn, then straight, then right turn
            pref = (_LEFT[cur[2]], cur[2], _RIGHT[cur[2]])
            candidates.sort(key=lambda k: pref.index(edges[k][2]))
            nxt = candidates[0]
            used[nxt] = True
            chain.append(nxt)
            cur = edges[nxt]
        loops.append(tuple(edges[k][3] for k in chain))
    return tuple(loops)


# The atan2 winding: certified angle accumulation.  Each piece's field
# enclosure must miss the origin, the signed angle between the field values
# at its endpoints is enclosed with interval atan2, and the loop total must
# land within a quarter period of 2*pi*k; otherwise every piece is refined
# with an 8 times smaller width bound, at most _GATE_RETRIES times.

TWO_PI: Interval = PI * 2
HALF_PI: Interval = Interval(PI.lo / 2, PI.hi / 2)
_MAX_INC_WIDTH = Fraction(4, 5)  # radians; keeps atan2 away from the branch cut
_GATE_RETRIES = 3


@dataclass(frozen=True)
class LoopWinding:
    winding: int
    pieces: int
    angle_sum: Interval
    max_piece_width: Fraction


def _fraction_value(field: VectorField, p) -> tuple[Interval, Interval]:
    box = Box(Interval.point(p[0]), Interval.point(p[1]))
    return range_on_fractions(field.cx, box), range_on_fractions(field.cy, box)


def fraction_increment(field: VectorField, seg: Segment, max_width: Fraction):
    """The certified angle increment of the field over a Segment, from
    Interval cross and dot products of Fraction endpoint values, or None
    while the field enclosure may meet the origin or the increment is
    wider than max_width."""
    box = seg.box()
    rx, ry = range_on_fractions(field.cx, box), range_on_fractions(field.cy, box)
    if not (rx.excludes_zero() or ry.excludes_zero()):
        return None
    ux, uy = _fraction_value(field, seg.start)
    vx, vy = _fraction_value(field, seg.end)
    try:
        inc = atan2_range(ux * vy - uy * vx, ux * vx + uy * vy)
    except EnclosureError:
        return None
    return None if inc.width() > max_width else inc


def fraction_loop_winding(field: VectorField, loop: BoundaryLoop) -> LoopWinding:
    """The atan2 winding of the field along the loop, on Segments and
    ``fraction_increment``: an index law independent of the crossing count
    of ``winding._loop_winding``."""
    max_width = _MAX_INC_WIDTH
    for _ in range(_GATE_RETRIES + 1):
        increments = []
        for piece in loop.segments:
            for _, inc in fraction_bisect(piece_segment(piece),
                                          lambda s: fraction_increment(field, s, max_width),
                                          MAX_SEG_REFINE):
                if inc is None:
                    raise ValueError("uncertified piece")
                increments.append(inc)
        total = Interval(sum(i.lo for i in increments), sum(i.hi for i in increments))
        k = int(round(total.midpoint() / TWO_PI.midpoint()))
        if total.lo > (TWO_PI * k - HALF_PI).hi and total.hi < (TWO_PI * k + HALF_PI).lo:
            return LoopWinding(k, len(increments), total, max(i.width() for i in increments))
        max_width = max_width / 8
    raise ValueError("winding gate not met")


# ---------------------------------------------------------------------------
# sympy bracket oracle


_SX, _SY = sympy.symbols("x y", real=True)


def to_sympy(e: Expr):
    total = sympy.Integer(0)
    for (kpi, ex, ey, s1, c1, s2, c2), coeff in e.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        term *= sympy.pi**kpi * _SX**ex * _SY**ey
        if s1:
            term *= sympy.sin(2 * sympy.pi * _SX) ** s1
        if c1:
            term *= sympy.cos(2 * sympy.pi * _SX) ** c1
        if s2:
            term *= sympy.sin(2 * sympy.pi * _SY) ** s2
        if c2:
            term *= sympy.cos(2 * sympy.pi * _SY) ** c2
        total += term
    return total


def sympy_bracket(y_field: VectorField, x_field: VectorField):
    """[Y, X]^i = sum_j (Y^j d_j X^i - X^j d_j Y^i), expanded by sympy."""
    yx, yy = to_sympy(y_field.cx), to_sympy(y_field.cy)
    xx, xy = to_sympy(x_field.cx), to_sympy(x_field.cy)
    b1 = yx * sympy.diff(xx, _SX) + yy * sympy.diff(xx, _SY) \
        - xx * sympy.diff(yx, _SX) - xy * sympy.diff(yx, _SY)
    b2 = yx * sympy.diff(xy, _SX) + yy * sympy.diff(xy, _SY) \
        - xx * sympy.diff(yy, _SX) - xy * sympy.diff(yy, _SY)
    return b1, b2


def brackets_agree(y_field: VectorField, x_field: VectorField, bracket: VectorField) -> bool:
    b1, b2 = sympy_bracket(y_field, x_field)
    d1 = sympy.simplify(b1 - to_sympy(bracket.cx))
    d2 = sympy.simplify(b2 - to_sympy(bracket.cy))
    return d1 == 0 and d2 == 0


def ref_lie_bracket(y_field: VectorField, x_field: VectorField) -> VectorField:
    """Lie bracket [Y, X] with the convention

        [Y, X]^i = sum_j (Y^j d_j X^i - X^j d_j Y^i),

    so the radial field E = (x, y) satisfies [E, X] = (k-1) X for X
    homogeneous of degree k.
    """
    if y_field.domain != x_field.domain:
        raise DomainError("domain mismatch in lie_bracket")
    jx = jacobian(x_field)
    jy = jacobian(y_field)
    bx = (
        y_field.cx * jx.dxx
        + y_field.cy * jx.dxy
        - x_field.cx * jy.dxx
        - x_field.cy * jy.dxy
    )
    by = (
        y_field.cx * jx.dyx
        + y_field.cy * jx.dyy
        - x_field.cx * jy.dyx
        - x_field.cy * jy.dyy
    )
    return VectorField(bx, by)


def eval_fraction_grid(e: Expr, x: Fraction, y: Fraction) -> float:
    """Float reference value at a rational point (oracle-local path)."""
    return compile_float(e)(float(x), float(y))


# ---------------------------------------------------------------------------
# reference Fraction ring: the term dicts an Expr held before its
# coefficients became integer numerators, with the same insertion order


def ref_normalize(terms: dict[Key, Fraction]) -> dict[Key, Fraction]:
    """Combine like terms and rewrite cos^2 -> 1 - sin^2 until cosine
    exponents are at most 1."""
    out: dict[Key, Fraction] = {}
    stack = [(k, c) for k, c in terms.items() if c != 0]
    while stack:
        key, coeff = stack.pop()
        kpi, ex, ey, s1, c1, s2, c2 = key
        if c1 >= 2:
            m, r = divmod(c1, 2)
            for j in range(m + 1):
                cj = coeff * math.comb(m, j) * (-1) ** j
                stack.append(((kpi, ex, ey, s1 + 2 * j, r, s2, c2), cj))
            continue
        if c2 >= 2:
            m, r = divmod(c2, 2)
            for j in range(m + 1):
                cj = coeff * math.comb(m, j) * (-1) ** j
                stack.append(((kpi, ex, ey, s1, c1, s2 + 2 * j, r), cj))
            continue
        acc = out.get(key, Fraction(0)) + coeff
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def ref_add(a: dict[Key, Fraction], b: dict[Key, Fraction]) -> dict[Key, Fraction]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return ref_normalize(out)


def ref_neg(a: dict[Key, Fraction]) -> dict[Key, Fraction]:
    return ref_normalize({k: -c for k, c in a.items()})


def ref_sub(a: dict[Key, Fraction], b: dict[Key, Fraction]) -> dict[Key, Fraction]:
    return ref_add(a, ref_neg(b))


def ref_mul(a: dict[Key, Fraction], b: dict[Key, Fraction]) -> dict[Key, Fraction]:
    out: dict[Key, Fraction] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_normalize(out)


def ref_derive(a: dict[Key, Fraction], var: str) -> dict[Key, Fraction]:
    out: dict[Key, Fraction] = {}

    def acc(key: Key, c: Fraction):
        out[key] = out.get(key, Fraction(0)) + c

    for (kpi, ex, ey, s1, c1, s2, c2), coeff in a.items():
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
    return ref_normalize(out)


def ref_pow(a: dict[Key, Fraction], n: int) -> dict[Key, Fraction]:
    result = ref_normalize({(0, 0, 0, 0, 0, 0, 0): Fraction(1)})
    base = a
    while n:
        if n & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base)
        n >>= 1
    return result


def ref_str(terms: dict[Key, Fraction]) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for key, coeff in sorted(terms.items(), reverse=True):
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


def ref_eval_float(terms: dict[Key, Fraction], x: float, y: float) -> float:
    total = 0.0
    for (kpi, ex, ey, s1, c1, s2, c2), coeff in terms.items():
        v = float(coeff)
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


def ref_hash(domain: str, terms: dict[Key, Fraction]) -> int:
    return hash((domain, frozenset(terms.items())))


# ---------------------------------------------------------------------------
# reference polynomial gcd and division: the cofactor gcd as it came from
# sympy's polynomial kernel, and the long division in Fraction arithmetic,
# kept to check the integer ones


def ref_poly_gcd(a: Expr, b: Expr) -> Expr:
    """Multivariate gcd over the rationals (content/primitive-part style,
    via sympy's polynomial kernel)."""
    import sympy

    sx, sy, spi = sympy.symbols("x y pi_unit")

    def to_sympy(e: Expr):
        total = sympy.Integer(0)
        for (kpi, ex, ey, *_), c in e.terms():
            total += sympy.Rational(c.numerator, c.denominator) * spi**kpi * sx**ex * sy**ey
        return sympy.Poly(total, sx, sy, spi, domain="QQ")

    g = to_sympy(a).gcd(to_sympy(b))
    terms = {}
    for (ex, ey, kpi), c in g.terms():
        terms[(int(kpi), int(ex), int(ey), 0, 0, 0, 0)] = Fraction(
            int(sympy.numer(c)), int(sympy.denom(c))
        )
    return Expr(a.domain, terms)


def ref_divide_exact(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact quotient a/b in the polynomial term ring, or None.

    Long division by the leading monomial in lexicographic order; with a
    single divisor, a zero remainder occurs iff b divides a exactly.
    Intended for pure polynomials (trig-free expressions); pi is treated
    as one more formal variable.
    """
    if a.domain != b.domain:
        raise DomainError("domain mismatch")
    if a.has_trig() or b.has_trig():
        raise ValueError("divide_exact requires trig-free expressions")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero expression")
    rem = {k: Fraction(c, a._den) for k, c in a._num.items()}
    bterms = list(b.terms())
    blead_key, blead_coeff = bterms[0]
    quo: dict[Key, Fraction] = {}
    while rem:
        rlead_key = max(rem)
        diff = tuple(r - s for r, s in zip(rlead_key, blead_key))
        if any(d < 0 for d in diff):
            return None
        c = rem[rlead_key] / blead_coeff
        quo[diff] = quo.get(diff, Fraction(0)) + c
        for k, bc in bterms:
            key = tuple(d + e for d, e in zip(diff, k))
            acc = rem.get(key, Fraction(0)) - c * bc
            if acc == 0:
                rem.pop(key, None)
            else:
                rem[key] = acc
    return Expr(a.domain, quo)


def ref_trig_quotient(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact quotient a/b of torus expressions, b nonzero, or None: the
    first torus division, a bounded-support linear solve in the trig
    normal-form ring.

    Per-variable trig degree is additive under multiplication (leading
    Fourier harmonics cannot cancel), so the quotient's support is bounded
    and the coefficients solve an exact linear system.  It gives up (None)
    past 4000 candidate terms.
    """
    if a.is_zero:
        return Expr.zero(a.domain)
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


def _per_variable_degrees(e: Expr) -> tuple[int, int, int]:
    """(pi degree, x-pair degree, y-pair degree) of a torus expression."""
    kp = dx = dy = 0
    for (kpi, ex, ey, s1, c1, s2, c2), _ in e.terms():
        kp = max(kp, kpi)
        dx = max(dx, ex + s1 + c1)
        dy = max(dy, ey + s2 + c2)
    return kp, dx, dy


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


def same_expr(got: Optional[Expr], ref: Optional[Expr]) -> bool:
    """Identical results, with None matching None: equal as Exprs, with
    the same terms in the same order."""
    if ref is None:
        return got is None
    return got == ref and list(got._num.items()) == list(ref._num.items())


# ---------------------------------------------------------------------------
# reference tracking classification: both component pairs tried, with the
# identities B = f*X and B*den = num*X checked at run time


def ref_track_check(y_field: VectorField, x_field: VectorField) -> TrackReport:
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
        f = divide_exact(b_i, x_i)
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
