"""Certified isolation of zero sets by quadtree subdivision.

Every set isolated here is one kind of zero problem: the common zeros of
a tuple of labelled scalar components (a field's two components, one
scalar, or the components of several fields).  A box is certified empty
when some component's enclosure excludes zero.

Every certificate is reached by one bisection primitive, ``bisect``: a box
or a boundary segment is split until each piece carries a certificate or a
level limit is hit.  A region is bisected until every cell is certified
empty or the maximum depth is reached.  Cells that survive at full depth
are grouped into connected blocks; the oriented boundary of each block's
cell union is extracted and certified nonvanishing segment by segment.
Everything is exact.  The geometry comes from the quadtree: a block keeps
the boxes its cells had as bisection leaves, and every boundary edge is
read off the corners of its own cell's box.  ``Grid`` keeps only the
integer side: cell indices, adjacency and the chaining of boundary edges.

The bisection itself runs on integers.  Every coordinate of a region is
a numerator over q * 2^e, where q is the lcm of the odd parts of the
denominators of its corners (q = 1 for a dyadic region).  A quadtree cell
is a ``DyadicCell`` (i, j, level) of the region's lattice, and a boundary
piece is a ``DyadicSegment``, its endpoint numerators over q * 2^e with q
taken from the segment's own endpoints.  Their enclosures come from the
integer entry of the expression kernel
(``Expr.dyadic_kernel().range_dyadic``), and emptiness is read off the
integer numerators.  ``Fraction``, ``Interval``, ``Box`` and ``Segment``
objects are built only for what is returned or stored: the leaf boxes
(one shared ``Interval`` per distinct cell side within a subdivision),
the enclosures of empty leaves, and an offending boundary piece.

Cells touching only at a corner are treated as adjacent when grouping, so
the closed unions of distinct blocks are genuinely disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import CertificationError
from .expr import Expr
from .fields import VectorField
from .intervals import Box, IntRange, Interval, lattice_form, odd_denominator

Cell = tuple[int, int]

# An emptiness certificate: (label of the component that excludes zero,
# the excluding enclosure).
EmptyCert = tuple[str, Interval]


# ---------------------------------------------------------------------------
# zero-set descriptions


class ZeroProblem:
    """Common zeros of labelled scalar components: a box is empty when the
    first component, in order, whose enclosure excludes zero says so."""

    def __init__(self, components: Sequence[tuple[str, Expr]]):
        self.components = tuple(components)
        self.domain = self.components[0][1].domain

    def empty_dyadic(self, x, y, q: int, xiv: Interval, yiv: Interval) -> Optional[EmptyCert]:
        """The emptiness certificate of the box with integer axes ``x``
        and ``y`` over q (see ``Expr.dyadic_kernel().range_dyadic``), or
        None: each sign is read off the integer numerators, and only the
        excluding enclosure becomes an ``Interval``."""
        for label, expr in self.components:
            r = expr.dyadic_kernel().range_dyadic(x, y, q, xiv, yiv)
            if excludes_zero(r):
                return (label, Interval.from_ints(*r))
        return None

    def excluding_label(self, piece: DyadicSegment) -> Optional[str]:
        """The label of the first component whose enclosure on the boundary
        piece excludes zero, or None."""
        for label, expr in self.components:
            if excludes_zero(enclose(expr, piece)):
                return label
        return None


def _field_parts(field: VectorField, prefix: str = "") -> tuple[tuple[str, Expr], ...]:
    return ((prefix + "cx", field.cx), (prefix + "cy", field.cy))


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class Segment:
    """Directed axis-aligned segment with exact endpoints."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def box(self) -> Box:
        return Box(
            Interval(min(self.x0, self.x1), max(self.x0, self.x1)),
            Interval(min(self.y0, self.y1), max(self.y0, self.y1)),
        )

    @property
    def start(self) -> tuple[Fraction, Fraction]:
        return (self.x0, self.y0)

    @property
    def end(self) -> tuple[Fraction, Fraction]:
        return (self.x1, self.y1)


class DyadicSegment(NamedTuple):
    """A boundary piece: the Segment from (x0, y0) / (q 2^e) to
    (x1, y1) / (q 2^e), with q odd (1 for a dyadic segment).

    Halving adds one to ``e`` and never reduces, so a piece's numerators
    stay integers at every level."""

    x0: int
    y0: int
    x1: int
    y1: int
    e: int
    q: int

    def halves(self) -> tuple["DyadicSegment", "DyadicSegment"]:
        x0, y0, x1, y1, e, q = self
        mx, my = x0 + x1, y0 + y1
        return (
            DyadicSegment(2 * x0, 2 * y0, mx, my, e + 1, q),
            DyadicSegment(mx, my, 2 * x1, 2 * y1, e + 1, q),
        )

    def axes(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The (lo, hi, e) axes of the piece's box over q, as
        ``Expr.dyadic_kernel().range_dyadic`` takes them."""
        x0, y0, x1, y1, e, _ = self
        return (x0, x1, e) if x0 <= x1 else (x1, x0, e), (y0, y1, e) if y0 <= y1 else (y1, y0, e)

    @property
    def start(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.e, self.q)

    @property
    def end(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.e, self.q)


def boundary_piece(seg: Segment) -> DyadicSegment:
    """The integer form of a segment, over the lcm q of the odd parts of
    its endpoints' denominators: the piece that boundary certificates
    bisect."""
    q = odd_denominator(seg.x0, seg.y0, seg.x1, seg.y1)
    dx, dy = lattice_form(seg.x0, seg.x1, q), lattice_form(seg.y0, seg.y1, q)
    e = max(dx[2], dy[2])
    sx, sy = e - dx[2], e - dy[2]
    return DyadicSegment(dx[0] << sx, dy[0] << sy, dx[1] << sx, dy[1] << sy, e, q)


def piece_segment(piece: DyadicSegment) -> Segment:
    """A boundary piece as a Fraction ``Segment``."""
    d = piece.q << piece.e
    return Segment(Fraction(piece.x0, d), Fraction(piece.y0, d), Fraction(piece.x1, d), Fraction(piece.y1, d))


def enclose(expr: Expr, piece: DyadicSegment) -> IntRange:
    """Enclosure of the expression over the piece's box, in integer form."""
    return expr.dyadic_kernel().range_dyadic(*piece.axes(), piece.q)


def excludes_zero(r: IntRange) -> bool:
    return r[0] > 0 or r[1] < 0


class DyadicCell(NamedTuple):
    """Quadtree cell (i, j) at ``level`` of a region: its corners are the
    region's low corner plus (i, j) and (i + 1, j + 1) times the region's
    widths over 2^level."""

    i: int
    j: int
    level: int

    def quarters(self) -> tuple["DyadicCell", ...]:
        """The four children: low x and low y first, then high x, then
        high y, then both high."""
        i, j, level = 2 * self.i, 2 * self.j, self.level + 1
        return (
            DyadicCell(i, j, level),
            DyadicCell(i + 1, j, level),
            DyadicCell(i, j + 1, level),
            DyadicCell(i + 1, j + 1, level),
        )


@dataclass(frozen=True)
class BoundaryLoop:
    """One closed boundary curve, oriented with the block interior on its
    left (outer loops run counterclockwise, hole loops clockwise)."""

    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class Grid:
    """The 2^depth x 2^depth cell indices of a region's finest quadtree
    level."""

    depth: int
    torus: bool

    @property
    def n(self) -> int:
        return 1 << self.depth

    def wrap(self, cell: Cell) -> Cell:
        if self.torus:
            return (cell[0] % self.n, cell[1] % self.n)
        return cell

    def neighbors8(self, cell: Cell):
        i, j = cell
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                c = (i + di, j + dj)
                if self.torus:
                    yield self.wrap(c)
                elif 0 <= c[0] < self.n and 0 <= c[1] < self.n:
                    yield c


@dataclass(frozen=True)
class ZeroBlock:
    """Connected union of certified cells covering one component of the
    target zero set, with its certified boundary."""

    label: str
    domain: str
    region: Box
    resolution: int
    cells: tuple[Cell, ...]
    boxes: tuple[Box, ...]
    boundary: tuple[BoundaryLoop, ...]
    coarse: bool
    certificate: Optional[tuple]

    def hull(self) -> Box:
        xs = [b.x for b in self.boxes]
        ys = [b.y for b in self.boxes]
        return Box(Interval.hull(xs), Interval.hull(ys))

    def grid(self) -> Grid:
        return Grid(self.resolution, self.domain == "torus")

    def contains_point(self, p) -> bool:
        return any(b.contains_point(p) for b in self.boxes)

    def intersects_block(self, other: "ZeroBlock") -> bool:
        """Closed box-unions intersect."""
        return self.overlap_box(other) is not None

    def overlap_box(self, other: "ZeroBlock") -> Optional[Box]:
        """Overlap of the first meeting pair of boxes (own boxes outer), or
        None when the closed box-unions are disjoint."""
        for a in self.boxes:
            for b in other.boxes:
                if a.intersects(b):
                    return Box(
                        Interval(max(a.x.lo, b.x.lo), min(a.x.hi, b.x.hi)),
                        Interval(max(a.y.lo, b.y.lo), min(a.y.hi, b.y.hi)),
                    )
        return None


@dataclass(frozen=True)
class IsolationResult:
    blocks: tuple[ZeroBlock, ...]
    empty_boxes: tuple[tuple[Box, str, Interval], ...]
    region: Box
    max_depth: int

    @property
    def fully_certified_empty(self) -> bool:
        return not self.blocks


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    pieces: int
    offending: Optional[Segment]
    per_segment: tuple

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# subdivision


# Refinement limit for every boundary certificate: isolation, winding,
# index transfer and stability refine a boundary segment at most this many
# levels.
MAX_SEG_REFINE = 42


_SPLIT = {
    DyadicSegment: DyadicSegment.halves,
    DyadicCell: DyadicCell.quarters,
}


def bisect(piece, certify, max_level: int):
    """Bisect a boundary piece (into its halves) or a quadtree cell (into
    its quarters) until ``certify`` returns a certificate, depth first,
    first child first.

    Yields (piece, certificate) for every certified piece and (piece, None)
    for every piece still uncertified ``max_level`` levels down; a caller
    that needs every piece certified can stop at the first None.
    """
    split = _SPLIT[type(piece)]
    stack = [(piece, 0)]
    while stack:
        piece, level = stack.pop()
        cert = certify(piece)
        if cert is None and level < max_level:
            stack.extend((child, level + 1) for child in reversed(split(piece)))
        else:
            yield piece, cert


def _lattice(problem, region: Box):
    """The region's quadtree cells on integers: (certify, box) for a
    ``DyadicCell``, its emptiness certificate under the problem and its
    ``Box``.

    Every cell coordinate is an integer over q * 2^e, with q the lcm of
    the odd parts of the region's corner denominators (1 for a dyadic
    region), so a cell is decided by the integer kernels; a ``Box`` is
    built from one shared ``Interval`` per distinct cell side."""
    x, y = region.x, region.y
    q = odd_denominator(x.lo, x.hi, y.lo, y.hi)
    (ax, bx, ex), (ay, by, ey) = lattice_form(x.lo, x.hi, q), lattice_form(y.lo, y.hi, q)
    wx, wy = bx - ax, by - ay
    sides: dict[tuple[int, int, int], Interval] = {}

    def side(form: tuple[int, int, int]) -> Interval:
        iv = sides.get(form)
        if iv is None:
            iv = sides[form] = Interval.from_ints(form[0], form[1], q << form[2])
        return iv

    def axes(cell: DyadicCell):
        i, j, level = cell
        x0, y0 = (ax << level) + i * wx, (ay << level) + j * wy
        return (x0, x0 + wx, ex + level), (y0, y0 + wy, ey + level)

    def certify(cell: DyadicCell) -> Optional[EmptyCert]:
        x, y = axes(cell)
        return problem.empty_dyadic(x, y, q, side(x), side(y))

    def box(cell: DyadicCell) -> Box:
        x, y = axes(cell)
        return Box(side(x), side(y))

    return certify, box


def _subdivide(problem, region: Box, max_depth: int):
    """Quadtree subdivision; returns ({retained finest-depth cell: its
    leaf box}, list of certified-empty (box, label, enclosure)), both in
    the deterministic traversal order.  The leaf boxes are the block
    geometry; the integer cell indices only serve adjacency.  The region
    is bisected as ``DyadicCell``s of its ``_lattice``; a ``Box`` is built
    for each leaf only."""
    retained: dict[Cell, Box] = {}
    empties: list[tuple[Box, str, Interval]] = []
    certify, cell_box = _lattice(problem, region)
    for cell, cert in bisect(DyadicCell(0, 0, 0), certify, max_depth):
        if cert is None:
            retained[(cell.i, cell.j)] = cell_box(cell)
        else:
            empties.append((cell_box(cell), *cert))
    return retained, empties


def _components(grid: Grid, cells: list[Cell]) -> list[list[Cell]]:
    members = set(cells)
    seen: set[Cell] = set()
    comps: list[list[Cell]] = []
    for start in sorted(cells):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            c = stack.pop()
            comp.append(c)
            for nb in grid.neighbors8(c):
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    comps.sort(key=lambda comp: comp[0])
    return comps


_LEFT = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT = {"E": "S", "S": "W", "W": "N", "N": "E"}


def _boundary_loops(grid: Grid, comp: dict[Cell, Box]) -> tuple[BoundaryLoop, ...]:
    """Oriented boundary of the cell union, interior on the left; ``comp``
    maps each cell to its box, whose corners give the edge endpoints."""

    def is_member(cell: Cell) -> bool:
        return grid.wrap(cell) in comp

    # directed edges: (wrapped from-vertex, wrapped to-vertex, direction, segment)
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

    by_from: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(edges):
        by_from.setdefault(grid.wrap(e[0]), []).append(idx)

    used = [False] * len(edges)
    loops: list[BoundaryLoop] = []
    for start_idx in range(len(edges)):
        if used[start_idx]:
            continue
        chain = [start_idx]
        used[start_idx] = True
        start_v = grid.wrap(edges[start_idx][0])
        cur = edges[start_idx]
        while grid.wrap(cur[1]) != start_v:
            v = grid.wrap(cur[1])
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
        loops.append(BoundaryLoop(tuple(edges[k][3] for k in chain)))
    return tuple(loops)


# ---------------------------------------------------------------------------
# boundary certification


def certify_boundary(problem, boundary: Sequence[BoundaryLoop], max_refine: int = MAX_SEG_REFINE) -> CertifyResult:
    per_segment = []
    total = 0
    for loop in boundary:
        for seg in loop.segments:
            pieces = 0
            for piece, cert in bisect(boundary_piece(seg), problem.excluding_label, max_refine):
                if cert is None:
                    return CertifyResult(False, total, piece_segment(piece), tuple(per_segment))
                pieces += 1
            per_segment.append((seg, pieces))
            total += pieces
    return CertifyResult(True, total, None, tuple(per_segment))


def certify_isolating(field: VectorField, block: ZeroBlock, max_refine: int = MAX_SEG_REFINE) -> CertifyResult:
    """Certify that the field is nonvanishing on every boundary segment of
    the block, refining segments as needed.  True means the open cell-union
    interior is an isolating neighborhood for (field, its zeros inside).

    A public check with no caller inside the package: ``winding.block_index``
    and ``winding.index_transfer_check`` take the isolating certificate
    from the winding bisection, which certifies a strict sign of one field
    component, and so the same, on every boundary piece."""
    return certify_boundary(ZeroProblem(_field_parts(field)), block.boundary, max_refine)


# ---------------------------------------------------------------------------
# block construction


def _build_blocks(problem, region: Box, max_depth: int) -> IsolationResult:
    torus = problem.domain == "torus"
    if torus and (region.x.lo != 0 or region.x.hi != 1 or region.y.lo != 0 or region.y.hi != 1):
        raise ValueError("torus isolation runs on the fundamental square [0,1]^2")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if region.x.width() <= 0 or region.y.width() <= 0:
        raise ValueError("region must have positive width and height")
    retained, empties = _subdivide(problem, region, max_depth)
    grid = Grid(max_depth, torus)
    blocks = []
    for k, cells in enumerate(_components(grid, list(retained))):
        comp = {c: retained[c] for c in cells}
        boundary = _boundary_loops(grid, comp)
        cert = certify_boundary(problem, boundary)
        blocks.append(
            ZeroBlock(
                label=f"K{k}",
                domain=problem.domain,
                region=region,
                resolution=max_depth,
                cells=tuple(comp),
                boxes=tuple(comp.values()),
                boundary=boundary,
                coarse=not cert.ok,
                certificate=cert.per_segment if cert.ok else None,
            )
        )
    return IsolationResult(tuple(blocks), tuple(empties), region, max_depth)


def isolate_zeros(field: VectorField, region: Box, max_depth: int) -> IsolationResult:
    """Locate Z(field) inside the region as certified blocks.

    Every zero in the region lies in some block's box union; every
    discarded box carries an enclosure certificate that the field does not
    vanish on it.  Blocks whose boundary cannot be certified within the
    refinement limit are flagged coarse.
    """
    if field.is_zero:
        raise ValueError("the zero field vanishes everywhere; nothing to isolate")
    return _build_blocks(ZeroProblem(_field_parts(field)), region, max_depth)


def scalar_zero_blocks(expr: Expr, region: Box, max_depth: int) -> list[ZeroBlock]:
    """Certified blocks of the scalar zero set {expr = 0} in the region."""
    if expr.is_zero:
        raise ValueError("the zero expression vanishes everywhere")
    return list(_build_blocks(ZeroProblem([("value", expr)]), region, max_depth).blocks)


def common_zero_blocks(fields: Sequence[VectorField], region: Box, max_depth: int) -> IsolationResult:
    """Blocks of the simultaneous zero set of all given fields."""
    if not fields:
        raise ValueError("no generators")
    problem = ZeroProblem([part for k, f in enumerate(fields) for part in _field_parts(f, f"gen{k}.")])
    return _build_blocks(problem, region, max_depth)


def dilate_block(field: VectorField, block: ZeroBlock, extra_refine: int = 6) -> ZeroBlock:
    """Grow the block by one layer of cells, each certified nonvanishing.

    The enlarged cell union is a strictly larger isolating neighborhood for
    the same zeros, which is what index independence tests exercise.
    """
    grid = block.grid()
    members = dict(zip(block.cells, block.boxes))
    layer: set[Cell] = set()
    for cell in block.cells:
        nbs = list(grid.neighbors8(cell))
        if len(nbs) < 8:
            raise CertificationError(
                "dilation layer would leave the region; enlarge the region first"
            )
        layer.update(nb for nb in nbs if nb not in members)
    problem = ZeroProblem(_field_parts(field))
    certify, cell_box = _lattice(problem, block.region)
    for c in sorted(layer):
        cell = DyadicCell(*c, block.resolution)
        if any(cert is None for _, cert in bisect(cell, certify, extra_refine)):
            raise CertificationError(
                f"dilation layer cell {c} could not be certified nonvanishing"
            )
        members[c] = cell_box(cell)
    comp = dict(sorted(members.items()))
    boundary = _boundary_loops(grid, comp)
    cert = certify_boundary(problem, boundary)
    if not cert.ok:
        raise CertificationError("dilated boundary could not be certified")
    return ZeroBlock(
        label=block.label + "+",
        domain=block.domain,
        region=block.region,
        resolution=block.resolution,
        cells=tuple(comp),
        boxes=tuple(comp.values()),
        boundary=boundary,
        coarse=False,
        certificate=cert.per_segment,
    )


def block_from_boxes(domain: str, boxes: Sequence[Box]) -> ZeroBlock:
    """Assemble a ZeroBlock, labelled "user", from congruent grid-aligned
    boxes.

    Supports hand-built isolating neighborhoods in tests and the CLI; the
    boxes must all share the same widths and sit on the lattice generated
    by the first box.  Plane only: wrap-around adjacency cannot be inferred
    from a bare box list.
    """
    if domain == "torus":
        raise ValueError("user-assembled blocks are supported on the plane only")
    if not boxes:
        raise ValueError("no boxes")
    wx, wy = boxes[0].widths()
    x0 = min(b.x.lo for b in boxes)
    y0 = min(b.y.lo for b in boxes)
    cells: dict[Cell, Box] = {}
    for b in boxes:
        bx, by = b.widths()
        if (bx, by) != (wx, wy):
            raise ValueError("boxes must be congruent")
        ci = (b.x.lo - x0) / wx
        cj = (b.y.lo - y0) / wy
        if ci.denominator != 1 or cj.denominator != 1:
            raise ValueError("boxes must be grid aligned")
        cells[(int(ci), int(cj))] = b
    span = max(max(i for i, _ in cells), max(j for _, j in cells)) + 1
    depth = max(1, (span - 1).bit_length())
    n = 1 << depth
    region = Box(Interval(x0, x0 + n * wx), Interval(y0, y0 + n * wy))
    grid = Grid(depth, torus=False)
    comp = dict(sorted(cells.items()))
    boundary = _boundary_loops(grid, comp)
    return ZeroBlock(
        label="user",
        domain=domain,
        region=region,
        resolution=depth,
        cells=tuple(comp),
        boxes=tuple(comp.values()),
        boundary=boundary,
        coarse=False,
        certificate=None,
    )
