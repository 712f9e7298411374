"""Certified isolation of zero sets by quadtree subdivision.

Every set isolated here is one kind of zero problem: the common zeros of
a tuple of labelled scalar components (a field's two components, one
scalar, or the components of several fields).  A box is certified empty
when some component's enclosure excludes zero, and a boundary piece when
one has a strict sign (``ZeroProblem.sign_certificate``).

Every certificate is reached by one bisection primitive, ``bisect``: a box
or a boundary segment is split until each piece carries a certificate or a
level limit is hit.  A region is bisected until every cell is certified
empty or the maximum depth is reached.  Cells that survive at full depth
are grouped into connected blocks; the oriented boundary of each block's
cell union is built and certified nonvanishing segment by segment.
Everything is exact, and the geometry runs on integers.

A boundary loop is bisected in one place, ``certify_loop``.  The zero
problem computes each loop's sign certificate once
(``ZeroProblem.loop_certificate``) and is kept on the block it isolated
(``ZeroBlock.problem``), so the block's ``coarse`` flag, its index
(``winding.block_index``), the stability bound and ``certify_isolating``
all read one certificate per loop; ``field_problem`` hands it to them
when they are asked about the field the block was isolated for.

Every coordinate of a region is a numerator over q * 2^e, where q is the
lcm of the odd parts of the denominators of its corners (q = 1 for a
dyadic region).  A quadtree cell is a ``DyadicCell`` (i, j, level) of the
region's lattice, and a boundary edge is a ``DyadicSegment`` between two
lattice vertices, built once and bisected as it is.  ``Grid`` keeps the
cell indices, adjacency and the chaining of boundary edges.  Enclosures
come from the integer entry of the expression kernel
(``Expr.dyadic_kernel().range_dyadic``), which a ``ZeroProblem`` binds
once per component, leaving out identically zero components; signs are
read off the integer numerators.  A cell's axes are computed inline from
the region lattice, so certifying a cell is one call that runs the
component loop.  A block is its lattice cells: ``Fraction``,
``Interval``, ``Box`` and ``Segment`` objects are built only for what is
reported or drawn, each ``Box`` by ``lattice_box`` from a range of cell
indices: a block's hull, a witness, the cell boxes of
``ZeroBlock.boxes``, and the empty leaves of
``IsolationResult.empty_boxes``, besides an offending boundary piece.  An
empty leaf is kept as its cell, the label of the excluding component and
the excluding enclosure in integer form.  A block meets a set of cells
of its lattice when one of them is a cell of the block or one of its
eight neighbours, which is decided on cell indices and wraps on the
torus.

Cells touching only at a corner are treated as adjacent when grouping, so
the closed unions of distinct blocks are genuinely disjoint.

Whether a zero set meets a block, and with which witness, is decided on
a window: the block's cells and their eight neighbours.  ``window_cells``
finds the retained window cells of one field's zero set.  For the field
the blocks were isolated for they are the blocks' own cells; for any
other field one ``bisect`` from the root cell reaches the cells of all
windows, with every branch that holds no window cell out of scope.  The
common zero set of several fields retains a cell exactly when each field
does, so its window cells are the intersection of theirs and are never
bisected.  ``cover_witnesses`` decides from the cells alone: none means
a miss, and otherwise the witness is the overlap of the block's first
cell that meets a retained window cell with the least such cell.

``index_blocks`` is the isolation whose blocks ``verify main`` indexes.
For a plane field X = g V with a scalar factor g (``expr.poly_gcd`` of
its components) it isolates V and, when g's zeros are certified to stay
off the region boundary and V's blocks, returns V's blocks with V as the
field that indexes them.  g's signs on V's empty leaves then say the
rest: opposite signs anywhere put a zero of g in the rest of Z(X), which
is one index-0 record, ``FACTOR_REST``, and g certified nonzero on every
leaf leaves no rest.  Otherwise it isolates X over the whole region.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .expr import Expr, divide_exact, poly_gcd
from .fields import VectorField
from .intervals import Box, IntRange, Interval, lattice_form, odd_denominator

Cell = tuple[int, int]

# An emptiness certificate: (label of the component that excludes zero,
# the excluding enclosure in integer form).
EmptyCert = tuple[str, IntRange]

# builds a NamedTuple without its Python-level __new__
_new = tuple.__new__


# ---------------------------------------------------------------------------
# zero-set descriptions


class ZeroProblem:
    """Common zeros of labelled scalar components: a box is empty when the
    first component, in order, whose enclosure excludes zero says so.

    The constructor binds each component's compiled enclosure kernel
    (``Expr.dyadic_kernel().range_dyadic``) once.  Identically zero
    components are left out of the certificate loops: their enclosure
    [0, 0] never excludes zero and never has a strict sign."""

    def __init__(self, components: Sequence[tuple[str, Expr]]):
        self.components = tuple(components)
        self.domain = self.components[0][1].domain
        # (position in components, label, kernel) of each nonzero component
        self.kernels = tuple(
            (k, label, expr.dyadic_kernel().range_dyadic)
            for k, (label, expr) in enumerate(self.components) if not expr.is_zero
        )
        # id(loop) -> (loop, its certificate); the entry keeps the loop
        # alive, so no other loop takes its id
        self._loops: dict[int, tuple[BoundaryLoop, LoopCertificate]] = {}

    def sign_certificate(self, piece: DyadicSegment) -> Optional[tuple[int, int]]:
        """(k, sign) of the first component k, in order, whose enclosure on
        the boundary piece has a strict sign, or None; k is the position
        in ``components``."""
        x, y = piece.axes()
        q = piece.q
        for k, _, kernel in self.kernels:
            lo, hi, _ = kernel(x, y, q)
            if lo > 0:
                return (k, 1)
            if hi < 0:
                return (k, -1)
        return None

    def loop_certificate(self, loop: BoundaryLoop) -> LoopCertificate:
        """``certify_loop`` of ``sign_certificate`` on the loop, computed
        once per loop object and read by every consumer of this problem."""
        entry = self._loops.get(id(loop))
        if entry is None:
            entry = self._loops[id(loop)] = (loop, certify_loop(self.sign_certificate, loop))
        return entry[1]


def field_parts(field: VectorField, prefix: str = "") -> tuple[tuple[str, Expr], ...]:
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
    (x1, y1) / (q 2^e), with q odd: its region lattice's (1 if dyadic).

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
            _new(DyadicSegment, (2 * x0, 2 * y0, mx, my, e + 1, q)),
            _new(DyadicSegment, (mx, my, 2 * x1, 2 * y1, e + 1, q)),
        )

    def axes(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The (lo, hi, e) axes of the piece's box over q, as
        ``Expr.dyadic_kernel().range_dyadic`` takes them."""
        x0, y0, x1, y1, e, _ = self
        return (x0, x1, e) if x0 <= x1 else (x1, x0, e), (y0, y1, e) if y0 <= y1 else (y1, y0, e)


def piece_segment(piece: DyadicSegment) -> Segment:
    """A boundary piece as a Fraction ``Segment``, the form it is reported in."""
    d = piece.q << piece.e
    return Segment(Fraction(piece.x0, d), Fraction(piece.y0, d), Fraction(piece.x1, d), Fraction(piece.y1, d))


def enclose(expr: Expr, piece: DyadicSegment) -> IntRange:
    """Enclosure of the expression over the piece's box, in integer form."""
    return expr.dyadic_kernel().range_dyadic(*piece.axes(), piece.q)


def excludes_zero(r: IntRange) -> bool:
    return r[0] > 0 or r[1] < 0


def strict_sign(r: IntRange) -> int:
    """The strict sign of an enclosure, or 0 when it meets zero."""
    return 1 if r[0] > 0 else -1 if r[1] < 0 else 0


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
        i, j, level = self
        i, j, level = 2 * i, 2 * j, level + 1
        return (
            _new(DyadicCell, (i, j, level)),
            _new(DyadicCell, (i + 1, j, level)),
            _new(DyadicCell, (i, j + 1, level)),
            _new(DyadicCell, (i + 1, j + 1, level)),
        )


@dataclass(frozen=True)
class BoundaryLoop:
    """One closed boundary curve, oriented with the block interior on its
    left (outer loops run counterclockwise, hole loops clockwise); each
    segment is one cell edge on the region's lattice."""

    segments: tuple[DyadicSegment, ...]


# A loop's certificate: the certified (piece, certificate) pairs in loop
# order, and the first piece left uncertified, or None.
LoopCertificate = tuple[tuple[tuple[DyadicSegment, object], ...], Optional[DyadicSegment]]


@dataclass(frozen=True)
class Grid:
    """The 2^depth x 2^depth cell indices of a region's finest quadtree
    level."""

    depth: int
    torus: bool

    @property
    def n(self) -> int:
        return 1 << self.depth

    def neighbors8(self, cell: Cell) -> list[Cell]:
        """The eight cells around ``cell``, x offset first, then y offset,
        each -1, 0, 1: wrapped on the torus, clipped to the grid on the
        plane."""
        i, j = cell
        n = 1 << self.depth
        if self.torus:
            return [((i + di) % n, (j + dj) % n) for di, dj in _AROUND]
        return [(i + di, j + dj) for di, dj in _AROUND if 0 <= i + di < n and 0 <= j + dj < n]


_AROUND = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj)


def _seam_shift(i: int, k: int) -> int:
    """The period shift that puts the neighbouring lattice index k next to
    i: -1 or 1 across the torus seam, 0 otherwise."""
    return -1 if k - i > 1 else 1 if i - k > 1 else 0


def _witness(block: ZeroBlock, cells: Collection[Cell]) -> Optional[Box]:
    """The overlap of the block's first cell, in order, that meets one of
    the cells (is equal to it or one of its eight neighbours on the grid)
    with the least cell that meets it, shifted by a period across the
    torus seam, or None when no cell meets."""
    grid = block.grid()
    for a in block.cells:
        hits = [c for c in (a, *grid.neighbors8(a)) if c in cells]
        if hits:
            i, j = min(hits)
            i += _seam_shift(a[0], i) * grid.n
            j += _seam_shift(a[1], j) * grid.n
            # the closed cells meet on [max lo, min hi] of each axis
            return lattice_box(block.region, grid.depth,
                               max(a[0], i), max(a[1], j), min(a[0], i), min(a[1], j))
    return None


@dataclass(frozen=True)
class ZeroBlock:
    """Connected union of certified cells covering one component of the
    target zero set, with its certified boundary.

    ``problem`` is the zero problem the block was isolated for, which holds
    the sign certificates of its boundary loops; it is None for a block
    built by hand, and is neither printed nor compared."""

    label: str
    domain: str
    region: Box
    resolution: int
    cells: tuple[Cell, ...]
    boundary: tuple[BoundaryLoop, ...]
    coarse: bool
    problem: Optional[ZeroProblem] = dataclass_field(default=None, repr=False, compare=False)

    def hull(self) -> Box:
        i, j = zip(*self.cells)
        return lattice_box(self.region, self.resolution, min(i), min(j), max(i), max(j))

    @property
    def boxes(self) -> tuple[Box, ...]:
        """The box of each cell, in cell order, built on every access."""
        return tuple(lattice_box(self.region, self.resolution, i, j, i, j) for i, j in self.cells)

    def grid(self) -> Grid:
        return Grid(self.resolution, self.domain == "torus")

    def contains_point(self, p) -> bool:
        return any(b.contains_point(p) for b in self.boxes)


@dataclass(frozen=True)
class IsolationResult:
    """The blocks of a subdivision and its certified-empty leaves, each
    kept as (cell, label of the excluding component, the excluding
    enclosure in integer form) in traversal order."""

    blocks: tuple[ZeroBlock, ...]
    empty_cells: tuple[tuple[DyadicCell, str, IntRange], ...]
    region: Box
    max_depth: int

    @cached_property
    def empty_boxes(self) -> tuple[tuple[Box, str, Interval], ...]:
        """(box, label, enclosure) of every certified-empty leaf, built on
        first access."""
        return tuple((lattice_box(self.region, level, i, j, i, j), label, Interval.from_ints(*r))
                     for (i, j, level), label, r in self.empty_cells)

    @property
    def fully_certified_empty(self) -> bool:
        return not self.blocks


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    pieces: int
    offending: Optional[Segment]

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


def _region_lattice(region: Box) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """(q, x, y): the region's axes as (a, b, e) over q * 2^e."""
    x, y = region.x, region.y
    q = odd_denominator(x.lo, x.hi, y.lo, y.hi)
    return q, lattice_form(x.lo, x.hi, q), lattice_form(y.lo, y.hi, q)


def lattice_box(region: Box, depth: int, i0: int, j0: int, i1: int, j1: int) -> Box:
    """The ``Box`` of the cells [i0, i1] x [j0, j1] at ``depth`` of the
    region's lattice: from the low side of cell (i0, j0) to the high side
    of cell (i1, j1), which is degenerate on an axis where i1 = i0 - 1."""
    q, (ax, bx, ex), (ay, by, ey) = _region_lattice(region)
    wx, wy = bx - ax, by - ay
    x0, y0 = ax << depth, ay << depth
    return Box(Interval.from_ints(x0 + i0 * wx, x0 + (i1 + 1) * wx, q << (ex + depth)),
               Interval.from_ints(y0 + j0 * wy, y0 + (j1 + 1) * wy, q << (ey + depth)))


def _cell_certifier(problem: ZeroProblem, region: Box):
    """The emptiness certificate of a ``DyadicCell`` of the region, or
    None, as ``bisect`` takes it: the cell's (a, b, e) axes over q are
    computed inline and passed to each component's kernel, and signs are
    read off the integer numerators."""
    q, (ax, bx, ex), (ay, by, ey) = _region_lattice(region)
    wx, wy = bx - ax, by - ay
    kernels = [(label, kernel) for _, label, kernel in problem.kernels]

    def certify(cell: DyadicCell) -> Optional[EmptyCert]:
        i, j, level = cell
        x0, y0 = (ax << level) + i * wx, (ay << level) + j * wy
        x, y = (x0, x0 + wx, ex + level), (y0, y0 + wy, ey + level)
        for label, kernel in kernels:
            r = kernel(x, y, q)
            if r[0] > 0 or r[1] < 0:
                return (label, r)
        return None

    return certify


def _subdivide(problem, region: Box, max_depth: int):
    """Quadtree subdivision; returns (list of retained finest-depth (i, j)
    cells, list of certified-empty (cell, label, integer enclosure)), both
    in the deterministic traversal order.  The region is bisected as
    ``DyadicCell``s of its lattice and no ``Box`` is built: the retained
    cells are the block geometry."""
    retained: list[Cell] = []
    empties: list[tuple[DyadicCell, str, IntRange]] = []
    for cell, cert in bisect(DyadicCell(0, 0, 0), _cell_certifier(problem, region), max_depth):
        if cert is None:
            retained.append((cell.i, cell.j))
        else:
            empties.append((cell, *cert))
    return retained, empties


def _components(grid: Grid, cells: Collection[Cell]) -> list[list[Cell]]:
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


def _boundary_loops(grid: Grid, cells: Sequence[Cell], region: Box) -> tuple[BoundaryLoop, ...]:
    """Oriented boundary of the union of the grid's cells of the region,
    interior on the left; each edge joins two lattice vertices, over q * 2^e
    with one e for both axes."""
    q, (ax, bx, ex), (ay, by, ey) = _region_lattice(region)
    e = max(ex, ey)
    sx, sy = e - ex, e - ey
    x0, wx = ax << (grid.depth + sx), (bx - ax) << sx
    y0, wy = ay << (grid.depth + sy), (by - ay) << sy
    e += grid.depth
    # one int per lattice line, shared by every edge on it
    xs: dict[int, int] = {}
    ys: dict[int, int] = {}
    members = set(cells)
    n = grid.n
    # vertex indices run mod m: 0..n on the plane, and n is 0 on the torus
    m = n if grid.torus else n + 1
    if grid.torus:
        # the images across the seams of the cells on the square's four
        # sides, so that a side test needs no wrap
        members.update([(n, j) for i, j in cells if i == 0] + [(-1, j) for i, j in cells if i == n - 1]
                       + [(i, n) for i, j in cells if j == 0] + [(i, -1) for i, j in cells if j == n - 1])

    # directed edges: (from-vertex, to-vertex, direction, piece)
    edges = []
    for (i, j) in sorted(cells):
        xa, xb = xs.setdefault(i, x0 + i * wx), xs.setdefault(i + 1, x0 + (i + 1) * wx)
        ya, yb = ys.setdefault(j, y0 + j * wy), ys.setdefault(j + 1, y0 + (j + 1) * wy)
        i1, j1 = (i + 1) % m, (j + 1) % m
        if (i, j - 1) not in members:  # south side, heading east
            edges.append(((i, j), (i1, j), "E", DyadicSegment(xa, ya, xb, ya, e, q)))
        if (i + 1, j) not in members:  # east side, heading north
            edges.append(((i1, j), (i1, j1), "N", DyadicSegment(xb, ya, xb, yb, e, q)))
        if (i, j + 1) not in members:  # north side, heading west
            edges.append(((i1, j1), (i, j1), "W", DyadicSegment(xb, yb, xa, yb, e, q)))
        if (i - 1, j) not in members:  # west side, heading south
            edges.append(((i, j1), (i, j), "S", DyadicSegment(xa, yb, xa, ya, e, q)))

    by_from: dict[tuple[int, int], list[int]] = {}
    for idx, edge in enumerate(edges):
        by_from.setdefault(edge[0], []).append(idx)

    used = [False] * len(edges)
    loops: list[BoundaryLoop] = []
    for start_idx in range(len(edges)):
        if used[start_idx]:
            continue
        chain = [start_idx]
        used[start_idx] = True
        cur = edges[start_idx]
        start_v = cur[0]
        while cur[1] != start_v:
            candidates = [k for k in by_from.get(cur[1], ()) if not used[k]]
            if not candidates:
                raise AssertionError("open boundary chain: inconsistent cell union")
            if len(candidates) > 1:
                # prefer left turn, then straight, then right turn
                pref = (_LEFT[cur[2]], cur[2], _RIGHT[cur[2]])
                candidates.sort(key=lambda k: pref.index(edges[k][2]))
            nxt = candidates[0]
            used[nxt] = True
            chain.append(nxt)
            cur = edges[nxt]
        loops.append(BoundaryLoop(tuple(edges[k][3] for k in chain)))
    return tuple(loops)


def region_boundary_loop(region: Box) -> BoundaryLoop:
    """Counterclockwise rectangle boundary of the region: the boundary of
    its one cell at depth 0."""
    return _boundary_loops(Grid(0, torus=False), [(0, 0)], region)[0]


# ---------------------------------------------------------------------------
# boundary certification


def certify_loop(certify, loop: BoundaryLoop) -> LoopCertificate:
    """Bisect the loop's segments, in order, until ``certify`` gives every
    piece a certificate: the certified (piece, certificate) pairs in loop
    order, and the first piece still uncertified ``MAX_SEG_REFINE`` levels
    down, or None."""
    pairs = []
    for seg in loop.segments:
        for piece, cert in bisect(seg, certify, MAX_SEG_REFINE):
            if cert is None:
                return tuple(pairs), piece
            pairs.append((piece, cert))
    return tuple(pairs), None


def certify_boundary(problem: ZeroProblem, boundary: Sequence[BoundaryLoop]) -> CertifyResult:
    """The problem's loop certificates of the boundary, up to the first
    uncertified piece, which is reported."""
    pieces = 0
    for loop in boundary:
        pairs, failed = problem.loop_certificate(loop)
        pieces += len(pairs)
        if failed is not None:
            return CertifyResult(False, pieces, piece_segment(failed))
    return CertifyResult(True, pieces, None)


def field_problem(field: VectorField, block: ZeroBlock) -> ZeroProblem:
    """The field's zero problem on the block: the one the block was
    isolated for when it has the field's components, so that its loop
    certificates are read again, and a new one otherwise (a perturbed
    field, another field, a block built by hand)."""
    parts = field_parts(field)
    problem = block.problem
    return problem if problem is not None and problem.components == parts else ZeroProblem(parts)


def certify_isolating(field: VectorField, block: ZeroBlock) -> CertifyResult:
    """Certify that the field is nonvanishing on every boundary segment of
    the block, refining segments as needed.  True means the open cell-union
    interior is an isolating neighborhood for (field, its zeros inside).

    A public check with no caller inside the package.  It reads the same
    loop certificates as the isolation's ``coarse`` flag,
    ``winding.block_index`` and the stability bound: on a block isolated
    for the field they are bisected once, by ``isolate_zeros``."""
    return certify_boundary(field_problem(field, block), block.boundary)


# ---------------------------------------------------------------------------
# block construction


def check_lattice(domain: str, region: Box, max_depth: int) -> None:
    """Raise ``ValueError`` unless an isolation of a zero set on the domain
    can run over the region to the depth."""
    if domain == "torus" and (region.x.lo != 0 or region.x.hi != 1 or region.y.lo != 0 or region.y.hi != 1):
        raise ValueError("torus isolation runs on the fundamental square [0,1]^2")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if region.x.width() <= 0 or region.y.width() <= 0:
        raise ValueError("region must have positive width and height")


def _build_blocks(problem, region: Box, max_depth: int) -> IsolationResult:
    check_lattice(problem.domain, region, max_depth)
    retained, empties = _subdivide(problem, region, max_depth)
    grid = Grid(max_depth, problem.domain == "torus")
    blocks = []
    for k, comp in enumerate(_components(grid, retained)):
        boundary = _boundary_loops(grid, comp, region)
        blocks.append(
            ZeroBlock(
                label=f"K{k}",
                domain=problem.domain,
                region=region,
                resolution=max_depth,
                cells=tuple(comp),
                boundary=boundary,
                coarse=not certify_boundary(problem, boundary).ok,
                problem=problem,
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
    return _build_blocks(ZeroProblem(field_parts(field)), region, max_depth)


def scalar_zero_blocks(expr: Expr, region: Box, max_depth: int) -> list[ZeroBlock]:
    """Certified blocks of the scalar zero set {expr = 0} in the region."""
    if expr.is_zero:
        raise ValueError("the zero expression vanishes everywhere")
    return list(_build_blocks(ZeroProblem([("value", expr)]), region, max_depth).blocks)


def common_zero_blocks(fields: Sequence[VectorField], region: Box, max_depth: int) -> IsolationResult:
    """Blocks of the simultaneous zero set of all given fields."""
    return _build_blocks(_common_problem(fields), region, max_depth)


def _common_problem(fields: Sequence[VectorField]) -> ZeroProblem:
    if not fields:
        raise ValueError("no generators")
    if len({f.domain for f in fields}) != 1:
        raise ValueError("generators live on different domains")
    return ZeroProblem([part for k, f in enumerate(fields) for part in field_parts(f, f"gen{k}.")])


# the (label, index) record of the rest of Z(X) on the factored path of
# ``index_blocks``
FACTOR_REST = ("G", 0)


def index_blocks(field: VectorField, region: Box,
                 max_depth: int) -> tuple[tuple[tuple[str, int], ...], VectorField, tuple[ZeroBlock, ...]]:
    """(rest, W, blocks): the blocks of Z(field) in the region, W, the
    field whose loop certificates give their indices
    (``winding.block_index`` of W), and the (label, index) records of the
    rest of Z(field), outside the blocks.

    For a plane X = g V, with g the gcd of X's components
    (``expr.poly_gcd``) not constant in x and y, the factor split gives
    W = V and the blocks of V's isolation.  Where V is nonzero, X winds
    as V does on any loop where X is nonzero (g has one sign there), so
    every part of Z(X) away from Z(V) has index 0, and on a closed cell
    union where g is nonzero Z(X) is Z(V) and X's index is V's.  The
    split is taken only when
    1. g is certified nonzero on the region boundary, so Z(g) stays off it
       and the index-0 argument holds for every part of Z(g);
    2. V's isolation at ``max_depth`` has no coarse block;
    3. g's enclosure excludes zero on every cell of V's blocks
       (``_excludes_zero_on``);
    and then rest = (``FACTOR_REST``,) when g has opposite strict signs
    at two of the points read on V's certified-empty leaves
    (``_sign_change_on_leaves``): the closed region is connected and, by
    rules 1 and 3, the zero of g between them lies in the rest of Z(X).
    With no such pair, rest = () when g's enclosure also excludes zero on
    every empty leaf, so that g has no zero in the closed region and
    Z(X) = Z(V).  Otherwise X is isolated over the whole region: rest = ()
    and W = X."""
    g = poly_gcd(field.cx, field.cy) if field.domain == "plane" else None  # no trig gcd
    if g is not None and not (g.derive("x").is_zero and g.derive("y").is_zero):
        g_problem = ZeroProblem([("g", g)])  # rules 1 and 3, and the empty rest
        if g_problem.loop_certificate(region_boundary_loop(region))[1] is None:
            v = VectorField(divide_exact(field.cx, g), divide_exact(field.cy, g))
            isolation = isolate_zeros(v, region, max_depth)
            block_cells = [DyadicCell(i, j, max_depth) for blk in isolation.blocks for i, j in blk.cells]
            if not any(blk.coarse for blk in isolation.blocks) and _excludes_zero_on(g_problem, region, block_cells):
                if _sign_change_on_leaves(g, isolation):
                    return (FACTOR_REST,), v, isolation.blocks
                if _excludes_zero_on(g_problem, region, [cell for cell, _, _ in isolation.empty_cells]):
                    return (), v, isolation.blocks
    return (), field, isolate_zeros(field, region, max_depth).blocks


def _sign_change_on_leaves(expr: Expr, isolation: IsolationResult) -> bool:
    """Whether the expression's enclosures have opposite strict signs at
    two of the points read, the four corners and the centre of each
    certified-empty leaf of a plane isolation, in traversal order up to
    the first opposite pair.  The continuous expression then vanishes in
    the closed region, which is connected."""
    q, (ax, bx, ex), (ay, by, ey) = _region_lattice(isolation.region)
    wx, wy = bx - ax, by - ay
    kernel = expr.dyadic_kernel().range_dyadic
    signs = set()
    for (i, j, level), _, _ in isolation.empty_cells:
        # the leaf's corners, over q * 2^(e + level + 1) so that the centre
        # has an integer numerator too
        x0, y0 = ((ax << level) + i * wx) << 1, ((ay << level) + j * wy) << 1
        x1, y1 = x0 + 2 * wx, y0 + 2 * wy
        for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1), (x0 + wx, y0 + wy)):
            signs.add(strict_sign(kernel((x, x, ex + level + 1), (y, y, ey + level + 1), q)))
            if {-1, 1} <= signs:
                return True
    return False


def _excludes_zero_on(problem: ZeroProblem, region: Box, cells: Iterable[DyadicCell]) -> bool:
    """Whether the problem's emptiness certificate holds on every one of
    the cells of the region: for a scalar's problem, it has no zero on
    their closed union."""
    certify = _cell_certifier(problem, region)
    return all(certify(cell) is not None for cell in cells)


# ``bisect``'s certificate for a cell that is no ancestor of a window cell
_OUT_OF_SCOPE = ("out of scope", None)


def window_cells(field: VectorField, blocks: Sequence[ZeroBlock]) -> list[set[Cell]]:
    """For each block, the cells of its window that a subdivision of the
    field's zero set over the blocks' region and resolution retains.

    The blocks share one region, resolution and domain, as the blocks of
    one isolation do.  A block's window is its cells and their
    ``Grid.neighbors8``; a window cell is retained when the cell and every
    quadtree ancestor of it survive the emptiness certificate, which is
    what a whole-region subdivision retains.

    When every block was isolated for the field, its own cells are the
    answer and nothing is bisected: a block is an 8-connected component of
    the field's retained cells, so a retained window cell, being next to
    the block, is one of its cells.  Otherwise one ``bisect`` from the root
    cell reaches the cells of all windows, with every cell that is no
    quadtree ancestor of a window cell out of scope; whether a window cell
    is retained does not depend on the other cells in scope."""
    problems = [field_problem(field, blk) for blk in blocks]
    if all(problem is blk.problem for problem, blk in zip(problems, blocks)):
        return [set(blk.cells) for blk in blocks]
    region, depth, grid = blocks[0].region, blocks[0].resolution, blocks[0].grid()
    windows = [set(blk.cells).union(*map(grid.neighbors8, blk.cells)) for blk in blocks]
    scope: set[tuple[int, int, int]] = set()
    level_cells = set().union(*windows)
    for level in range(depth, -1, -1):
        scope.update((i, j, level) for i, j in level_cells)
        level_cells = {(i >> 1, j >> 1) for i, j in level_cells}
    certify = _cell_certifier(problems[0], region)

    def scoped(cell: DyadicCell) -> Optional[EmptyCert]:
        return certify(cell) if cell in scope else _OUT_OF_SCOPE

    retained = {(c.i, c.j) for c, cert in bisect(DyadicCell(0, 0, 0), scoped, depth) if cert is None}
    return [window & retained for window in windows]


def cover_witnesses(blocks: Sequence[ZeroBlock], kept: Sequence[set[Cell]]) -> list[Optional[Box]]:
    """For each block, the witness that a zero set meets it, or None,
    decided from ``kept``, the zero set's retained cells of each block's
    window (``window_cells`` of one field, which are the block's own cells
    for the field it was isolated for; for several fields the intersection
    of theirs, since the common zero set retains a cell exactly when every
    field does).  The witness is the overlap of the first block cell, in
    cell order, that meets a retained cell (is equal to it or one of its
    ``Grid.neighbors8``) with the least such cell, shifted by a period
    across the torus seam so that it lies in the block's cell, inside the
    fundamental square.  Any retained cells next to the block may be
    given: the window holds all of them."""
    return [_witness(blk, cells) for blk, cells in zip(blocks, kept)]
