import dataclasses
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from fractions import Fraction

import pytest

from vfzero import (
    Box,
    Expr,
    Interval,
    builtin_catalog,
    certify_isolating,
    isolate_zeros,
    load_catalog,
    parse_expr,
    parse_field,
    scalar_zero_blocks,
)
from vfzero.blocks import (
    DyadicCell, DyadicSegment, Grid, IsolationResult, ZeroBlock, ZeroProblem, _build_blocks, _excludes_zero_on,
    _sign_change_on_leaves, _subdivide, bisect, common_zero_blocks, cover_witnesses, field_parts, lattice_box,
    piece_segment, region_boundary_loop, window_cells,
)
from vfzero.cli import run_command

from conftest import plane_fields, plane_polys, torus_polys
from oracles import (
    box_block,
    box_overlap,
    exact_value,
    fraction_boundary_loops,
    fraction_cell_box,
    fraction_empty_certificate,
    fraction_hull,
    fraction_subdivide,
    wrap,
)

REGION = Box.from_corners(-1, -1, 1, 1)
REGION2 = Box.from_corners(-2, -2, 2, 2)
TORUS = Box.from_corners(0, 0, 1, 1)
THIRD = Box.from_corners(0, 0, Fraction(1, 3), 1)


def cover_union(blocks):
    return [b for blk in blocks for b in blk.boxes]


class TestIsolateZeros:
    def test_single_nondegenerate_zero(self):
        res = isolate_zeros(parse_field("(x, y)"), REGION, 8)
        assert len(res.blocks) == 1
        blk = res.blocks[0]
        assert not blk.coarse
        hull = blk.hull()
        assert hull.contains_point((Fraction(0), Fraction(0)))
        # cover diameter bounded by two finest cells per axis
        assert hull.x.width() <= 2 * Fraction(2, 2**8)
        assert hull.y.width() <= 2 * Fraction(2, 2**8)

    def test_no_real_zero(self):
        res = isolate_zeros(parse_field("(x^2 + y^2 + 1, x)"), REGION2, 6)
        assert res.fully_certified_empty
        assert res.empty_boxes

    def test_torus_four_blocks(self):
        res = isolate_zeros(parse_field("(sin2px, sin2py)", "torus"), TORUS, 5)
        assert len(res.blocks) == 4
        for target in [(0, 0), (0, Fraction(1, 2)), (Fraction(1, 2), 0),
                       (Fraction(1, 2), Fraction(1, 2))]:
            assert any(blk.contains_point(target) for blk in res.blocks)

    def test_zero_field_rejected(self):
        from vfzero import VectorField

        with pytest.raises(ValueError):
            isolate_zeros(VectorField.zero("plane"), REGION, 4)

    @pytest.mark.parametrize("corners", [(0, 0, 0, 1), (0, 0, 1, 0)])
    def test_degenerate_region_rejected(self, corners):
        with pytest.raises(ValueError, match="positive width and height"):
            isolate_zeros(parse_field("(x, y)"), Box.from_corners(*corners), 4)

    def test_discarded_boxes_are_sound(self):
        field = parse_field("(x^2 - y^2 - x, 2*x*y - y)")
        res = isolate_zeros(field, REGION2, 5)
        rng = random.Random(7)
        for box, _, _ in res.empty_boxes:
            for _ in range(100):
                tx, ty = Fraction(rng.randint(0, 32), 32), Fraction(rng.randint(0, 32), 32)
                px, py = box.x.lo + tx * box.x.width(), box.y.lo + ty * box.y.width()
                # the enclosure of a plane polynomial over a point box is
                # its exact value
                point = Box(Interval.point(px), Interval.point(py))
                assert field.cx.range_on(point).excludes_zero() or field.cy.range_on(point).excludes_zero()

    def test_completeness_at_known_zeros(self):
        cases = [
            ("(x^2 - y^2 - x, 2*x*y - y)", [(0, 0), (1, 0)]),
            ("(x^2 - y^2 - 1, 2*x*y)", [(-1, 0), (1, 0)]),
            ("(x^3 - 3*x*y^2 - x, 3*x^2*y - y^3 - y)", [(-1, 0), (0, 0), (1, 0)]),
        ]
        for text, zeros in cases:
            field = parse_field(text)
            res = isolate_zeros(field, REGION2, 7)
            for z in zeros:
                zp = (Fraction(z[0]), Fraction(z[1]))
                assert any(blk.contains_point(zp) for blk in res.blocks), (text, z)

    def test_refinement_monotonicity(self):
        field = parse_field("((x^2 + y^2 - 1)*x, (x^2 + y^2 - 1)*y)")
        coarse = cover_union(isolate_zeros(field, REGION2, 5).blocks)
        fine = cover_union(isolate_zeros(field, REGION2, 6).blocks)
        for fb in fine:
            assert any(
                cb.x.lo <= fb.x.lo and fb.x.hi <= cb.x.hi
                and cb.y.lo <= fb.y.lo and fb.y.hi <= cb.y.hi
                for cb in coarse
            )

    def test_blocks_pairwise_disjoint(self):
        field = parse_field("(x^3 - 3*x*y^2 - x, 3*x^2*y - y^3 - y)")
        blocks = isolate_zeros(field, REGION2, 7).blocks
        assert len(blocks) == 3
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert cover_witnesses([a], [set(b.cells)]) == [None]


class TestCertifyIsolating:
    def test_constructed_block_certifies(self):
        field = parse_field("(x, y)")
        blk = isolate_zeros(field, REGION, 8).blocks[0]
        assert certify_isolating(field, blk)

    def test_edge_through_zero_fails(self):
        # one box whose bottom-left corner passes through the only zero
        field = parse_field("(x, y)")
        blk = box_block(Box.from_corners(0, 0, 1, 1))
        result = certify_isolating(field, blk)
        assert not result.ok
        assert result.offending is not None

    def test_shrunken_user_block(self):
        field = parse_field("(x^2 - y^2, 2*x*y)")
        blk = box_block(Box.from_corners(Fraction(-1, 8), Fraction(-1, 8), Fraction(1, 8), Fraction(1, 8)))
        assert certify_isolating(field, blk)


class TestScalarBlocks:
    def test_unit_circle_chain(self):
        blocks = scalar_zero_blocks(parse_expr("x^2 + y^2 - 1"), REGION2, 6)
        assert len(blocks) == 1
        blk = blocks[0]
        assert not blk.coarse
        assert len(blk.boundary) == 2  # outer and inner loop of the annular chain
        for t in range(8):
            import math

            p = (
                Fraction(math.cos(2 * math.pi * t / 8)).limit_denominator(2**20),
                Fraction(math.sin(2 * math.pi * t / 8)).limit_denominator(2**20),
            )
            # points close to the circle stay inside the cover
            assert any(b.contains_point(p) for b in blk.boxes)

    def test_constant_is_empty(self):
        assert scalar_zero_blocks(parse_expr("1"), REGION, 4) == []

    def test_wedge_block_at_origin(self):
        from vfzero import wedge

        w = wedge(parse_field("(x, y)"), parse_field("(-y, x)"))
        blocks = scalar_zero_blocks(w, REGION, 6)
        assert len(blocks) == 1
        assert blocks[0].contains_point((Fraction(0), Fraction(0)))


class TestBoundaryStructure:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
        st.booleans(),
    )
    def test_loops_partition_boundary_edges(self, cells, torus):
        # every boundary edge is used exactly once and every loop closes
        from vfzero.blocks import _boundary_loops, _components

        grid = Grid(3, torus)
        for comp in _components(grid, sorted(cells)):
            loops = _boundary_loops(grid, comp, TORUS)
            assert _segment_loops(loops) == fraction_boundary_loops(
                grid, {c: fraction_cell_box(TORUS, grid.depth, c) for c in comp})
            edge_count = 0
            for (i, j) in comp:
                for nb in ((i, j - 1), (i + 1, j), (i, j + 1), (i - 1, j)):
                    w = wrap(grid, nb)
                    inside = torus or (0 <= nb[0] < grid.n and 0 <= nb[1] < grid.n)
                    if not (inside and w in set(comp)):
                        edge_count += 1
            assert sum(len(lp.segments) for lp in loops) == edge_count
            for lp in loops:
                segs = [piece_segment(piece) for piece in lp.segments]
                for a, b in zip(segs, segs[1:]):
                    assert _same_vertex(grid, a.end, b.start, torus)
                assert _same_vertex(grid, segs[-1].end, segs[0].start, torus)


def _same_vertex(grid, p, q, torus):
    if not torus:
        return p == q
    return ((p[0] - q[0]) % 1 == 0) and ((p[1] - q[1]) % 1 == 0)


def _segment_loops(loops):
    return tuple(tuple(piece_segment(piece) for piece in lp.segments) for lp in loops)


def _box_corner_loops(blk):
    return fraction_boundary_loops(blk.grid(), dict(zip(blk.cells, blk.boxes)))


class TestLatticeBoundary:
    """Boundary loops built as lattice pieces against the loops read off
    the corners of each cell's box: the same ``Segment``s, loop by loop."""

    @pytest.mark.parametrize("name", [e.name for e in builtin_catalog()])
    def test_catalog_blocks(self, catalog, name):
        entry = catalog[name]
        depth = 6 if entry.domain == "plane" else 4
        blocks = isolate_zeros(entry.field, entry.region, depth).blocks
        assert blocks
        for blk in blocks:
            assert _segment_loops(blk.boundary) == _box_corner_loops(blk)

    def test_region_axes_over_different_powers_of_two(self):
        # the region's x axis is over q = 315 and its y axis over 2 * q
        # (ex = 0, ey = 1), so the boundary pieces shift x by one bit
        field = parse_field("((x - 1/3)^2 - y^2, 2*(x - 1/3)*y)")
        region = Box.from_corners(Fraction(1, 7), Fraction(-1, 9), Fraction(17, 21), Fraction(1, 90))
        (blk,) = isolate_zeros(field, region, 6).blocks
        assert len(blk.cells) == 350
        assert _segment_loops(blk.boundary) == _box_corner_loops(blk)

    def test_region_boundary_loop(self):
        region = Box.from_corners(0, 0, Fraction(1, 3), 1)
        assert _segment_loops([region_boundary_loop(region)]) == fraction_boundary_loops(
            Grid(0, torus=False), {(0, 0): region})


def _assert_fraction_hulls(blocks, retained):
    """Each block's hull is the Fraction hull of the reference boxes of its
    cells."""
    for blk in blocks:
        assert blk.hull() == fraction_hull(retained[c] for c in blk.cells)


class TestIntegerSubdivision:
    """Quadtree cells in integer form against the Fraction box bisection."""

    @staticmethod
    def _check(field, region, depth):
        problem = ZeroProblem(field_parts(field))
        retained, empties = _subdivide(problem, region, depth)
        empty_boxes = IsolationResult((), tuple(empties), region, depth).empty_boxes
        boxes = {c: lattice_box(region, depth, *c, *c) for c in retained}
        ref_retained, ref_empties = fraction_subdivide(problem, region, depth)
        assert (list(boxes.items()), list(empty_boxes)) == (list(ref_retained.items()), ref_empties)
        for box, label, enclosure in empty_boxes:
            assert fraction_empty_certificate(problem, box) == (label, enclosure)
        _assert_fraction_hulls(_build_blocks(problem, region, depth).blocks, ref_retained)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(plane_fields(), st.sampled_from([REGION2, TORUS]), st.integers(1, 4))
    def test_plane_matches_fraction_bisection(self, field, region, depth):
        self._check(field, region, depth)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(torus_polys(), torus_polys(), st.integers(1, 4))
    def test_torus_matches_fraction_bisection(self, cx, cy, depth):
        from vfzero import VectorField

        self._check(VectorField(cx, cy), TORUS, depth)

    def test_non_dyadic_region_matches_fraction_bisection(self):
        # corner 1/3: the cells are integers over 3 * 2^e
        field = parse_field("((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))")
        region = Box.from_corners(0, 0, Fraction(1, 3), 1)
        res = isolate_zeros(field, region, 6)
        problem = ZeroProblem(field_parts(field))
        retained, empties = fraction_subdivide(problem, region, 6)
        assert res.empty_boxes == tuple(empties)
        assert {c: b for blk in res.blocks for c, b in zip(blk.cells, blk.boxes)} == retained
        _assert_fraction_hulls(res.blocks, retained)
        assert len(res.blocks) == 1 and not res.blocks[0].coarse


class TestZeroComponents:
    """Identically zero components are left out of the certificate loops:
    they never exclude zero and never have a strict sign."""

    @pytest.mark.parametrize("text, cells", [
        # sin2px vanishes on x = 0 and x = 1/2, sin2py on y = 0 and y = 1/2
        ("(sin2px, 0)", {(i, j) for i in (0, 31, 32, 63) for j in range(64)}),
        ("(0, sin2py)", {(i, j) for i in range(64) for j in (0, 31, 32, 63)}),
    ])
    def test_isolation_matches_fraction_bisection(self, text, cells):
        field = parse_field(text, "torus")
        problem = ZeroProblem(field_parts(field))
        assert len(problem.kernels) == 1
        res = isolate_zeros(field, TORUS, 6)
        retained, empties = fraction_subdivide(problem, TORUS, 6)
        assert [label for _, label, _ in res.empty_cells] == [label for _, label, _ in empties]
        assert res.empty_boxes == tuple(empties)
        assert {c: b for blk in res.blocks for c, b in zip(blk.cells, blk.boxes)} == retained
        _assert_fraction_hulls(res.blocks, retained)
        assert set(retained) == cells

    def test_sign_certificate_keeps_the_component_position(self):
        zero, y = Expr.zero("plane"), parse_expr("y")
        problem = ZeroProblem([("cx", zero), ("cy", y)])
        # the piece from (1/4, 1/4) to (3/4, 1/4): y = 1/4 there
        piece = DyadicSegment(1, 1, 3, 1, 2, 1)
        assert problem.sign_certificate(piece) == (1, 1)
        assert problem.sign_certificate(DyadicSegment(1, -1, 3, -1, 2, 1)) == (1, -1)
        assert problem.sign_certificate(DyadicSegment(1, 0, 3, 0, 2, 1)) is None


class TestLazyEmptyBoxes:
    """Empty leaves are kept as cells with integer enclosures; their boxes
    are built on first access, equal to the Fraction bisection's."""

    @pytest.mark.parametrize("text, domain, region, depth", [
        ("(x^3 - 3*x*y^2 - x, 3*x^2*y - y^3 - y)", "plane", REGION2, 6),
        ("(sin2px*cos2py, sin2py)", "torus", TORUS, 5),
        ("((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))", "plane", THIRD, 6),
    ])
    def test_empty_boxes_match_fraction_bisection(self, text, domain, region, depth):
        field = parse_field(text, domain)
        res = isolate_zeros(field, region, depth)
        assert "empty_boxes" not in res.__dict__
        _, empties = fraction_subdivide(ZeroProblem(field_parts(field)), region, depth)
        assert len(res.empty_boxes) == len(res.empty_cells) == len(empties)
        assert res.empty_boxes == tuple(empties)
        assert res.empty_boxes is res.empty_boxes

    @pytest.mark.parametrize("command", ["zeros", "index"])
    def test_cli_counts_without_building_boxes(self, command, monkeypatch, tmp_path):
        import vfzero.cli as cli

        results = []

        def isolate(*args):
            results.append(isolate_zeros(*args))
            return results[-1]

        monkeypatch.setattr(cli, "isolate_zeros", isolate)
        argv = [command, "--field", "(x^2 - y^2, 2*x*y)", "--region", "-1,-1,1,1", "--depth", "6"]
        assert run_command(argv + ["--out", str(tmp_path / "r.json")]) == 0
        (res,) = results
        assert res.empty_cells
        assert "empty_boxes" not in res.__dict__


def _torus_blocks(text, depth):
    return isolate_zeros(parse_field(text, "torus"), TORUS, depth).blocks


def _witness(a, b):
    """The witness ``cover_witnesses`` reads off block a for the cells of
    block b."""
    (w,) = cover_witnesses([a], [set(b.cells)])
    return w


class TestLatticeOverlap:
    """Witnesses read off cell indices by ``cover_witnesses`` against the
    all-pairs box test of ``oracles.box_overlap``."""

    @staticmethod
    def _pairs(entry, depth):
        """(block of X, block of a tracker or of the common zero set) for
        every block of X, essential or not, as ``main_theorem_check``
        pairs them."""
        blocks = isolate_zeros(entry.field, entry.region, depth).blocks
        others = [b for y in dict.fromkeys(entry.trackers)
                  for b in isolate_zeros(y, entry.region, depth).blocks]
        others += common_zero_blocks(entry.trackers, entry.region, depth).blocks
        return [(a, b) for a in blocks for b in others]

    @pytest.mark.parametrize("name", [e.name for e in builtin_catalog() if e.domain == "plane"])
    def test_plane_matches_box_overlap(self, catalog, name):
        pairs = self._pairs(catalog[name], 7)
        assert pairs
        for a, b in pairs:
            assert _witness(a, b) == box_overlap(a, b)

    @pytest.mark.parametrize("name", [e.name for e in builtin_catalog() if e.domain == "torus"])
    def test_torus_agrees_where_boxes_meet(self, catalog, name):
        met = 0
        for a, b in self._pairs(catalog[name], 7):
            w = box_overlap(a, b)
            if w is not None:
                met += 1
                assert _witness(a, b) == w
        assert met

    @pytest.mark.parametrize("x, y, own, other, witness", [
        # x0 = atan(1/200) / (2 pi) is below 1/64: X's zeros sit in the
        # first column or row of cells, the mirrored tracker's in the last
        ("(sin2px - 1/200*cos2px, cos2py)", "(sin2px + 1/200*cos2px, cos2py)",
         (0, 15), (63, 15), (0, Fraction(15, 64), 0, Fraction(1, 4))),
        ("(cos2px, sin2py - 1/200*cos2py)", "(cos2px, sin2py + 1/200*cos2py)",
         (15, 0), (15, 63), (Fraction(15, 64), 0, Fraction(1, 4), 0)),
        ("(sin2px - 1/200*cos2px, sin2py - 1/200*cos2py)",
         "(sin2px + 1/200*cos2px, sin2py + 1/200*cos2py)",
         (0, 0), (63, 63), (0, 0, 0, 0)),
    ])
    def test_torus_seam(self, x, y, own, other, witness):
        a = next(b for b in _torus_blocks(x, 6) if b.cells[0] == own)
        b = next(b for b in _torus_blocks(y, 6) if b.cells[0] == other)
        assert box_overlap(a, b) is None
        w = _witness(a, b)
        assert w == Box.from_corners(*witness)
        # the witness lies in the own block, inside the fundamental square
        assert any(box.contains_point(w.midpoint()) for box in a.boxes)
        assert _witness(b, a) == Box.from_corners(*(1 if t == 0 else t for t in witness))

    def test_first_block_cell_decides_between_pieces(self):
        # cells of width 1: the piece {(2, 5)} meets only the block's second
        # cell (3, 4), the piece {(4, 2)} only its first cell (3, 3).  The
        # first piece comes first in block order, so the whole-region block
        # order would take its witness, the point (3, 5); the block's cell
        # order takes the second piece's, the point (4, 3).
        blk = ZeroBlock(label="K0", domain="plane", region=Box.from_corners(0, 0, 8, 8), resolution=3,
                        cells=((3, 3), (3, 4)), boundary=(), coarse=False)
        first = dataclasses.replace(blk, cells=((2, 5),))
        assert box_overlap(blk, first) == Box.from_corners(3, 5, 3, 5)
        assert cover_witnesses([blk], [{(2, 5), (4, 2)}]) == [Box.from_corners(4, 3, 4, 3)]


class TestNeighbors8:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("cell", [(0, 0), (3, 5), (7, 7), (0, 4)])
    def test_order_and_wrap(self, torus, cell):
        grid = Grid(3, torus)
        i, j = cell
        around = [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
        if torus:
            expected = [wrap(grid, c) for c in around]
        else:
            expected = [c for c in around if 0 <= c[0] < 8 and 0 <= c[1] < 8]
        assert list(grid.neighbors8(cell)) == expected


def _window_entries():
    data = Path(__file__).parent / "data"
    return builtin_catalog() + [e for name in ("near-pair", "torus-seam")
                                for e in load_catalog((data / f"{name}.cfg").read_text())]


class TestWindowCells:
    """``window_cells`` against the window cells of a whole-region
    subdivision, on blocks that keep their isolation's problem and on the
    same blocks without it."""

    @staticmethod
    def _isolated(entry, depth):
        """X's blocks, and the same blocks with no problem, which must take
        the bisection."""
        blks = isolate_zeros(entry.field, entry.region, depth).blocks
        return blks, [dataclasses.replace(b, problem=None) for b in blks]

    @pytest.mark.parametrize("depth", range(2, 9))
    def test_matches_whole_region_subdivision(self, depth):
        for entry in _window_entries():
            blks, bare = self._isolated(entry, depth)
            grid = Grid(depth, entry.domain == "torus")
            windows = [set(b.cells).union(*map(grid.neighbors8, b.cells)) for b in blks]
            for field in dict.fromkeys((entry.field, *entry.trackers)):
                retained = set(_subdivide(ZeroProblem(field_parts(field)), entry.region, depth)[0])
                expected = [window & retained for window in windows]
                assert window_cells(field, blks) == expected, (entry.name, str(field))
                assert window_cells(field, bare) == expected, (entry.name, str(field))
            # X retains exactly its blocks' cells in their windows
            assert window_cells(entry.field, blks) == [set(b.cells) for b in blks]

    @pytest.mark.parametrize("depth", [4, 6, 8])
    def test_one_traversal_per_call_equals_one_per_block(self, depth):
        several = 0
        for entry in _window_entries():
            blks, bare = self._isolated(entry, depth)
            if len(blks) < 2:
                continue
            several += 1
            for field in dict.fromkeys((entry.field, *entry.trackers)):
                for group in (blks, bare):
                    assert window_cells(field, group) == [window_cells(field, [b])[0] for b in group]
        assert several >= 5

    def test_bisects_at_most_once(self, catalog, monkeypatch):
        calls = []

        def counting(piece, certify, max_level):
            calls.append(piece)
            return bisect(piece, certify, max_level)

        monkeypatch.setattr("vfzero.blocks.bisect", counting)
        entry = catalog["torus-grid-node"]
        blks, bare = self._isolated(entry, 5)
        assert len(blks) == 4
        for field, group, expected in [
            (entry.field, blks, 0),  # X's own cells
            (entry.field, bare, 1),
            (entry.field, [blks[0], bare[1]], 1),
            (entry.trackers[0], blks, 1),
            (entry.field, [], 0),
        ]:
            calls.clear()
            window_cells(field, group)
            assert len(calls) == expected, (str(field), len(group))


def _leaf_points(iso):
    """The four corners and the centre of each certified-empty leaf of the
    isolation, in traversal order."""
    for box, _, _ in iso.empty_boxes:
        yield from ((x, y) for x in (box.x.lo, box.x.hi) for y in (box.y.lo, box.y.hi))
        yield box.midpoint()


class TestSignChangeLeaf:
    """``blocks._sign_change_on_leaves``: opposite strict signs of a
    scalar at two of the corners and centres of an isolation's empty
    leaves, checked on exact values."""

    @pytest.mark.parametrize("depth", [4, 6, 10])
    def test_leaf_off_the_blocks_with_a_sign_change(self, depth):
        iso = isolate_zeros(parse_field("(x, y)"), REGION2, depth)
        g = parse_expr("x^2 + y^2 - 1")
        assert _sign_change_on_leaves(g, iso)
        assert {exact_value(g, p) > 0 for p in _leaf_points(iso)} == {True, False}

    def test_no_sign_change(self):
        iso = isolate_zeros(parse_field("(x, y)"), REGION2, 6)
        assert not _sign_change_on_leaves(parse_expr("x^2 + y^2 + 1"), iso)
        # the circle of radius 1/64 lies inside the block's cells
        assert not _sign_change_on_leaves(parse_expr("x^2 + y^2 - 1/4096"), iso)

    @pytest.mark.parametrize("depth", [1, 4, 12])
    def test_sign_change_at_a_centre(self, depth):
        # V = (0, 1) is isolated as the one root leaf: g is 7 at its four
        # corners and -1 at its centre
        iso = isolate_zeros(parse_field("(0, 1)"), REGION2, depth)
        assert [cell for cell, _, _ in iso.empty_cells] == [(0, 0, 0)]
        assert _sign_change_on_leaves(parse_expr("x^2 + y^2 - 1"), iso)
        assert not _sign_change_on_leaves(parse_expr("(x^2 + y^2 - 1)^2"), iso)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(plane_polys(), st.integers(1, 5))
    def test_exact_signs(self, g, depth):
        # the point enclosures are exact, so the answer is whether the exact
        # values at the points read have both strict signs
        iso = isolate_zeros(parse_field("(x - 1/3, y + 1/5)"), REGION2, depth)
        signs = {(v > 0) - (v < 0) for v in (exact_value(g, p) for p in _leaf_points(iso))}
        assert _sign_change_on_leaves(g, iso) == ({-1, 1} <= signs)


def _scalar_problem(text: str) -> ZeroProblem:
    return ZeroProblem([("g", parse_expr(text))])


def _block_cells(iso):
    return [DyadicCell(i, j, iso.max_depth) for blk in iso.blocks for i, j in blk.cells]


class TestExcludesZeroOn:
    """``blocks._excludes_zero_on``: a scalar's enclosure excludes zero on
    every given cell, here the cells of an isolation's blocks or its empty
    leaves, checked against the exact value at each cell's corners and
    centre."""

    @pytest.mark.parametrize("depth", [4, 8])
    def test_factor_through_zero_of_v(self, depth):
        # g = x^2 - 2x + y^2 vanishes at the origin, in V = (x, y)'s block
        edges = load_catalog((Path(__file__).parent / "data" / "factor-edges.cfg").read_text())
        (entry,) = [e for e in edges if e.name == "ring-through"]
        iso = isolate_zeros(parse_field("(x, y)"), entry.region, depth)
        assert not _excludes_zero_on(_scalar_problem("x^2 - 2*x + y^2"), iso.region, _block_cells(iso))

    @pytest.mark.parametrize("depth", [4, 8])
    def test_factor_away_from_zero_of_v(self, depth):
        iso = isolate_zeros(parse_field("(x, y)"), REGION2, depth)
        g = parse_expr("x^2 + y^2 - 1")
        assert _excludes_zero_on(ZeroProblem([("g", g)]), iso.region, _block_cells(iso))
        for blk in iso.blocks:
            for box in blk.boxes:
                (cx, cy) = box.midpoint()
                points = [(x, y) for x in (box.x.lo, box.x.hi) for y in (box.y.lo, box.y.hi)] + [(cx, cy)]
                assert {exact_value(g, p) < 0 for p in points} == {True}

    def test_no_block(self):
        # V = (1, y) has no zero in the region
        iso = isolate_zeros(parse_field("(1, y)"), REGION2, 4)
        assert _excludes_zero_on(_scalar_problem("x"), iso.region, _block_cells(iso))

    @pytest.mark.parametrize("depth", [2, 6])
    def test_empty_leaves(self, depth):
        # g = x^2 + y^2 + 1 has no real zero; x^2 + y^2 - 1 vanishes on a
        # leaf of V = (x, y)'s isolation, where the exact values change sign
        iso = isolate_zeros(parse_field("(x, y)"), REGION2, depth)
        leaves = [cell for cell, _, _ in iso.empty_cells]
        assert _excludes_zero_on(_scalar_problem("x^2 + y^2 + 1"), iso.region, leaves)
        assert not _excludes_zero_on(_scalar_problem("x^2 + y^2 - 1"), iso.region, leaves)
