import random

from hypothesis import given, settings
from hypothesis import strategies as st
from fractions import Fraction

import pytest

from vfzero import (
    Box,
    CertificationError,
    Interval,
    block_from_boxes,
    certify_isolating,
    dilate_block,
    isolate_zeros,
    parse_expr,
    parse_field,
    scalar_zero_blocks,
)
from vfzero.blocks import ZeroProblem, _field_parts, _subdivide
from vfzero.blocks import dilate_block as _dilate

from conftest import plane_fields, torus_polys
from oracles import fraction_bisect, fraction_empty_certificate, fraction_subdivide

REGION = Box.from_corners(-1, -1, 1, 1)
REGION2 = Box.from_corners(-2, -2, 2, 2)
TORUS = Box.from_corners(0, 0, 1, 1)


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
                p = box.sample(Fraction(rng.randint(0, 32), 32), Fraction(rng.randint(0, 32), 32))
                assert field.eval_at(p) != (0, 0)

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
                assert not a.intersects_block(b)


class TestCertifyIsolating:
    def test_constructed_block_certifies(self):
        field = parse_field("(x, y)")
        blk = isolate_zeros(field, REGION, 8).blocks[0]
        assert certify_isolating(field, blk)

    def test_edge_through_zero_fails(self):
        # one box whose bottom-left corner passes through the only zero
        field = parse_field("(x, y)")
        blk = block_from_boxes("plane", [Box.from_corners(0, 0, 1, 1)])
        result = certify_isolating(field, blk, max_refine=12)
        assert not result.ok
        assert result.offending is not None

    def test_shrunken_user_block(self):
        field = parse_field("(x^2 - y^2, 2*x*y)")
        blk = block_from_boxes(
            "plane",
            [Box.from_corners(Fraction(-1, 8), Fraction(-1, 8), Fraction(1, 8), Fraction(1, 8))],
        )
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
        from vfzero.blocks import Grid, _boundary_loops, _components

        grid = Grid(3, torus)
        for comp in _components(grid, sorted(cells)):
            loops = _boundary_loops(grid, {c: _cell_box(grid, c) for c in comp})
            edge_count = 0
            for (i, j) in comp:
                for nb in ((i, j - 1), (i + 1, j), (i, j + 1), (i - 1, j)):
                    w = grid.wrap(nb)
                    inside = torus or (0 <= nb[0] < grid.n and 0 <= nb[1] < grid.n)
                    if not (inside and w in set(comp)):
                        edge_count += 1
            assert sum(len(lp.segments) for lp in loops) == edge_count
            for lp in loops:
                segs = lp.segments
                for a, b in zip(segs, segs[1:]):
                    assert _same_vertex(grid, a.end, b.start, torus)
                assert _same_vertex(grid, segs[-1].end, segs[0].start, torus)


def _cell_box(grid, cell):
    (i, j), w = cell, Fraction(1, grid.n)  # cells of [0, 1]^2
    return Box.from_corners(i * w, j * w, (i + 1) * w, (j + 1) * w)


def _same_vertex(grid, p, q, torus):
    if not torus:
        return p == q
    return ((p[0] - q[0]) % 1 == 0) and ((p[1] - q[1]) % 1 == 0)


class TestDilation:
    def test_dilation_grows_and_certifies(self):
        field = parse_field("(x, y)")
        blk = isolate_zeros(field, REGION, 6).blocks[0]
        grown = dilate_block(field, blk)
        assert len(grown.cells) > len(blk.cells)
        assert not grown.coarse

    def test_non_dyadic_dilation_matches_fraction_cells(self):
        # corner 1/3: the layer cells are bisected on integers over 3 * 2^e
        field = parse_field("((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))")
        region = Box.from_corners(0, 0, Fraction(1, 3), 1)
        blk = isolate_zeros(field, region, 6).blocks[0]
        grown = dilate_block(field, blk)
        problem = ZeroProblem(_field_parts(field))

        def certify(box):
            return fraction_empty_certificate(problem, box)

        wx, wy = region.x.width() / 64, region.y.width() / 64
        assert set(blk.cells) < set(grown.cells)
        for (i, j), box in zip(grown.cells, grown.boxes):
            assert box == Box.from_corners(i * wx, j * wy, (i + 1) * wx, (j + 1) * wy)
            if (i, j) not in blk.cells:
                assert all(cert for _, cert in fraction_bisect(box, certify, 6))

    def test_dilation_at_region_edge_fails(self):
        field = parse_field("(x - 1, y - 1)")
        edge_block = block_from_boxes(
            "plane", [Box.from_corners(0, 0, Fraction(1, 4), Fraction(1, 4))]
        )
        with pytest.raises(CertificationError):
            _dilate(field, edge_block, extra_refine=2)


class TestIntegerSubdivision:
    """Quadtree cells in integer form against the Fraction box bisection."""

    @staticmethod
    def _check(field, region, depth):
        problem = ZeroProblem(_field_parts(field))
        retained, empties = _subdivide(problem, region, depth)
        assert (retained, empties) == fraction_subdivide(problem, region, depth)
        for box, label, enclosure in empties:
            assert fraction_empty_certificate(problem, box) == (label, enclosure)

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
        problem = ZeroProblem(_field_parts(field))
        retained, empties = fraction_subdivide(problem, region, 6)
        assert res.empty_boxes == tuple(empties)
        assert {c: b for blk in res.blocks for c, b in zip(blk.cells, blk.boxes)} == retained
        assert len(res.blocks) == 1 and not res.blocks[0].coarse
