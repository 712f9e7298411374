import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vfzero import (
    Box,
    CertificationError,
    FalsificationError,
    Segment,
    VectorField,
    block_index,
    builtin_catalog,
    certify_isolating,
    index_transfer_check,
    isolate_zeros,
    parse_expr,
    parse_field,
    region_boundary_loop,
    region_index,
    stability_test,
    winding,
    winding_number,
)
from vfzero.blocks import ZeroProblem, certify_boundary, certify_loop, field_parts, piece_segment
from vfzero.cli import run_command
from vfzero.harness import _boundary_pieces, _random_perturbation

from conftest import plane_fields, torus_polys
from oracles import (
    box_block,
    dense_block_winding,
    dense_circle_winding,
    dense_loop_winding,
    TWO_PI,
    fraction_loop_winding,
    range_on_fractions,
)

REGION = Box.from_corners(-1, -1, 1, 1)
REGION2 = Box.from_corners(-2, -2, 2, 2)


def origin_block(field_text, depth=6, region=REGION):
    """The certified block containing the origin (extra index-0 clusters can
    appear at coarse depth when component zero bands nearly overlap)."""
    field = parse_field(field_text)
    res = isolate_zeros(field, region, depth)
    zero = (Fraction(0), Fraction(0))
    blk = next(b for b in res.blocks if b.contains_point(zero))
    return field, blk


TORUS = Box.from_corners(0, 0, 1, 1)


class TestWindingNumber:
    def test_identity_direction_map(self):
        field = parse_field("(x, y)")
        assert winding_number(field, region_boundary_loop(REGION)) == 1

    def test_saddle_against_oracle(self):
        field = parse_field("(x, -y)")
        loop = region_boundary_loop(REGION)
        certified = winding_number(field, loop)
        assert certified == dense_loop_winding(field, loop, 100_000) == -1

    def test_squaring_against_oracle(self):
        field = parse_field("(x^2 - y^2, 2*x*y)")
        loop = region_boundary_loop(REGION)
        certified = winding_number(field, loop)
        assert certified == dense_loop_winding(field, loop, 100_000) == 2

    def test_zero_on_loop_rejected(self):
        field = parse_field("(x, y)")
        loop = region_boundary_loop(Box.from_corners(0, 0, 1, 1))
        with pytest.raises(CertificationError):
            winding_number(field, loop)

    def test_zero_field_refused(self):
        # every piece used to be bisected 42 levels deep and the zero field
        # reported as "zero too close to boundary"
        zero = parse_field("(0, 0)")
        _, blk = origin_block("(x, y)")
        for call in (lambda: winding_number(zero, region_boundary_loop(REGION)),
                     lambda: region_index(zero, REGION, 3), lambda: block_index(zero, blk)):
            with pytest.raises(ValueError, match="^the zero field vanishes everywhere; it has no winding number$"):
                call()


class TestBlockIndex:
    def test_node(self):
        field, blk = origin_block("(x, y)")
        assert block_index(field, blk).index == 1

    def test_squaring_block(self):
        field, blk = origin_block("(x^2 - y^2, 2*x*y)")
        rep = block_index(field, blk)
        assert rep.index == 2
        assert rep.index == dense_block_winding(field, blk)

    def test_annulus_block_outer_minus_inner(self):
        field = parse_field("((x^2 + y^2 - 1)*x, (x^2 + y^2 - 1)*y)")
        blocks = isolate_zeros(field, REGION2, 6).blocks
        ring = next(b for b in blocks if len(b.boundary) == 2)
        rep = _check_loop_windings(field, ring)
        assert rep.index == 0
        loops = sorted(lw.winding for lw in rep.loops)
        assert loops == [-1, 1]  # interior-left: outer +1, hole loop -1
        assert dense_block_winding(field, ring) == 0

    def test_angle_sum_encloses_index(self):
        # the atan2 oracle's certified angle sum of each loop encloses 2*pi
        # times the loop's crossing count
        field, blk = origin_block("(x^2 - y^2, 2*x*y)")
        rep = block_index(field, blk)
        assert rep.index == 2
        for lw, loop in zip(rep.loops, blk.boundary):
            ref = fraction_loop_winding(field, loop)
            s, turn = ref.angle_sum, TWO_PI * lw.winding
            assert s.lo <= turn.hi and turn.lo <= s.hi
            assert lw.winding == ref.winding == dense_loop_winding(field, loop)

    def test_linear_field_law_sample(self):
        rng = random.Random(99)
        zero = (Fraction(0), Fraction(0))
        for _ in range(20):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            det = a * d - b * c
            if det == 0:
                continue
            field = parse_field(f"({a}*x + {b}*y, {c}*x + {d}*y)")
            blocks = isolate_zeros(field, REGION, 6).blocks
            blk = next(b2 for b2 in blocks if b2.contains_point(zero))
            expected = 1 if det > 0 else -1
            assert block_index(field, blk).index == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_law_sample(self, k):
        zero = (Fraction(0), Fraction(0))
        zk = _complex_power_field(k)
        ck = _complex_power_field(k, conjugate=True)
        for field, expected in ((zk, k), (ck, -k)):
            blocks = isolate_zeros(field, REGION, 6).blocks
            blk = next(b for b in blocks if b.contains_point(zero))
            assert _check_loop_windings(field, blk).index == expected
            assert dense_circle_winding(field, radius=0.8) == expected

    def test_isolating_neighborhood_independence(self):
        # the origin's block at depth 6 and the whole region at depth 2 are
        # two isolating neighbourhoods of the same zero
        field, fine = origin_block("(x^2 - y^2, 2*x*y)")
        _, coarse = origin_block("(x^2 - y^2, 2*x*y)", depth=2)
        assert fine.hull() == Box.from_corners(Fraction(-1, 16), Fraction(-1, 16), Fraction(1, 16), Fraction(1, 16))
        assert coarse.hull() == REGION
        assert block_index(field, fine).index == block_index(field, coarse).index == 2

    def test_boundary_through_zero_rejected(self):
        # the only zero sits on the block's corner, so no refinement of the
        # boundary can exclude it
        field = parse_field("(x, y)")
        blk = box_block(Box.from_corners(0, 0, 1, 1))
        with pytest.raises(CertificationError, match="^zero too close to boundary: segment near "):
            block_index(field, blk)
        with pytest.raises(ValueError, match="uncertified piece"):
            fraction_loop_winding(field, blk.boundary[0])

    def test_boundary_certified_between_levels_31_and_42(self):
        # the west edge passes 2^-35 from the zero at (0, 1/3), so isolation
        # needs more than 30 refinement levels to certify the block boundary
        field = parse_field("(x - y + 1/3, x + y - 1/3)")
        shift = Fraction(1, 2**35)
        region = Box.from_corners(shift, -1, 1 + shift, 1)
        res = isolate_zeros(field, region, 3)
        assert len(res.blocks) == 1
        assert not res.blocks[0].coarse
        assert block_index(field, res.blocks[0]).index == 0

    def test_coarse_block_refused(self):
        # the zero sits on the region's corner, so the block is coarse
        field = parse_field("(x, y)")
        region = Box.from_corners(0, 0, 1, 1)
        blk = isolate_zeros(field, region, 4).blocks[0]
        assert blk.coarse
        with pytest.raises(CertificationError):
            region_index(field, region, 4)
        with pytest.raises(CertificationError):
            stability_test(field, blk, trials=1)
        with pytest.raises(CertificationError):
            index_transfer_check(field, field, blk)

    def test_torus_circle_blocks_have_index_zero(self):
        # zero set of (sin(2*pi*x), 0) is two non-contractible circles; the
        # boundary loops wrap around the torus and carry winding 0
        field = parse_field("(sin2px, 0)", "torus")
        blocks = isolate_zeros(field, Box.from_corners(0, 0, 1, 1), 5).blocks
        assert len(blocks) == 2
        for blk in blocks:
            assert not blk.coarse
            assert len(blk.boundary) == 2
            assert block_index(field, blk).index == 0

    @pytest.mark.parametrize("depth, expected", [(3, [-1, 1, 1, -1]), (2, [0])])
    def test_torus_shifted_sine_indices(self, depth, expected):
        # zeros of (sin(2*pi*x) + 1/2, sin(2*pi*y)) at x in {7/12, 11/12},
        # y in {0, 1/2}; at depth 2 the cell union wraps the torus in y
        # and its two loops carry no winding
        field = parse_field("(sin2px + 1/2, sin2py)", "torus")
        blocks = isolate_zeros(field, Box.from_corners(0, 0, 1, 1), depth).blocks
        reports = [block_index(field, blk) for blk in blocks]
        assert [r.index for r in reports] == expected
        pieces = [[lw.pieces for lw in r.loops] for r in reports]
        assert pieces == ([[6]] * 4 if depth == 3 else [[4, 4]])


class TestCrossingRule:
    """Edge cases of the count of positive x-axis crossings; the loops are
    checked against the atan2 oracle and dense sampling.  The hole loop,
    the indices -2 and 3 and a boundary through a zero are checked in
    ``TestBlockIndex``."""

    @staticmethod
    def _loop_certificates(field, loop):
        return [ZeroProblem(field_parts(field)).sign_certificate(seg) for seg in loop.segments]

    def test_loop_certified_only_by_cx_positive_winds_zero(self):
        # cy changes sign twice along the loop, inside the run of cx > 0
        field = parse_field("(2 + x, y)")
        loop = region_boundary_loop(REGION)
        assert self._loop_certificates(field, loop) == [(0, 1)] * 4
        assert winding_number(field, loop) == fraction_loop_winding(field, loop).winding == 0
        assert dense_loop_winding(field, loop) == 0

    def test_loop_certified_only_by_cx_negative_winds_zero(self):
        field = parse_field("(-2 - x, y)")
        loop = region_boundary_loop(REGION)
        assert self._loop_certificates(field, loop) == [(0, -1)] * 4
        assert winding_number(field, loop) == fraction_loop_winding(field, loop).winding == 0
        assert dense_loop_winding(field, loop) == 0

    def test_run_wrapping_the_loop_start(self):
        # the run of cx > 0 pieces spans the last and first pieces of the
        # loop: (s1 - s0) / 2 = (1 - (-1)) / 2
        certs = [(0, 1), (1, 1), (0, -1), (1, -1), (0, 1)]
        assert winding._crossings(certs) == 1
        assert winding._crossings([(0, 1), (1, -1), (0, -1), (1, 1), (0, 1)]) == -1
        # over the left half-plane and back: no crossing of the positive axis
        assert winding._crossings([(1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1)]) == 0


def _complex_power_field(k: int, conjugate: bool = False):
    # real and imaginary parts of z^k (or conj(z)^k) via binomial expansion
    zx = parse_expr("x")
    zy = parse_expr("y")
    re, im = parse_expr("1"), parse_expr("0")
    for _ in range(k):
        re, im = re * zx - im * zy, re * zy + im * zx
    from vfzero import VectorField

    return VectorField(re, -im if conjugate else im)


class TestRegionIndex:
    def test_two_zeros_sum(self):
        field = parse_field("(x*(x - 1) - y^2, y*(2*x - 1))")
        assert region_index(field, REGION2, 7) == 2

    def test_empty_zero_set(self):
        field = parse_field("(x^2 + y^2 + 1, x)")
        assert region_index(field, REGION2, 5) == 0

    def test_saddle(self):
        field = parse_field("(x, -y)")
        assert region_index(field, REGION, 6) == -1


class TestIndexTransfer:
    def test_positive_scalar_factor(self):
        field, blk = origin_block("(x, y)")
        scaled = field.scale(parse_expr("2 + x^2"))
        rep = index_transfer_check(field, scaled, blk, "no-negative-ratio")
        assert rep.certified and rep.index_x == rep.index_y == 1

    def test_antipodal_needs_mode_b(self):
        field, blk = origin_block("(x, y)")
        minus = -field
        rep_a = index_transfer_check(field, minus, blk, "no-negative-ratio")
        assert not rep_a.certified
        rep_b = index_transfer_check(field, minus, blk, "no-positive-ratio")
        assert rep_b.certified and rep_b.index_x == rep_b.index_y == 1

    def test_rotated_frame_mode_a(self):
        field, blk = origin_block("(x, y)")
        rot = parse_field("(-y, x)")
        rep = index_transfer_check(field, rot, blk, "no-negative-ratio")
        assert rep.certified and rep.index_x == rep.index_y == 1

    def test_failed_transfer_reports_segment(self):
        # X = 1*Y everywhere, so no boundary piece can exclude a positive ratio
        field, blk = origin_block("(x, y)")
        rep = index_transfer_check(field, field, blk, "no-positive-ratio")
        assert not rep.certified
        assert rep.index_x is None and rep.index_y is None
        piece = rep.failed_segment
        assert isinstance(piece, Segment)
        assert any(
            seg.box().contains_point(piece.start) and seg.box().contains_point(piece.end)
            for loop in blk.boundary
            for seg in map(piece_segment, loop.segments)
        )

    def test_transfer_soundness_sample(self):
        cases = [
            ("(x, -y)", "((1 + y^2)*x, (-1 - y^2)*y)", "no-negative-ratio"),
            ("(x^2 - y^2, 2*x*y)", "(3*x^2 - 3*y^2, 6*x*y)", "no-negative-ratio"),
            ("(-y, x)", "(y, -x)", "no-positive-ratio"),
        ]
        for xt, yt, mode in cases:
            field, blk = origin_block(xt)
            rep = index_transfer_check(field, parse_field(yt), blk, mode)
            assert rep.certified
            assert rep.index_x == rep.index_y


def _perturbed(field, seed):
    """The field plus a 2^-12 multiple of a derandomized perturbation of
    the kind ``stability_test`` draws."""
    pert = _random_perturbation(field.domain, random.Random(seed))
    return field + pert.scale(Fraction(1, 4096))


def _check_loop_windings(field, block):
    """Each loop's crossing count equals the winding of the atan2 oracle and
    of dense sampling, with no more pieces than the oracle certified."""
    rep = block_index(field, block)
    for lw, loop in zip(rep.loops, block.boundary):
        ref = fraction_loop_winding(field, loop)
        assert lw.winding == ref.winding == dense_loop_winding(field, loop, 4000)
        assert lw.pieces <= ref.pieces
    return rep


def _record_certified_pieces(field, region, depth):
    """Isolate the field's blocks and index them for the field and for a
    perturbation of it, recording every boundary piece that
    ``ZeroProblem.sign_certificate`` was asked about, and the blocks whose
    index for the field was certified.  The isolation asks about the
    field's pieces, and the index of the field reads its certificates;
    the perturbed field's index bisects its own."""
    signs, indexed = [], []
    sign_certificate = ZeroProblem.sign_certificate

    def record_sign(problem, piece):
        cert = sign_certificate(problem, piece)
        signs.append((problem, piece, cert))
        return cert

    with mock.patch.object(ZeroProblem, "sign_certificate", record_sign):
        for blk in isolate_zeros(field, region, depth).blocks:
            try:
                block_index(_perturbed(field, 1), blk)
            except CertificationError:
                pass
            try:
                block_index(field, blk)
            except CertificationError:
                continue
            indexed.append(blk)
    return signs, indexed


class TestIntegerPieces:
    """Boundary pieces in integer form against the Fraction reference:
    every sign certificate, of the isolation's loop certificates and of a
    perturbed field's winding alike, is the one the Fraction enclosures
    give (first component first), and every certified block's loop
    windings equal the atan2 oracle's and dense sampling's."""

    @staticmethod
    def _check(field, region, depth):
        signs, indexed = _record_certified_pieces(field, region, depth)
        for problem, piece, cert in signs:
            box = piece_segment(piece).box()
            expected = None
            for k, (_, expr) in enumerate(problem.components):
                r = range_on_fractions(expr, box)
                if r.excludes_zero():
                    expected = (k, 1 if r.lo > 0 else -1)
                    break
            assert cert == expected
        for blk in indexed:
            _check_loop_windings(field, blk)
        return signs, indexed

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(plane_fields(2, 3), st.integers(3, 5))
    def test_plane_pieces(self, field, depth):
        assume(not field.is_zero)
        self._check(field, REGION2, depth)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(torus_polys(), torus_polys(), st.integers(2, 3))
    def test_torus_pieces(self, cx, cy, depth):
        assume(not (cx.is_zero and cy.is_zero))
        self._check(VectorField(cx, cy), TORUS, depth)

    @pytest.mark.parametrize("name, depth", [("complex-squaring", 5), ("torus-grid-saddle", 4)])
    def test_catalog_pieces(self, catalog, name, depth):
        entry = catalog[name]
        signs, indexed = self._check(entry.field, entry.region, depth)
        assert any(cert for *_, cert in signs)
        # both components certify pieces, with both signs
        assert {cert for *_, cert in signs} >= {(0, 1), (0, -1), (1, 1), (1, -1)}
        assert indexed

    def test_non_dyadic_region_matches_fraction_reference(self):
        # corner 1/3: the boundary pieces are integers over 2^e or 3 * 2^e
        field = parse_field("((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))")
        blocks = isolate_zeros(field, Box.from_corners(0, 0, Fraction(1, 3), 1), 6).blocks
        reports = [_check_loop_windings(field, blk) for blk in blocks]
        assert [r.index for r in reports] == [2]
        for field2 in (_perturbed(field, 1), _perturbed(field, 2)):
            assert [_check_loop_windings(field2, blk).index for blk in blocks] == [2]


class TestIndexLaws:
    """The crossing count against the atan2 oracle and dense sampling on
    every catalog entry's blocks, for the entry's field and two 2^-12
    perturbations of it."""

    @pytest.mark.parametrize("name", [e.name for e in builtin_catalog()])
    def test_catalog_blocks(self, catalog, name):
        entry = catalog[name]
        depth = 6 if entry.domain == "plane" else 4
        blocks = [b for b in isolate_zeros(entry.field, entry.region, depth).blocks if not b.coarse]
        assert blocks
        for field in (entry.field, _perturbed(entry.field, 1), _perturbed(entry.field, 2)):
            for blk in blocks:
                _check_loop_windings(field, blk)


def _counting_sign_certificates():
    """(list of the pieces asked about, a patch of
    ``ZeroProblem.sign_certificate`` that appends to it)."""
    asked = []
    sign_certificate = ZeroProblem.sign_certificate

    def counted(problem, piece):
        asked.append(piece)
        return sign_certificate(problem, piece)

    return asked, mock.patch.object(ZeroProblem, "sign_certificate", counted)


def _fresh_certificate(field, loop):
    """The field's certificate of the loop, bisected by a new zero problem."""
    return certify_loop(ZeroProblem(field_parts(field)).sign_certificate, loop)


class TestCertificateReuse:
    """The isolation bisects each boundary loop once for the field it
    isolates.  ``block_index``, the stability bound and
    ``certify_isolating`` read those loop certificates, ask
    ``ZeroProblem.sign_certificate`` about no piece, and give what a fresh
    bisection gives; another field, a hand-built block and a hand-built
    loop on an isolated block still bisect."""

    @pytest.mark.parametrize("name", [e.name for e in builtin_catalog()])
    def test_catalog_blocks_read_the_isolation(self, catalog, name):
        entry = catalog[name]
        field = entry.field
        depth = 6 if entry.domain == "plane" else 4
        blocks = [b for b in isolate_zeros(field, entry.region, depth).blocks if not b.coarse]
        assert blocks
        asked, counting = _counting_sign_certificates()
        with counting:
            read = [(block_index(field, blk), _boundary_pieces(field, blk), certify_isolating(field, blk))
                     for blk in blocks]
        assert asked == []
        for blk, (rep, pieces, isolating) in zip(blocks, read):
            fresh = tuple(winding._loop_winding(field, _fresh_certificate(field, loop))
                          for loop in blk.boundary)
            assert rep.loops == fresh
            assert isolating.ok
            assert len(pieces) == isolating.pieces == sum(lw.pieces for lw in fresh)

    def test_perturbed_field_and_hand_built_block_bisect(self, catalog):
        entry = catalog["complex-squaring"]
        blk = isolate_zeros(entry.field, entry.region, 6).blocks[0]
        asked, counting = _counting_sign_certificates()
        with counting:
            perturbed = block_index(_perturbed(entry.field, 1), blk)
        assert len(asked) >= sum(lw.pieces for lw in perturbed.loops) > 0
        asked, counting = _counting_sign_certificates()
        with counting:
            isolating = certify_isolating(entry.field, box_block(REGION))
        assert isolating.ok and len(asked) >= isolating.pieces > 0

    @pytest.mark.parametrize("corners", [(-1, -1, 1, 1), (Fraction(1, 4), Fraction(1, 4), 1, 1)])
    def test_hand_built_loop_in_an_isolated_block_is_certified_fresh(self, catalog, corners):
        # the block was isolated for the field, but the loop put on it by
        # hand carries no certificate: it is bisected for the field, and
        # the index is its winding number, 2 around the double zero and 0
        # off it, whatever the block's own loops wind
        entry = catalog["complex-squaring"]
        blk = isolate_zeros(entry.field, entry.region, 6).blocks[0]
        loop = region_boundary_loop(Box.from_corners(*corners))
        hand = dataclasses.replace(blk, boundary=(loop,))
        asked, counting = _counting_sign_certificates()
        with counting:
            rep = block_index(entry.field, hand)
        assert rep.index == winding_number(entry.field, loop) == (2 if corners[0] < 0 else 0)
        assert len(asked) >= rep.loops[0].pieces > 0

    def test_loop_from_another_isolation_is_certified_fresh(self):
        # the loops carry the certificates of G's isolation, around G's
        # zero (1/2, 1/2): read for G, and bisected again for the squaring
        # field, which winds 0 there and not G's 1
        field, other = parse_field("(x^2 - y^2, 2*x*y)"), parse_field("(x - 1/2, y - 1/2)")
        (blk,) = isolate_zeros(field, REGION, 6).blocks
        (g_blk,) = isolate_zeros(other, REGION, 6).blocks
        moved = dataclasses.replace(blk, boundary=g_blk.boundary)
        asked, counting = _counting_sign_certificates()
        with counting:
            assert block_index(other, moved).index == 1
        assert asked == []
        with counting:
            assert block_index(field, moved).index == winding_number(field, g_blk.boundary[0]) == 0
        assert asked

    def test_verify_main_bisects_each_loop_once(self, tmp_path):
        # 8912 while the winding bisected the isolation's pieces again,
        # 4456 while annulus-node's unit circle was isolated as a block of
        # its own, and 372 while X's own loop around its K0 was certified
        # beside V's; 4 of the 364 are the region loop of its factor g
        asked, counting = _counting_sign_certificates()
        with counting:
            argv = ["verify", "main", "--depth", "10", "--seed", "7", "--out", str(tmp_path / "r.json")]
            assert run_command(argv) == 0
        assert len(asked) == 364


_THIRD = "((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))"


def _count_case(name):
    """(field, blocks) of one piece-count case: catalog blocks, or one
    whole box whose sides need refinement."""
    entries = {e.name: e for e in builtin_catalog()}
    if name in ("complex-squaring:6", "annulus-node:4", "torus-shear:3", "torus-grid-saddle:4"):
        entry, depth = entries[name.split(":")[0]], int(name.split(":")[1])
        return entry.field, isolate_zeros(entry.field, entry.region, depth).blocks
    if name == "third-box":
        box = Box.from_corners(0, 0, Fraction(1, 3), 1)
        return parse_field(_THIRD), [box_block(box)]
    return parse_field("(x^2 - y^2, 2*x*y)"), [box_block(REGION)]


class TestPieceCounts:
    """Per loop, the pieces that ``certify_boundary``, ``_loop_winding``,
    ``_boundary_pieces`` and ``index_transfer_check`` (against the field
    turned by a right angle) certify, as recorded while block boundaries
    were ``Segment``s read off box corners."""

    RECORDED = {
        "complex-squaring:6": [[(16, 16, 16, 16)]],
        "annulus-node:4": [[(40, 40, 40, 48), (24, 24, 24, 40), (8, 8, 8, 8)]],
        "torus-shear:3": [[(10, 10, 10, 12), (10, 10, 10, 12)],
                          [(10, 10, 10, 12), (10, 10, 10, 12)]],
        "torus-grid-saddle:4": [[(8, 8, 8, 8)]] * 4,
        "third-box": [[(24, 24, 24, 214)]],
        "squaring-box": [[(16, 16, 16, 4)]],
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_pieces_per_loop(self, name):
        field, blocks = _count_case(name)
        turned = VectorField(-field.cy, field.cx)
        problem = ZeroProblem(field_parts(field))
        counts = []
        for blk in blocks:
            row = []
            for loop in blk.boundary:
                one = dataclasses.replace(blk, boundary=(loop,))
                row.append((certify_boundary([certify_loop(problem.sign_certificate, loop)]).pieces,
                            winding._loop_winding(field, _fresh_certificate(field, loop)).pieces,
                            len(_boundary_pieces(field, one)),
                            index_transfer_check(field, turned, one).pieces))
            counts.append(row)
        assert counts == self.RECORDED[name]
