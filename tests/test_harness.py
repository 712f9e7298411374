import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vfzero import (
    Box,
    CertificationError,
    block_index,
    builtin_catalog,
    invariance_test,
    isolate_zeros,
    load_catalog,
    main_theorem_check,
    parse_field,
    poincare_hopf_check,
    refine_seed,
    stability_test,
)
from vfzero import VectorField, blocks
from vfzero.blocks import FACTOR_REST, index_blocks, piece_segment
from vfzero.cli import run_command
from vfzero.harness import TORUS_SQUARE, _boundary_pieces, _random_perturbation

from oracles import factor_cover, full_cover, range_on_fractions, ref_divide_exact, ref_poly_gcd, v_cover


class TestCatalog:
    def test_builtin_loads(self, catalog):
        assert len(catalog) >= 16
        for e in catalog.values():
            assert e.field.domain == e.domain
            for t in e.trackers:
                assert t.domain == e.domain

    def test_expected_isolation(self, catalog):
        for e in catalog.values():
            res = isolate_zeros(e.field, e.region, 6)
            assert len(res.blocks) == e.expected_blocks, e.name
            indices = tuple(block_index(e.field, b).index for b in res.blocks)
            assert indices == e.expected_indices, e.name

    def test_torus_seam_entry(self):
        # the covers of K0 and K1 meet the tracker's only across x = 0 = 1,
        # which the box test without wrap-around reported as missed
        path = Path(__file__).parent / "data" / "torus-seam.cfg"
        (entry,) = load_catalog(path.read_text())
        rep = main_theorem_check(entry, 6)
        assert rep.block_indices == tuple(zip(("K0", "K1", "K2", "K3"), entry.expected_indices))
        assert not rep.hypotheses_ok
        assert rep.missed == () and rep.conclusion_holds
        assert len(rep.witnesses) == 8
        for w in rep.witnesses:
            assert 0 <= w.box.x.lo <= w.box.x.hi <= 1 and 0 <= w.box.y.lo <= w.box.y.hi <= 1
        assert {w.box.x.lo for w in rep.witnesses if w.block in ("K0", "K1")} == {0}

    def test_custom_catalog_text(self):
        text = """
[tiny]
domain = plane
x = (x, y)
trackers = (x, y)
region = -1, -1, 1, 1
expected_blocks = 1
expected_indices = 1
tags = main
"""
        entries = load_catalog(text)
        assert entries[0].name == "tiny"
        assert entries[0].has_tag("main")
        # a trailing ';' ends the tracker list
        (entry,) = load_catalog(text.replace("trackers = (x, y)", "trackers = (x, y); (-y, x);"))
        assert entry.trackers == (parse_field("(x, y)"), parse_field("(-y, x)"))


class TestSeedRefinement:
    def test_simple_zero(self):
        field = parse_field("(x - 1/2, y + 1/4)")
        x, y = refine_seed(field, (0.4, -0.2))
        assert abs(x - 0.5) < 1e-9 and abs(y + 0.25) < 1e-9

    def test_zero_manifold(self):
        field = parse_field("((x^2 + y^2 - 1)*x, (x^2 + y^2 - 1)*y)")
        x, y = refine_seed(field, (1.02, 0.1))
        assert abs(x * x + y * y - 1) < 1e-9


class TestInvariance:
    def test_equilibrium_seed_zero_residual(self, catalog):
        e = catalog["complex-squaring"]
        rep = invariance_test(e.field, e.trackers[0], e.region)
        assert rep.ok

    def test_circle_invariant_under_rotation(self, catalog):
        e = catalog["annulus-node"]
        rep = invariance_test(e.field, e.trackers[0], e.region)
        assert rep.ok and rep.max_residual < 1e-6
        assert len(rep.seeds) > 4  # circle cells contribute several seeds

    def test_dependency_target(self):
        x = parse_field("(x, y)")
        y = parse_field("(-y, x)")
        rep = invariance_test(x, y, Box.from_corners(-1, -1, 1, 1), target="dependency")
        assert rep.ok

    def test_non_tracking_refused(self):
        with pytest.raises(ValueError):
            invariance_test(parse_field("(1, 0)"), parse_field("(0, x)"),
                            Box.from_corners(-1, -1, 1, 1))


class TestStability:
    def test_node_indices_stable(self, catalog):
        e = catalog["linear-node"]
        blk = isolate_zeros(e.field, e.region, 6).blocks[0]
        rep = stability_test(e.field, blk, trials=25, seed=3)
        assert rep.ok and rep.base_index == 1
        assert rep.epsilon_min > 0

    def test_squaring_indices_stable(self, catalog):
        e = catalog["complex-squaring"]
        blk = isolate_zeros(e.field, e.region, 6).blocks[0]
        rep = stability_test(e.field, blk, trials=25, seed=4)
        assert rep.ok and rep.base_index == 2

    def test_torus_block_stable(self, catalog):
        e = catalog["torus-grid-node"]
        blk = isolate_zeros(e.field, e.region, 5).blocks[0]
        rep = stability_test(e.field, blk, trials=10, seed=5)
        assert rep.ok and rep.base_index == 1

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, catalog, trials):
        e = catalog["linear-node"]
        blk = isolate_zeros(e.field, e.region, 6).blocks[0]
        with pytest.raises(ValueError, match="trials"):
            stability_test(e.field, blk, trials=trials)

    def test_block_without_boundary_rejected(self):
        # at depth 1 every cell of the torus is retained: one block, no loops
        field = parse_field("(sin2px, sin2py)", "torus")
        (blk,) = isolate_zeros(field, TORUS_SQUARE, 1).blocks
        assert blk.boundary == ()
        with pytest.raises(ValueError, match="block K0 has no boundary"):
            stability_test(field, blk, trials=3)


class TestStabilityScale:
    """The perturbation scale eps of ``stability_test`` keeps
    eps * |P| below |X| (sup norms) on every boundary piece, so the
    straight-line deformation X + t eps P never vanishes there.  The trial
    perturbations are replayed from the same ``random.Random(seed)``, and
    both bounds are taken on each piece's box by the Fraction enclosure
    loop, independently of the integer kernel that ``stability_test`` uses."""

    @pytest.mark.parametrize("name, depth, seed", [
        ("linear-node", 6, 3),
        ("complex-squaring", 6, 11),
        ("torus-grid-node", 5, 5),
        ("torus-grid-saddle", 5, 2),
    ])
    def test_epsilon_bounds_perturbation_on_every_piece(self, catalog, name, depth, seed):
        e = catalog[name]
        blk = isolate_zeros(e.field, e.region, depth).blocks[0]
        trials = 40
        rep = stability_test(e.field, blk, trials=trials, seed=seed)
        boxes = [piece_segment(piece).box() for piece, _, _ in _boundary_pieces(e.field, blk)]

        def sup(field, box):
            ranges = [range_on_fractions(c, box) for c in (field.cx, field.cy)]
            return max(max(abs(r.lo), abs(r.hi)) for r in ranges)

        x_low = [max(range_on_fractions(e.field.cx, b).mig(),
                     range_on_fractions(e.field.cy, b).mig()) for b in boxes]
        m = min(x_low)
        assert m > 0
        rng = random.Random(seed)
        eps_seen = []
        for _ in range(trials):
            pert = _random_perturbation(e.domain, rng)
            p_high = [sup(pert, b) for b in boxes]
            s = max(p_high)
            eps = Fraction(1) if s == 0 else m / (2 * s)
            eps_seen.append(eps)
            for p, x in zip(p_high, x_low):
                assert eps * p < x
        # the replay reproduces the scales the report states
        assert (rep.epsilon_min, rep.epsilon_max) == (min(eps_seen), max(eps_seen))


class TestPoincareHopf:
    def test_all_torus_entries_sum_zero(self, catalog):
        for e in catalog.values():
            if not e.has_tag("ph"):
                continue
            rep = poincare_hopf_check(e.field, 5)
            assert rep.ok, e.name
            assert [ix for _, ix in rep.indices] == list(e.expected_indices)

    def test_nonvanishing_field_empty_sum(self):
        field = parse_field("(2 + sin2px, 1)", "torus")
        rep = poincare_hopf_check(field, 4)
        assert rep.indices == () and rep.total == 0

    def test_plane_field_rejected(self):
        with pytest.raises(ValueError):
            poincare_hopf_check(parse_field("(x, y)"), 4)


class TestMainTheorem:
    def test_squaring_entry(self, catalog):
        rep = main_theorem_check(catalog["complex-squaring"], 7)
        assert rep.hypotheses_ok
        assert rep.essential_blocks == ("K0",)
        assert rep.conclusion_holds and not rep.falsified
        assert any(w.tracker == "common" for w in rep.witnesses)

    def test_negative_control(self, catalog):
        rep = main_theorem_check(catalog["negative-control-shift"], 7)
        assert not rep.hypotheses_ok
        assert not rep.conclusion_holds
        assert not rep.falsified  # failed hypotheses, so nothing is falsified
        assert rep.missed

    def test_annulus_entry_essential_origin(self, catalog):
        rep = main_theorem_check(catalog["annulus-node"], 7)
        assert rep.hypotheses_ok
        assert len(rep.essential_blocks) == 1
        assert rep.conclusion_holds

    def test_torus_entry(self, catalog):
        rep = main_theorem_check(catalog["torus-grid-node"], 6)
        assert rep.hypotheses_ok
        assert set(rep.essential_blocks) == {"K0", "K1", "K2", "K3"}
        assert rep.conclusion_holds


DATA = Path(__file__).parent / "data"


def _cover_entries():
    edges = [e for e in load_catalog((DATA / "factor-edges.cfg").read_text())
             if e.name not in ("cross", "through")]
    return builtin_catalog() + load_catalog((DATA / "torus-seam.cfg").read_text()) + edges


def _whole_region_block_is_not_v_block(name: str, depth: int) -> bool:
    """Whether the factored report of the entry at this depth is checked
    against V's isolation (``oracles.v_cover``) instead of the whole-region
    one: there the whole-region isolation of X merges a curve of g with the
    zero of V, or, for near-ring, retains more cells around that zero than
    V's block, from the enclosure of the expanded product."""
    return name == "near-ring" or (name, depth) in {("annulus-node", 3), ("annulus-node", 4), ("two-circles", 4)}


def _isolating(monkeypatch, entry, depth):
    """``main_theorem_check``'s report on the entry at the depth, and the
    zero sets it isolates over the whole region: the field of each
    ``blocks.isolate_zeros`` call and the field list of each
    ``blocks.common_zero_blocks`` call."""
    isolated = []
    whole, common = blocks.isolate_zeros, blocks.common_zero_blocks
    with monkeypatch.context() as m:
        m.setattr(blocks, "isolate_zeros", lambda f, r, d: isolated.append(f) or whole(f, r, d))
        m.setattr(blocks, "common_zero_blocks",
                  lambda fs, r, d: isolated.append(list(fs)) or common(fs, r, d))
        return main_theorem_check(entry, depth), isolated


def _factored(depth: int) -> set[str]:
    """The entries of ``_cover_entries`` that take the factored path at
    the depth, with the rest of Z(X) as ("G", 0)."""
    return (({"annulus-node"} if depth >= 3 else set()) | ({"two-circles"} if depth >= 4 else set())
            | {"near-ring", "inside-leaf"})


def _v_blocks(depth: int) -> set[str]:
    """The entries of ``_cover_entries`` whose blocks are V's at the depth:
    the factored ones, and nozero, whose g has no zero in the region."""
    return _factored(depth) | {"nozero"}


def _isolated_twice(depth: int) -> set[str]:
    """The entries of ``_cover_entries`` whose V = X / g is isolated and
    thrown away at the depth, because g's enclosure does not exclude zero
    on V's blocks (rule 3): g vanishes on V's cell at the origin for
    ring-through, and the shallow V blocks of annulus-node and
    two-circles reach g's circles."""
    return {"ring-through"} | ({"annulus-node"} if depth == 2 else set()) | (
        {"two-circles"} if depth <= 3 else set())


class TestCoverWindow:
    """The covers decided on the cells around each essential block against
    the whole-region isolation of every tracker and the common zero set."""

    @pytest.mark.parametrize("depth", range(2, 10))
    def test_same_report_as_whole_region(self, monkeypatch, depth):
        # a factored report, which starts with ("G", 0), is the whole-region
        # one without the blocks away from V's zeros, all of index 0
        entries = _cover_entries()
        assert len(entries) == 25
        factored = set()
        for entry in entries:
            rep, isolated = _isolating(monkeypatch, entry, depth)
            is_factored = rep.block_indices[:1] == (FACTOR_REST,)
            # no tracker's zero set and not the common one is isolated over
            # the whole region: only V's when the factor split holds, and
            # X's otherwise, after V's when rule 2 or 3 of the split fails
            assert len(isolated) == 1 + (entry.name in _isolated_twice(depth)), entry.name
            assert (isolated[-1] == entry.field) != (entry.name in _v_blocks(depth)), entry.name
            if is_factored:
                factored.add(entry.name)
                if _whole_region_block_is_not_v_block(entry.name, depth):
                    assert rep == v_cover(entry, depth), entry.name
                    continue
                whole = factor_cover(entry, full_cover(entry, depth), depth)
            else:
                whole = full_cover(entry, depth)
            assert rep == whole, entry.name
        assert factored == _factored(depth)

    @pytest.mark.parametrize("depth", range(2, 10))
    def test_index_blocks(self, depth):
        # the factored entries get ("G", 0), exactly V = X / g (sympy's gcd)
        # and V's isolation, and nozero the same without ("G", 0); every
        # other one, the torus entries among them, X's whole-region isolation
        entries = _cover_entries()
        assert {"nozero", "torus-seam", "torus-grid-node"} <= {e.name for e in entries}
        for entry in entries:
            f = entry.field
            rest, w, blks = index_blocks(f, entry.region, depth)
            if entry.name in _v_blocks(depth):
                g = ref_poly_gcd(f.cx, f.cy)
                assert rest == ((("G", 0),) if entry.name in _factored(depth) else ()), entry.name
                assert w == VectorField(ref_divide_exact(f.cx, g), ref_divide_exact(f.cy, g)), entry.name
            else:
                assert rest == () and w is f, entry.name
            assert blks == isolate_zeros(w, entry.region, depth).blocks, entry.name

    @pytest.mark.parametrize("depth", range(2, 10))
    def test_factored_indices_from_x_itself(self, depth):
        # each index read off V's loop certificates is X's own index on the
        # block, certified with a new zero problem of X (``oracles.v_cover``)
        for entry in _cover_entries():
            rep = main_theorem_check(entry, depth)
            if rep.block_indices[:1] != (FACTOR_REST,):
                continue
            assert rep.block_indices == v_cover(entry, depth).block_indices, (entry.name, depth)

    @pytest.mark.parametrize("depth", [6, 7])
    def test_two_pieces_decided_on_window(self, monkeypatch, depth):
        # at depth 6 Y0's zeros at x = -3/32 and 3/32 lie in two pieces of
        # the cells around K0, and K0's first cell meeting one of them gives
        # the witness; at depth 7 both lie outside them
        (entry,) = load_catalog((DATA / "near-pair.cfg").read_text())
        rep, isolated = _isolating(monkeypatch, entry, depth)
        assert isolated == [entry.field]
        assert rep == full_cover(entry, depth)
        y0_k0 = [w.box for w in rep.witnesses if (w.tracker, w.block) == ("Y0", "K0")]
        if depth == 6:
            assert y0_k0 == [Box.from_corners(Fraction(-1, 16), Fraction(-1, 16), Fraction(-1, 16), 0)]
            assert rep.missed == (("common", "K0"),)
        else:
            assert y0_k0 == []
            assert rep.missed == (("Y0", "K0"), ("common", "K0"))


class TestFactoredPath:
    """``main_theorem_check`` on X = g*V with a nonconstant gcd g of X's
    components: X's blocks only around V's zeros and the rest of Z(X) as
    ("G", 0), or the whole-region isolation when a rule fails
    (``tests/data/factor-edges.cfg``)."""

    @pytest.fixture(scope="class")
    def edges(self):
        return {e.name: e for e in load_catalog((DATA / "factor-edges.cfg").read_text())}

    @pytest.mark.parametrize("name", ["cross", "through"])
    def test_factor_curve_on_region_boundary_stays_coarse(self, edges, name):
        # g vanishes on the region boundary; without that rule "cross" would
        # pass, with its circle reported as part of G
        with pytest.raises(CertificationError, match=f"^coarse block K0 in {name}$"):
            main_theorem_check(edges[name], 8)

    @pytest.mark.parametrize("depth, sha256", [
        (6, "6c222d52ed553d8d9a791d65cba3bfdd755742c349f3b13efc8fe26b1892b87a"),
        (10, "5254c563e9a36b66c23063ece55b13f0bbc5713c83fd1d29d827009c328075a7"),
    ])
    def test_factor_without_real_zero_keeps_report(self, monkeypatch, tmp_path, depth, sha256):
        # g = x^2 + y^2 + 1 has no zero, so X's blocks and indices are V's:
        # the report recorded before the factored path existed
        monkeypatch.chdir(DATA)
        out = tmp_path / "report.json"
        argv = ["verify", "main", "--catalog", "factor-edges.cfg", "--entry", "nozero", "--depth", str(depth)]
        assert run_command(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("depth", [6, 8, 10])
    def test_two_circles(self, edges, depth):
        entry = edges["two-circles"]
        rep = main_theorem_check(entry, depth)
        whole = full_cover(entry, depth)
        assert rep.block_indices == (("G", 0), ("K0", 1))
        assert whole.block_indices == ((("K0", 0), ("K1", 1)) if depth == 6 else
                                       (("K0", 0), ("K1", 0), ("K2", 1)))
        assert [(w.tracker, w.box) for w in rep.witnesses] == [(w.tracker, w.box) for w in whole.witnesses]
        assert rep.missed == ()

    def test_circle_through_zero_of_v(self, edges):
        # g vanishes on V's cell at the origin, so the whole-region
        # isolation decides: one block of index 1
        entry = edges["ring-through"]
        for depth in (4, 8):
            rep = main_theorem_check(entry, depth)
            assert rep == full_cover(entry, depth)
            assert rep.block_indices == (("K0", 1),)

    @pytest.mark.parametrize("depth", [2, 6, 12])
    def test_loose_product_enclosure_factors(self, edges, depth):
        # the expanded X retains every cell around V's block, but g's own
        # enclosure excludes zero on it: the circle is G at every depth
        rep = main_theorem_check(edges["near-ring"], depth)
        assert rep.block_indices == (("G", 0), ("K0", 1))
        assert rep.hypotheses_ok and rep.missed == ()

    def test_factor_zeros_inside_one_leaf(self, monkeypatch, edges):
        # V = (0, 1) is isolated as the one root leaf, on whose corners g
        # is 7 and at whose centre it is -1: the unit circle is G, and X
        # is not isolated
        entry = edges["inside-leaf"]
        rep, isolated = _isolating(monkeypatch, entry, 6)
        assert isolated == [parse_field("(0, 1)")]
        assert rep == factor_cover(entry, full_cover(entry, 6), 6)
        assert rep.block_indices == (("G", 0),)

    def test_factor_without_sign_change_isolates_x(self, monkeypatch):
        # g = (x^2 + y^2 - 1)^2 vanishes on the unit circle without changing
        # sign, so no pair of opposite signs is found and g's enclosure
        # meets zero on the leaves around the circle: X is isolated after V
        (entry,) = load_catalog(
            "[squared]\n"
            "domain = plane\n"
            "x = ((x^2 + y^2 - 1)^2*x, (x^2 + y^2 - 1)^2*y)\n"
            "trackers = (-y, x)\n"
            "region = -2, -2, 2, 2\n")
        rep, isolated = _isolating(monkeypatch, entry, 6)
        assert len(isolated) == 2 and isolated[-1] == entry.field
        assert rep == full_cover(entry, 6)

    def test_annulus_deep(self, catalog):
        rep = main_theorem_check(catalog["annulus-node"], 13)
        assert rep.block_indices == (("G", 0), ("K0", 1))
        assert rep.essential_blocks == ("K0",) and rep.missed == ()
        corner = Fraction(-1, 2048)
        assert {w.box for w in rep.witnesses} == {Box.from_corners(corner, corner, 0, 0)}
