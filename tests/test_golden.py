"""Golden reports: the README's command-line examples (all but ``plot``,
which writes an SVG) and ``verify main --depth 10 --seed 7`` must keep
their exit codes and byte-identical JSON reports.

The hashes were recorded before the dyadic-integer enclosure kernel
replaced the Fraction loop on dyadic boxes; a change that moves any of them
changes what a user sees and needs its own justification.  One has moved
since: ``verify invariance`` used to isolate at depth 8 whatever ``--depth``
said, and now isolates at the default depth 7 its report states, which
moves its seeds and residuals (re-recorded; at ``--depth 8`` the new report
differs from the old one only in ``config.depth``).  The five reports over
non-dyadic regions were recorded while those regions still took a
Fraction bisection path of their own.  The two rational
``track`` reports pin the reduced ``cofactor_num``/``cofactor_den``; they
were recorded while the cofactor gcd still came from sympy's polynomial
kernel.  Four have moved since the winding became a count of axis
crossings: the three ``index`` reports no longer print each loop's atan2
``angle_sum`` and ``max_piece_width`` (nothing else in them changed), and
the X = Y ``verify transfer`` over 0,0,1/3,1 decides its pieces from
component signs first, so its ``pieces`` went from 12495 to 142.

Five ``repr`` pins below moved when block boundaries became lattice
pieces: ``isolate-plane``, ``isolate-torus``, ``scalar-blocks``,
``common-blocks`` and ``boundary-pieces``.  Each boundary
loop, each per-segment certificate and each piece of ``_boundary_pieces``
now holds a ``DyadicSegment`` where it held a ``Segment``; with every
piece mapped back through ``piece_segment`` each object gives its old
hash, which ``test_segment_form_unchanged`` keeps checking.

Six ``repr`` pins moved when a block's lattice cells became its only
geometry: ``isolate-plane``, ``isolate-empty``, ``isolate-torus``,
``scalar-blocks``, ``common-blocks`` and ``isolating-fails``.  A
``ZeroBlock`` no longer holds the ``Box`` of each cell nor the per-segment
piece counts of its boundary certificate, a ``CertifyResult`` no longer
holds those counts, and an ``IsolationResult`` prints its empty leaves as
cells with integer enclosures instead of as boxes.  Their new hashes are
pinned in ``OBJECTS``.  ``_legacy`` rebuilds each old object (the boxes
from the cells in Fraction arithmetic, the piece counts by bisecting each
boundary segment) and ``test_legacy_form_unchanged`` checks that it gives
the old hash; the four segment forms above are taken of these legacy
forms.

The three ``isolate-torus`` pins moved once more when pi, sin and cos
became integer enclosures in place of mpmath's: only the last bits of
the empty leaves' trig enclosures changed (old hashes 4dffc2a0...,
ce67f736... and e5bd6b19...).  ``test_torus_cells_and_labels_unchanged``
hashes that isolation with the enclosures left out, which gives the hash
recorded with mpmath's enclosures: the blocks, the cells and the labels
of the empty leaves are the same.

``plot`` writes an SVG, pinned by its own hash.
"""

import dataclasses
import hashlib
from dataclasses import make_dataclass

import pytest

from vfzero import (
    Box,
    builtin_catalog,
    certify_isolating,
    isolate_zeros,
    parse_expr,
    parse_field,
    scalar_zero_blocks,
)
from vfzero.blocks import (
    MAX_SEG_REFINE,
    BoundaryLoop,
    DyadicSegment,
    IsolationResult,
    ZeroBlock,
    ZeroProblem,
    _common_problem,
    _field_parts,
    bisect,
    common_zero_blocks,
    piece_segment,
)
from vfzero.cli import run_command
from vfzero.harness import _boundary_pieces

from oracles import box_block, fraction_cell_box

# a double zero at (1/7, 1/2), inside the region 0,0,1/3,1
_THIRD_FIELD = "((x - 1/7)^2 - (y - 1/2)^2, 2*(x - 1/7)*(y - 1/2))"

GOLDEN = [
    ("zeros", ["zeros", "--field", "(x, y)", "--region", "-1,-1,1,1", "--depth", "8"],
     "68aa85931cf564a153930423db80e586a5f695bbdeb7f63fad18aa27521f563b"),
    ("index", ["index", "--field", "(x^2 - y^2, 2*x*y)", "--region", "-1,-1,1,1"],
     "282c0ffd1360e2794e892ab8c26ad787fe881cccedbf8bfecb92abe4981bc09f"),
    ("bracket", ["bracket", "--y", "(0, x)", "--x", "(1, 0)"],
     "bdd2c90a3ef0f2927e1d2709300c1a2c96215809128dbf7f17cfe5ab0b527ce1"),
    ("track", ["track", "--y", "(x, y)", "--x", "(x^2 - y^2, 2*x*y)"],
     "df8fe827159d6368d13a9149d854bc5b90306603e214becac064aadf75572dca"),
    ("track-rational", ["track", "--y", "(y, 0)", "--x", "(x^2, x*y)"],
     "41bdcc0c54c62ebd9bec0dc6ca0ad0ca6092104030befa0d7d5297f94b07eb16"),
    # the gcd of each component pair is pi*x or pi*y, and the monic gcd
    # leaves the constants in place: the cofactor is 6*y / (2*x)
    ("track-rational-pi", ["track", "--y", "(3*y, 0)", "--x", "(2*pi*x^2, 2*pi*x*y)"],
     "4b88cd9bb006918521c31f0b47f4f74d082ba8f76346a4e6c01b957c3a926732"),
    ("dep", ["dep", "--x", "(x, y)", "--y", "(-y, x)"],
     "efed7fea2d78eebacc827569a8fb5cf04fb1df2f353a0144c69f722062c8985f"),
    ("common", ["common", "--field", "(x, y)", "--field", "(x^2 - y^2, 2*x*y)"],
     "534781c0f8d6f7c94f22515070eb1b6f7ae4cbafdad6fdda4be7b650fc5c7aa3"),
    ("verify-ph", ["verify", "ph", "--field", "(sin2px, sin2py)", "--domain", "torus"],
     "0fd34ee2bc9bd2d9a1cf64881c1773034707cde3944520b1f1d10bba2daa9e73"),
    ("verify-main", ["verify", "main", "--depth", "10"],
     "3f8a810f4be3fd99be251c4e4191b68cb37aa88fa371a3c5654b4ae2cea2d6f0"),
    ("verify-stability", ["verify", "stability", "--field", "(x, -y)", "--trials", "100",
                          "--seed", "7"],
     "af432202dc1138b04af2cf2f0fa7cc5bde61b657c78f62f6724d319c36d6fcfc"),
    ("verify-invariance", ["verify", "invariance",
                           "--x", "((x^2 + y^2 - 1)*x, (x^2 + y^2 - 1)*y)", "--y", "(-y, x)"],
     "9217f6fb1d31691c5748a4874440bb1e62946f7f75452f82bc1f49bccd4bd73d"),
    ("verify-transfer", ["verify", "transfer", "--x", "(x, y)", "--y", "(-y, x)",
                         "--region", "-1,-1,1,1"],
     "963fe1f60a11e335dfab14f5c0f783964afef688a6d9f1fd457ec34200fb24d0"),
    ("verify-closure", ["verify", "closure", "--y", "(x, y)", "--z", "(x^2 - y^2, 2*x*y)",
                        "--x", "(x^2 - y^2, 2*x*y)"],
     "94d1ff715aa5fb4f7ab8b158aff1019a9f8419bd3ed32490c8b178528505ff7c"),
    ("verify-main-seed7", ["verify", "main", "--depth", "10", "--seed", "7"],
     "526fc4ab0c2b6ffbe1e0eefb860f959b7db0582d96203b186a68ad8c5645597e"),
    # non-dyadic regions: every cell and piece is an integer over 3 * 2^e,
    # or over 15 * 2^e; recorded while such regions still ran the Fraction
    # enclosure loop
    ("zeros-third", ["zeros", "--field", _THIRD_FIELD, "--region", "0,0,1/3,1", "--depth", "6"],
     "a80ae6b928dd61d2638458338bb562ed96930e600c7a21545b67911d29835543"),
    ("index-third", ["index", "--field", _THIRD_FIELD, "--region", "0,0,1/3,1", "--depth", "6"],
     "07b294d43061b456138c385d501aabf94c6fdf452dbd05d09bf0c9523d27c43f"),
    ("verify-stability-third", ["verify", "stability", "--field", _THIRD_FIELD, "--region",
                                "0,0,1/3,1", "--depth", "6", "--trials", "10"],
     "e13ede0b7e337c8e7d37f016d76bf5aa512d8bad89b25e55c76662df94f96bc4"),
    ("verify-transfer-third", ["verify", "transfer", "--x", _THIRD_FIELD, "--y", _THIRD_FIELD,
                               "--region", "0,0,1/3,1", "--depth", "6"],
     "98ea09840b2742b37e287e2537eba0b34ee21c27b803809c79e2b89cc26ad431"),
    ("index-mixed-denominators", ["index", "--field", "(x - 1/10, y + 1/6)", "--region",
                                  "-1/5,-1/3,2/3,3/5", "--depth", "5"],
     "1119578cad1270ecbba5bbc5218456e5493e1ca04f2f65c1b3ccfdffd0503173"),
]


@pytest.mark.parametrize("argv, sha256", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_report_bytes_unchanged(argv, sha256, tmp_path):
    out = tmp_path / "report.json"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Object-level goldens: the reports above only count empty boxes, so these
# pin the repr of the objects the isolation layer returns, including every
# empty leaf's cell, label and integer enclosure, each block's cells and
# boundary pieces, and the offending segment of a failed boundary
# certificate.  ``LEGACY_FORMS`` below keeps the hashes recorded before the
# bisection loops were merged into ``blocks.bisect``.

_R1 = Box.from_corners(-1, -1, 1, 1)
_R2 = Box.from_corners(-2, -2, 2, 2)
_TORUS = Box.from_corners(0, 0, 1, 1)


def _catalog_block(name):
    entry = next(e for e in builtin_catalog() if e.name == name)
    return entry.field, isolate_zeros(entry.field, entry.region, 6).blocks[0]


def _squaring_pieces():
    return _boundary_pieces(*_catalog_block("complex-squaring"))


_CUBIC = parse_field("(x^3 - 3*x*y^2 - x, 3*x^2*y - y^3 - y)")
_NO_ZERO = parse_field("(x^2 + y^2 - 1/4, x^2 + y^2 - 1)")
_SINES = parse_field("(sin2px, sin2py)", "torus")
_CIRCLE = parse_expr("x^2 + y^2 - 1")
_PAIR = [parse_field("(x, y)"), parse_field("(x^2 - y^2, 2*x*y)")]
_NODE_BLOCK = box_block(_TORUS)

FACTORIES = {
    "isolate-plane": lambda: isolate_zeros(_CUBIC, _R2, 6),
    "isolate-empty": lambda: isolate_zeros(_NO_ZERO, _R1, 6),
    "isolate-torus": lambda: isolate_zeros(_SINES, _TORUS, 5),
    "scalar-blocks": lambda: scalar_zero_blocks(_CIRCLE, _R2, 5),
    "common-blocks": lambda: common_zero_blocks(_PAIR, _R1, 5),
    "isolating-fails": lambda: certify_isolating(_PAIR[0], _NODE_BLOCK, max_refine=12),
    "boundary-pieces": lambda: sorted(repr(p) for p in _squaring_pieces()),
}

OBJECTS = [
    ("isolate-plane", "8104609f867fbb7ee7311c9f030835b2a17f1f406ac16b5ef233f34e71880d1f"),
    ("isolate-empty", "c249666317405db441ba148bb08ef876e44bc9209b02224d9305ec95cce0df18"),
    ("isolate-torus", "9dac08b131b29e427f04abafb7aaf27e1aff2b52cc5feb961abc367b311796aa"),
    ("scalar-blocks", "0e272380a660ef097d5187401dad9c65b7fbcc3078ab1ce4642c33e69b5f1052"),
    ("common-blocks", "362442d84b76827aaa48f1f6c254e9a54e83d4cac70ac7e6cdfe2a076815eab6"),
    ("isolating-fails", "094e09876a419cc41ebccf9491f3a066b042343f023d1f3c7d1f09341eeabfa7"),
    ("boundary-pieces", "c59991ff7c38f776cb2efef1259a7f66cad76fb08060a38608cfb7d709f4c540"),
]


@pytest.mark.parametrize("name, sha256", OBJECTS, ids=[o[0] for o in OBJECTS])
def test_object_repr_unchanged(name, sha256):
    assert hashlib.sha256(repr(FACTORIES[name]()).encode()).hexdigest() == sha256


def test_torus_cells_and_labels_unchanged():
    # recorded with mpmath's trig enclosures: every empty leaf's cell and
    # label, without the enclosure, and every block
    res = FACTORIES["isolate-torus"]()
    decided = dataclasses.replace(res, empty_cells=tuple((c, label) for c, label, _ in res.empty_cells))
    assert hashlib.sha256(repr(decided).encode()).hexdigest() == (
        "76082e8eb16501f99dae3b6da71849457fc84450179815e38b727834afd61d47")


# The six pins above that moved when blocks became their cells, with the
# hashes they had before: a block held the Fraction box of each cell and,
# once certified, the piece count of each boundary segment; an isolation
# result printed its empty leaves as boxes; a failed boundary certificate
# listed the piece count of each segment certified before the failing one.
# Each legacy form below rebuilds that object and gives the old hash.
LEGACY_FORMS = [
    ("isolate-plane", "2f989778279816bcfd302616268acb18f98076871269265e993d0610e2915162"),
    ("isolate-empty", "f31a3611eaca6dea01f910263c721e72032bd74bfdebb5dd62cb006bb0433b9b"),
    ("isolate-torus", "717ff00ec53a84032de3e7b0549ecdc2d29747d15533daad050b8637fba6ece9"),
    ("scalar-blocks", "e2536f555622670c36a8701eb32a2e0e8c65cf02ead386369f2546fa0654e949"),
    ("common-blocks", "66bea8c89f08f8d4d9ef46e5e88e8981c2fa8f2ecdba9216cfeaa0b093a821c5"),
    ("isolating-fails", "32ba84653c5f5edfe6f26cd59ad1e3e444ef994cb239682afc3b939bbdff6d2b"),
]

_LegacyBlock = make_dataclass("ZeroBlock", ["label", "domain", "region", "resolution", "cells", "boxes",
                                            "boundary", "coarse", "certificate"], frozen=True)
_LegacyIsolation = make_dataclass("IsolationResult", ["blocks", "empty_boxes", "region", "max_depth"],
                                  frozen=True)
_LegacyCertify = make_dataclass("CertifyResult", ["ok", "pieces", "offending", "per_segment"], frozen=True)

# the zero problem whose sign certificates each moved pin's boundaries took
PROBLEMS = {
    "isolate-plane": lambda: ZeroProblem(_field_parts(_CUBIC)),
    "isolate-empty": lambda: ZeroProblem(_field_parts(_NO_ZERO)),
    "isolate-torus": lambda: ZeroProblem(_field_parts(_SINES)),
    "scalar-blocks": lambda: ZeroProblem([("value", _CIRCLE)]),
    "common-blocks": lambda: _common_problem(_PAIR),
    "isolating-fails": lambda: ZeroProblem(_field_parts(_PAIR[0])),
}


def _per_segment(problem, boundary, max_refine=MAX_SEG_REFINE):
    """(segment, number of certified pieces) of each boundary segment, in
    order, up to the first one that ``bisect`` leaves uncertified."""
    counts = []
    for loop in boundary:
        for seg in loop.segments:
            certs = [cert for _, cert in bisect(seg, problem.sign_certificate, max_refine)]
            if None in certs:
                return tuple(counts)
            counts.append((seg, len(certs)))
    return tuple(counts)


def _legacy_form(obj, problem):
    if isinstance(obj, ZeroBlock):
        boxes = tuple(fraction_cell_box(obj.region, obj.resolution, c) for c in obj.cells)
        certificate = None if obj.coarse else _per_segment(problem, obj.boundary)
        return _LegacyBlock(obj.label, obj.domain, obj.region, obj.resolution, obj.cells, boxes,
                            obj.boundary, obj.coarse, certificate)
    if isinstance(obj, IsolationResult):
        return _LegacyIsolation(_legacy_form(obj.blocks, problem), obj.empty_boxes, obj.region, obj.max_depth)
    return type(obj)(_legacy_form(blk, problem) for blk in obj)


def _legacy(name):
    """The object of a moved pin in the form it had before blocks became
    their cells."""
    obj, problem = FACTORIES[name](), PROBLEMS[name]()
    if name == "isolating-fails":
        return _LegacyCertify(obj.ok, obj.pieces, obj.offending,
                              _per_segment(problem, _NODE_BLOCK.boundary, max_refine=12))
    return _legacy_form(obj, problem)


@pytest.mark.parametrize("name, sha256", LEGACY_FORMS, ids=[o[0] for o in LEGACY_FORMS])
def test_legacy_form_unchanged(name, sha256):
    assert hashlib.sha256(repr(_legacy(name)).encode()).hexdigest() == sha256


def _as_segments(obj):
    """The object with every boundary piece replaced by its ``Segment``."""
    if isinstance(obj, DyadicSegment):
        return piece_segment(obj)
    if isinstance(obj, (BoundaryLoop, _LegacyBlock, _LegacyIsolation)):
        return dataclasses.replace(obj, **{f.name: _as_segments(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj)})
    if isinstance(obj, (tuple, list)):
        return type(obj)(_as_segments(v) for v in obj)
    return obj


# The hashes the four moved legacy forms and the boundary pieces had while
# boundaries held ``Segment``s.
SEGMENT_FORMS = [
    ("isolate-plane", "b04aed1197fc5d9a848ad5cf1c13f45fa5f0b95e989e516437808d0b535f4a2f"),
    ("isolate-torus", "80879209a2f76a30496115b2a4d6f740596cafe05744ab754b01f0eecddd16dd"),
    ("scalar-blocks", "e2923080177a4c251dfcf1ca1663566f86569c01f59c907694d139843f1abd2d"),
    ("common-blocks", "f9206888905c65e130a94980c823333e8af081cd28823a121f4d90e07e1d8f93"),
    ("boundary-pieces", "5934068d43cac4ee1fafaf7493689074a1fba3e5f845cc36e5bf81e1ef81805f"),
]


@pytest.mark.parametrize("name, sha256", SEGMENT_FORMS, ids=[o[0] for o in SEGMENT_FORMS])
def test_segment_form_unchanged(name, sha256):
    if name == "boundary-pieces":
        obj = sorted(repr(_as_segments(p)) for p in _squaring_pieces())
    else:
        obj = _as_segments(_legacy(name))
    assert hashlib.sha256(repr(obj).encode()).hexdigest() == sha256


PLOTS = [
    ("plot-squaring", ["plot", "--field", "(x^2 - y^2, 2*x*y)"],
     "8a910c29fe4b8e751fbfe2feea2257080ce64e597311d4bb1150108776fa58f5"),
    ("plot-torus", ["plot", "--field", "(sin2px, sin2py)", "--domain", "torus"],
     "24c068c7609df729e13ef40f9955c46733f95f4140869d0610afd98bf2252a81"),
]


@pytest.mark.parametrize("argv, sha256", [p[1:] for p in PLOTS], ids=[p[0] for p in PLOTS])
def test_plot_svg_unchanged(argv, sha256, tmp_path):
    svg = tmp_path / "plot.svg"
    assert run_command(argv + ["--svg-out", str(svg), "--out", str(tmp_path / "r.json")]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == sha256
