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

``plot`` writes an SVG, pinned by its own hash.
"""

import dataclasses
import hashlib

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
    BoundaryLoop,
    CertifyResult,
    DyadicCell,
    DyadicSegment,
    IsolationResult,
    ZeroBlock,
    common_zero_blocks,
    piece_segment,
)
from vfzero.cli import run_command
from vfzero.harness import _boundary_pieces

from oracles import box_block

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
# empty box's label and enclosure, each block's per-segment certificate and
# the offending segment of a failed boundary certificate.  The hashes were
# recorded before the bisection loops were merged into ``blocks.bisect``.

_R1 = Box.from_corners(-1, -1, 1, 1)
_R2 = Box.from_corners(-2, -2, 2, 2)
_TORUS = Box.from_corners(0, 0, 1, 1)


def _catalog_block(name):
    entry = next(e for e in builtin_catalog() if e.name == name)
    return entry.field, isolate_zeros(entry.field, entry.region, 6).blocks[0]


def _squaring_pieces():
    return _boundary_pieces(*_catalog_block("complex-squaring"))


FACTORIES = {
    "isolate-plane":
        lambda: isolate_zeros(parse_field("(x^3 - 3*x*y^2 - x, 3*x^2*y - y^3 - y)"), _R2, 6),
    "isolate-empty":
        lambda: isolate_zeros(parse_field("(x^2 + y^2 - 1/4, x^2 + y^2 - 1)"), _R1, 6),
    "isolate-torus":
        lambda: isolate_zeros(parse_field("(sin2px, sin2py)", "torus"), _TORUS, 5),
    "scalar-blocks":
        lambda: scalar_zero_blocks(parse_expr("x^2 + y^2 - 1"), _R2, 5),
    "common-blocks":
        lambda: common_zero_blocks([parse_field("(x, y)"), parse_field("(x^2 - y^2, 2*x*y)")],
                                   _R1, 5),
    "isolating-fails":
        lambda: certify_isolating(parse_field("(x, y)"),
                                  box_block(Box.from_corners(0, 0, 1, 1)),
                                  max_refine=12),
    "boundary-pieces": lambda: sorted(repr(p) for p in _squaring_pieces()),
}

OBJECTS = [
    ("isolate-plane", "2f989778279816bcfd302616268acb18f98076871269265e993d0610e2915162"),
    ("isolate-empty", "f31a3611eaca6dea01f910263c721e72032bd74bfdebb5dd62cb006bb0433b9b"),
    ("isolate-torus", "ce67f736aed97578c858d3447825eacfc8bbb818e42e483e4e0596666ff0f5b5"),
    ("scalar-blocks", "e2536f555622670c36a8701eb32a2e0e8c65cf02ead386369f2546fa0654e949"),
    ("common-blocks", "66bea8c89f08f8d4d9ef46e5e88e8981c2fa8f2ecdba9216cfeaa0b093a821c5"),
    ("isolating-fails", "32ba84653c5f5edfe6f26cd59ad1e3e444ef994cb239682afc3b939bbdff6d2b"),
    ("boundary-pieces", "c59991ff7c38f776cb2efef1259a7f66cad76fb08060a38608cfb7d709f4c540"),
]


@pytest.mark.parametrize("name, sha256", OBJECTS, ids=[o[0] for o in OBJECTS])
def test_object_repr_unchanged(name, sha256):
    assert hashlib.sha256(repr(FACTORIES[name]()).encode()).hexdigest() == sha256


def _as_segments(obj):
    """The object with every boundary piece replaced by its ``Segment``."""
    if isinstance(obj, DyadicSegment):
        return piece_segment(obj)
    if isinstance(obj, DyadicCell):  # an empty leaf's cell holds no piece
        return obj
    if isinstance(obj, (BoundaryLoop, CertifyResult, IsolationResult, ZeroBlock)):
        return dataclasses.replace(obj, **{f.name: _as_segments(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj)})
    if isinstance(obj, (tuple, list)):
        return type(obj)(_as_segments(v) for v in obj)
    return obj


# The hashes the five moved pins had while boundaries held ``Segment``s.
SEGMENT_FORMS = [
    ("isolate-plane", "b04aed1197fc5d9a848ad5cf1c13f45fa5f0b95e989e516437808d0b535f4a2f"),
    ("isolate-torus", "e5bd6b19df482af0e0d419e0c2bae7614b155b63355dc9112a809a3721cd1ed4"),
    ("scalar-blocks", "e2923080177a4c251dfcf1ca1663566f86569c01f59c907694d139843f1abd2d"),
    ("common-blocks", "f9206888905c65e130a94980c823333e8af081cd28823a121f4d90e07e1d8f93"),
    ("boundary-pieces", "5934068d43cac4ee1fafaf7493689074a1fba3e5f845cc36e5bf81e1ef81805f"),
]


@pytest.mark.parametrize("name, sha256", SEGMENT_FORMS, ids=[o[0] for o in SEGMENT_FORMS])
def test_segment_form_unchanged(name, sha256):
    if name == "boundary-pieces":
        obj = sorted(repr(_as_segments(p)) for p in _squaring_pieces())
    else:
        obj = _as_segments(FACTORIES[name]())
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
