"""Golden reports: the README's command-line examples (all but ``plot``,
which writes an SVG) and ``verify main --depth 10 --seed 7`` must keep
their exit codes and byte-identical JSON reports.

The hashes were recorded before the dyadic-integer enclosure kernel
replaced the Fraction loop on dyadic boxes; a change that moves any of them
changes what a user sees and needs its own justification.
"""

import hashlib

import pytest

from vfzero.cli import run_command

GOLDEN = [
    ("zeros", ["zeros", "--field", "(x, y)", "--region", "-1,-1,1,1", "--depth", "8"],
     "68aa85931cf564a153930423db80e586a5f695bbdeb7f63fad18aa27521f563b"),
    ("index", ["index", "--field", "(x^2 - y^2, 2*x*y)", "--region", "-1,-1,1,1"],
     "d78c4609cb42ae8e23e381b935f74d2a6ab79da44929fa2a47ecee15d8471e9c"),
    ("bracket", ["bracket", "--y", "(0, x)", "--x", "(1, 0)"],
     "bdd2c90a3ef0f2927e1d2709300c1a2c96215809128dbf7f17cfe5ab0b527ce1"),
    ("track", ["track", "--y", "(x, y)", "--x", "(x^2 - y^2, 2*x*y)"],
     "df8fe827159d6368d13a9149d854bc5b90306603e214becac064aadf75572dca"),
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
     "d6057c7a5180583401bcf64e6b91ad7d131388c3f47c13569d499ed85ee9532a"),
    ("verify-transfer", ["verify", "transfer", "--x", "(x, y)", "--y", "(-y, x)",
                         "--region", "-1,-1,1,1"],
     "963fe1f60a11e335dfab14f5c0f783964afef688a6d9f1fd457ec34200fb24d0"),
    ("verify-closure", ["verify", "closure", "--y", "(x, y)", "--z", "(x^2 - y^2, 2*x*y)",
                        "--x", "(x^2 - y^2, 2*x*y)"],
     "94d1ff715aa5fb4f7ab8b158aff1019a9f8419bd3ed32490c8b178528505ff7c"),
    ("verify-main-seed7", ["verify", "main", "--depth", "10", "--seed", "7"],
     "526fc4ab0c2b6ffbe1e0eefb860f959b7db0582d96203b186a68ad8c5645597e"),
]


@pytest.mark.parametrize("argv, sha256", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_report_bytes_unchanged(argv, sha256, tmp_path):
    out = tmp_path / "report.json"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
