"""The three benchmark workloads: inputs from a seed, one timed pass, and
known-answer checks.

Every expected value below is written out by hand from
``src/vfzero/data/catalog.cfg`` and from the theorems the workloads
exercise; none is read back from vfzero's own output.

Each workload has ``prepare(seed)`` (set-up: import, catalog load, field
construction) and ``run(inputs)`` (the timed pass).  ``run`` returns the
number of verdicts it checked and a list of human-readable failures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

# Block indices by block label order, from catalog.cfg (expected_indices).
MAIN_INDICES = {
    "linear-node": [1],
    "linear-saddle": [-1],
    "rotation-node": [1],
    "complex-squaring": [2],
    "complex-cubing": [3],
    "conjugate-squaring": [-2],
    "odd-cube": [1],
    "two-simple-zeros": [1, 1],
    "plus-minus-one": [1, 1],
    "cubic-three-zeros": [1, 1, 1],
    "annulus-node": [0, 1],
    "torus-grid-node": [1, -1, -1, 1],
    "torus-grid-saddle": [-1, 1, 1, -1],
    "torus-shear": [1, -1, -1, 1],
    "torus-rotation": [1, -1, -1, 1],
    "torus-scaled-node": [1, -1, -1, 1],
}
NEGATIVE_CONTROL = ("negative-control-shift", [1])

# Entries tagged "stability": (isolation depth, index of block 0).
STABILITY_ENTRIES = {
    "linear-node": (6, 1),
    "linear-saddle": (6, -1),
    "rotation-node": (6, 1),
    "complex-squaring": (6, 2),
    "complex-cubing": (6, 3),
    "conjugate-squaring": (6, -2),
    "odd-cube": (6, 1),
    "torus-grid-node": (5, 1),
    "torus-grid-saddle": (5, -1),
}
# Perturbation trials per pass, spread evenly over the stability entries.
# (One criterion-5 pass of 100 trials per entry takes about 40 s on a
# 2-core x86 box, too long to repeat inside one benchmark run.)
STABILITY_TRIALS = 100

# Homogeneous plane fields of the catalog; for X homogeneous of degree k
# the radial field E = (x, y) satisfies [E, X] = (k - 1) X, so E tracks X.
HOMOGENEOUS = (
    "linear-node",
    "linear-saddle",
    "rotation-node",
    "complex-squaring",
    "complex-cubing",
    "conjugate-squaring",
    "odd-cube",
)
TRACKING_RANDOM_CASES = 400  # per identity family


def _catalog(vfzero):
    return {e.name: e for e in vfzero.builtin_catalog()}


# ---------------------------------------------------------------------------
# stability-100


def prepare_stability(seed: int, out_dir: Path):
    import vfzero

    catalog = _catalog(vfzero)
    names = list(STABILITY_ENTRIES)
    base, extra = divmod(STABILITY_TRIALS, len(names))
    trials = {name: base + (1 if k < extra else 0) for k, name in enumerate(names)}
    return {"catalog": catalog, "trials": trials, "seed": seed}


def run_stability(inputs):
    import vfzero

    failures = []
    attempted = 0
    for name, (depth, expected) in STABILITY_ENTRIES.items():
        entry = inputs["catalog"][name]
        attempted += 1
        blocks = vfzero.isolate_zeros(entry.field, entry.region, depth).blocks
        if not blocks or blocks[0].coarse:
            failures.append(f"{name}: no certified block 0")
            continue
        trials = inputs["trials"][name]
        rep = vfzero.stability_test(entry.field, blocks[0], trials=trials, seed=inputs["seed"])
        if rep.base_index != expected:
            failures.append(f"{name}: base index {rep.base_index} != {expected}")
        if not rep.indices_unchanged or rep.failures or rep.trials != trials:
            failures.append(f"{name}: index moved in trials {list(rep.failures)}")
    return attempted, failures, {}


# ---------------------------------------------------------------------------
# verify-main-d10


def prepare_verify_main(seed: int, out_dir: Path):
    import vfzero
    from vfzero import cli  # noqa: F401

    # the command loads the catalog again; loading it here keeps set-up
    # the same measure (import, catalog, fields) on every workload
    _catalog(vfzero)
    return {"seed": seed, "out": out_dir / f"verify-main-s{seed}.json"}


def run_verify_main(inputs):
    import json

    from vfzero import cli

    out = inputs["out"]
    argv = ["verify", "main", "--depth", "10", "--seed", str(inputs["seed"]), "--out", str(out)]
    code = cli.run_command(argv)
    data = out.read_bytes()
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    entries = {e["entry"]: e for e in json.loads(data)["results"]["entries"]}
    expected = dict(MAIN_INDICES)
    expected[NEGATIVE_CONTROL[0]] = NEGATIVE_CONTROL[1]
    if set(entries) != set(expected):
        failures.append(f"entries {sorted(set(entries) ^ set(expected))} missing or extra")
    for name, indices in expected.items():
        e = entries.get(name)
        if e is None:
            continue
        got = [ix for _, ix in sorted(e["block_indices"])]
        if got != indices:
            failures.append(f"{name}: indices {got} != {indices}")
        if name == NEGATIVE_CONTROL[0]:
            if e["hypotheses_ok"] or e["conclusion_holds"] or not e["missed"]:
                failures.append(f"{name}: negative control was not rejected")
        elif not (e["hypotheses_ok"] and e["conclusion_holds"]) or e["falsified"]:
            failures.append(f"{name}: hypotheses or conclusion failed")
    return len(expected), failures, {"report": data}


# ---------------------------------------------------------------------------
# tracking-algebra


def _random_poly(vfzero, rng: random.Random, deg: int, coeff: int):
    terms: dict = {}
    for _ in range(4):
        ex, ey = rng.randint(0, deg), rng.randint(0, deg)
        if ex + ey > deg:
            continue
        key = (0, ex, ey, 0, 0, 0, 0)
        terms[key] = terms.get(key, Fraction(0)) + rng.randint(-coeff, coeff)
    return vfzero.Expr("plane", {k: v for k, v in terms.items() if v})


def prepare_tracking(seed: int, out_dir: Path):
    import vfzero

    catalog = _catalog(vfzero)
    rng = random.Random(seed)
    homogeneous = [catalog[name].field for name in HOMOGENEOUS]
    x, y = vfzero.parse_expr("x"), vfzero.parse_expr("y")
    euler = []
    re, im = vfzero.parse_expr("1"), vfzero.parse_expr("0")
    for k in range(1, 7):
        re, im = re * x - im * y, re * y + im * x
        euler.append((vfzero.VectorField(x**k, y**k), k))
        euler.append((vfzero.VectorField(re, im), k))

    def field(deg, coeff):
        return vfzero.VectorField(_random_poly(vfzero, rng, deg, coeff),
                                  _random_poly(vfzero, rng, deg, coeff))

    n = TRACKING_RANDOM_CASES
    p_law = [(rng.choice(homogeneous), _random_poly(vfzero, rng, 2, 3)) for _ in range(n)]
    jacobi = [(field(3, 2), field(3, 2), field(3, 2)) for _ in range(n)]
    closure = []
    for _ in range(n):
        xf = rng.choice(homogeneous)
        closure.append((xf, _random_poly(vfzero, rng, 2, 3), rng.randint(-2, 2),
                        _random_poly(vfzero, rng, 2, 3)))
    pairs = [
        (vfzero.parse_field("(y, 0)"), vfzero.parse_field("(x^2, x*y)"), vfzero.RATIONAL_TRACKING),
        (vfzero.parse_field("(0, x)"), vfzero.parse_field("(1, 0)"), vfzero.NOT_TRACKING),
    ]
    for name in MAIN_INDICES:
        entry = catalog[name]
        pairs.extend((t, entry.field, vfzero.POLY_TRACKING) for t in entry.trackers)
    negative = catalog[NEGATIVE_CONTROL[0]]
    pairs.extend((t, negative.field, vfzero.NOT_TRACKING) for t in negative.trackers)
    return {"euler": euler, "p_law": p_law, "jacobi": jacobi, "closure": closure,
            "pairs": pairs, "E": vfzero.euler_field()}


def run_tracking(inputs):
    import vfzero

    failures = []
    attempted = 0
    e_field = inputs["E"]
    for xf, k in inputs["euler"]:
        attempted += 1
        if vfzero.lie_bracket(e_field, xf) != xf.scale(Fraction(k - 1)):
            failures.append(f"Euler identity failed for degree {k}: {xf}")
    for xf, p in inputs["p_law"]:
        # [pX, X] = -(X . grad p) X
        attempted += 1
        xp = xf.cx * p.derive("x") + xf.cy * p.derive("y")
        if vfzero.lie_bracket(xf.scale(p), xf) != xf.scale(-xp):
            failures.append(f"p*X law failed for p = {p}, X = {xf}")
    for a, b, c in inputs["jacobi"]:
        attempted += 1
        lb = vfzero.lie_bracket
        j = lb(a, lb(b, c)) + lb(b, lb(c, a)) + lb(c, lb(a, b))
        if not j.is_zero:
            failures.append(f"Jacobi identity failed: {a}, {b}, {c}")
    for xf, p, c, q in inputs["closure"]:
        # pX + cE and qX track a homogeneous X with polynomial cofactors,
        # so their bracket does too
        attempted += 1
        yf = xf.scale(p) + e_field.scale(Fraction(c))
        zf = xf.scale(q)
        rep = vfzero.bracket_closure_track(yf, zf, xf)
        if rep.status != vfzero.POLY_TRACKING:
            failures.append(f"closure of {yf}, {zf} over {xf}: {rep.status}")
    for yf, xf, status in inputs["pairs"]:
        attempted += 1
        got = vfzero.track_check(yf, xf).status
        if got != status:
            failures.append(f"track_check({yf}, {xf}) = {got}, expected {status}")
    return attempted, failures, {}


WORKLOADS = {
    "stability-100": (prepare_stability, run_stability),
    "verify-main-d10": (prepare_verify_main, run_verify_main),
    "tracking-algebra": (prepare_tracking, run_tracking),
}
