"""Theorem harnesses over a catalog of field instances.

Each harness exercises one checked statement on concrete data:

* invariance of zero sets and dependency sets under tracking flows,
* index stability under certified-magnitude perturbations,
* vanishing index sum on the torus,
* the common-zero conclusion for essential blocks and their trackers.

Harnesses return reports instead of raising on falsification, so callers
(CLI, acceptance suite) decide how loud a counterexample should be.  The
catalog itself is plain data; new instances and attempted counterexamples
go into the catalog file, not into code.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .blocks import (
    ZeroBlock,
    enclose,
    index_blocks,
    isolate_zeros,
    lattice_box,
    loop_certificates,
    window_cells,
    witness,
)
from .errors import CertificationError, SeedRefinementError
from .expr import Expr
from .fields import VectorField, jacobian, parse_field
from .flows import flow_integrate
from .intervals import Box, Interval
from .tracking import POLY_TRACKING, TrackReport, dep_set, track_check
from .winding import block_index

# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    domain: str
    field: VectorField
    trackers: tuple[VectorField, ...]
    region: Box
    expected_blocks: Optional[int]
    expected_indices: Optional[tuple[int, ...]]
    provenance: str
    tags: frozenset[str]
    notes: str = ""

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def parse_region(text: str) -> Box:
    try:
        parts = [Fraction(p.strip()) for p in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"region has a zero denominator: {text!r}") from None
    if len(parts) != 4:
        raise ValueError(f"region needs 4 comma-separated rationals, got {text!r}")
    x0, y0, x1, y1 = parts
    return Box(Interval(x0, x1), Interval(y0, y1))


def _split_fields(text: str) -> list[str]:
    """The ';'-separated pieces of a field list, without an empty last
    piece (a trailing ';'); the expression grammar has no ';'."""
    pieces = text.split(";")
    return pieces if pieces[-1].strip() else pieces[:-1]


def _catalog_value(name: str, sec, key: str, parse, allowed: str):
    """``parse`` of a catalog key's text, or None when the key is missing
    or empty; a ``ValueError`` from ``parse`` becomes one that names the
    section, the key and the ``allowed`` values."""
    text = sec.get(key)
    if not text:
        return None
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"catalog section [{name}] key {key!r}: {text!r} is not {allowed}") from None


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(n)
    return n


def load_catalog(text: str) -> list[CatalogEntry]:
    """Parse catalog entries from the INI-style catalog format; a malformed
    catalog, a section without ``x`` or ``region``, or a key that does not
    parse (``x``, ``trackers``, ``region``, a ``domain`` other than
    ``plane`` or ``torus``, an ``expected_blocks``/``expected_indices`` that
    is not an integer/a list of integers) raises ``ValueError`` naming the
    section and the key."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed catalog: {exc}") from exc
    entries = []
    for name in cp.sections():
        sec = cp[name]
        for key in ("x", "region"):
            if not sec.get(key):
                raise ValueError(f"catalog section [{name}] has no {key!r} key")
        domain = sec.get("domain", "plane").strip()
        if domain not in ("plane", "torus"):
            raise ValueError(f"catalog section [{name}] key 'domain': {domain!r} is not 'plane' or 'torus'")
        entries.append(
            CatalogEntry(
                name=name,
                domain=domain,
                field=_catalog_value(name, sec, "x", lambda t: parse_field(t, domain),
                                     f"a {domain} field '(ex, ey)'"),
                trackers=_catalog_value(
                    name, sec, "trackers", lambda t: tuple(parse_field(f.strip(), domain) for f in _split_fields(t)),
                    f"a ';'-separated list of {domain} fields") or (),
                region=_catalog_value(name, sec, "region", parse_region, "a region 'x0, y0, x1, y1' of rationals"),
                expected_blocks=_catalog_value(name, sec, "expected_blocks", _count, "an integer >= 0"),
                expected_indices=_catalog_value(
                    name, sec, "expected_indices", lambda t: tuple(int(v) for v in t.split(",")),
                    "a comma-separated list of integers"),
                provenance=sec.get("provenance", ""),
                tags=frozenset(t.strip() for t in sec.get("tags", "").split(",") if t.strip()),
                notes=sec.get("notes", ""),
            )
        )
    return entries


def builtin_catalog() -> list[CatalogEntry]:
    text = resources.files("vfzero").joinpath("data/catalog.cfg").read_text()
    return load_catalog(text)


# ---------------------------------------------------------------------------
# seed refinement (float Gauss-Newton onto the zero set)


# seed refinement stops once max(|F_x|, |F_y|) < SEED_TOL, and gives up
# after SEED_MAX_ITER Gauss-Newton steps
SEED_TOL = 1e-11
SEED_MAX_ITER = 80


def refine_seed(field: VectorField, p0: tuple[float, float]) -> tuple[float, float]:
    """Polish a point onto Z(field) by damped Gauss-Newton on |F|^2.

    Works for zero manifolds as well as isolated zeros (the normal
    equations are regularized, so rank-deficient Jacobians descend to the
    nearest zero curve instead of diverging).  A value past the float
    range, from a coefficient or a power, raises ``SeedRefinementError``.
    """
    jac = jacobian(field)
    x, y = float(p0[0]), float(p0[1])
    try:
        for _ in range(SEED_MAX_ITER):
            fx, fy = field.eval_float(x, y)
            if max(abs(fx), abs(fy)) < SEED_TOL:
                return (x, y)
            a = jac.dxx.eval_float(x, y)
            b = jac.dxy.eval_float(x, y)
            c = jac.dyx.eval_float(x, y)
            d = jac.dyy.eval_float(x, y)
            # normal equations J^T J s = -J^T F with Levenberg damping
            g1 = a * fx + c * fy
            g2 = b * fx + d * fy
            m11 = a * a + c * c
            m12 = a * b + c * d
            m22 = b * b + d * d
            lam = 1e-12 + 1e-8 * (m11 + m22)
            det = (m11 + lam) * (m22 + lam) - m12 * m12
            if det == 0:
                raise SeedRefinementError(f"singular refinement system at ({x:.6g}, {y:.6g})")
            sx = (-(g1) * (m22 + lam) + g2 * m12) / det
            sy = (-(g2) * (m11 + lam) + g1 * m12) / det
            x, y = x + sx, y + sy
        fx, fy = field.eval_float(x, y)
    except OverflowError:
        raise SeedRefinementError(f"field value past the float range at ({x:.6g}, {y:.6g})") from None
    if max(abs(fx), abs(fy)) < SEED_TOL:
        return (x, y)
    raise SeedRefinementError(
        f"seed refinement stalled at ({x:.6g}, {y:.6g}), residual {max(abs(fx), abs(fy)):.3g}"
    )


def _block_seeds(field: VectorField, block: ZeroBlock, per_block: int) -> list[tuple[float, float]]:
    n = len(block.cells)
    take = [(n * k) // per_block for k in range(min(per_block, n))]
    seeds = []
    for k in dict.fromkeys(take):
        i, j = block.cells[k]
        cx, cy = lattice_box(block.region, block.resolution, i, j, i, j).midpoint()
        seeds.append(refine_seed(field, (float(cx), float(cy))))
    return seeds


# ---------------------------------------------------------------------------
# invariance harness


@dataclass(frozen=True)
class InvarianceReport:
    target: str
    tracker_status: str
    seeds: tuple[tuple[float, float], ...]
    max_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol


def invariance_test(
    x_field: VectorField,
    y_field: VectorField,
    region: Box,
    target: str = "zeros",
    tol: float = 1e-6,
    h: float = 1e-3,
    max_depth: int = 8,
) -> InvarianceReport:
    """Flow up to four seeds per block on Z(X) (or on the dependency set)
    along the Y-flow for t in [-1, 1] and measure how far the flowed points
    drift off the invariant set.

    The residual scales with integrator error and seed polish, not with
    the invariance statement itself, which is exact.  A region without a
    block raises ``ValueError``; an identically dependent pair needs no
    flow and gives a report without seeds.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol}")
    # checked here too: with no seed to flow, flow_integrate never sees h
    if not 0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, not {h}")
    rep = track_check(y_field, x_field)
    if not rep.tracking:
        raise ValueError("precondition failed: Y does not track X")
    if target == "zeros":
        blocks = isolate_zeros(x_field, region, max_depth).blocks
        residual_expr = None
    elif target == "dependency":
        ds = dep_set(x_field, y_field, region, max_depth)
        if ds.identically_dependent:
            return InvarianceReport(target, rep.status, (), 0.0, tol)
        blocks = ds.blocks
        residual_expr = ds.wedge
    else:
        raise ValueError("target must be 'zeros' or 'dependency'")
    if not blocks:
        raise ValueError("region holds no zero block; nothing to verify")

    def residual(px: float, py: float) -> float:
        if residual_expr is not None:
            return abs(residual_expr.eval_float(px, py))
        fx, fy = x_field.eval_float(px, py)
        return max(abs(fx), abs(fy))

    seed_source = x_field if residual_expr is None else _scalar_gradient_field(residual_expr)
    seeds: list[tuple[float, float]] = []
    for blk in blocks:
        seeds.extend(_block_seeds(seed_source, blk, 4))
    worst = 0.0
    for seed in seeds:
        for f in (y_field, -y_field):
            traj = flow_integrate(f, seed, 1.0, h)
            for px, py in traj.points:
                worst = max(worst, residual(px, py))
    return InvarianceReport(target, rep.status, tuple(seeds), worst, tol)


def _scalar_gradient_field(e: Expr) -> VectorField:
    # the field (e, 0), which vanishes exactly on {e = 0}, so that the
    # Gauss-Newton polish of refine_seed takes seeds onto the scalar zero set
    return VectorField(e, Expr.zero(e.domain))


# ---------------------------------------------------------------------------
# stability harness


@dataclass(frozen=True)
class StabilityReport:
    block: str
    base_index: int
    trials: int
    indices_unchanged: bool
    epsilon_min: Fraction
    epsilon_max: Fraction
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.indices_unchanged


def _boundary_pieces(field: VectorField, block: ZeroBlock):
    """(piece, cx enclosure, cy enclosure) of every piece of the field's
    loop certificates on the block boundary (``blocks.loop_certificates``):
    one component's enclosure excludes zero on each, so the field's
    enclosure excludes the origin.  An uncertified loop raises."""
    pieces = []
    for pairs, failed in loop_certificates(field, block):
        if failed is not None:
            raise CertificationError("field magnitude bound not certifiable on boundary")
        pieces.extend((piece, Interval.from_ints(*enclose(field.cx, piece)),
                       Interval.from_ints(*enclose(field.cy, piece))) for piece, _ in pairs)
    return pieces


_PLANE_PERTURBATION_KEYS = [
    (0, ex, ey, 0, 0, 0, 0) for ex in range(4) for ey in range(4 - ex)
]
_TORUS_PERTURBATION_KEYS = [
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
]


def _random_perturbation(domain: str, rng: random.Random) -> VectorField:
    keys = _PLANE_PERTURBATION_KEYS if domain == "plane" else _TORUS_PERTURBATION_KEYS
    comps = []
    for _ in range(2):
        terms = {}
        for key in keys:
            c = rng.randint(-64, 64)
            if c:
                terms[key] = Fraction(c, 64)
        comps.append(Expr(domain, terms))
    return VectorField(comps[0], comps[1])


def stability_test(
    x_field: VectorField,
    block: ZeroBlock,
    trials: int = 100,
    seed: int = 0,
) -> StabilityReport:
    """Perturb the field by random polynomials at a certified-safe scale
    and confirm the block index never moves.

    The scale is eps = m / (2 s) with m a certified lower bound for |X| and
    s an upper bound for |P| on the block boundary (sup norm, piecewise),
    which keeps the straight-line deformation nonsingular there.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not block.boundary:
        raise ValueError(f"block {block.label} has no boundary to bound the perturbation against")
    base = block_index(x_field, block).index
    pieces = _boundary_pieces(x_field, block)
    m = min(max(rx.mig(), ry.mig()) for _, rx, ry in pieces)
    if m <= 0:
        raise CertificationError("no positive lower field bound on the boundary")
    rng = random.Random(seed)
    failures = []
    eps_seen: list[Fraction] = []
    for trial in range(trials):
        pert = _random_perturbation(x_field.domain, rng)
        if pert.is_zero:
            eps_seen.append(Fraction(1))
            continue
        # s = max |P| over the pieces, kept as the fraction s_num / s_den
        s_num, s_den = 0, 1
        for piece, _, _ in pieces:
            for lo, hi, den in (enclose(pert.cx, piece), enclose(pert.cy, piece)):
                mag = max(-lo, hi)
                if mag * s_den > s_num * den:
                    s_num, s_den = mag, den
        eps = Fraction(1) if s_num == 0 else m / (2 * Fraction(s_num, s_den))
        eps_seen.append(eps)
        perturbed = x_field + pert.scale(eps)
        if block_index(perturbed, block).index != base:
            failures.append(trial)
    return StabilityReport(
        block=block.label,
        base_index=base,
        trials=trials,
        indices_unchanged=not failures,
        epsilon_min=min(eps_seen),
        epsilon_max=max(eps_seen),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# torus index sum


@dataclass(frozen=True)
class PoincareHopfReport:
    indices: tuple[tuple[str, int], ...]
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 0


TORUS_SQUARE = Box(Interval(Fraction(0), Fraction(1)), Interval(Fraction(0), Fraction(1)))


def poincare_hopf_check(field: VectorField, max_depth: int = 6) -> PoincareHopfReport:
    """Sum of block indices over the whole torus; zero for every field with
    certifiable blocks, matching the Euler characteristic of the torus."""
    if field.domain != "torus":
        raise ValueError("poincare_hopf_check runs on torus fields")
    result = isolate_zeros(field, TORUS_SQUARE, max_depth)
    indices = [(blk.label, block_index(field, blk).index) for blk in result.blocks]
    return PoincareHopfReport(tuple(indices), sum(ix for _, ix in indices))


# ---------------------------------------------------------------------------
# common-zero theorem harness


@dataclass(frozen=True)
class Witness:
    tracker: str  # "Y0", "Y1", ... or "common"
    block: str
    box: Box


@dataclass(frozen=True)
class MainTheoremReport:
    """The common-zero check of one catalog entry.

    ``block_indices`` holds the records of ``blocks.index_blocks``: the
    rest of Z(X) outside the blocks (("G", 0) on its factored path), then
    (label, index) of each block in label order."""

    entry: str
    tracker_statuses: tuple[str, ...]
    hypotheses_ok: bool
    block_indices: tuple[tuple[str, int], ...]
    essential_blocks: tuple[str, ...]
    witnesses: tuple[Witness, ...]
    missed: tuple[tuple[str, str], ...]  # (tracker, essential block) with no witness
    conclusion_holds: bool

    @property
    def falsified(self) -> bool:
        return self.hypotheses_ok and not self.conclusion_holds


def main_theorem_check(entry: CatalogEntry, max_depth: int = 8) -> MainTheoremReport:
    """Check the common-zero conclusion on one catalog entry.

    Pipeline: classify every tracker symbolically; isolate Z(X) and find
    the essential (nonzero-index) blocks; demand that the cover of every
    tracker's zero set, and of the common zero set of all trackers, meets
    every essential block's cover, emitting witness boxes.

    X's blocks, the field W whose loop certificates give their indices,
    and the index-0 rest of Z(X) come from ``blocks.index_blocks``: the
    whole-region isolation of X, or the blocks of V = X / g for a scalar
    factor g of X, which leave X itself unenclosed.

    Each zero set gives one set of retained cells around the essential
    blocks, and ``blocks.witness`` decides each essential block from it:
    ``blocks.window_cells`` reads a tracker equal to W, the field the
    blocks were isolated for, off the blocks' own cells and bisects the
    windows once for any other tracker, and the common zero set's cells
    are the intersection of the trackers' sets.  No tracker's zero set,
    and not the common one, is isolated over the whole region.  When a
    tracker fails the tracking hypothesis the conclusion is still
    evaluated and reported (negative controls).
    """
    reports: list[TrackReport] = [track_check(y, entry.field) for y in entry.trackers]
    statuses = tuple(r.status for r in reports)
    hypotheses_ok = bool(reports) and all(r.status == POLY_TRACKING for r in reports)

    rest, w, x_blocks = index_blocks(entry.field, entry.region, max_depth)
    for blk in x_blocks:
        if blk.coarse:
            raise CertificationError(f"coarse block {blk.label} in {entry.name}")
    indices = rest + tuple((blk.label, block_index(w, blk).index) for blk in x_blocks)
    essential = tuple(label for label, ix in indices if ix != 0)
    essential_blocks = [blk for blk in x_blocks if blk.label in essential]

    witnesses: list[Witness] = []
    missed: list[tuple[str, str]] = []

    def check_cover(tag: str, cells):
        for blk in essential_blocks:
            box = witness(blk, cells)
            if box is None:
                missed.append((tag, blk.label))
            else:
                witnesses.append(Witness(tag, blk.label, box))

    kept = []
    for k, y in enumerate(entry.trackers):
        if y.is_zero:
            raise ValueError(f"tracker {k} of {entry.name} is the zero field")
        kept.append(window_cells(y, essential_blocks))
        check_cover(f"Y{k}", kept[-1])
    if entry.trackers:
        check_cover("common", set.intersection(*kept))

    return MainTheoremReport(
        entry=entry.name,
        tracker_statuses=statuses,
        hypotheses_ok=hypotheses_ok,
        block_indices=indices,
        essential_blocks=essential,
        witnesses=tuple(witnesses),
        missed=tuple(missed),
        conclusion_holds=not missed,
    )
