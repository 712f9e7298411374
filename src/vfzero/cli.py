"""Command-line front end.

Subcommands: zeros | index | bracket | track | dep | common | verify | plot.
Every run prints (or writes with --out) one JSON report whose exact values
are string-encoded rationals.  Exit codes: 0 success, 1 falsification of a
checked statement, 2 certification failure, 3 usage error, 4 internal
error (any other exception, printed with its traceback).
"""

from __future__ import annotations

import argparse
import re as _re
import sys
from typing import Optional

from . import __version__
from .blocks import common_zero_blocks, isolate_zeros
from .errors import CertificationError, FalsificationError, FlowEscapeError, SeedRefinementError
from .fields import lie_bracket, parse_field
from .harness import (
    builtin_catalog,
    invariance_test,
    load_catalog,
    main_theorem_check,
    parse_region,
    poincare_hopf_check,
    stability_test,
)
from .intervals import Box
from .report import emit_report, jsonable
from .svg import phase_portrait_svg
from .tracking import bracket_closure_track, dep_set, track_check
from .winding import block_index, index_transfer_check

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_CERTIFICATION = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # let "-1,-1,1,1" style region values pass as arguments
        self._negative_number_matcher = _re.compile(r"^-\d")

    def error(self, message):  # argparse API override
        raise UsageError(message)


def _region(args) -> Box:
    text = args.region
    if text is None:
        text = "0, 0, 1, 1" if args.domain == "torus" else "-2, -2, 2, 2"
    return parse_region(text)


def _block_summary(blk) -> dict:
    return {
        "label": blk.label,
        "resolution": blk.resolution,
        "coarse": blk.coarse,
        "cell_count": len(blk.cells),
        "hull": blk.hull(),
        "boundary_loops": len(blk.boundary),
    }


# ---------------------------------------------------------------------------
# handlers: return (results, certificates, exit_code)


def _cmd_zeros(args):
    field = parse_field(args.field, args.domain)
    res = isolate_zeros(field, _region(args), args.depth)
    coarse = any(b.coarse for b in res.blocks)
    results = {
        "blocks": [_block_summary(b) for b in res.blocks],
        "certified_empty": res.fully_certified_empty,
        "coarse": coarse,
    }
    certs = {"empty_boxes": len(res.empty_cells)}
    return results, certs, (EXIT_CERTIFICATION if coarse else EXIT_OK)


def _cmd_index(args):
    field = parse_field(args.field, args.domain)
    res = isolate_zeros(field, _region(args), args.depth)
    if any(b.coarse for b in res.blocks):
        return (
            {"blocks": [_block_summary(b) for b in res.blocks], "coarse": True},
            {},
            EXIT_CERTIFICATION,
        )
    reports = [block_index(field, b) for b in res.blocks]
    results = {
        "blocks": [{**_block_summary(b), **jsonable(r)} for b, r in zip(res.blocks, reports)],
        "total_index": sum(r.index for r in reports),
        "coarse": False,
    }
    certs = {"empty_boxes": len(res.empty_cells)}
    return results, certs, EXIT_OK


def _cmd_bracket(args):
    y = parse_field(args.y, args.domain)
    x = parse_field(args.x, args.domain)
    b = lie_bracket(y, x)
    return {"bracket": b}, {}, EXIT_OK


def _cmd_track(args):
    y = parse_field(args.y, args.domain)
    x = parse_field(args.x, args.domain)
    rep = track_check(y, x)
    results = {
        "status": rep.status,
        "cofactor": rep.cofactor,
        "cofactor_num": rep.cofactor_num,
        "cofactor_den": rep.cofactor_den,
        "wedge_residual": rep.wedge_residual,
        "caveat": rep.caveat,
    }
    return results, {}, EXIT_OK


def _cmd_dep(args):
    x = parse_field(args.x, args.domain)
    y = parse_field(args.y, args.domain)
    res = dep_set(x, y, _region(args), args.depth)
    results = {
        "wedge": res.wedge,
        "identically_dependent": res.identically_dependent,
        "blocks": [_block_summary(b) for b in res.blocks],
    }
    return results, {}, EXIT_OK


def _cmd_common(args):
    fields = [parse_field(t, args.domain) for t in args.field]
    blocks = common_zero_blocks(fields, _region(args), args.depth).blocks
    coarse = any(b.coarse for b in blocks)
    results = {
        "blocks": [_block_summary(b) for b in blocks],
        "certified_empty": not blocks,
        "coarse": coarse,
    }
    return results, {}, (EXIT_CERTIFICATION if coarse else EXIT_OK)


def _cmd_verify_ph(args):
    field = parse_field(args.field, "torus")
    rep = poincare_hopf_check(field, args.depth)
    results = {
        "blocks": [{"block": label, "index": ix} for label, ix in rep.indices],
        "sum": rep.total,
        "ok": rep.ok,
    }
    return results, {}, (EXIT_OK if rep.ok else EXIT_FALSIFIED)


def _cmd_verify_main(args):
    if args.catalog:
        with open(args.catalog) as fh:
            entries = load_catalog(fh.read())
    else:
        entries = builtin_catalog()
    if args.entry:
        entries = [e for e in entries if e.name == args.entry]
        if not entries:
            raise UsageError(f"no catalog entry named {args.entry!r}")
    else:
        entries = [e for e in entries if e.has_tag("main") or e.has_tag("negative")]
        if not entries:
            raise UsageError("no catalog entry tagged main or negative; nothing to verify")
    reports = [main_theorem_check(e, args.depth) for e in entries]
    falsified = any(r.falsified for r in reports)
    results = {
        "entries": [{**jsonable(r), "falsified": r.falsified} for r in reports],
        "falsified": falsified,
    }
    return results, {}, (EXIT_FALSIFIED if falsified else EXIT_OK)


def _blocks_to_verify(field, args):
    """The blocks a per-block check runs on; a region without one would
    make the check pass vacuously, so it is a usage error."""
    blocks = isolate_zeros(field, _region(args), args.depth).blocks
    if not blocks:
        raise ValueError("region holds no zero block; nothing to verify")
    return blocks


def _cmd_verify_stability(args):
    field = parse_field(args.field, args.domain)
    blocks = _blocks_to_verify(field, args)
    reports = [stability_test(field, blk, trials=args.trials, seed=args.seed) for blk in blocks]
    ok = all(r.ok for r in reports)
    results = {"reports": reports, "ok": ok}
    return results, {}, (EXIT_OK if ok else EXIT_FALSIFIED)


def _cmd_verify_invariance(args):
    x = parse_field(args.x, args.domain)
    y = parse_field(args.y, args.domain)
    rep = invariance_test(x, y, _region(args), target=args.target, tol=args.tol, h=args.step,
                          max_depth=args.depth)
    return {"report": rep, "ok": rep.ok}, {}, (EXIT_OK if rep.ok else EXIT_FALSIFIED)


def _cmd_verify_transfer(args):
    x = parse_field(args.x, args.domain)
    y = parse_field(args.y, args.domain)
    blocks = _blocks_to_verify(x, args)
    reports = [index_transfer_check(x, y, blk, args.mode) for blk in blocks]
    certified = all(r.certified for r in reports)
    results = {"reports": reports, "all_certified": certified}
    return results, {}, (EXIT_OK if certified else EXIT_CERTIFICATION)


def _cmd_verify_closure(args):
    y = parse_field(args.y, args.domain)
    z = parse_field(args.z, args.domain)
    x = parse_field(args.x, args.domain)
    rep = bracket_closure_track(y, z, x)
    results = {"status": rep.status, "cofactor": rep.cofactor, "caveat": rep.caveat}
    return results, {}, EXIT_OK


def _cmd_plot(args):
    field = parse_field(args.field, args.domain)
    res = isolate_zeros(field, _region(args), args.depth)
    svg = phase_portrait_svg(field, _region(args), res.blocks)
    with open(args.svg_out, "w") as fh:
        fh.write(svg)
    results = {
        "svg": args.svg_out,
        "blocks": [_block_summary(b) for b in res.blocks],
    }
    return results, {}, EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


_SHARED = {  # the options several commands share; each names those it reads
    "domain": dict(choices=["plane", "torus"], default="plane"),
    "region": dict(default=None, help="x0,y0,x1,y1 (rationals)"),
    "depth": dict(type=int, default=7),
    "seed": dict(type=int, default=0),
}


def _add_shared(p, *names):
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--out", default=None, help="write the JSON report here")


def build_parser() -> _Parser:
    parser = _Parser(prog="vfzero", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vfzero {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="isolate certified zero blocks")
    p.add_argument("--field", required=True)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("index", help="certified block indices via winding numbers")
    p.add_argument("--field", required=True)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("bracket", help="Lie bracket [Y, X]")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    _add_shared(p, "domain")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("track", help="tracking classification with cofactor")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    _add_shared(p, "domain")
    p.set_defaults(handler=_cmd_track)

    p = sub.add_parser("dep", help="dependency set of two fields")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_dep)

    p = sub.add_parser("common", help="common zero blocks of several fields")
    p.add_argument("--field", action="append", required=True)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_common)

    pv = sub.add_parser("verify", help="theorem harnesses")
    vsub = pv.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("ph", help="index sum on the torus")
    p.add_argument("--field", required=True)
    _add_shared(p, "depth")
    p.set_defaults(handler=_cmd_verify_ph)

    p = vsub.add_parser("main", help="common-zero conclusion over the catalog")
    p.add_argument("--catalog", default=None)
    p.add_argument("--entry", default=None)
    # it draws nothing at random, but perfbench/workloads.py passes a seed
    _add_shared(p, "depth", "seed")
    p.set_defaults(handler=_cmd_verify_main)

    p = vsub.add_parser("stability", help="index stability under certified perturbations")
    p.add_argument("--field", required=True)
    p.add_argument("--trials", type=int, default=100)
    _add_shared(p, "domain", "region", "depth", "seed")
    p.set_defaults(handler=_cmd_verify_stability)

    p = vsub.add_parser("invariance", help="flow invariance of zero/dependency sets")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--target", choices=["zeros", "dependency"], default="zeros")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--step", type=float, default=1e-3)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_verify_invariance)

    p = vsub.add_parser("transfer", help="index transfer between never-antiparallel fields")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=["no-negative-ratio", "no-positive-ratio"],
                   default="no-negative-ratio")
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_verify_transfer)

    p = vsub.add_parser("closure", help="bracket of two trackers still tracks")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--x", required=True)
    _add_shared(p, "domain")
    p.set_defaults(handler=_cmd_verify_closure)

    p = sub.add_parser("plot", help="SVG phase portrait with zero blocks")
    p.add_argument("--field", required=True)
    p.add_argument("--svg-out", required=True)
    _add_shared(p, "domain", "region", "depth")
    p.set_defaults(handler=_cmd_plot)

    return parser


def _config_dict(args) -> dict:
    skip = {"handler", "out", "command", "suite"}  # command and suite give the report's "command"
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run_command(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results, certificates, code = args.handler(args)
        payload = {
            "command": args.command if args.command != "verify" else f"verify {args.suite}",
            "config": _config_dict(args),
            "results": results,
            "certificates": certificates,
            "version": __version__,
        }
        text = emit_report(payload, args.out)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (CertificationError, SeedRefinementError, FlowEscapeError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (UsageError, ValueError, OSError) as exc:
        # ParseError and DomainError are ValueErrors; an OSError comes from
        # reading --catalog or writing --out or --svg-out
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault of the program, not a verdict: never the falsification
        # code; traceback is imported here, as it adds to every start-up
        import traceback

        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    if not args.out:
        sys.stdout.write(text)
    return code


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(run_command(argv))


if __name__ == "__main__":
    main()
