"""In-memory span tracer for the per-layer (``--trace 1``) runs.

The tracer wraps vfzero entry points from the outside: it replaces a
function at every module attribute (and class attribute) that is bound to
it, so callers that looked the name up with ``from .x import f`` see the
wrapper too.  Each call records one span (name, start, end, parent) into
flat arrays; self time is a span's duration minus the time its child spans
cover.  Counters that describe work done are recorded in the same
wrappers, from the arguments and return values.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

_clock = time.perf_counter

# Layer metrics that are reported as self seconds, keyed by span name.
SELF_TIME_METRICS = {
    "expr.range_on.self_s": ("expr.range_on.plane", "expr.range_on.torus"),
    "expr.ring.self_s": ("expr.ring",),
    "fields.lie_bracket.self_s": ("fields.lie_bracket",),
    "intervals.atan2.self_s": ("intervals.atan2",),
    "blocks.subdivide.self_s": ("blocks.subdivide",),
    "blocks.certify_boundary.self_s": ("blocks.certify_boundary",),
    "winding.loop_winding.self_s": ("winding.loop_winding",),
    "tracking.track_check.self_s": ("tracking.track_check",),
    "harness.stability_test.self_s": ("harness.stability_test",),
    "harness.main_theorem_check.self_s": ("harness.main_theorem_check",),
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.isolate_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name, after=None, on_error=None, choose=None):
        """Return a span-recording wrapper of ``fn``.

        ``choose(args)`` may pick the span name per call; ``after(args,
        result)`` and ``on_error(exc)`` update counters.
        """
        nid = self.name_id(name) if name is not None else None
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(choose(args) if choose is not None else nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = _clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = _clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: (call count, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
        return calls, incl, self_s

    def write(self, path) -> None:
        """Write every span as tab-separated text (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\trun\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.run_id}\n"
                )


def _rebind(orig, wrapped, owners) -> int:
    """Point every attribute of ``owners`` that is bound to ``orig`` at
    ``wrapped``; returns how many bindings changed."""
    changed = 0
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, attr, wrapped)
                changed += 1
    return changed


def install(tracer: Tracer) -> None:
    """Wrap the vfzero layer entry points with span recorders."""
    import vfzero
    from vfzero import blocks, expr, fields, harness, intervals, report, tracking, winding

    modules = [vfzero] + [m for name, m in sorted(sys.modules.items())
                          if name.startswith("vfzero.") and m is not None]
    counts = tracer.counts

    def patch(owner, attr, name, **hooks):
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(orig, name, **hooks)
        if _rebind(orig, wrapped, modules + [expr.Expr]) == 0:
            raise RuntimeError(f"no binding of {attr} found to trace")

    plane_id = tracer.name_id("expr.range_on.plane")
    torus_id = tracer.name_id("expr.range_on.torus")
    patch(expr.Expr, "range_on", None,
          choose=lambda a: plane_id if a[0].domain == "plane" else torus_id)
    for attr in ("__mul__", "__add__", "__sub__", "derive"):
        patch(expr.Expr, attr, "expr.ring")
    patch(fields, "lie_bracket", "fields.lie_bracket")

    def atan2_refused(exc):
        if isinstance(exc, intervals.EnclosureError):
            counts["intervals.atan2.refused"] += 1

    patch(intervals, "atan2_range", "intervals.atan2", on_error=atan2_refused)

    def subdivided(args, result):
        retained, empties = result
        leaves = len(retained) + len(empties)
        # a full quadtree with I inner nodes has 1 + 3 I leaves
        counts["blocks.subdivide.boxes"] += leaves + (leaves - 1) // 3
        counts["blocks.subdivide.excluded"] += len(empties)
        counts["blocks.retained_cells"] += len(retained)

    patch(blocks, "_subdivide", "blocks.subdivide", after=subdivided)

    def isolated(args, result):
        tracer.isolate_keys.add(args[:3])  # (field, region, max_depth)

    patch(blocks, "isolate_zeros", "blocks.isolate", after=isolated)
    patch(blocks, "certify_isolating", "blocks.certify_isolating")

    def certified(args, result):
        counts["blocks.certify_boundary.pieces"] += result.pieces

    patch(blocks, "certify_boundary", "blocks.certify_boundary", after=certified)
    patch(winding, "block_index", "winding.block_index")

    def wound(args, result):
        counts["winding.loop_winding.pieces"] += result.pieces

    patch(winding, "_loop_winding", "winding.loop_winding", after=wound)

    def tracked(args, result):
        counts["tracking.status." + result.status.split("_")[0].lower()] += 1

    patch(tracking, "track_check", "tracking.track_check", after=tracked)

    def boundary_pieces(args, result):
        counts["harness.boundary_pieces"] += len(result)

    patch(harness, "_boundary_pieces", "harness.boundary_pieces", after=boundary_pieces)
    patch(harness, "stability_test", "harness.stability_test")
    patch(harness, "main_theorem_check", "harness.main_theorem_check")

    def emitted(args, result):
        counts["report.bytes"] += len(result.encode())

    patch(report, "emit_report", "report.emit", after=emitted)


def layer_metrics(tracer: Tracer, trig_info: dict) -> dict:
    """Per-layer metrics of one traced pass, by metric name."""
    calls, incl, self_s = tracer.totals()
    counts = tracer.counts
    out: dict = {}
    plane_n, torus_n = calls["expr.range_on.plane"], calls["expr.range_on.torus"]
    out["expr.range_on.calls"] = plane_n + torus_n
    out["expr.range_on.plane_us"] = _per(incl["expr.range_on.plane"] * 1e6, plane_n)
    out["expr.range_on.torus_us"] = _per(incl["expr.range_on.torus"] * 1e6, torus_n)
    out["expr.ring.calls"] = calls["expr.ring"]
    out["fields.lie_bracket.calls"] = calls["fields.lie_bracket"]
    out["intervals.atan2.calls"] = calls["intervals.atan2"]
    out["intervals.atan2.refused"] = counts["intervals.atan2.refused"]
    out["intervals.trig.misses"] = trig_info["misses"]
    out["intervals.trig.hit_ratio"] = _per(
        trig_info["hits"], trig_info["hits"] + trig_info["misses"])
    boxes = counts["blocks.subdivide.boxes"]
    out["blocks.subdivide.boxes"] = boxes
    out["blocks.subdivide.excluded_ratio"] = _per(counts["blocks.subdivide.excluded"], boxes)
    out["blocks.subdivide.boxes_per_s"] = _per(boxes, incl["blocks.subdivide"])
    out["blocks.retained_cells"] = counts["blocks.retained_cells"]
    out["blocks.isolate.calls"] = calls["blocks.isolate"]
    out["blocks.isolate.distinct_keys"] = len(tracer.isolate_keys)
    out["blocks.certify_boundary.pieces"] = counts["blocks.certify_boundary.pieces"]
    out["winding.block_index.calls"] = calls["winding.block_index"]
    out["winding.loop_winding.calls"] = calls["winding.loop_winding"]
    pieces = counts["winding.loop_winding.pieces"]
    out["winding.loop_winding.pieces"] = pieces
    out["winding.loop_winding.us_per_piece"] = _per(incl["winding.loop_winding"] * 1e6, pieces)
    out["tracking.track_check.calls"] = calls["tracking.track_check"]
    for status in ("poly", "rational", "not"):
        out[f"tracking.status.{status}"] = counts[f"tracking.status.{status}"]
    out["harness.boundary_pieces"] = counts["harness.boundary_pieces"]
    out["report.emit_s"] = incl["report.emit"]
    out["report.bytes"] = counts["report.bytes"]
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_s[n] for n in names)
    out["trace.spans"] = len(tracer.start)
    # the layer with the most self time, for the run summary
    layers = {n: s for n, s in self_s.items() if n != "pass"}
    out["_top_self"] = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
    out["_unattributed_s"] = self_s["pass"]
    return out


# Counters that must repeat exactly between passes of one seed.
EXACT_COUNTERS = (
    "expr.range_on.calls",
    "blocks.subdivide.boxes",
    "blocks.retained_cells",
    "blocks.isolate.calls",
    "blocks.isolate.distinct_keys",
    "winding.loop_winding.pieces",
    "blocks.certify_boundary.pieces",
    "intervals.atan2.calls",
    "intervals.atan2.refused",
    "intervals.trig.misses",
    "expr.ring.calls",
    "fields.lie_bracket.calls",
    "tracking.track_check.calls",
    "tracking.status.poly",
    "tracking.status.rational",
    "tracking.status.not",
    "harness.boundary_pieces",
    "report.bytes",
)


def _per(num, den):
    return num / den if den else 0.0
