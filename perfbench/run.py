"""vfzero benchmark: certified-verdict workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload stability-100 --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.py`` has the inputs and known answers):

* ``stability-100``: 100 certified perturbation trials per pass over the
  nine stability-tagged catalog entries (criterion 5 shape).  Load:
  winding numbers and boundary certification of perturbed fields.
* ``verify-main-d10``: ``vfzero verify main --depth 10`` through
  ``vfzero.cli.run_command`` (criterion 9 shape).  Load: quadtree
  subdivision at depth 10, 42 isolations with repeated keys, CLI/JSON.
* ``tracking-algebra``: Euler identity, p*X law, Jacobi identity, bracket
  closure and fixed ``track_check`` outcomes (criterion 7 shape).  Load:
  symbolic ring operations; no interval enclosures at all.

The loop is closed and single-threaded: each pass starts when the previous
one returns, and every pass runs in a fresh interpreter, so import,
catalog parse and the trig cache are paid as a CLI user pays them.
Passes repeat until ``--seconds`` would be exceeded (at least two).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several fresh-interpreter set-ups), ``solve_s`` and ``solve_cpu_s``
(median wall and CPU seconds of a pass), ``peak_rss_mb`` (median peak RSS
of the pass process).  ``--trace 1`` runs one untraced and two traced
passes and prints the per-layer metrics, checking that the exact work
counters of the two traced passes agree.  Failed verdicts over attempted
ones are the result's ``failed`` / ``attempted``.  The last line of
standard output is the JSON result; the exit code is nonzero when any
verdict or check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

MIN_PASSES = 2
SETUP_PER_PASS = 1
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run must end within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
from tracer import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def _source_tree_present() -> bool:
    pkg = ROOT / "src" / "vfzero"
    return (pkg / "__init__.py").is_file() and (pkg / "data" / "catalog.cfg").is_file()


def _build() -> None:
    """Byte-compile the package once, as an installed CLI would have it."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "vfzero")],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"compileall failed: {proc.stdout}{proc.stderr}")


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def child(self, mode: str, run_id: int = 0) -> dict:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(ROOT), self.workload, str(self.seed), mode, str(run_id)],
            capture_output=True, text=True, timeout=timeout, cwd=str(ROOT), env=env,
        )
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(passes) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "mpmath_backend": passes[0]["mpmath_backend"],
        "machine": platform.machine(),
    }


def run_end_to_end(runner: Runner, seconds: float):
    start = time.perf_counter()
    passes = []
    setups = []
    while True:
        passes.append(runner.child("pass", len(passes)))
        # set-up samples spread over the run, so that one slow spell of a
        # shared machine does not decide the median
        setups += [runner.child("setup")["setup_s"] for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])

    problems = []
    # exact work that must repeat between passes of one seed
    for key in ("trig", "attempted", "report_sha256", "report_bytes"):
        values = {json.dumps(p.get(key), sort_keys=True) for p in passes}
        if len(values) != 1:
            problems.append(f"{key} differs between passes of one seed: {sorted(values)}")
    metrics = {
        "setup_s": median(setups),
        "solve_s": median(p["solve_s"] for p in passes),
        "solve_cpu_s": median(p["solve_cpu_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    walls = sorted(p["solve_s"] for p in passes)
    summary = [
        f"solve_s median {metrics['solve_s']:.4f} s over {len(passes)} passes "
        f"(min {walls[0]:.4f}, max {walls[-1]:.4f})",
        f"setup_s median {metrics['setup_s']:.4f} s over {len(setups)} fresh interpreters",
    ]
    return passes, metrics, problems, summary


def run_traced(runner: Runner):
    untraced = runner.child("pass", 0)
    traced = [runner.child("traced", k) for k in (1, 2)]
    passes = [untraced] + traced
    problems = []
    first, second = (t["layers"] for t in traced)
    for key in EXACT_COUNTERS:
        if first[key] != second[key]:
            problems.append(f"work counter {key} differs between traced passes: "
                            f"{first[key]} != {second[key]}")
    if len({p.get("report_sha256") for p in passes}) != 1:
        problems.append("report bytes differ between passes of one seed")
    metrics = {}
    for key, value in first.items():
        if key.startswith("_"):
            continue
        if key.endswith(("_s", "_us")):  # timings: median of the traced passes
            value = median([first[key], second[key]])
        metrics[key] = value
    traced_wall = median(t["solve_s"] for t in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced["solve_s"]
    top = ", ".join(f"{name} {s:.3f} s" for name, s in first["_top_self"])
    summary = [
        f"traced pass {traced_wall:.4f} s vs untraced {untraced['solve_s']:.4f} s "
        f"(overhead x{metrics['trace.overhead_ratio']:.3f})",
        f"largest self time: {top}; outside any layer span {first['_unattributed_s']:.3f} s",
    ]
    return passes, metrics, problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _source_tree_present():
        print(f"vfzero sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        _build()
        runner = Runner(args.workload, args.seed, started + RUN_LIMIT_S)
        if args.trace:
            passes, metrics, problems, summary = run_traced(runner)
        else:
            passes, metrics, problems, summary = run_end_to_end(runner, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    env = _environment(passes)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    correct = not failures and not problems
    for line in failures + problems:
        print(f"FAIL {line}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for line in summary:
        print(line)
    print(f"failed_ratio {len(failures)}/{attempted}")

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print(f"benchmark error: metrics {sorted(set(metrics))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": out_metrics, "passes": passes,
              "failures": failures, "problems": problems}
    record_path = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
