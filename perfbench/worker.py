"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED MODE RUN_ID
where MODE is ``setup`` (set-up only), ``pass`` (untraced pass) or
``traced`` (pass under the span tracer).  Prints one JSON object on its
last line of standard output.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    root, workload, seed, mode, run_id = Path(argv[0]), argv[1], int(argv[2]), argv[3], int(argv[4])
    bench_dir = Path(__file__).resolve().parent
    out_dir = bench_dir / "out"
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(bench_dir))
    import tracer as tracing
    from workloads import WORKLOADS

    prepare, run = WORKLOADS[workload]
    inputs = prepare(seed, out_dir)  # imports vfzero and loads the catalog
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    from mpmath.libmp import BACKEND
    from vfzero import intervals

    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        run = tracer.wrap(run, "pass")
    w0 = time.perf_counter()
    attempted, failures, extra = run(inputs)
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    trig = [intervals.sin_2pi_range.cache_info(), intervals.cos_2pi_range.cache_info()]
    trig_info = {"hits": sum(c.hits for c in trig), "misses": sum(c.misses for c in trig)}
    result.update(
        solve_s=w1 - w0,
        solve_cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        attempted=attempted,
        failures=failures,
        trig=trig_info,
        mpmath_backend=BACKEND,
    )
    if "report" in extra:
        result["report_sha256"] = hashlib.sha256(extra["report"]).hexdigest()
        result["report_bytes"] = len(extra["report"])
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, trig_info)
        tracer.write(out_dir / f"spans-{workload}-s{seed}-r{run_id}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
