"""One pass of a workload in a fresh process: set up, run once, check.

    python3 benchmarks/child.py WORKLOAD SEED INDEX SPAWNED_AT [--trace] [--setup-only]

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` includes interpreter start-up, ``import cmclab``
and the workload's set-up, as a command-line user pays them.  The pass
prints one JSON line: timings, resource use, items attempted and failed and,
with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("index", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cmclab
    import cmclab.harness  # noqa: F401  (binds every module the tracer patches)
    if not os.path.abspath(cmclab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported cmclab from {cmclab.__file__}, not {src}")
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    mark = tracer.mark if tracer else (lambda item: None)

    os.makedirs(OUT, exist_ok=True)
    result = {}
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            work = WORKLOADS[args.workload](args.seed, args.index, out_dir)
            result["setup_s"] = (time.clock_gettime(time.CLOCK_MONOTONIC)
                                 - args.spawned_at)
            if args.setup_only:
                print(json.dumps(result))
                return 0
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                work.run(mark)
                error = None
            except Exception:  # the pass's items fail; the benchmark goes on
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            failures = ([f"{args.workload} raised:\n{error}"] * work.items
                        if error else work.check())
    finally:
        if tracer:
            tracer.restore()

    result.update(
        wall_s=wall, cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=work.items, failed=len(failures), failures=failures)
    if tracer:
        self_sum = sum(own for span, own in zip(tracer.spans, tracer.self_times())
                       if span[4] != "setup")
        if self_sum > wall:
            raise RuntimeError(f"span self times sum to {self_sum} s, more "
                               f"than the traced wall time {wall} s")
        result["layers"] = tracer.metrics()
        result["notes"] = tracer.notes
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}-pass{args.index}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
