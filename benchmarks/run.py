"""cmclab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload scan-round --seed 1 --seconds 35 --trace 0

Run it from anywhere; it measures the cmclab source under ``src/`` next to
this directory and writes only under ``.bench_out/`` there.

Every pass runs in a fresh Python process (benchmarks/child.py): set-up, then
the workload's items once, cold, as ``cmclab <command>`` runs them.  Passes
repeat, each building its inputs from (seed, pass index), as long as the
next one is expected to end within ``--seconds``, and at least once.  Extra
set-up-only processes give ``setup_s`` more samples.  On a shared 2-core
virtual machine, load from other tenants moved the time of identical passes
by up to a third, so every timing is a median over processes.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
passes: ``setup_s``, ``wall_s``, ``cpu_s`` (user + system time of the pass,
all BLAS threads included), ``peak_rss_mb`` (``ru_maxrss`` of the pass's
process) and ``failure_ratio``, the mean over passes of (failed items + 1) /
(items + 1).  The added one keeps the ratio above 0 on a clean run, so one
new failure shows as a relative rise; the raw counts are ``attempted`` and
``failed``.

With ``--trace 1`` every pass runs twice, untraced then traced, and the result
holds the per-layer metrics of benchmarks/tracer.py (medians over passes)
plus ``trace.overhead_s``, the traced minus the untraced wall time.

BLAS and OpenMP variables are left as found: the benchmark measures the
program as users run it, and records what it found in the run record printed
before the result.  The last line of output is the result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0   # a run must end within 180 s


class BenchmarkError(RuntimeError):
    pass


def _child(workload: str, seed: int, index: int, deadline: float,
           *flags: str) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("out of time before the minimum passes ran")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), str(index),
           repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass {index} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"pass {index} of {workload} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(args, deadline: float, *flags_per_pass) -> list[list[dict]]:
    """Run passes, one child per entry of flags_per_pass, while one more pass
    as long as the longest so far still ends within --seconds; at least one."""
    start = time.monotonic()
    done, longest = [], 0.0
    while not done or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        done.append([_child(args.workload, args.seed, len(done), deadline, *flags)
                     for flags in flags_per_pass])
        longest = max(longest, time.monotonic() - began)
    return done


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


def run_record(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mp_start_method": multiprocessing.get_start_method(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, deadline: float):
    passes = [p for (p,) in _passes(args, deadline, ())]
    setups = [p["setup_s"] for p in passes]
    setups += [_child(args.workload, args.seed, 0, deadline,
                      "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(med("wall_s"), "s"),
        "cpu_s": _metric(med("cpu_s"), "s"),
        "peak_rss_mb": _metric(med("peak_rss_mb"), "MiB"),
        "failure_ratio": _metric(statistics.fmean(
            (p["failed"] + 1) / (p["attempted"] + 1) for p in passes), "ratio"),
    }
    return passes, metrics, []


def traced_run(args, deadline: float):
    from tracer import METRICS
    pairs = _passes(args, deadline, (), ("--trace",))
    metrics = {name: _metric(statistics.median(t["layers"][name]
                                               for _, t in pairs), unit)
               for name, unit in METRICS.items()}
    metrics["trace.overhead_s"] = _metric(statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs), "s")
    notes = sorted({n for _, t in pairs for n in t["notes"]})
    return [p for pair in pairs for p in pair], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cmclab", "__init__.py")):
        print(f"error: no cmclab source under {ROOT}/src", file=sys.stderr)
        return 2
    print(json.dumps({"run_record": run_record(args)}), flush=True)
    try:
        passes, metrics, notes = (traced_run if args.trace else timed_run)(
            args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    print(json.dumps({"processes": len(passes),
                      "wall_s": [p["wall_s"] for p in passes],
                      "notes": notes, "failures": failures}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
