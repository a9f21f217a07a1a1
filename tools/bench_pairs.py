"""Alternating parent/change pairs of the benchmark, and their summary.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload scan-round \\
        --pairs 10 --seed 1 --seconds 35 [--json OUT.json]

Each tree is a checkout holding ``benchmarks/run.py`` and ``src/``.  Pair i
runs ``benchmarks/run.py --workload W --seed S --seconds X --trace 0`` once
in each tree, the parent first in even pairs and the change first in odd
ones, so a drift in the machine's load falls on both sides alike.  Every
run is a fresh process in its own tree's directory.

For each end-to-end metric the tool prints one line

    name: median [q1, q3] -> median [q1, q3] (+x.x %, lower k/n)

parent first, with the quartiles of the runs (linear interpolation between
order statistics), the change of the medians in percent of the parent's,
and k, the number of pairs in which the change read strictly lower.  A last
line says whether every pass of every run was correct.  ``--json`` also
writes the per-run metrics, each side's first run record and the summary.
Exit status 0 when every run finished, 1 when one failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the number of pairs in
    which the change read lower, and the pair count.  ``parent[i]`` and
    ``change[i]`` are the metric dicts of pair i."""
    if not parent or len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} "
                         "change runs")
    out = {}
    for name in parent[0]:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        out[name] = {
            "parent": _quartiles(a), "change": _quartiles(b),
            "change_lower_pairs": sum(y < x for x, y in zip(a, b)),
            "pairs": len(a)}
    return out


def format_line(name: str, entry: dict) -> str:
    """One metric in the line format of CHANGES.md."""
    def side(q):
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"
    a, b = entry["parent"]["median"], entry["change"]["median"]
    percent = 100.0 * (b - a) / a if a else float("nan")
    return (f"{name}: {side(entry['parent'])} -> {side(entry['change'])} "
            f"({percent:+.1f} %, lower {entry['change_lower_pairs']}"
            f"/{entry['pairs']})")


def _run(tree: str, args) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(tree, "benchmarks", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["run_record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", help="write the runs and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = dict(zip(SIDES, (os.path.abspath(args.parent_tree),
                             os.path.abspath(args.change_tree))))
    metrics = {side: [] for side in SIDES}
    correct = {side: [] for side in SIDES}
    records = {}
    try:
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                record, result = _run(trees[side], args)
                records.setdefault(side, record)
                metrics[side].append({name: m["value"] for name, m
                                      in result["metrics"].items()})
                correct[side].append(bool(result["correct"]))
                print(f"pair {i} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in metrics[side][-1].items()),
                    file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(metrics["parent"], metrics["change"])
    all_correct = all(correct["parent"]) and all(correct["change"])
    print(f"{args.workload} (seed {args.seed}, --seconds {args.seconds:g}, "
          f"{args.pairs} pairs, even pairs parent first):")
    for name, entry in summary.items():
        print(format_line(name, entry))
    print(f"every pass correct: {'yes' if all_correct else 'no'} (runs "
          f"correct: parent {sum(correct['parent'])}/{args.pairs}, change "
          f"{sum(correct['change'])}/{args.pairs})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "run_records": records,
                       "runs": metrics, "correct": correct,
                       "summary": summary, "all_correct": all_correct},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
