"""Per-column differences between the CSV outputs of two runs.

    python tools/column_diff.py DIR_A DIR_B

For every CSV file that both directories hold (matched by name), prints one
Markdown table row per column: the number of cells that differ, and over the
cells that parse as floats on both sides the largest absolute change
|b - a| and the largest relative change |b - a| / |a|.  Cells that are equal
as strings are unchanged, so ``nan`` against ``nan`` is no change; a changed
non-numeric cell (a flag, a label) counts as changed and adds no magnitude.
A change away from 0 has relative change ``inf``.

A file that only one directory holds, or whose header or row count differs
between the two, is named on its own line instead.  Exit status 0 when every
file could be compared, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import csv
import math
import os
import sys


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def diff_csv(path_a: str, path_b: str) -> list[dict]:
    """One entry per column: ``column``, ``changed``, ``max_abs``, ``max_rel``
    (the two maxima are None when no numeric cell changed).  Raises
    ValueError when the headers or the row counts differ."""
    head_a, rows_a = _read(path_a)
    head_b, rows_b = _read(path_b)
    if head_a != head_b:
        raise ValueError("headers differ")
    if len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a)} rows against {len(rows_b)}")
    out = []
    for j, column in enumerate(head_a):
        changed = 0
        max_abs = max_rel = None
        for row_a, row_b in zip(rows_a, rows_b):
            a, b = row_a[j], row_b[j]
            if a == b:
                continue
            changed += 1
            x, y = _float(a), _float(b)
            if x is None or y is None:
                continue
            change = abs(y - x)
            rel = change / abs(x) if x != 0.0 else math.inf
            max_abs = change if max_abs is None else max(max_abs, change)
            max_rel = rel if max_rel is None else max(max_rel, rel)
        out.append({"column": column, "changed": changed, "max_abs": max_abs,
                    "max_rel": max_rel})
    return out


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: column_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = argv
    names_a = {n for n in os.listdir(dir_a) if n.endswith(".csv")}
    names_b = {n for n in os.listdir(dir_b) if n.endswith(".csv")}
    status = 0
    print("| file | column | changed cells | max abs change | max rel change |")
    print("| --- | --- | --- | --- | --- |")
    notes = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            notes.append(f"{name}: only in "
                         f"{dir_a if name in names_a else dir_b}")
            status = 1
            continue
        try:
            entries = diff_csv(os.path.join(dir_a, name),
                               os.path.join(dir_b, name))
        except ValueError as exc:
            notes.append(f"{name}: {exc}")
            status = 1
            continue
        for e in entries:
            print(f"| {name} | {e['column']} | {e['changed']} | "
                  f"{_fmt(e['max_abs'])} | {_fmt(e['max_rel'])} |")
    for note in notes:
        print(note)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
