"""Per-column differences between the CSV and JSON outputs of two runs.

    python tools/column_diff.py DIR_A DIR_B

For every CSV or JSON file that both directories hold (matched by name),
prints one Markdown table row per column: the number of cells that differ,
and over the cells that parse as floats on both sides the largest absolute
change |b - a| and the largest relative change |b - a| / |a|.  Cells that
are equal as strings are unchanged, so ``nan`` against ``nan`` is no change;
a changed non-numeric cell (a flag, a label) counts as changed and adds no
magnitude.  A change away from 0 has relative change ``inf``.

A JSON file's cells are its scalar leaves, each written as JSON, at paths
such as ``leaves[3].stability_error``.  Its columns are those paths with
every list index written ``[]`` (``leaves[].stability_error``), except in a
list of objects that each carry a distinct string ``name``: there the name
stands in for the index in the path and in the column, so each of verify's
checks is a column of its own (``checks[parseval].value``).

A file that only one directory holds, or whose header, row count or JSON
paths differ between the two, is named on its own line instead.  Exit
status 0 when every file could be compared, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import csv
import json
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


def _entry(column: str, pairs) -> dict:
    """The table entry of one column from its (a, b) cell strings."""
    changed = 0
    max_abs = max_rel = None
    for a, b in pairs:
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
    return {"column": column, "changed": changed, "max_abs": max_abs,
            "max_rel": max_rel}


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
    return [_entry(column, [(row_a[j], row_b[j])
                            for row_a, row_b in zip(rows_a, rows_b)])
            for j, column in enumerate(head_a)]


def _leaves(node, path: str = "", column: str = ""):
    """(path, column, value) of every scalar of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            dot = "." if path else ""
            yield from _leaves(value, f"{path}{dot}{key}",
                               f"{column}{dot}{key}")
    elif isinstance(node, list):
        names = [v.get("name") if isinstance(v, dict) else None for v in node]
        named = (all(isinstance(n, str) for n in names)
                 and len(set(names)) == len(names))
        for i, value in enumerate(node):
            tag = f"[{names[i]}]" if named else f"[{i}]"
            yield from _leaves(value, path + tag,
                               column + (tag if named else "[]"))
    else:
        yield path, column, node


def _cells(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    return {p: (column, json.dumps(value))
            for p, column, value in _leaves(document)}


def diff_json(path_a: str, path_b: str) -> list[dict]:
    """``diff_csv``'s entries for two JSON files, one per column of
    ``_leaves``, in the order of their first leaf in ``path_a``.  Raises
    ValueError when the two files do not hold the same paths."""
    cells_a, cells_b = _cells(path_a), _cells(path_b)
    if cells_a.keys() != cells_b.keys():
        odd = sorted(cells_a.keys() ^ cells_b.keys())
        raise ValueError(f"paths differ ({len(odd)}), first {odd[0]}")
    columns: dict[str, list] = {}
    for p, (column, a) in cells_a.items():
        columns.setdefault(column, []).append((a, cells_b[p][1]))
    return [_entry(column, pairs) for column, pairs in columns.items()]


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: column_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = argv
    diffs = {".csv": diff_csv, ".json": diff_json}
    names_a = {n for n in os.listdir(dir_a) if os.path.splitext(n)[1] in diffs}
    names_b = {n for n in os.listdir(dir_b) if os.path.splitext(n)[1] in diffs}
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
            entries = diffs[os.path.splitext(name)[1]](
                os.path.join(dir_a, name), os.path.join(dir_b, name))
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
