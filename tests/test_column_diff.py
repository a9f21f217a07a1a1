"""tools/column_diff.py: the per-column change table of two output sets."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "column_diff.py")


def run_tool(*args):
    proc = subprocess.run([sys.executable, TOOL, *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def write(directory, name, text):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)


def test_column_table_counts_and_magnitudes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "t.csv", "row,x,flag,y\n0,1.0,true,nan\n1,-2.0,false,0.0\n"
                      "2,4.0,true,5.0\n")
    write(b, "t.csv", "row,x,flag,y\n0,1.5,true,nan\n1,-2.0,true,1e-3\n"
                      "2,3.0,true,5.0\n")
    code, lines = run_tool(a, b)
    assert code == 0
    assert lines[0].startswith("| file | column | changed cells |")
    assert lines[2:] == [
        "| t.csv | row | 0 | - | - |",
        "| t.csv | x | 2 | 1 | 0.5 |",      # |1.5-1|/1 beats |3-4|/4
        "| t.csv | flag | 1 | - | - |",     # changed, but not a number
        "| t.csv | y | 1 | 0.001 | inf |",  # nan == nan; 0 -> 1e-3
    ]


def test_mismatched_files_are_named_and_fail(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "rows.csv", "x\n1\n2\n")
    write(b, "rows.csv", "x\n1\n")
    write(a, "head.csv", "x\n1\n")
    write(b, "head.csv", "y\n1\n")
    write(a, "only.csv", "x\n1\n")
    code, lines = run_tool(a, b)
    assert code == 1
    assert lines[2:] == ["head.csv: headers differ",
                         f"only.csv: only in {a}",
                         "rows.csv: 2 rows against 1"]
    assert run_tool(a)[0] == 2
