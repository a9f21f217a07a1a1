"""tools/bench_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_lines_on_fixed_numbers():
    parent = [{"setup_s": s, "failure_ratio": 1 / 3}
              for s in (0.30, 0.28, 0.32, 0.29)]
    change = [{"setup_s": s, "failure_ratio": 1 / 3}
              for s in (0.15, 0.16, 0.14, 0.31)]
    summary = bench_pairs.summarize(parent, change)
    assert list(summary) == ["setup_s", "failure_ratio"]
    setup = summary["setup_s"]
    assert setup["parent"] == pytest.approx(
        {"median": 0.295, "q1": 0.2875, "q3": 0.305})
    assert setup["change"] == pytest.approx(
        {"median": 0.155, "q1": 0.1475, "q3": 0.1975})
    # the last pair reads higher; ties count for neither side
    assert (setup["change_lower_pairs"], setup["pairs"]) == (3, 4)
    assert summary["failure_ratio"]["change_lower_pairs"] == 0
    assert bench_pairs.format_line("setup_s", setup) == (
        "setup_s: 0.295 [0.2875, 0.305] -> 0.155 [0.1475, 0.1975] "
        "(-47.5 %, lower 3/4)")
    assert bench_pairs.format_line("failure_ratio",
                                   summary["failure_ratio"]) == (
        "failure_ratio: 0.3333 [0.3333, 0.3333] -> 0.3333 [0.3333, 0.3333] "
        "(+0.0 %, lower 0/4)")


def test_summary_of_one_pair_and_unequal_sides():
    one = bench_pairs.summarize([{"wall_s": 2.0}], [{"wall_s": 1.0}])
    assert one["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert bench_pairs.format_line("wall_s", one["wall_s"]) == (
        "wall_s: 2 [2, 2] -> 1 [1, 1] (-50.0 %, lower 1/1)")
    with pytest.raises(ValueError, match="parent runs against"):
        bench_pairs.summarize([{"wall_s": 2.0}], [])
