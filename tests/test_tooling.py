"""Files outside the package stay in step with it: the benchmark tracer
still finds every name it wraps, the benchmark's own checks pass with a
margin, README documents every config key, and every key README calls gone
is rejected."""

import importlib.util
import json
import os
import re
import sys

import pytest

import cmclab.harness  # noqa: F401  (binds every module the tracer patches)
import cmclab.solver as solver
from cmclab.errors import ConfigError
from cmclab.harness.config import SCHEMA, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark_module(name, monkeypatch):
    path = os.path.join(ROOT, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# targets the tracer still lists although cmclab deleted them on purpose
# (dense basis evaluation, and the Cholesky pair of the old ridged Newton
# step); their metrics read 0 until the tracer drops them
RETIRED_TARGETS = {"cmclab.sphere.basis_at",
                   "cmclab.sphere.QuadratureGrid.basis_matrices",
                   "cmclab.solver.cho_factor", "cmclab.solver.cho_solve"}


def test_tracer_resolves_every_target(monkeypatch):
    # a renamed target would silently read 0 in the per-layer metrics
    original = solver._node_jacobian
    tracer = load_benchmark_module("tracer", monkeypatch).Tracer()
    try:
        tracer.install()
        assert {note.split(" ")[0] for note in tracer.notes} <= RETIRED_TARGETS
        assert solver._node_jacobian is not original
    finally:
        tracer.restore()
    assert solver._node_jacobian is original


def test_benchmark_checks_pass_with_a_margin(monkeypatch, tmp_path):
    # the nearest passes to the checks' residual bound at the solve tolerance:
    # solve24's seed 1, pass 31 (solve 3 ended at 8.68e-10 with tol 1e-9) and
    # the perturbed foliation (leaf 10 ended at 9.55e-10); a converged solve
    # stops at a tenth of the tolerance or at round-off
    workloads = load_benchmark_module("workloads", monkeypatch)
    solve24 = workloads.Solve24(1, 31, str(tmp_path))
    solve24.run(lambda name: None)
    assert solve24.check() == []
    tol = solve24.opts.tolerance
    assert all(rep.final_residual <= 0.1 * tol for rep in solve24.reports)

    foliate = workloads.FoliatePerturbed(1, 0, str(tmp_path))
    foliate.run(lambda name: None)
    assert foliate.check() == []
    tol = foliate.config.solver_options().tolerance
    leaves = json.loads((tmp_path / "foliate.json").read_text())["leaves"]
    assert len(leaves) == foliate.N_LEAVES
    assert all(leaf["final_residual"] <= 0.1 * tol for leaf in leaves)


def readme_lines():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_readme_config_table_matches_schema():
    # a removed key must not stay documented, nor a new one go undocumented
    lines = readme_lines()
    start = lines.index("| key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys.append(line.split("`")[1])
    assert sorted(keys) == sorted(SCHEMA)


def test_keys_readme_calls_gone_are_rejected():
    # README names each deleted key in a sentence "The key(s) `a.b` ... gone:"
    gone = set()
    for text in re.findall(r"The keys? (.*?) (?:is|are) gone:",
                           " ".join(readme_lines())):
        gone.update(re.findall(r"`(\w+\.\w+)`", text))
    assert {"solve.jacobian", "grid.n_theta", "grid.n_phi"} <= gone
    for key in sorted(gone):
        assert key not in SCHEMA
        with pytest.raises(ConfigError,
                           match=re.escape(f"unknown configuration key {key!r}")):
            load_config(environ={}, flag_overrides={key: "1"})
