"""Files outside the package stay in step with it: the benchmark tracer
still finds every name it wraps, and README documents every config key."""

import importlib.util
import os
import sys

import cmclab.harness  # noqa: F401  (binds every module the tracer patches)
import cmclab.solver as solver
from cmclab.harness.config import SCHEMA

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "benchmarks", "tracer.py")


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
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
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install()
        assert {note.split(" ")[0] for note in tracer.notes} <= RETIRED_TARGETS
        assert solver._node_jacobian is not original
    finally:
        tracer.restore()
    assert solver._node_jacobian is original


def test_readme_config_table_matches_schema():
    # a removed key must not stay documented, nor a new one go undocumented
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys.append(line.split("`")[1])
    assert sorted(keys) == sorted(SCHEMA)
