"""Files outside the package stay in step with it: the benchmark tracer
still finds every name it wraps, README documents every config key, and
every key README calls gone is rejected."""

import importlib.util
import os
import re
import sys

import pytest

import cmclab.harness  # noqa: F401  (binds every module the tracer patches)
import cmclab.solver as solver
from cmclab.errors import ConfigError
from cmclab.harness.config import SCHEMA, load_config

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
