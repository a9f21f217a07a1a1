"""BLAS thread pin: outputs do not depend on the thread setting a caller
exports, and ``import cmclab`` records what it found and whether it pinned."""

import json
import os
import subprocess
import sys
import textwrap

import cmclab
from cmclab._blas import VARIABLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cmclab.__file__)))


def child_env(**threads):
    """This environment without the thread variables, plus ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def test_outputs_are_byte_identical_across_blas_thread_settings(tmp_path):
    commands = {
        "foliate": ["--set", "foliate.n_leaves=4"],
        "scan": ["--set", "scan.solve=true", "--set", "scan.lambdas=4,8"],
    }
    settings = {
        "one": child_env(OPENBLAS_NUM_THREADS="1"),
        "two": child_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2"),
    }
    # all four runs at once: the pin leaves each one BLAS thread
    procs = []
    for label, env in settings.items():
        for cmd, args in commands.items():
            out = tmp_path / label / cmd
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "cmclab.harness.cli", cmd,
                 "--out", str(out)] + args,
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    for name in ("foliate/foliate.csv", "foliate/foliate.json", "scan/scan.csv"):
        one = (tmp_path / "one" / name).read_bytes()
        assert one == (tmp_path / "two" / name).read_bytes(), name


def pin_state(script, **threads):
    report = textwrap.dedent("""
        import json, os
        from cmclab import _blas
        print(json.dumps({"pinned": _blas.PINNED, "found": _blas.FOUND,
                          "env": {v: os.environ.get(v) for v in _blas.VARIABLES}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script + report],
                          env=child_env(**threads), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_import_pins_blas_and_records_what_it_found():
    state = pin_state("import cmclab\n", OPENBLAS_NUM_THREADS="2")
    assert state["pinned"] is True
    assert state["found"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def test_numpy_imported_first_keeps_the_callers_threads():
    state = pin_state("import numpy\nimport cmclab\n", OPENBLAS_NUM_THREADS="2")
    assert state["pinned"] is False
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}
