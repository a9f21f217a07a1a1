"""Import hygiene: a cmclab process loads numpy and ``scipy.linalg`` only.

Every command pays for what ``import cmclab`` loads before it does any work;
``scipy.optimize`` alone pulled in ``sparse``, ``special``, ``fft``,
``spatial`` and ``constants`` and cost about 0.35 s of every start-up.
"""

import json
import os
import subprocess
import sys
import textwrap

import cmclab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cmclab.__file__)))

# subpackages that must stay out of a cmclab process, named so a failure
# says which one came back
HEAVY = ("optimize", "sparse", "special", "fft", "integrate", "spatial")


def test_cmclab_loads_no_scipy_subpackage_but_linalg():
    script = textwrap.dedent("""
        import json, sys
        import cmclab, cmclab.harness, cmclab.harness.cli
        print(json.dumps(sorted(
            name for name, module in sys.modules.items()
            if name.startswith("scipy.") and name.count(".") == 1
            and hasattr(module, "__path__"))))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    packages = json.loads(proc.stdout)
    for name in HEAVY:
        assert f"scipy.{name}" not in packages
    public = [name for name in packages if not name.split(".")[1].startswith("_")]
    assert public == ["scipy.linalg"]
