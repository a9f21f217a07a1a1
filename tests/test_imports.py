"""Import hygiene: a cmclab process loads no scipy module at all.

Every command pays for what ``import cmclab`` loads before it does any work;
``scipy.linalg`` alone was about half of a cold ``import cmclab.harness``
(its array-API layer pulls in ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``).  The runtime needs numpy only: the stability pencil is reduced
by a Cholesky congruence, the Newton step is numpy's LU solve.  scipy is a
test dependency, used by the dense references of the tests.
"""

import json
import os
import subprocess
import sys
import textwrap

import cmclab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cmclab.__file__)))


def test_cmclab_loads_no_scipy():
    # the imports every command makes, then one certificate, so an import
    # made lazily inside the solve or the spectrum is caught too
    script = textwrap.dedent("""
        import json, sys
        import cmclab, cmclab.harness, cmclab.harness.cli
        from cmclab import metrics as mt
        from cmclab.solver import round_mean_curvature, solve_cmc
        from cmclab.sphere import SphereGraph
        model = mt.schwarzschild_model(1.0)
        report = solve_cmc(SphereGraph.round_sphere(8.0, L=8), model,
                           round_mean_curvature(model, 8.0))
        print(json.dumps({
            "stable": report.converged and report.stable,
            "scipy": sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy."))}))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["stable"]
    assert out["scipy"] == []
