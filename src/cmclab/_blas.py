"""Pin the BLAS thread pools to one thread before numpy loads.

OpenBLAS reads its thread count once, when the library is loaded, so the
pin must happen before the first ``import numpy``.  This module is imported
first by ``cmclab/__init__.py``.  One thread makes every reduction run in
one fixed order, so a fixed config gives the same bytes under any thread
setting; on a small machine it is also faster, because numpy's bundled
OpenBLAS, the only BLAS a cmclab process loads, no longer spins threads that
compete for the cores.

The pin is process-wide and is inherited by child processes.  It cannot act
when numpy was imported first: the caller then keeps their own threads.

``FOUND`` holds each variable's value before the pin (None when unset) and
``PINNED`` says whether the pin acted.
"""

import os
import sys

VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

FOUND = {var: os.environ.get(var) for var in VARIABLES}
PINNED = "numpy" not in sys.modules

if PINNED:
    for var in VARIABLES:
        os.environ[var] = "1"
