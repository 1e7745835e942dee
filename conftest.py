"""Test-session settings, loaded by pytest before any test module.

BLAS is pinned to one thread before numpy is first imported: the suite's
matrix products are too small to split, so a second thread mostly spins
on a core that another test or process could use. A thread count already
set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
