"""Uncertainty-aware high-order CBF safety filtering toolkit.

Learns the scalar effect of model mismatch on a high-order safety
certificate with a structured Gaussian process and enforces the resulting
chance constraint through a per-step second-order cone program.  Ships two
closed-loop benchmarks (adaptive cruise control, quarter-car active
suspension) plus feasibility checks and property suites.  Import names
from the submodules (``gpcbf.socp``, ``gpcbf.gp``, ...); the package root
holds only the version.
"""

__version__ = "0.1.0"

# There is one numeric path, plain numpy.  The constant stays because
# benchmark records written by perfbench/environment.py carry it.
NUMBA_ENABLED = False
