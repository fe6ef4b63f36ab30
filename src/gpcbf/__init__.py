"""Uncertainty-aware high-order CBF safety filtering toolkit.

Learns the scalar effect of model mismatch on a high-order safety
certificate with a structured Gaussian process and enforces the resulting
chance constraint through a per-step second-order cone program.  Ships two
closed-loop benchmarks (adaptive cruise control, quarter-car active
suspension) plus feasibility diagnostics and property suites.
"""

from .barrier import (
    CertificateTerms,
    HocbfDesign,
    certificate_terms,
    elementary_symmetric,
    gains_from_char_coeffs,
    gamma_vector,
    halfspace_qp_filter,
    zeta_chain,
)
from .gp import (
    BaseKernelParams,
    CompositeGpModel,
    ResidualDataset,
    fit,
    load_dataset_csv,
    posterior_coefficients,
    save_dataset_csv,
)
from .socp import (
    FilterOutcome,
    SafetyConeData,
    assemble_safety_cone,
    build_S,
    effective_phi,
    feasibility_necessary,
    feasibility_sufficient,
    matrix_sqrt_factor,
    pointwise_conditions,
    safety_filter_step,
    solve,
)

__version__ = "0.1.0"

# There is one numeric path, plain numpy.  The constant stays because
# benchmark records written by perfbench/environment.py carry it.
NUMBA_ENABLED = False
