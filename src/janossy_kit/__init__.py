"""Finite determinantal chain ensembles on discretized spaces.

A chain ensemble places n particles on each of M ordered floors of one
discretized space, with a density built from determinants of cross-floor
couplings.  This package computes its correlation kernel in closed block
form and window statistics (Janossy densities, gap and counting
probabilities, extreme-value curves), and checks every closed form against
brute-force enumeration oracles.
"""

from __future__ import annotations

from .chain_ensemble import (
    ChainEnsemble,
    ConvolutionTables,
    marginal_ensemble,
    partition_function,
)
from .errors import BudgetExceededError, ConfigError, SingularOperatorError
from .janossy import (
    ExtremePoint,
    JanossyKernel,
    count_distribution,
    count_probability,
    janossy_density,
    janossy_kernel_explicit,
    kth_extreme_distribution,
)
from .kernels import (
    BlockKernel,
    RestrictedOperator,
    correlation_function,
    correlation_kernel,
    dyson_mehta_check,
    export_kernel_csv,
    fredholm_det,
    kernel_to_json,
    resolvent_kernel,
    restrict,
)
from .measure_space import (
    DiscretizedSpace,
    Window,
    WindowFamily,
    make_discrete,
    make_quadrature,
    window_family_from_json,
    window_from_json,
)
from .models import (
    build_coupled_chain,
    build_karlin_mcgregor,
    build_model,
    build_random,
    build_unitary,
)
from .oracle import (
    EnumeratedDistribution,
    brute_correlation,
    brute_count_distribution,
    brute_count_probability,
    brute_density_grid,
    brute_janossy,
    enumerate_density,
)
from .verify import SuiteReport, verify_suite

__version__ = "0.1.0"

__all__ = [
    "BlockKernel",
    "BudgetExceededError",
    "ChainEnsemble",
    "ConfigError",
    "ConvolutionTables",
    "DiscretizedSpace",
    "EnumeratedDistribution",
    "ExtremePoint",
    "JanossyKernel",
    "RestrictedOperator",
    "SingularOperatorError",
    "SuiteReport",
    "Window",
    "WindowFamily",
    "brute_correlation",
    "brute_count_distribution",
    "brute_count_probability",
    "brute_density_grid",
    "brute_janossy",
    "build_coupled_chain",
    "build_karlin_mcgregor",
    "build_model",
    "build_random",
    "build_unitary",
    "correlation_function",
    "correlation_kernel",
    "count_distribution",
    "count_probability",
    "dyson_mehta_check",
    "enumerate_density",
    "export_kernel_csv",
    "fredholm_det",
    "janossy_density",
    "janossy_kernel_explicit",
    "kernel_to_json",
    "kth_extreme_distribution",
    "make_discrete",
    "make_quadrature",
    "marginal_ensemble",
    "partition_function",
    "resolvent_kernel",
    "restrict",
    "verify_suite",
    "window_family_from_json",
    "window_from_json",
]
