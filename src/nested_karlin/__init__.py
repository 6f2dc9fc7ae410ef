"""Nested Karlin occupancy scheme toolkit.

Simulation of the nested (weighted-branching) infinite occupancy scheme,
exact finite-time moments with certified truncation bounds, closed-form
limit-process covariances with an independent quadrature oracle, Gaussian
limit samplers, and a Monte Carlo verification harness.

The package namespace holds the names of the README quickstart and the two
error types; everything else is imported from its module.
"""

from .errors import NumericalError, ValidationError
from .gaussian import build_grid, sample
from .limits import closed_cov, quadrature_cov
from .moments import cov_K_cross_gen, mean_K
from .scheme import simulate_poissonized
from .weights import WeightFamily

__version__ = "0.1.0"

__all__ = [
    "NumericalError",
    "ValidationError",
    "WeightFamily",
    "build_grid",
    "closed_cov",
    "cov_K_cross_gen",
    "mean_K",
    "quadrature_cov",
    "sample",
    "simulate_poissonized",
]
