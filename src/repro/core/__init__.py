"""BoostHD core: the paper's primary contribution.

Contains the BoostHD boosted ensemble of partitioned OnlineHD weak learners
(Algorithm 1), the bagged-HD strawman it is compared against, the
hyperspace partitioning, the span-utilization analysis (Figure 5)
and the Marchenko–Pastur kernel theory (Equations 2–7, Figures 2 and 4).
"""

from .bagging import BaggedHD
from .boosthd import BoostHD
from .partition import split_dimensions
from .span import SpanUtilization, attenuation_factors, rank_ratio, span_utilization
from .theory import (
    KernelSpectrum,
    empirical_spectrum,
    kernel_axis_ratio,
    marchenko_pastur_bounds,
    mean_lambda,
    singular_value_bounds,
    term_convergence_table,
    variance_terms,
)

__all__ = [
    "BaggedHD",
    "BoostHD",
    "split_dimensions",
    "SpanUtilization",
    "attenuation_factors",
    "rank_ratio",
    "span_utilization",
    "KernelSpectrum",
    "empirical_spectrum",
    "kernel_axis_ratio",
    "marchenko_pastur_bounds",
    "mean_lambda",
    "singular_value_bounds",
    "term_convergence_table",
    "variance_terms",
]
