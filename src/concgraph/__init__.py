"""Concentration-graph selection for Gaussian data.

Estimates which pairs of jointly Gaussian variables are conditionally
dependent given all others, by per-edge hypothesis tests: an exact
conditional (UMPU) test, the exact sample partial-correlation test (the
two are numerically identical, which the package verifies), and the
asymptotic Fisher z test.  Includes Monte Carlo tooling for size, power
and null-law checks, and a CLI for CSV pipelines.
"""

from .errors import (
    ConcgraphError,
    ConvergenceError,
    DataError,
    DegenerateEdge,
    DomainError,
    InsufficientSample,
    NotPositiveDefinite,
)
from .matrices import (
    PdInterval,
    QuadCoeffs,
    SymmetricMatrix,
    cofactor,
    determinant,
    edge_statistic,
    first_nonpositive_pivot,
    lemma_residual,
    pd_interval,
    quadratic_decomposition,
    sylvester_residual,
)
from .distributions import (
    beta_sym_quantile,
    fisher_z,
    null_corr_cdf,
    null_corr_quantile,
    reg_inc_beta,
    std_normal_quantile,
)
from .estimators import Dataset, sample_covariance, sample_partial_correlation
from .independence import (
    METHODS,
    EdgeDecision,
    EquivalenceReport,
    TestConfig,
    fisher_test,
    partial_correlation_test,
    run_edge_test,
    threshold_reject,
    umpu_raw_thresholds,
    umpu_test,
    verify_equivalence,
)
from .selection import (
    CORRECTIONS,
    ConcentrationGraph,
    all_pairs,
    select_graph,
)
from .simulate import (
    MethodOutcome,
    MonteCarloReport,
    PrecisionSpec,
    estimate_power,
    estimate_size,
    ks_statistic,
    random_covariance_instances,
    random_precision_matrix,
    sample_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "ConcgraphError",
    "ConvergenceError",
    "DataError",
    "DegenerateEdge",
    "DomainError",
    "InsufficientSample",
    "NotPositiveDefinite",
    "SymmetricMatrix",
    "QuadCoeffs",
    "PdInterval",
    "determinant",
    "cofactor",
    "first_nonpositive_pivot",
    "quadratic_decomposition",
    "pd_interval",
    "edge_statistic",
    "lemma_residual",
    "sylvester_residual",
    "reg_inc_beta",
    "beta_sym_quantile",
    "null_corr_cdf",
    "null_corr_quantile",
    "fisher_z",
    "std_normal_quantile",
    "Dataset",
    "sample_covariance",
    "sample_partial_correlation",
    "METHODS",
    "TestConfig",
    "EdgeDecision",
    "EquivalenceReport",
    "threshold_reject",
    "umpu_test",
    "umpu_raw_thresholds",
    "partial_correlation_test",
    "fisher_test",
    "verify_equivalence",
    "run_edge_test",
    "CORRECTIONS",
    "ConcentrationGraph",
    "all_pairs",
    "select_graph",
    "PrecisionSpec",
    "MethodOutcome",
    "MonteCarloReport",
    "sample_gaussian",
    "random_precision_matrix",
    "estimate_size",
    "estimate_power",
    "ks_statistic",
    "random_covariance_instances",
    "__version__",
]
