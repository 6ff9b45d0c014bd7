"""Streaming sufficient dimension reduction.

Online sparse sliced inverse regression: single-pass estimation of the
central subspace of a regression from a stream of (x, y) observations,
with interchangeable incremental eigen-trackers, a truncated-gradient
sparse coefficient stage, and batch reference estimators for validation.
"""

from .baselines import DenseOnlineSIR
from .batch import (
    batch_lasso_sir,
    batch_sir,
    dense_top_eigen,
    lasso_coordinate_descent,
    lasso_sir_targets,
    sir_matrix,
)
from .eigen import STRATEGIES, EigenTracker, TrackerConfig
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateDataError,
    EmptyStateError,
    StreamsirError,
)
from .kernel import KernelTracker, SliceGrid
from .pipeline import OnlineSparseSIR, SIRConfig, fit_online, fit_stream
from .simulate import SimModelSpec, sample, subspace_distance, true_betas
from .truncated import TruncatedGradient, truncate

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConvergenceError",
    "DataError",
    "DegenerateDataError",
    "DenseOnlineSIR",
    "EigenTracker",
    "EmptyStateError",
    "KernelTracker",
    "OnlineSparseSIR",
    "SIRConfig",
    "SimModelSpec",
    "SliceGrid",
    "StreamsirError",
    "STRATEGIES",
    "TrackerConfig",
    "TruncatedGradient",
    "batch_lasso_sir",
    "batch_sir",
    "dense_top_eigen",
    "fit_online",
    "fit_stream",
    "lasso_coordinate_descent",
    "lasso_sir_targets",
    "sample",
    "sir_matrix",
    "subspace_distance",
    "true_betas",
    "truncate",
]
