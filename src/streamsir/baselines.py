"""Dense streaming SIR baseline (no sparsity stage).

This is the comparison method the sparse pipeline is meant to beat in high
dimension: it tracks the same slice-kernel eigenvectors online but converts
them to directions through the inverse sample covariance instead of a sparse
regression.  Maintaining the covariance costs O(p^2) per observation and the
final solve is dense, so the estimate degrades sharply once p approaches the
sample size.

It shares the sparse estimator's front end (``pipeline.warmup_stages``:
the warmup-size rule, the slice kernel and the eigen tracker) and its
column normalization, and differs only in how the directions are read out.
Only the perturbation and sgd trackers are offered here, matching the two
dense online variants used as benchmark opponents.
"""

from __future__ import annotations

import numpy as np

from .batch import ridged
from .eigen import EigenTracker
from .errors import ConfigurationError
from .kernel import KernelTracker
from .pipeline import SIRConfig, unit_columns, warmup_stages


class DenseOnlineSIR:
    """Streaming SIR estimate: eigen-track the kernel, invert the covariance."""

    def __init__(
        self,
        kernel: KernelTracker,
        eigen: EigenTracker,
        xx_sum: np.ndarray,
        warmup_size: int,
    ):
        self.kernel = kernel
        self.eigen = eigen
        self.xx_sum = xx_sum  # running sum of x x', (p, p)
        self.warmup_size = int(warmup_size)

    @classmethod
    def warmup(
        cls,
        X,
        y,
        n_slices: int = 10,
        n_directions: int = 1,
        tracker: str = "perturbation",
    ) -> "DenseOnlineSIR":
        """Start from a warmup batch through the sparse estimator's own front
        end, which also applies its warmup-size rule."""
        if tracker not in ("perturbation", "sgd"):
            raise ConfigurationError(
                "dense online SIR supports only the perturbation and sgd trackers"
            )
        config = SIRConfig(n_slices=n_slices, n_directions=n_directions, tracker=tracker)
        X, kernel, eigen = warmup_stages(X, y, config)
        return cls(kernel, eigen, X.T @ X, X.shape[0])

    @property
    def t(self) -> int:
        return self.kernel.t

    def observe(self, x, y) -> "DenseOnlineSIR":
        x, h = self.kernel.check(x, y)
        self.kernel.absorb(x, h)
        self.eigen.advance(self.kernel, self.kernel.factor(), h)
        self.xx_sum += np.einsum("i,j->ij", x, x)  # np.outer's products, faster
        return self

    def directions(self) -> np.ndarray:
        """Covariance-weighted directions, (p, d), unit columns."""
        t = self.kernel.t
        mean = self.kernel.mean
        cov = self.xx_sum / t - np.outer(mean, mean)
        if cov.shape[0] >= t:
            cov = ridged(cov)
        try:
            B = np.linalg.solve(cov, self.eigen.vectors)
        except np.linalg.LinAlgError:
            B = np.linalg.solve(ridged(cov), self.eigen.vectors)
        return unit_columns(B)
