"""Discretized Weibull item-count distributions (paper sec 7).

The paper draws per-item counts ``n_i = Round(Weibull(scale, shape))``
through the inverse-CDF method on a *regular grid* of uniforms
(``u_j = (j - 1/2)/n``) instead of random draws, for reproducible count
vectors. Lower ``shape`` means heavier tail / more skew; at shape 0.15
the standard deviation is roughly 30x the mean (Figure 2's setting).

Scale is solved so the total row count hits ``target_total`` — the
paper's absolute scale (10^9 rows) is reduced per DESIGN.md
substitution #2; shape alone controls the skew being studied.
"""
from __future__ import annotations

import numpy as np


def weibull_quantile(u: np.ndarray, *, shape: float, scale: float = 1.0) -> np.ndarray:
    """Inverse CDF of the Weibull distribution."""
    u = np.asarray(u, dtype=np.float64)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


def weibull_counts(n_items: int, *, shape: float, target_total: int) -> np.ndarray:
    """Deterministic skewed count vector for ``n_items`` items.

    The scale is solved so that ``sum(counts)`` is about
    ``target_total``; items whose count rounds to zero are dropped.
    Items are returned in *ascending* count order (grid order); callers
    choose the stream arrangement.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    u = (np.arange(n_items) + 0.5) / n_items
    base = weibull_quantile(u, shape=shape, scale=1.0)
    counts = np.round(base * (target_total / base.sum())).astype(np.int64)
    return counts[counts > 0]
