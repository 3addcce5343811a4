"""Priority sampling (Duffield, Lund, Thorup 2007) on pre-aggregated data.

The paper's strongest baseline (Figure 5): given exact per-item weights
``n_i`` (which in the disaggregated setting require an expensive
pre-aggregation), draw priorities ``q_i = n_i / u_i`` with
``u_i ~ Uniform(0,1)``, keep the ``m`` largest, and set the threshold
``tau`` to the (m+1)-th largest priority. The estimator
``n_hat_i = max(n_i, tau)`` for kept items (0 otherwise) is unbiased and
near-optimal for subset sums (Szegedy 2006).

The sample is a :class:`~repro.core.result.CountSketchResult`: the kept
items, their estimates ``max(n_i, tau)``, ``tau`` as the threshold and
the total weight as ``t``, so it answers every query a sketch does. It is
also the unbiased reduction of :func:`repro.core.merge.reduce_counts`.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import CountSketchResult


def priority_sample(
    items: np.ndarray,
    weights: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> CountSketchResult:
    """Draw a size-``m`` priority sample from pre-aggregated weights.

    Every weight must be positive and finite, and ``m`` at least 1. With
    at most ``m`` items all are kept with their weights and threshold 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    items = np.asarray(items)
    w = np.asarray(weights, dtype=np.float64)
    if len(items) != len(w):
        raise ValueError("items and weights must align")
    if not ((w > 0) & (w < np.inf)).all():
        raise ValueError("priority sampling requires positive, finite weights")
    n = len(w)
    total = float(w.sum())
    if n <= m:
        return CountSketchResult(items, w.copy(), 0.0, total)
    u = rng.random(n)
    q = w / u
    # indices of the m largest priorities; tau is the (m+1)-th largest
    order = np.argpartition(-q, m)[: m + 1]
    order = order[np.argsort(-q[order])]
    keep, tau_idx = order[:m], order[m]
    tau = float(q[tau_idx])
    return CountSketchResult(items[keep], np.maximum(w[keep], tau), tau, total)
