"""Bottom-k sketch: uniform item sampling (Cohen & Kaplan 2007).

The weakest baseline in the paper (Figure 4): items are sampled
*uniformly at random* regardless of their count, so skewed count
distributions are estimated orders of magnitude worse than by
PPS-like designs.

Each distinct item gets an independent ``u_i ~ Uniform(0,1)`` (a salted
hash, so the draw is consistent across a stream without coordination);
the k items with the smallest ``u_i`` are kept together with their
*exact* counts (a kept item has been tracked since its first occurrence
because the bottom-k membership threshold only decreases over a stream).
Each kept count is divided by the pseudo-inclusion probability
``tau = u_(k+1)``, so ``n_hat_S = sum_{i in sample, i in S} n_i / tau``.

The sample is a :class:`~repro.core.result.CountSketchResult`. Its
threshold is 0 when nothing was excluded, and NaN otherwise: uniform item
sampling has no ``N_min`` analogue, so the eq.-5 interval of a reduced
sample is NaN rather than a false zero-width interval.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import CountSketchResult


def bottomk_from_counts(
    items: np.ndarray,
    counts: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> CountSketchResult:
    """Draw the bottom-k sample from aggregated (item, count) pairs.

    The final state of the streaming sketch depends only on the per-item
    hash draws and exact counts, so sampling from aggregated pairs is
    distributionally identical to running over the disaggregated stream.
    ``k`` must be at least 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    items = np.asarray(items)
    counts = np.asarray(counts, dtype=np.float64)
    n = len(items)
    total = float(counts.sum())
    if n <= k:
        return CountSketchResult(items, counts.copy(), 0.0, total)
    u = rng.random(n)
    order = np.argpartition(u, k)[: k + 1]
    order = order[np.argsort(u[order])]
    keep = order[:k]
    tau = float(u[order[k]])
    return CountSketchResult(items[keep], counts[keep] / tau, float("nan"), total)
