"""Priority sampling (Duffield, Lund, Thorup 2007) on pre-aggregated data.

The paper's strongest baseline (Figure 5): given exact per-item weights
``n_i`` (which in the disaggregated setting require an expensive
pre-aggregation), draw priorities ``q_i = n_i / u_i`` with
``u_i ~ Uniform(0,1)``, keep the ``m`` largest, and set the threshold
``tau`` to the (m+1)-th largest priority. The estimator
``n_hat_i = max(n_i, tau)`` for kept items (0 otherwise) is unbiased and
near-optimal for subset sums (Szegedy 2006).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import member_mask


@dataclass(frozen=True)
class PrioritySample:
    """A drawn priority sample over items with true weights.

    Attributes
    ----------
    items: array of kept item identifiers
    weights: their true (pre-aggregated) weights ``n_i``
    estimates: HT-style adjusted weights ``max(n_i, tau)``
    tau: the (m+1)-th largest priority (0 when everything was kept)
    """

    items: np.ndarray
    weights: np.ndarray
    estimates: np.ndarray
    tau: float

    def subset_sum(self, member) -> float:
        """Unbiased estimate of ``sum_{i in S} n_i``.

        ``member`` is a membership set/array-test or predicate over the
        item identifiers.
        """
        mask = member_mask(self.items, member)
        return float(self.estimates[mask].sum())

    def subset_sum_variance(self, member) -> float:
        """Variance estimate ``sum tau * (tau - n_i)_+`` over kept S-items.

        This is the HT plug-in for Poisson PPS with pseudo-inclusion
        ``min(1, n_i/tau)``; items with ``n_i >= tau`` contribute zero.
        """
        mask = member_mask(self.items, member)
        w = self.weights[mask]
        return float(np.maximum(self.tau - w, 0.0).sum() * self.tau)


def priority_sample(
    items: np.ndarray,
    weights: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> PrioritySample:
    """Draw a size-``m`` priority sample from pre-aggregated weights."""
    items = np.asarray(items)
    w = np.asarray(weights, dtype=np.float64)
    if len(items) != len(w):
        raise ValueError("items and weights must align")
    if np.any(w <= 0):
        raise ValueError("priority sampling requires positive weights")
    n = len(w)
    if n <= m:
        return PrioritySample(items, w, w.copy(), 0.0)
    u = rng.random(n)
    q = w / u
    # indices of the m largest priorities; tau is the (m+1)-th largest
    order = np.argpartition(-q, m)[: m + 1]
    order = order[np.argsort(-q[order])]
    keep, tau_idx = order[:m], order[m]
    tau = float(q[tau_idx])
    est = np.maximum(w[keep], tau)
    return PrioritySample(items[keep], w[keep], est, tau)


def inclusion_pseudo_probs(weights: np.ndarray, tau: float) -> np.ndarray:
    """Pseudo-inclusion probabilities ``min(1, n_i / tau)`` given ``tau``."""
    if tau <= 0:
        return np.ones(len(weights))
    return np.minimum(1.0, np.asarray(weights, dtype=np.float64) / tau)
