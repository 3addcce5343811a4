"""Probability-proportional-to-size (PPS) sampling machinery (sec 5.1).

Provides:

* :func:`thresholded_pps_probs` — inclusion probabilities
  ``pi_i = min(1, alpha * x_i)`` with ``sum(pi) == k`` (the standard
  fixed-expected-size PPS design the paper references);
* :func:`splitting_pps_sample` — a fixed-size design with *exact*
  marginal inclusion probabilities ``pi``, implemented with the ordered
  pivotal method, a member of the Deville-Tille (1998) splitting family
  the paper cites for the merge operation.

Both the probabilities and the fixed-size sample cost O(n) after one
sort, and the pivotal pass draws every sample size k. The weighted
sketch's reduction (:mod:`repro.core.weighted`) draws one such sample
to cut its ``SPILL_FACTOR * m`` items to m; a kept unit's
Horvitz-Thompson value ``x_i / pi_i`` is its unbiased estimate.
"""
from __future__ import annotations

import numpy as np


def thresholded_pps_probs(weights: np.ndarray, k: int) -> np.ndarray:
    """Inclusion probabilities ``min(1, alpha*w)`` summing to ``min(k, n)``.

    The ``j`` largest weights are pinned to 1 (the "alpha x_i vs 1"
    construction in section 5.1) and the remaining ``k - j`` of expected
    sample size is spread proportionally over the rest. ``j`` is found
    from one sort and a cumulative sum. Zero weights get 0; when at most
    ``k`` weights are positive, each positive one gets 1 and the sum
    falls short of ``k``.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    order = w.argsort()
    asc = w[order]
    if n and asc[0] < 0:
        raise ValueError("weights must be non-negative")
    if k >= n:
        return np.ones(n)
    if k <= 0:
        return np.zeros(n)
    if asc[n - k - 1] <= 0:
        # at most k positive weights
        return (w > 0).astype(np.float64)
    cum = asc.cumsum()
    # with the i-1 larger weights pinned, the i-th largest (i = 1..k)
    # reaches 1 iff it times the k - i + 1 left to spread is at least the
    # mass of itself and all smaller ones (cum at its position); this
    # holds exactly for i = 1..j
    j = int(np.count_nonzero(asc[n - k:] * np.arange(1, k + 1) >= cum[n - k:]))
    if j == k:
        # the unpinned mass is negligible next to the k pinned weights
        pi = np.zeros(n)
    else:
        pi = np.minimum(w / (cum[n - 1 - j] / (k - j)), 1.0)
    pi[order[n - j:]] = 1.0
    return pi


def splitting_pps_sample(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-size PPS sample with exact marginals, O(n) after one sort.

    The ordered pivotal method: the two-point instance of the
    Deville-Tille splitting recursion. One unresolved unit is
    carried; each step pairs it with the next unresolved unit, writes
    the pair's ``pi`` as a mixture in which one of the two is resolved
    to 0 or 1, and flips a coin for the branch. The survivor is carried
    on. Units are visited from the last to the first.

    Returns ``(mask, pi)`` where ``mask.sum() == min(k, n)`` (or the
    number of positive weights, if smaller) and ``P(mask[i]) == pi[i]``
    exactly.
    """
    pi = thresholded_pps_probs(weights, k)
    eps = 1e-12
    mask = pi >= 1 - eps
    free = np.flatnonzero((pi > eps) & ~mask)[::-1]
    coins = iter(rng.random(len(free)).tolist())
    carry, a = -1, 0.0
    for j, b in zip(free.tolist(), pi[free].tolist()):
        if carry < 0:
            carry, a = j, b
            continue
        u = next(coins)
        s = a + b
        if s <= 1.0:
            # one of the two is zeroed; the other absorbs the mass
            if u * s < b:
                carry = j
            a = s
            if a >= 1 - eps:
                mask[carry] = True
                carry = -1
        else:
            # one of the two is pinned to 1; the other keeps the excess
            if u * (2 - s) < 1 - b:
                mask[carry] = True
                carry = j
            else:
                mask[j] = True
            a = s - 1.0
            if a <= eps:
                carry = -1
    # a single unresolved unit remains if sum(pi) is non-integral
    if carry >= 0 and next(coins) < a:
        mask[carry] = True
    return mask, pi

