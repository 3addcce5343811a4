"""Variance estimation and confidence intervals (paper sec 6.4-6.5).

* eq. (5): ``Var_hat(N_hat_S) = N_min**2 * C_S`` with ``C_S`` the
  number of sketch items in S (floored at 1) — an *upward-biased*
  estimate valid even for pathological non-i.i.d. streams;
* Normal confidence intervals ``N_hat_S +/- z * sqrt(Var_hat)``;
* the Poisson-PPS reference variance of eq. (1) used in Figure 9's
  comparison, computed from true counts.
"""
from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from repro.sampling.pps import thresholded_pps_probs

__all__ = [
    "subset_sum_variance",
    "normal_ci",
    "coverage",
    "pps_reference_variance",
]


def subset_sum_variance(n_min: float, c_s: int) -> float:
    """Equation 5 of the paper: ``Var_hat(N_S) = N_min**2 * max(C_S, 1)``."""
    return float(n_min) ** 2 * max(c_s, 1)


@lru_cache
def _z_value(level: float) -> float:
    """Two-sided Normal quantile ``z`` with ``P(|Z| <= z) == level``."""
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0,1), got {level}")
    return NormalDist().inv_cdf((1 + level) / 2)


def normal_ci(
    estimate: float, variance: float, *, level: float = 0.95
) -> tuple[float, float]:
    """Two-sided Normal interval ``estimate +/- z * sd``."""
    z = _z_value(level)
    sd = math.sqrt(max(variance, 0.0))
    return estimate - z * sd, estimate + z * sd


def coverage(
    truth: float, lows: np.ndarray, highs: np.ndarray
) -> float:
    """Fraction of intervals containing ``truth`` (empirical coverage)."""
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    return float(np.mean((lows <= truth) & (truth <= highs)))


def pps_reference_variance(
    all_counts: np.ndarray, subset_mask: np.ndarray, m: int
) -> float:
    """Variance of a Poisson PPS sample's subset-sum estimate (eq. 1).

    Given the *true* counts of every item and a membership mask for the
    subset S, computes ``sum_{i in S} n_i**2 (1 - pi_i) / pi_i`` with
    ``pi = min(1, alpha n)`` scaled so ``sum(pi) = m``. This is the gold
    standard a disaggregated sketch is compared against (Figure 9
    right).
    """
    n = np.asarray(all_counts, dtype=np.float64)
    pi = thresholded_pps_probs(n, m)
    sel = np.asarray(subset_mask, dtype=bool) & (pi > 0)
    return float(np.sum(n[sel] ** 2 * (1.0 - pi[sel]) / pi[sel]))
