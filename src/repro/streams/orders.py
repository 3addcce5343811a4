"""Stream arrangements over a per-item count vector (paper secs 6.3, 7).

Items are integer ids ``0..len(counts)-1``; a stream is an int64 array
with item ``i`` occurring exactly ``counts[i]`` times. Arrangements:

* :func:`permuted_stream` — uniformly random row order; exchangeable,
  equivalent to an i.i.d. stream in the limit (de Finetti, sec 7);
* :func:`sorted_stream` — rows grouped by item in ascending frequency
  order: the worst case for Unbiased Space Saving (sec 7.1);
* :func:`two_phase_stream` — two independently permuted halves over
  disjoint item sets: a *natural* pathological case for Deterministic
  Space Saving (data partitioned by key, partitions fed in order);
* :func:`epoch_of_items` — partition of item ids into contiguous
  equal-size epochs (Figure 8-10's query sets).
"""
from __future__ import annotations

import numpy as np


def expand_counts(counts: np.ndarray, offset: int = 0) -> np.ndarray:
    """Disaggregate: item id ``i+offset`` repeated ``counts[i]`` times."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(offset, offset + len(counts), dtype=np.int64), counts)


def permuted_stream(
    counts: np.ndarray, rng: np.random.Generator, offset: int = 0
) -> np.ndarray:
    """Uniformly shuffled disaggregated stream."""
    rows = expand_counts(counts, offset)
    rng.shuffle(rows)
    return rows


def sorted_stream(counts: np.ndarray) -> np.ndarray:
    """Rows grouped per item, items in ascending frequency order.

    Rarest items first: the pathological stream of sec 7.1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    return np.repeat(order.astype(np.int64), counts[order])


def two_phase_stream(
    counts_first: np.ndarray,
    counts_second: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Two permuted halves over disjoint items; returns (stream, n_first).

    Items ``0..len(counts_first)-1`` appear only in the first half,
    items ``len(counts_first)..`` only in the second (Figure 7 setup).
    """
    first = permuted_stream(counts_first, rng, offset=0)
    second = permuted_stream(counts_second, rng, offset=len(counts_first))
    return np.concatenate([first, second]), len(counts_first)


def epoch_of_items(n_items: int, n_epochs: int) -> np.ndarray:
    """Epoch index per item id: contiguous blocks of equal size.

    Matches the paper's partition of a frequency-sorted item universe
    into epochs with an equal number of *distinct* items each.
    """
    if n_epochs < 1 or n_epochs > n_items:
        raise ValueError("need 1 <= n_epochs <= n_items")
    return (np.arange(n_items, dtype=np.int64) * n_epochs) // n_items
