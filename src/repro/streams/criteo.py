"""Synthetic stand-in for the Criteo display-ads impression log.

The paper's real-data experiments (Figure 6) use the public Criteo
Kaggle dataset: ~45M ad impressions, a click label, and categorical
features; the authors keep 9 features (>500M possible tuples) and
estimate 1-way and 2-way *marginal* counts from a sketch over the
disaggregated impression stream.

This container has no network access, so we generate a synthetic log
that preserves what the experiment exercises (DESIGN.md substitution
#1): 9 categorical features with heavily skewed marginals (zipf-like,
a few dominant values and a long tail — the shape reported for ad
data), weak inter-feature correlation via a shared latent segment, and
a click label whose rate depends on feature values (the label is
carried through the pipeline but never enters the sketch math). The
unit of analysis is the full 9-feature tuple; queries are marginal
subset sums, exactly as in the paper.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: per-feature cardinalities — product >> plausible row counts, so the
#: stream stays genuinely disaggregated (most tuples occur few times)
CARDINALITIES = (40, 200, 12, 800, 8, 150, 25, 400, 60)
#: per-feature zipf exponents (higher = more skew)
ALPHAS = (1.4, 1.2, 1.1, 1.3, 1.05, 1.25, 1.15, 1.35, 1.1)
N_FEATURES = len(CARDINALITIES)
FEATURES = tuple(f"c{i+1}" for i in range(N_FEATURES))
N_SEGMENTS = 8


def _zipf_probs(k: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def impressions_pdf(n_rows: int, *, seed: int = 0) -> pd.DataFrame:
    """Synthetic impression log as pandas: features c1..c9 + click.

    A latent ``segment`` per row rotates each feature's zipf ranking,
    which induces mild positive association between features (real ad
    features co-vary by audience) without changing marginal skew.
    """
    g = np.random.default_rng(seed)
    # skewed segment mix: one dominant audience keeps the per-feature
    # marginals skewed even after the per-segment value rotation below
    seg = g.choice(N_SEGMENTS, size=n_rows, p=_zipf_probs(N_SEGMENTS, 2.0))
    cols: dict[str, np.ndarray] = {}
    click_logit = np.full(n_rows, -3.0)
    for j, (card, alpha) in enumerate(zip(CARDINALITIES, ALPHAS)):
        p = _zipf_probs(card, alpha)
        raw = g.choice(card, size=n_rows, p=p)
        # rotate value ids by segment so segments prefer different values
        vals = (raw + seg * max(1, card // N_SEGMENTS)) % card
        cols[FEATURES[j]] = vals.astype(np.int64)
        # low value ids (frequent in segment 0) click slightly more
        click_logit += 0.3 * (vals < max(1, card // 10))
    click = g.random(n_rows) < 1.0 / (1.0 + np.exp(-click_logit))
    pdf = pd.DataFrame(cols)
    pdf["click"] = click.astype(np.int64)
    return pdf


def tuple_item_column(pdf: pd.DataFrame) -> pd.Series:
    """The unit of analysis: the 9-feature tuple encoded as one int64.

    Mixed-radix encoding over the fixed cardinalities — collision-free
    and cheap to marginalize (see :func:`marginal_value`).
    """
    item = np.zeros(len(pdf), dtype=np.int64)
    for f, card in zip(FEATURES, CARDINALITIES):
        item = item * card + pdf[f].to_numpy()
    return pd.Series(item, index=pdf.index, name="item")


def marginal_value(items: np.ndarray, feature_idx: int) -> np.ndarray:
    """Decode feature ``feature_idx``'s value from encoded tuple ids."""
    items = np.asarray(items, dtype=np.int64)
    div = 1
    for card in CARDINALITIES[feature_idx + 1:]:
        div *= card
    return (items // div) % CARDINALITIES[feature_idx]
