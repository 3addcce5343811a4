"""Core contribution of the paper: Unbiased Space Saving and its machinery.

Modules
-------
kernel        Algorithm 1 update kernel (both variants), lazy min set
space_saving  High-level Deterministic / Unbiased Space Saving sketch API
result        CountSketchResult: the one query type (subset sums, CIs, top-k)
exact         Exact-enumeration reference implementation (Theorem 1/2 tests)
merge         Unbiased merge of sketches (Theorem 2): one reduction, one rule
variance      Subset-sum variance estimator (eq. 5) and Normal CIs (sec 6.5)
weighted      Weighted Unbiased Space Saving via PPS reduction (sec 5.3)
decay         Forward-decay time-weighted Unbiased Space Saving (sec 5.3)
spark_sketch  DataFrame aggregation: distributed disaggregated subset sums
"""
