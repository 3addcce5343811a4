"""Core contribution of the paper: Unbiased Space Saving and its machinery.

Modules
-------
kernel        O(1)/row stream-summary update kernel (Algorithm 1, both variants)
space_saving  High-level Deterministic / Unbiased Space Saving sketch API
result        CountSketchResult: the one query type (subset sums, CIs, top-k)
exact         Exact-enumeration reference implementation (Theorem 1/2 tests)
merge         Unbiased (Theorem 2) and Misra-Gries merges of sketches
variance      Subset-sum variance estimator (eq. 5) and Normal CIs (sec 6.5)
weighted      Weighted Unbiased Space Saving via PPS reduction (sec 5.3)
decay         Forward-decay time-weighted Unbiased Space Saving (sec 5.3)
spark_sketch  DataFrame aggregation: distributed disaggregated subset sums
"""
