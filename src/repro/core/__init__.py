"""Core contribution of the paper: Unbiased Space Saving and its machinery.

Modules
-------
kernel        Algorithm 1 update kernel (both variants), lazy min-bin list
space_saving  Deterministic / Unbiased Space Saving: the kernel plus result()
result        CountSketchResult: the one query type (estimates, sums, CIs, top-k)
merge         Unbiased merge of sketches (Theorem 2): one reduction, one rule
variance      Subset-sum variance estimator (eq. 5) and Normal CIs (sec 6.5)
weighted      Weighted Unbiased Space Saving via PPS reduction (sec 5.3)
decay         Forward-decay time-weighted Unbiased Space Saving (sec 5.3)
spark_sketch  DataFrame aggregation: distributed disaggregated subset sums
"""
