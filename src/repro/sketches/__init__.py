"""Related frequent-item sketches (paper sec 5.2).

misra_gries     Misra-Gries, isomorphic to Deterministic Space Saving
"""
