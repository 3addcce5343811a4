"""Sampling substrates: PPS machinery and the paper's baselines.

pps       thresholded PPS inclusion probabilities and the
          Deville-Tille splitting (pivotal) fixed-size PPS sample
          (paper section 5.1)
priority  priority sampling on pre-aggregated data (Duffield et al.),
          the state-of-the-art subset-sum baseline of Figure 5 and the
          reduction of every merge
bottomk   uniform item sampling (bottom-k sketch), baseline of Figure 4

Both baselines return a :class:`~repro.core.result.CountSketchResult`,
so they answer queries through the same code as the sketches.
"""
