"""Query-plan kit shared by the query families (LEAF package: numpy,
pandas and ray only, never ``queries`` — the `functions/lm_ab.py`
precedent, so Ray workers can unpickle a family's UDFs without
re-entering the registry import).

* ``quantile`` — the percentile_disc rank in its float64 and exact
  integer arithmetics, and the pick off a reduced value histogram.
* ``ordered`` — the sorted-batch pass with a driver-side seam stitch.
"""
