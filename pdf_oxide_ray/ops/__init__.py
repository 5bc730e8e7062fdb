"""Query-plan kit shared by the query families (LEAF package: numpy,
pandas and ray only, never ``queries`` — the `functions/lm_ab.py`
precedent, so Ray workers can unpickle a family's UDFs without
re-entering the registry import).

* ``quantile`` — the percentile_disc rank in its float64 and exact
  integer arithmetics, and the pick off a reduced value histogram.
* ``ordered`` — the sorted-batch pass with a driver-side seam stitch.
* ``exchange`` — ``exchange_by_key``, the one hash-bucketed exchange:
  a Dataset (or a union of tagged sides) hashed on its key tuple into
  ``BUCKETS`` buckets, a key-local ``fn`` per bucket, a lazy Dataset
  out; ``combine_by_key``, the gated keyed combine over per-batch
  partials (driver below ``GATE_ROWS``, ``exchange_by_key`` above);
  and ``sum_by``, the grouped sum: a per-block combine fused into the
  caller's map task, then one ``combine_by_key`` reduce.
* ``pairs`` — the within-key pair kernel (numpy only): ``key_runs``,
  the runs of equal key tuples in key-sorted rows, and ``run_pairs``,
  every member pair of each run up to a size cap — the dedup and
  near-dup operators' per-key pairing after ``exchange_by_key``.
"""
