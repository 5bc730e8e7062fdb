"""The within-key pair kernel: every member pair of every key.

The dedup and near-dup operators share one plan: explode each document
into keys (winnow fingerprints, 32-char anchors, MinHash bands, LSH
buckets, simhash prefixes, content hashes), co-locate each key's rows
with ``exchange_by_key``, sort them by key, and emit the pairs of each
key's run of rows. ``key_runs`` finds the runs; ``run_pairs`` gives the
row-index pairs of every run up to a size cap, one ``triu_indices``
fancy-index per run-size class, so no Python loop runs per key.

A run above the cap is a hot key. What it emits is the caller's policy,
read off ``(starts, counts)``: nothing, a star of pairs from its first
member, or membership markers (the FP-Hadoop skew rule, VLDB 2015).
"""

from __future__ import annotations

import numpy as np


def key_runs(*cols) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of the runs of equal key tuples in rows
    sorted by the key columns ``cols`` (equal-length array-likes).
    Zero rows give two empty int64 arrays."""
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    brk = np.zeros(n, dtype=bool)
    brk[0] = True
    for c in cols:
        c = np.asarray(c)
        brk[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(brk)
    return starts, np.diff(np.r_[starts, n])


def run_pairs(starts: np.ndarray, counts: np.ndarray,
              max_size: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(a, b)``, ``a < b``, of every run with
    ``2 <= count <= max_size`` (no upper bound when ``max_size`` is
    None). Pairs come grouped by run size, each run's pairs in
    ``triu_indices`` order."""
    keep = counts >= 2
    if max_size is not None:
        keep &= counts <= max_size
    out_a = [np.zeros(0, np.int64)]
    out_b = [np.zeros(0, np.int64)]
    for s in np.unique(counts[keep]):
        sel = starts[counts == s]
        ia, ib = np.triu_indices(int(s), k=1)
        out_a.append((sel[:, None] + ia).ravel())
        out_b.append((sel[:, None] + ib).ravel())
    return np.concatenate(out_a), np.concatenate(out_b)
