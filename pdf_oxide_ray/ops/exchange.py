"""The gated keyed combine: one final reduce over per-batch partials.

Every keyed query plan here ends the same way. Each input batch is
combined down to at most one row per key (the per-batch partial), and a
final reduce re-combines the partials by key. ``combine_by_key`` is that
final reduce, with one rule for where it runs:

* at or below ``GATE_ROWS`` partial rows, ``fn`` runs once on the
  driver over all of them. A Ray exchange costs seconds of fixed
  overhead on kilorow inputs (measured ~4 s on 15k rows), and the
  partials are driver-sized by construction;
* above it, the key columns hash into ``n_buckets(n)`` buckets, one
  ``groupby(bucket).map_groups(fn)`` runs ``fn`` on every bucket, and
  the driver concatenates the per-bucket results.

Combining per batch before the exchange is the skew rule of FP-Hadoop
(VLDB 2015): a hot key costs the exchange its partial count, not its
rows. The bucket count comes from the row count, so no bucket holds
more than the driver path accepts.
"""

from __future__ import annotations

import contextlib
import zlib
from collections.abc import Callable

import numpy as np
import pandas as pd

GATE_ROWS = 5_000_000


@contextlib.contextmanager
def _scoped_parallelism(n: int):
    """Temporarily cap DataContext.min_parallelism for a shuffle-heavy
    query: the default 200 partitions drown small-to-medium groupbys in
    per-partition overhead (measured 2x on the sliding window at sf0.1).
    Always restored — the driver owns the session."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.min_parallelism
    ctx.min_parallelism = n
    try:
        yield
    finally:
        ctx.min_parallelism = old


def _hash32(keys) -> np.ndarray:
    """A 32-bit int64 hash per key: Fibonacci hashing for integers,
    crc32 of the text form for anything else."""
    arr = np.asarray(keys)
    if arr.dtype.kind == "f":
        # integral floats (int keys NaN-promoted by an upstream union
        # reindex) must hash like the ints they are, element by element,
        # or one key's rows land in different buckets (a chained join's
        # two sides, or two batches of one column)
        whole = np.isfinite(arr) & (np.abs(arr) < 2.0 ** 63)
        whole[whole] = np.floor(arr[whole]) == arr[whole]
        out = np.empty(len(arr), dtype=np.int64)
        out[whole] = _hash32(arr[whole].astype(np.int64))
        out[~whole] = _hash32(arr[~whole].astype(object))
        return out
    if arr.dtype.kind in "iu":
        return (arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                >> np.uint64(32)).astype(np.int64)
    return np.fromiter(
        (zlib.crc32(str(k).encode()) for k in arr),
        dtype=np.uint32, count=len(arr)).astype(np.int64)


def _bucket_of(keys: pd.Series, num_buckets: int) -> np.ndarray:
    return _hash32(keys) % num_buckets


def _key_buckets(df: pd.DataFrame, key: list[str],
                 num_buckets: int) -> np.ndarray:
    """Bucket of each row's whole key tuple: the columns' hashes are
    mixed FNV-style, so a key column that holds one value still
    spreads the rows by the others."""
    h = np.zeros(len(df), dtype=np.uint64)
    for c in key:
        h = (h * np.uint64(0x100000001B3)) ^ _hash32(df[c]).astype(np.uint64)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def n_buckets(n: int) -> int:
    """Bucket count above the gate for ``n`` partial rows: at least 64,
    and enough that an even spread keeps each bucket at or below
    ``GATE_ROWS`` rows."""
    return max(64, -(-n // GATE_ROWS))


def combine_by_key(partials, key: list[str],
                   fn: Callable[[pd.DataFrame], pd.DataFrame]
                   ) -> pd.DataFrame:
    """Run the key-local ``fn`` over the rows of ``partials`` (a Dataset
    of per-batch partials: at most one row per key per input batch).

    ``fn`` gets a frame holding every row of some set of keys (all of
    them below the gate, one bucket's above it) and returns driver-sized
    rows — per-key results, a histogram, a top-k — that the caller's
    final reduce re-combines. Above the gate the result is the
    per-bucket results concatenated in no particular order.

    Zero rows never call ``fn`` and give the one empty result: a
    column-less ``pd.DataFrame()``.
    """
    m = partials.materialize()
    n = m.count()
    if n == 0:
        return pd.DataFrame()
    if n <= GATE_ROWS:
        return fn(m.to_pandas())
    nb = n_buckets(n)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__bucket=_key_buckets(b, key, nb))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__bucket"))

    with _scoped_parallelism(nb):
        out = [b for b in m.map_batches(tag, batch_format="pandas")
               .groupby("__bucket")
               .map_groups(per_bucket, batch_format="pandas")
               .iter_batches(batch_size=None, batch_format="pandas")]
    full = [b for b in out if len(b)]
    if not full:
        return out[0] if out else pd.DataFrame()
    return pd.concat(full, ignore_index=True)
