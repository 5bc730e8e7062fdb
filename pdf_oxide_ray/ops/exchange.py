"""The keyed exchange: one home for every hash-bucketed groupby.

``exchange_by_key`` is the ungated op. It hashes each row's key tuple
into ``BUCKETS`` buckets, runs one ``groupby(bucket).map_groups`` and
hands every bucket's rows to a key-local ``fn``: ``fn``'s output for a
key depends only on that key's rows, so which keys share a bucket
never shows in the result. The input is one Dataset or a list of
tagged sides (a join's two relations, a graph's edges and labels) that
the op unions.

``combine_by_key`` is the gated keyed combine: one final reduce over
per-batch partials, with one rule for where it runs:

* at or below ``GATE_ROWS`` partial rows, ``fn`` runs once on the
  driver over all of them. A Ray exchange costs seconds of fixed
  overhead on kilorow inputs (measured ~4 s on 15k rows), and the
  partials are driver-sized by construction;
* above it, the partials go through ``exchange_by_key`` with
  ``n_buckets(n)`` buckets, and the driver concatenates the
  per-bucket results.

Combining per batch before the exchange is the skew rule of FP-Hadoop
(VLDB 2015): a hot key costs the exchange its partial count, not its
rows. The bucket count comes from the row count, so no bucket holds
more than the driver path accepts.

``sum_by`` is that plan for the grouped sum, end to end: a per-block
``groupby(by)[cols].sum()`` fused into the caller's map task, then one
``combine_by_key`` reduce of the same sum.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable

import numpy as np
import pandas as pd

GATE_ROWS = 5_000_000
BUCKETS = 64


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


def exchange_by_key(ds, key: list[str],
                    fn: Callable[[pd.DataFrame], pd.DataFrame],
                    buckets: int = BUCKETS):
    """The lazy Dataset of ``fn`` run on every hash bucket of the
    ``key`` tuple of ``ds`` (a Dataset, or a list of sides with the same
    columns): all rows of a key meet in one ``fn`` call, with the
    bucket column dropped. ``fn`` must be key-local; each call gets the
    rows of the keys that hash to one bucket. Output order is
    unspecified and empty buckets never call ``fn``.

    Each side is hashed before the union, so the hash fuses into the
    side's own map stage (hashing after the union is one more task per
    block: measured +0.4 s on ``user_reconcile`` at sf0.1, 4-vCPU VM).

    Shuffle budget: one exchange of the input rows; Ray's sort shuffle
    makes as many partitions as the input has blocks.
    """
    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__bucket=_key_buckets(b, key, buckets))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__bucket"))

    sides = [s.map_batches(tag, batch_format="pandas")
             for s in (ds if isinstance(ds, list) else [ds])]
    both = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    return both.groupby("__bucket").map_groups(per_bucket,
                                               batch_format="pandas")


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
    out = [b for b in exchange_by_key(m, key, fn, n_buckets(n))
           .iter_batches(batch_size=None, batch_format="pandas")]
    full = [b for b in out if len(b)]
    if not full:
        return out[0] if out else pd.DataFrame()
    return pd.concat(full, ignore_index=True)


def sum_by(ds, by: list[str], cols: list[str]) -> pd.DataFrame:
    """``cols`` summed per ``by`` key over every row of ``ds``: the one
    grouped sum. Rows whose key holds a null drop out, as in pandas.

    Each block is combined to one row per key (a task-pool map over
    whole blocks, so Ray fuses it into the caller's own map task), and
    the partials go through ``combine_by_key``: one sorted
    ``groupby(by)[cols].sum()`` on the driver at or below
    ``GATE_ROWS`` partial rows, bucketed above it. A count is the sum
    of an ``np.int64(1)`` column.

    Zero rows give ``by + cols`` as empty columns of dtype object.
    """
    def per_block(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(by, as_index=False, sort=False)[cols].sum()

    out = combine_by_key(
        ds.map_batches(per_block, batch_format="pandas", batch_size=None),
        by, lambda d: d.groupby(by, as_index=False)[cols].sum())
    if not len(out.columns):  # zero rows: groupby would raise
        return pd.DataFrame({c: [] for c in by + cols})
    return out
