"""The sorted-batch pass: one streamed scan over a globally sorted
dataset whose cross-batch adjacencies are stitched on the driver.

Batches of a fixed size are contiguous slices of the sorted order, so
every adjacency in that order is either inside one batch (folded on
the worker) or a seam between consecutive batches (last row of batch i
against the first row of batch i+1). Each batch ships its fold and its
two edge summaries, tagged with its first row's sort key; the driver
re-sorts the tags to put the batches back in global order. A hot key
spreads across many range partitions instead of landing on one task —
the skew remedy that a ``groupby(key).map_groups`` plan lacks. The
driver holds 2 edge summaries per batch.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable

import pandas as pd


def ordered_pass(ds, key: list[str],
                 fold: Callable[[pd.DataFrame], pd.DataFrame],
                 edge: Callable[[pd.DataFrame], tuple[dict, dict]],
                 batch_size: int = 4096,
                 ) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Run ``fold`` and ``edge`` over every non-empty batch of ``ds``,
    which is already sorted ascending by ``key`` (unique per row).

    ``fold(b)`` returns the batch's interior partial rows; ``edge(b)``
    returns ``(first, last)``, dicts summarising the batch's first and
    last rows (or islands). Returns ``(folds, first, last)``: the folds
    concatenated in global batch order, and one row per batch of the
    ``first`` / ``last`` summaries in global order — so the seams are
    ``last.iloc[i]`` against ``first.iloc[i + 1]``. Empty input gives
    three empty frames.
    """

    def tagged(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"part": pd.Series([], dtype=object)})
        tag = tuple(b[c].iloc[0] for c in key)
        return pd.DataFrame({"part": [pickle.dumps(
            (tag, fold(b), *edge(b)))]})

    # fixed batch_size: batches stay contiguous slices of the sorted
    # order AND the seam path runs at every scale (a single-block read
    # would otherwise arrive as one batch)
    parts = ds.map_batches(tagged, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    got = sorted((pickle.loads(p) for p in parts.get("part", [])),
                 key=lambda t: t[0])
    if not got:
        return pd.DataFrame(), pd.DataFrame(), pd.DataFrame()
    return (pd.concat([t[1] for t in got], ignore_index=True),
            pd.DataFrame([t[2] for t in got]),
            pd.DataFrame([t[3] for t in got]))
