"""percentile_disc off a reduced ``(value, count)`` histogram.

SQL ``percentile_disc(p)`` (DuckDB ``quantile_disc``) is the value of
rank ``ceil(n*p)`` (1-based) among the n sorted values; with the
histogram sorted by value and ``cum`` its cumulative counts, that is
the value at the first ``cum >= rank``. The rank has two arithmetics,
and they disagree (n=100, p=0.07: 8 in float64, 7 exactly), so each
caller keeps the one its DuckDB twin evaluates:

* ``disc_rank`` — ``ceil(float(n) * p)`` in float64, what DuckDB
  computes for a DOUBLE fraction;
* ``disc_rank_exact`` — ``ceil(n * num / den)`` in integers, for twins
  that spell the rank out in integer SQL.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd


def disc_rank(n: int, p: float) -> int:
    """1-based percentile_disc rank in float64 (DuckDB's evaluation),
    clamped to [1, n] so p=0 reads the minimum."""
    return min(max(math.ceil(float(n) * p), 1), n)


def disc_rank_exact(n, num: int, den: int):
    """1-based percentile_disc rank for p = num/den in exact integers:
    ``ceil(n*num/den)``. ``n`` may be an int64 array (one rank each)."""
    return -(-n * num // den)


def disc_index(cum: np.ndarray, rank) -> int:
    """Histogram row holding the rank-th smallest value: the first
    ``cum >= rank``."""
    return int(np.searchsorted(cum, rank))


def disc_pick(values: np.ndarray, cum: np.ndarray, rank):
    """The rank-th smallest value of a value-sorted histogram."""
    return values[disc_index(cum, rank)]


def disc_by_group(hist: pd.DataFrame, group: str, value: str,
                  ps) -> list[tuple]:
    """``(key, n, q_1, ..., q_k)`` per group in key order, q_i the
    float64-rule percentile_disc at ``ps[i]``, off a
    ``(group, value, cnt)`` histogram."""
    rows = []
    for key, g in hist.groupby(group):
        g = g.sort_values(value)
        cum = g["cnt"].cumsum().to_numpy(np.int64)
        vals = g[value].to_numpy()
        n = int(cum[-1])
        rows.append((key, n, *(disc_pick(vals, cum, disc_rank(n, p))
                               for p in ps)))
    return rows
