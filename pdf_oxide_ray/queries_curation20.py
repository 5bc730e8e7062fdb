"""Round-4u operator family — robust statistics:

* `theil_sen_daily_trend` — Theil-Sen robust trend of daily order
  revenue: the exact MEDIAN of all O(days²) pairwise slopes
  (percentile_disc rule). The outlier-proof companion to the
  OLS/Mann-Kendall monitors (`forecast_revenue`,
  `daily_trend_test`): one spiky day cannot move it.
* `spearman_qty_price` — Spearman rank correlation between lineitem
  quantity and extended price with exact tie-corrected (average)
  ranks: the monotone-dependence screen that Pearson
  (`lineitem_value_corr`) misses under nonlinearity.

Distributed plans (shuffle budgets — also in SCALE.md):

`theil_sen_daily_trend`: per-batch (day, cents) int partials -> ONE
day-bounded reduce; the O(days²) pairwise-slope scan runs driver-side
on the dimension-scale series (the `daily_trend_test` discipline) as
one vectorized triu difference; each slope is the SAME int/int
division on both engines, so the multiset — and its disc-rule median —
is bit-identical.

`spearman_qty_price`: ONE (q-cents, p-cents) joint value-histogram
reduce (cells bounded by distinct pairs, the repo's histogram
discipline); doubled average ranks derive from the marginal cumulative
counts (a tie run of c after rank r0 has doubled avg rank 2*r0+c+1 —
the twin's ``2*RANK() + COUNT(*) OVER (PARTITION BY v) - 1``); all
moment sums are exact integers (int64 below n=1e6, Python bigints
above — the twin rides HUGEINT), and rho closes over one mirrored
IEEE multiply/sqrt/divide chain.

Empty inputs return the twins' empty shapes (single zero/NULL rows).
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .ops.quantile import disc_rank
from .queries import _pq, register


_DAY_US = 86_400_000_000


# --------------------------------------------- Theil-Sen daily trend

def q_theil_sen_daily_trend(sf_dir: str) -> pd.DataFrame:
    """Median pairwise slope of daily revenue — module docstring."""
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b["o_totalprice"].to_numpy(np.float64) * 100
        return pd.DataFrame({
            "day": b["o_orderdate"].to_numpy("datetime64[us]")
            .astype(np.int64) // _DAY_US,
            "c": np.copysign(np.floor(np.abs(p) + 0.5), p)
            .astype(np.int64)})

    d = sum_by(ds.map_batches(partial, batch_format="pandas"),
               ["day"], ["c"])
    if d.empty:
        return pd.DataFrame({
            "n_days": pd.Series([0], dtype="int64"),
            "n_pairs": pd.Series([0], dtype="int64"),
            "slope_per_day": [np.nan]})
    d = d.sort_values("day")
    day = d["day"].to_numpy(np.int64)
    c = d["c"].to_numpy(np.int64)
    n = len(day)
    iu, ju = np.triu_indices(n, k=1)
    if not len(iu):
        return pd.DataFrame({
            "n_days": pd.Series([n], dtype="int64"),
            "n_pairs": pd.Series([0], dtype="int64"),
            "slope_per_day": [np.nan]})
    # the twin's chain term-for-term: (DOUBLE(dc) / 100.0) / dd
    slopes = ((c[ju] - c[iu]).astype(np.float64) / 100.0) \
        / (day[ju] - day[iu]).astype(np.float64)
    s = np.sort(slopes)
    med = float(s[disc_rank(len(s), 0.5) - 1])
    return pd.DataFrame({
        "n_days": pd.Series([n], dtype="int64"),
        "n_pairs": pd.Series([len(s)], dtype="int64"),
        "slope_per_day": [med]})


register("theil_sen_daily_trend", q_theil_sen_daily_trend, f"""
    WITH d AS (
      SELECT epoch_us(o_orderdate) // {_DAY_US} AS day,
             CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                  AS BIGINT) AS c
      FROM orders GROUP BY day),
    p AS (
      SELECT (CAST(b.c - a.c AS DOUBLE) / 100.0) / (b.day - a.day)
               AS slope
      FROM d a JOIN d b ON b.day > a.day),
    m AS (SELECT CAST(count(*) AS BIGINT) AS n_pairs,
                 quantile_disc(slope, 0.5) AS slope_per_day
          FROM p)
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_days,
           n_pairs, slope_per_day
    FROM m""")


# ------------------------------------------------ Spearman rho (ties)

_SPEARMAN_INT64_GATE = 1_000_000  # past this, moment sums ride bigints


def _doubled_avg_ranks(vals: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Doubled average ranks per distinct ascending value: a tie run
    of c after rank r0 has doubled avg rank 2*r0 + c + 1."""
    order = np.argsort(vals, kind="mergesort")
    r0 = np.zeros(len(vals), dtype=np.int64)
    r0[order] = np.concatenate(
        [[0], np.cumsum(cnts[order])[:-1]])
    return 2 * r0 + cnts + 1


def q_spearman_qty_price(sf_dir: str) -> pd.DataFrame:
    """Tie-corrected Spearman rho of quantity vs price — module
    docstring."""
    ds = _pq(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        q = b["l_quantity"].to_numpy(np.float64) * 100
        p = b["l_extendedprice"].to_numpy(np.float64) * 100
        return pd.DataFrame({
            "q": np.copysign(np.floor(np.abs(q) + 0.5), q)
            .astype(np.int64),
            "p": np.copysign(np.floor(np.abs(p) + 0.5), p)
            .astype(np.int64), "cnt": np.int64(1)})

    cell = sum_by(ds.map_batches(cells, batch_format="pandas"),
                  ["q", "p"], ["cnt"])
    if cell.empty:
        return pd.DataFrame({"n": pd.Series([0], dtype="int64"),
                             "rho": [np.nan]})
    cnt = cell["cnt"].to_numpy(np.int64)
    n = int(cnt.sum())
    qm = cell.groupby("q", as_index=False)["cnt"].sum()
    pm = cell.groupby("p", as_index=False)["cnt"].sum()
    xr_of = dict(zip(
        qm["q"].tolist(),
        _doubled_avg_ranks(qm["q"].to_numpy(np.int64),
                           qm["cnt"].to_numpy(np.int64)).tolist()))
    yr_of = dict(zip(
        pm["p"].tolist(),
        _doubled_avg_ranks(pm["p"].to_numpy(np.int64),
                           pm["cnt"].to_numpy(np.int64)).tolist()))
    xr = cell["q"].map(xr_of).to_numpy(np.int64)
    yr = cell["p"].map(yr_of).to_numpy(np.int64)
    if n <= _SPEARMAN_INT64_GATE:
        sx = int((cnt * xr).sum())
        sy = int((cnt * yr).sum())
        sxx = int((cnt * xr * xr).sum())
        syy = int((cnt * yr * yr).sum())
        sxy = int((cnt * xr * yr).sum())
    else:  # exact Python bigints (the twin rides HUGEINT)
        xo = xr.astype(object)
        yo = yr.astype(object)
        co = cnt.astype(object)
        sx = int((co * xo).sum())
        sy = int((co * yo).sum())
        sxx = int((co * xo * xo).sum())
        syy = int((co * yo * yo).sum())
        sxy = int((co * xo * yo).sum())
    num = n * sxy - sx * sy
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    rho = (float(num) / math.sqrt(float(den_x) * float(den_y))
           if den_x > 0 and den_y > 0 else np.nan)
    return pd.DataFrame({"n": pd.Series([n], dtype="int64"),
                         "rho": [rho]})


register("spearman_qty_price", q_spearman_qty_price, """
    WITH x AS (
      SELECT CAST(round(l_quantity * 100) AS BIGINT) AS q,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS p
      FROM lineitem),
    r AS (
      SELECT CAST(2 * RANK() OVER (ORDER BY q)
                  + COUNT(*) OVER (PARTITION BY q) - 1
                  AS HUGEINT) AS xr,
             CAST(2 * RANK() OVER (ORDER BY p)
                  + COUNT(*) OVER (PARTITION BY p) - 1
                  AS HUGEINT) AS yr
      FROM x),
    m AS (
      SELECT CAST(count(*) AS BIGINT) AS n,
             SUM(xr) AS sx, SUM(yr) AS sy,
             SUM(xr * xr) AS sxx, SUM(yr * yr) AS syy,
             SUM(xr * yr) AS sxy
      FROM r)
    SELECT n,
           -- HUGEINT->DOUBLE via VARCHAR: DuckDB's direct cast is not
           -- correctly rounded past 2^53 (observed 1-ulp off at
           -- sf0.1), while strtod and Python float(int) both are
           CASE WHEN n * sxx - sx * sx > 0
                     AND n * syy - sy * sy > 0
                THEN CAST(CAST(n * sxy - sx * sy AS VARCHAR)
                          AS DOUBLE)
                     / sqrt(CAST(CAST(n * sxx - sx * sx AS VARCHAR)
                                 AS DOUBLE)
                            * CAST(CAST(n * syy - sy * sy AS VARCHAR)
                                   AS DOUBLE))
           END AS rho
    FROM m""")
