"""Round-5q operator — grouped-jackknife uncertainty:

* `jackknife_variance` — the delete-one-GROUP jackknife standard
  error of the corpus mean order value, grouped by customer nation:
  θ = S/N; θ₍ᵢ₎ = (S−sᵢ)/(N−nᵢ) leaving nation i out;
  SE² = (G−1)/G · Σ (θ₍ᵢ₎ − θ̄₍·₎)². The cluster-robust error bar a
  revenue/metric report should carry when observations cluster by
  group (plain SE assumes independence; nations are clusters) — the
  resampling-free uncertainty op next to the Wilson bounds and
  Welch tests. Also emits the naive i.i.d. SE for contrast.

Distributed plan (shuffle budget — also in SCALE.md): per-batch
(nation, n, Σcents, Σcents²) int partials ride `adaptive_join`'s
customer→nation dimension broadcast -> ONE nation-bounded reduce
(≤ 25 rows); the jackknife fold is driver math over those rows.

Exactness: money rides int64 cents; Σx² rides the hi/lo int64 split
(cents² exceeds 2^63 only past ~3e9-cent line items — bound
documented); every float enters through one mirrored chain over
identical integers. Empty input returns the twin's single row of
zeros/NULLs. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .queries import _cents, _pq, register


def q_jackknife_variance(sf_dir: str) -> pd.DataFrame:
    """Delete-one-nation jackknife SE of mean order value — module
    docstring."""
    import ray

    from .stages.joins import _get_broadcast, adaptive_join

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    empty = pd.DataFrame({
        "n_groups": pd.Series([0], dtype="int64"),
        "n_orders": pd.Series([0], dtype="int64"),
        "mean_value": [np.nan],
        "se_naive": [np.nan],
        "se_jackknife": [np.nan]})

    joined = adaptive_join(orders, cust, left_on="o_custkey",
                           right_on="c_custkey")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        c = _cents(b["o_totalprice"]).to_numpy()
        c2 = c * c  # <= ~6e14 per element: fits int64
        # hi/lo split: the corpus-level sum of cents^2 exceeds int64,
        # so the exchange carries two safe partial columns
        return pd.DataFrame({
            "nation": b["c_nationkey"].to_numpy(np.int64),
            "n": np.int64(1), "s": c,
            "s2h": c2 >> 20, "s2l": c2 & np.int64(0xFFFFF)})

    g = sum_by(joined.map_batches(part, batch_format="pandas"),
               ["nation"], ["n", "s", "s2h", "s2l"])
    if g.empty:
        return empty
    n_i = g["n"].to_numpy(np.int64)
    s_i = g["s"].to_numpy(np.int64)
    s2 = (int(g["s2h"].sum()) << 20) + int(g["s2l"].sum())
    N = int(n_i.sum())
    S = int(s_i.sum())
    G = len(g)
    theta = float(S) / N
    # naive i.i.d. SE: sqrt(((s2/N - mean^2) / (N-1)) ) in cents
    if N > 1:
        var1 = (float(s2) / N - theta * theta) / (N - 1)
        se_naive = float(np.sqrt(max(var1, 0.0)))
    else:
        se_naive = np.nan
    if G > 1 and (n_i < N).all():
        # quantize each leave-one-out mean to the 1e-6-cent grid so
        # the moment sums are exact integers (order-free), then one
        # mirrored float chain
        th_i = (S - s_i).astype(np.float64) \
            / (N - n_i).astype(np.float64)
        raw = th_i * 1e6
        th6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        sth = int(th6.sum())
        sth2 = sum(int(t) * int(t) for t in th6)  # python bigints
        m = float(sth) / G
        v = (float(sth2) - float(sth) * m) / 1e12
        se_j = float(np.sqrt(max((G - 1.0) / G * v, 0.0)))
    else:
        se_j = np.nan
    return pd.DataFrame({
        "n_groups": pd.Series([G], dtype="int64"),
        "n_orders": pd.Series([N], dtype="int64"),
        "mean_value": [theta / 100.0],
        "se_naive": [se_naive / 100.0 if se_naive == se_naive
                     else np.nan],
        "se_jackknife": [se_j / 100.0 if se_j == se_j else np.nan]})


register("jackknife_variance", q_jackknife_variance, """
    WITH j AS (
      SELECT c.c_nationkey AS nation,
             CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
      FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
    g AS (
      SELECT nation, CAST(count(*) AS BIGINT) AS n,
             CAST(SUM(cents) AS BIGINT) AS s,
             SUM(CAST(cents AS HUGEINT) * CAST(cents AS HUGEINT))
               AS s2
      FROM j GROUP BY nation),
    tot AS (
      SELECT CAST(count(*) AS BIGINT) AS gg,
             CAST(SUM(n) AS BIGINT) AS nn,
             CAST(SUM(s) AS BIGINT) AS ss,
             SUM(s2) AS ss2
      FROM g),
    th AS (
      SELECT g.nation,
             CAST(round(CAST(tot.ss - g.s AS DOUBLE)
                        / CAST(tot.nn - g.n AS DOUBLE)
                        * 1000000) AS BIGINT) AS th6
      FROM g CROSS JOIN tot WHERE g.n < tot.nn),
    jk AS (
      SELECT CAST(count(*) AS BIGINT) AS g_used,
             CAST(SUM(th6) AS BIGINT) AS sth,
             SUM(CAST(th6 AS HUGEINT) * CAST(th6 AS HUGEINT))
               AS sth2
      FROM th)
    SELECT tot.gg AS n_groups, tot.nn AS n_orders,
           CASE WHEN tot.nn > 0
                THEN (CAST(tot.ss AS DOUBLE) / tot.nn) / 100.0
           END AS mean_value,
           CASE WHEN tot.nn > 1
                THEN sqrt(greatest(
                  (CAST(CAST(tot.ss2 AS VARCHAR) AS DOUBLE) / tot.nn
                   - (CAST(tot.ss AS DOUBLE) / tot.nn)
                     * (CAST(tot.ss AS DOUBLE) / tot.nn))
                  / (tot.nn - 1), 0.0)) / 100.0
           END AS se_naive,
           CASE WHEN tot.gg > 1 AND jk.g_used = tot.gg
                THEN sqrt(greatest(
                  (CAST(tot.gg AS DOUBLE) - 1.0) / tot.gg
                  * ((CAST(CAST(jk.sth2 AS VARCHAR) AS DOUBLE)
                      - CAST(jk.sth AS DOUBLE)
                        * (CAST(jk.sth AS DOUBLE)
                           / CAST(tot.gg AS DOUBLE)))
                     / 1000000000000.0), 0.0)) / 100.0
           END AS se_jackknife
    FROM tot CROSS JOIN jk""")
