"""Round-4ad operator family — session analytics + sampling tables +
conversion latency:

* `bounce_rate` — per session ENTRY type: session count, single-event
  ("bounce") count, bounce rate and mean session length, over 30-min
  inactivity sessions (the `user_sessions` gap rule: strictly > 30
  min starts a new session). The standard web-analytics landing
  report, here grouped by the event type that OPENED the session.
* `negative_sampling_table` — the word2vec negative-sampling noise
  table: top-50 tokens by exact corpus count with p proportional to
  n^0.75, normalized within the table. n^0.75 is computed as
  sqrt(n * sqrt(n)) — two IEEE-exact sqrts and one multiply — NOT
  pow() (libm pow is not correctly rounded and differs across
  engines); weights quantize to the 1e-6 int grid so the normalizer
  is an exact int64 sum, divided once via the VARCHAR->DOUBLE route.
* `funnel_latency` — first-view -> first-purchase conversion latency:
  per user the earliest view and earliest purchase timestamps (a
  pure min-reduce, no ordered plan needed), keep users whose first
  purchase is at/after their first view, then exact disc-rule
  p50/p90/p99 of the whole-second latency. One row: n_converted,
  p50_s, p90_s, p99_s (the aggregate's (0, NULL...) row on empty).

Distributed plans (shuffle budgets — also in SCALE.md):

`bounce_rate`: ONE bucketed exchange (user % 64); in-bucket sessions
are one vectorized gap scan; partials are (entry_type, n_sessions,
n_bounces, n_events) — #types rows per bucket; driver does two
divisions.

`negative_sampling_table`: per-batch token value_counts (one row per
DISTINCT token per batch); the reduce is the gated keyed combine with
a local top-50 per token set, so above the gate only constant-size
candidates reach the driver, never the vocabulary.

`funnel_latency`: per-batch per-user (min view ts, min purchase ts)
partials with an int64-max sentinel -> the gated keyed combine, where
each user set's min-reduced latencies fold into a bounded (second,
count) histogram; the disc-rule percentile pick is driver math over
the summed histogram.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import _scoped_parallelism, combine_by_key
from .ops.quantile import disc_pick, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register


_SESSION_GAP_US = 1_800_000_000     # 30 minutes (user_sessions rule)
_NEG_K = 50
_TS_SENTINEL = np.iinfo(np.int64).max


# ---------------------------------------------------------- bounce_rate

def q_bounce_rate(sf_dir: str) -> pd.DataFrame:
    """Per-entry-type session census with bounce rate — module
    docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id",
                                "event_type"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = (b["user_id"] % 64).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"entry_type": object, "n_sessions": "int64",
                "n_bounces": "int64", "n_events": "int64"}
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in cols.items()})
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy(object)
        brk = np.ones(len(g), dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) \
            | (ts[1:] - ts[:-1] > _SESSION_GAP_US)
        starts = np.flatnonzero(brk)
        cnt = np.diff(np.append(starts, len(g)))
        return pd.DataFrame({
            "entry_type": et[starts],
            "n_sessions": np.int64(1),
            "n_bounces": (cnt == 1).astype(np.int64),
            "n_events": cnt.astype(np.int64)}) \
            .groupby("entry_type", as_index=False).sum()

    with _scoped_parallelism(32):
        part = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas")
        agg = _reduce_partials(part, ["entry_type"],
                               ["n_sessions", "n_bounces", "n_events"])
    empty = _empty_typed(entry_type=object, n_sessions="int64",
                         n_bounces="int64", bounce_rate="float64",
                         avg_session_events="float64")
    if agg.empty:
        return empty
    ns = agg["n_sessions"].to_numpy(np.int64).astype(np.float64)
    return pd.DataFrame({
        "entry_type": agg["entry_type"].to_numpy(object),
        "n_sessions": agg["n_sessions"].astype("int64"),
        "n_bounces": agg["n_bounces"].astype("int64"),
        "bounce_rate": agg["n_bounces"].to_numpy(np.int64)
        .astype(np.float64) / ns,
        "avg_session_events": agg["n_events"].to_numpy(np.int64)
        .astype(np.float64) / ns,
    }).sort_values("entry_type").reset_index(drop=True)


register("bounce_rate", q_bounce_rate, """
    WITH o AS (
      SELECT user_id, ts, event_id, event_type,
             CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id)
                  > INTERVAL 30 MINUTE OR lag(ts) OVER (
                      PARTITION BY user_id ORDER BY ts, event_id)
                  IS NULL THEN 1 ELSE 0 END AS brk
      FROM events),
    si AS (SELECT user_id, ts, event_id, event_type,
             SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) AS sid
           FROM o),
    s AS (SELECT user_id, sid, count(*) AS n_ev FROM si GROUP BY 1, 2),
    e AS (SELECT user_id, sid, event_type AS entry FROM (
            SELECT user_id, sid, event_type,
                   row_number() OVER (PARTITION BY user_id, sid
                                      ORDER BY ts, event_id) AS rn
            FROM si) WHERE rn = 1)
    SELECT entry AS entry_type, count(*) AS n_sessions,
           CAST(SUM(CASE WHEN n_ev = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_bounces,
           CAST(SUM(CASE WHEN n_ev = 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / count(*) AS bounce_rate,
           CAST(SUM(n_ev) AS DOUBLE) / count(*) AS avg_session_events
    FROM s JOIN e USING (user_id, sid)
    GROUP BY 1 ORDER BY 1""")


# ------------------------------------------- negative_sampling_table

def q_negative_sampling_table(sf_dir: str) -> pd.DataFrame:
    """word2vec noise distribution over the exact top-50 tokens —
    module docstring."""
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].fillna("").str.split().explode().dropna() \
            .value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy()})

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "token"], ascending=[False, True],
                             kind="mergesort").head(_NEG_K)

    out = combine_by_key(
        ds.map_batches(partial, batch_format="pandas"), ["token"],
        lambda d: topk(d.groupby("token", as_index=False)["n"].sum()))
    if out.empty:
        return _empty_typed(token=object, n="int64", neg_prob="float64")
    out = topk(out).reset_index(drop=True)
    n = out["n"].to_numpy(np.int64).astype(np.float64)
    raw = np.sqrt(n * np.sqrt(n)) * 1e6        # n^0.75, sqrt-composed
    w6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    z = float(int(w6.sum()))
    return pd.DataFrame({"token": out["token"].to_numpy(object),
                         "n": out["n"].astype("int64"),
                         "neg_prob": w6.astype(np.float64) / z})


register("negative_sampling_table", q_negative_sampling_table, rf"""
    WITH tok AS (
      SELECT unnest(list_filter(regexp_split_to_array(
               coalesce(text, ''), '\s+'), x -> x <> '')) AS token
      FROM documents),
    c AS (SELECT token, count(*) AS n FROM tok GROUP BY 1),
    top AS (SELECT token, n FROM c
            ORDER BY n DESC, token LIMIT {_NEG_K}),
    w AS (SELECT token, n,
                 CAST(round(sqrt(CAST(n AS DOUBLE)
                                 * sqrt(CAST(n AS DOUBLE)))
                            * 1000000) AS BIGINT) AS w6
          FROM top)
    SELECT token, n,
           CAST(w6 AS DOUBLE)
             / CAST(CAST((SELECT SUM(w6) FROM w) AS VARCHAR)
                    AS DOUBLE) AS neg_prob
    FROM w ORDER BY n DESC, token""")


# ------------------------------------------------------- funnel_latency

def q_funnel_latency(sf_dir: str) -> pd.DataFrame:
    """Exact disc-rule percentiles of first-view -> first-purchase
    latency — module docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        et = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(np.int64),
            "v": np.where(et == "view", ts, _TS_SENTINEL),
            "b": np.where(et == "purchase", ts, _TS_SENTINEL)}) \
            .groupby("user_id", as_index=False).min()

    def hist(d: pd.DataFrame) -> pd.DataFrame:
        per = d.groupby("user_id")[["v", "b"]].min()
        keep = (per["v"] < _TS_SENTINEL) \
            & (per["b"] < _TS_SENTINEL) & (per["b"] >= per["v"])
        gaps = (per.loc[keep, "b"].to_numpy(np.int64)
                - per.loc[keep, "v"].to_numpy(np.int64)) // 1_000_000
        return pd.DataFrame({"gap_s": gaps, "cnt": np.int64(1)}) \
            .groupby("gap_s", as_index=False).sum()

    h = combine_by_key(ds.map_batches(part, batch_format="pandas"),
                       ["user_id"], hist)
    none_row = pd.DataFrame({
        "n_converted": pd.Series([0], dtype="int64"),
        "p50_s": pd.Series([np.nan], dtype="float64"),
        "p90_s": pd.Series([np.nan], dtype="float64"),
        "p99_s": pd.Series([np.nan], dtype="float64")})
    if h.empty:
        return none_row
    h = h.groupby("gap_s", as_index=False)["cnt"].sum().sort_values("gap_s")
    vals = h["gap_s"].to_numpy(np.int64)
    cum = h["cnt"].cumsum().to_numpy(np.int64)
    n = int(cum[-1])

    def disc(p: float) -> float:
        return float(disc_pick(vals, cum, disc_rank(n, p)))

    return pd.DataFrame({
        "n_converted": pd.Series([n], dtype="int64"),
        "p50_s": [disc(0.5)], "p90_s": [disc(0.9)],
        "p99_s": [disc(0.99)]})


register("funnel_latency", q_funnel_latency, """
    WITH f AS (
      SELECT user_id,
             min(CASE WHEN event_type = 'view' THEN ts END) AS v,
             min(CASE WHEN event_type = 'purchase' THEN ts END) AS b
      FROM events GROUP BY 1),
    l AS (SELECT (epoch_us(b) - epoch_us(v)) // 1000000 AS gap_s
          FROM f WHERE v IS NOT NULL AND b IS NOT NULL AND b >= v)
    SELECT count(*) AS n_converted,
           CAST(quantile_disc(gap_s, 0.5) AS DOUBLE) AS p50_s,
           CAST(quantile_disc(gap_s, 0.9) AS DOUBLE) AS p90_s,
           CAST(quantile_disc(gap_s, 0.99) AS DOUBLE) AS p99_s
    FROM l""")
