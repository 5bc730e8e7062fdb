"""Round-4s operator family — the corpus data card, grouped
percentiles behind a dimension join, and length concentration:

* `corpus_datacard` — the one-row release summary a dataset card
  quotes: doc/empty/token counts, distinct-text count and dup rate,
  source/lang cardinalities, mean and exact-median length. Composes
  the repo's standard partial plans into one summary row.
* `nation_value_percentiles` — exact p25/p50/p75 of order value per
  customer nation: the grouped-percentile-after-dim-join shape
  (orders join customer join nation, then the bounded value
  histogram — never a global sort).
* `top_decile_share_by_source` — per source, the share of total
  characters held by docs at or above the p90 length: the length
  concentration curve that says whether a source is a few huge docs
  or many small ones. p90 and the conditional sum read off the SAME
  histogram — one exchange.

Distributed plans (shuffle budgets — also in SCALE.md):

`corpus_datacard`: ONE column-pruned streamed scan emitting a tagged
union of partials (scalar counters, (hash, n) counts, distinct
sources/langs, the bounded n_chars histogram) on one shared
(kind, k1, ki, n) schema -> ONE gated keyed combine whose key sets
collapse hash/source/lang rows to COUNTS before the driver sees
anything — above the gate the hash vocabulary never lands on the
driver, and the release-summary job reads the corpus exactly once
instead of four times.

`nation_value_percentiles`: customer (custkey -> nationkey) rides
`adaptive_join` (broadcast under its byte+row gate, bucketed above);
nation names broadcast (25 rows); per-batch (nation, price-cents)
value_counts partials -> ONE reduce bounded by nations x distinct
cents (min(n_orders, price domain)); percentiles read off cumulative
counts with the percentile_disc index rule ``sorted[ceil(n*p)-1]``.

`top_decile_share_by_source`: per-batch (source, n_chars) value
counts -> ONE source x distinct-length bounded reduce; p90 (disc
rule) and the >= p90 conditional char sum both read off that one
histogram — int64 sums, one final division.

Empty inputs return the twins' empty shapes (`corpus_datacard` keeps
its single row of zeros/NULLs like the SQL twin). Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions import dedup as fdedup
from .functions.textops import TOK_SQL
from .ops.exchange import combine_by_key
from .ops.quantile import disc_by_group, disc_pick, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register


# ------------------------------------------------------ corpus datacard

def q_corpus_datacard(sf_dir: str) -> pd.DataFrame:
    """One-row corpus release summary — module docstring. ONE scan:
    every batch emits a tagged union of partials (scalar counters,
    content-hash counts, distinct sources/langs, length histogram) on
    a shared (kind, k1, ki, n) schema; ONE gated keyed combine — the
    hash vocabulary is corpus-sized, so each key set collapses it to
    counts before anything reaches the driver."""
    ds = _pq(sf_dir, "documents",
             ["text", "source", "lang", "n_chars"])

    def tag_part(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("")
        sc = pd.DataFrame({
            "kind": pd.Series(["s_docs", "s_empty", "s_tokens"],
                              dtype=object),
            "k1": pd.Series(["", "", ""], dtype=object),
            "ki": np.int64(0),
            "n": np.array([len(b),
                           int((text.str.len() == 0).sum()),
                           int(text.str.split().str.len().sum())],
                          np.int64)})
        hv = fdedup.content_hash(b["text"]).value_counts()
        hp = pd.DataFrame({"kind": "h",
                           "k1": hv.index.to_numpy(object),
                           "ki": np.int64(0),
                           "n": hv.to_numpy(np.int64)})
        dsrc = pd.DataFrame({"kind": "ds",
                             "k1": b["source"].drop_duplicates()
                             .to_numpy(object),
                             "ki": np.int64(0), "n": np.int64(1)})
        dlang = pd.DataFrame({"kind": "dl",
                              "k1": b["lang"].drop_duplicates()
                              .to_numpy(object),
                              "ki": np.int64(0), "n": np.int64(1)})
        lv = b["n_chars"].value_counts(sort=False)
        lh = pd.DataFrame({"kind": "l", "k1": "",
                           "ki": lv.index.to_numpy(np.int64),
                           "n": lv.to_numpy(np.int64)})
        return pd.concat([sc, hp, dsrc, dlang, lh],
                         ignore_index=True)

    def collapse(b: pd.DataFrame) -> pd.DataFrame:
        """Per key set: distinct-key kinds (hash / source / lang)
        become counts; scalar + length-histogram rows pass through.
        Every key lives in one key set, so the per-set counts sum
        exactly on the driver."""
        big = b["kind"].isin(("h", "ds", "dl"))
        keep = b.loc[~big, ["kind", "ki", "sum(n)"]]
        vc = b.loc[big, "kind"].value_counts()
        extra = pd.DataFrame({
            "kind": pd.Series(["hc", "dsc", "dlc"], dtype=object),
            "ki": np.int64(0),
            "sum(n)": np.array([vc.get("h", 0), vc.get("ds", 0),
                                vc.get("dl", 0)], np.int64)})
        return pd.concat([keep, extra], ignore_index=True)

    parts = combine_by_key(
        ds.map_batches(tag_part, batch_format="pandas"),
        ["kind", "k1", "ki"],
        lambda d: collapse(d.groupby(["kind", "k1", "ki"], as_index=False)
                           ["n"].sum().rename(columns={"n": "sum(n)"})))
    if parts.empty:  # zero rows: column-less frame
        parts = pd.DataFrame({"kind": pd.Series([], dtype=object),
                              "ki": pd.Series([], dtype="int64"),
                              "sum(n)": pd.Series([], dtype="int64")})

    def tot(kind: str) -> int:
        return int(parts.loc[parts["kind"] == kind, "sum(n)"].sum())

    n_docs, n_empty, n_tokens = tot("s_docs"), tot("s_empty"), \
        tot("s_tokens")
    n_distinct, n_sources, n_langs = tot("hc"), tot("dsc"), tot("dlc")
    h = parts[parts["kind"] == "l"]
    if len(h):
        h = h.sort_values("ki")
        cum = h["sum(n)"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        p50 = float(disc_pick(h["ki"].to_numpy(np.int64), cum,
                              disc_rank(n, 0.5)))
        sum_chars = int((h["ki"].to_numpy(np.int64)
                         * h["sum(n)"].to_numpy(np.int64)).sum())
    else:
        p50, sum_chars = np.nan, 0

    dup_rate = (float(n_docs - n_distinct) / n_docs
                if n_docs else np.nan)
    mean_chars = float(sum_chars) / n_docs if n_docs else np.nan
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype="int64"),
        "n_empty": pd.Series([n_empty], dtype="int64"),
        "n_tokens": pd.Series([n_tokens], dtype="int64"),
        "n_distinct": pd.Series([n_distinct], dtype="int64"),
        "dup_rate": [dup_rate],
        "n_sources": pd.Series([n_sources], dtype="int64"),
        "n_langs": pd.Series([n_langs], dtype="int64"),
        "mean_chars": [mean_chars],
        "p50_chars": [p50]})


register("corpus_datacard", q_corpus_datacard, f"""
    WITH s AS (
      SELECT CAST(count(*) AS BIGINT) AS n_docs,
             CAST(coalesce(SUM(CASE WHEN coalesce(text, '') = ''
                                    THEN 1 ELSE 0 END), 0)
                  AS BIGINT) AS n_empty,
             CAST(count(DISTINCT coalesce(text, '')) AS BIGINT)
               AS n_distinct,
             CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
             CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
             CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
             CAST(quantile_disc(n_chars, 0.5) AS DOUBLE) AS p50_chars
      FROM documents),
    t AS (SELECT CAST(count(*) AS BIGINT) AS n_tokens
          FROM (SELECT {TOK_SQL} AS tok FROM documents))
    SELECT n_docs, n_empty, n_tokens,
           CASE WHEN n_docs > 0 THEN n_distinct ELSE 0 END
             AS n_distinct,
           CASE WHEN n_docs > 0
                THEN CAST(n_docs - n_distinct AS DOUBLE) / n_docs
           END AS dup_rate,
           n_sources, n_langs,
           CASE WHEN n_docs > 0
                THEN CAST(sum_chars AS DOUBLE) / n_docs
           END AS mean_chars,
           p50_chars
    FROM s, t""")


# ------------------------------------------- nation value percentiles

def q_nation_value_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact p25/p50/p75 of order value per customer nation — module
    docstring."""
    import ray

    from .stages.joins import _get_broadcast, adaptive_join

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat = _pq(sf_dir, "nation",
              ["n_nationkey", "n_name"]).to_pandas()
    empty = _empty_typed(nation=object, n_orders="int64",
                         p25="float64", p50="float64", p75="float64")
    if nat.empty:
        return empty
    nat = nat.sort_values("n_nationkey")  # searchsorted needs order
    nat_ref = ray.put((nat["n_nationkey"].to_numpy(np.int64),
                       nat["n_name"].to_numpy(object)))

    joined = adaptive_join(orders, cust, left_on="o_custkey",
                           right_on="c_custkey")

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        keys, names = _get_broadcast(nat_ref)
        nk = b["c_nationkey"].to_numpy(np.int64)
        name = names[np.searchsorted(keys, nk)]
        p = b["o_totalprice"].to_numpy(np.float64) * 100
        pc = np.copysign(np.floor(np.abs(p) + 0.5), p) \
            .astype(np.int64)
        vc = pd.DataFrame({"nation": name, "pc": pc}) \
            .value_counts(sort=False).rename("cnt").reset_index()
        vc["cnt"] = vc["cnt"].astype(np.int64)
        return vc

    h = _reduce_partials(joined.map_batches(hist,
                                            batch_format="pandas"),
                         ["nation", "pc"], ["cnt"])
    if h.empty:
        return empty
    rows = [(nation, n, *(float(q) / 100.0 for q in qs))
            for nation, n, *qs
            in disc_by_group(h, "nation", "pc", (0.25, 0.5, 0.75))]
    return pd.DataFrame(rows, columns=["nation", "n_orders", "p25",
                                       "p50", "p75"]) \
        .astype({"n_orders": "int64"}) \
        .sort_values("nation").reset_index(drop=True)


register("nation_value_percentiles", q_nation_value_percentiles, """
    WITH o AS (
      SELECT n.n_name AS nation,
             CAST(round(o_totalprice * 100) AS BIGINT) AS pc
      FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
           JOIN nation n ON n.n_nationkey = c.c_nationkey)
    SELECT nation, CAST(count(*) AS BIGINT) AS n_orders,
           CAST(quantile_disc(pc, 0.25) AS DOUBLE) / 100.0 AS p25,
           CAST(quantile_disc(pc, 0.5) AS DOUBLE) / 100.0 AS p50,
           CAST(quantile_disc(pc, 0.75) AS DOUBLE) / 100.0 AS p75
    FROM o GROUP BY nation ORDER BY nation""")


# ------------------------------------- top-decile share per source

def q_top_decile_share_by_source(sf_dir: str) -> pd.DataFrame:
    """Per source: p90 length and the char share of docs >= p90 —
    module docstring."""
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[["source", "n_chars"]].value_counts(sort=False) \
            .rename("cnt").reset_index()
        vc["cnt"] = vc["cnt"].astype(np.int64)
        return vc

    h = _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                         ["source", "n_chars"], ["cnt"])
    if h.empty:
        return _empty_typed(source=object, n_docs="int64",
                            p90_chars="float64", top_share="float64")
    rows = []
    for source, g in h.sort_values("n_chars").groupby("source"):
        cum = g["cnt"].to_numpy(np.int64).cumsum()
        vals = g["n_chars"].to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        n = int(cum[-1])
        p90 = int(disc_pick(vals, cum, disc_rank(n, 0.9)))
        total = int((vals * cnt).sum())
        top = int((vals * cnt)[vals >= p90].sum())
        rows.append((source, n, float(p90),
                     float(top) / total if total else np.nan))
    return pd.DataFrame(rows, columns=["source", "n_docs",
                                       "p90_chars", "top_share"]) \
        .astype({"n_docs": "int64"}) \
        .sort_values("source").reset_index(drop=True)


register("top_decile_share_by_source", q_top_decile_share_by_source, """
    WITH q AS (
      SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
             quantile_disc(n_chars, 0.9) AS p90,
             CAST(SUM(n_chars) AS BIGINT) AS total
      FROM documents GROUP BY source),
    t AS (
      SELECT d.source, CAST(SUM(d.n_chars) AS BIGINT) AS top
      FROM documents d JOIN q ON q.source = d.source
      WHERE d.n_chars >= q.p90 GROUP BY d.source)
    SELECT q.source, q.n_docs,
           CAST(q.p90 AS DOUBLE) AS p90_chars,
           CASE WHEN q.total > 0
                THEN CAST(t.top AS DOUBLE) / q.total END AS top_share
    FROM q JOIN t ON t.source = q.source ORDER BY q.source""")
