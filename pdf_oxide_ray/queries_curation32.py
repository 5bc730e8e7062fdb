"""Round-5a operator family — repetition quality rules and
perplexity-bucketed corpus splits:

* `repetition_census` — the n-gram repetition screen from the Gopher
  quality rules (Rae et al. 2021 §A1.1, the portable word-n-gram
  subset): per doc, (a) the character share of the single most
  frequent word 2-gram (occurrences x 2-gram chars / doc chars;
  Gopher threshold 0.20) and (b) the character share of DUPLICATE
  word 3-grams (sum over 3-grams occurring >1 time of count x chars /
  doc chars; threshold 0.30 documented here — Gopher's table uses
  5..10-grams at 0.10-0.15, same construction). Output: per source,
  docs scored, failure counts at both thresholds, and mean shares —
  the calibration table read before the rules gate a corpus.
* `ccnet_buckets` — the CCNet head/middle/tail split (Wenzek et al.
  2020): per language, docs bucket by per-doc mean bigram
  log-probability (the `doc_perplexity` LM, trained on the corpus
  itself) against the language's terciles; docs with <2 tokens land
  in 'na'. Output (lang, bucket, n_docs) — the quality-split census
  behind "train on head+middle, drop tail".

Distributed plans (shuffle budgets — also in SCALE.md):

`repetition_census`: pure per-batch doc scoring (n-gram counting is
doc-local) -> (source, counters) int partials -> ONE
dimension-bounded reduce; driver finals divide int sums.

`ccnet_buckets`: pass 1 = the `doc_perplexity` LM from
`functions/lm_ab` (the bigram-only `count_pass`, a bigram-bounded
reduce); the LM broadcasts once (`ray.put` + per-worker cache) and
`score_texts` scores each doc; pass 2 = per-batch (lang, score6)
value-counts partials -> ONE reduce bounded by #langs x the 1e-6
score grid (scores live in a few log-units, so the grid is bounded
by construction like the value histograms); driver reads terciles
off cumulative counts with the percentile_disc index rule
``sorted[ceil(n*p)-1]`` and sums histogram ranges per bucket — the
corpus never lands on the driver.

Exactness: shares and scores quantize to the int 1e-6 grid
(`halfaway6` == DuckDB round()); per-doc top-2-gram ties break
(count DESC, bigram ASC) on both sides; tercile p-values are the
same doubles (`1/3`, `2/3` reprs) in Python and the SQL literal.
Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import (BIGRAMS_SQL, TOKENS_SQL, count_pass,
                              lm_chain, lm_from_counts, score_texts)
from .functions.textops import halfaway6
from .ops.exchange import sum_by
from .ops.quantile import disc_pick, disc_rank
from .queries import _empty_typed, _pq, register


_TOP2_FAIL_6 = 200_000    # top-2-gram char share > 0.20 fails
_DUP3_FAIL_6 = 300_000    # duplicate-3-gram char share > 0.30 fails
_P_T1 = 1 / 3             # tercile p-values: same doubles as the SQL
_P_T2 = 2 / 3


# ------------------------------------------------------ repetition_census

def q_repetition_census(sf_dir: str) -> pd.DataFrame:
    """Gopher-style n-gram repetition screen per source — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, text in zip(b["source"].to_numpy(object),
                             b["text"].fillna("").to_numpy(object)):
            toks = text.split()
            den = len(text)
            if len(toks) < 2 or den == 0:
                rows.append((src, 1, 0, 0, 0, 0, 0, 0, 0))
                continue
            bigrams = pd.Series(
                [f"{toks[i]} {toks[i + 1]}"
                 for i in range(len(toks) - 1)], dtype=object)
            bc = bigrams.value_counts()
            # tie-break: count DESC then bigram ASC (mirrors the twin)
            top = bc[bc == bc.iloc[0]].index.min()
            t2_6 = int(halfaway6(np.array(
                [int(bc.loc[top]) * len(top) / den]))[0])
            if len(toks) >= 3:
                tri = pd.Series(
                    [f"{toks[i]} {toks[i + 1]} {toks[i + 2]}"
                     for i in range(len(toks) - 2)], dtype=object)
                tc = tri.value_counts()
                dup = tc[tc > 1]
                num = int(sum(int(c) * len(g)
                              for g, c in dup.items()))
                d3_6 = int(halfaway6(np.array([num / den]))[0])
                n3, s3, f3 = 1, d3_6, int(d3_6 > _DUP3_FAIL_6)
            else:
                n3, s3, f3 = 0, 0, 0
            rows.append((src, 1, 1, t2_6, int(t2_6 > _TOP2_FAIL_6),
                         n3, s3, f3, 0))
        cols = ["source", "n_docs", "n_scored2", "s_top2",
                "n_fail_top2", "n_scored3", "s_dup3", "n_fail_dup3",
                "_pad"]
        out = pd.DataFrame(rows, columns=cols).drop(columns=["_pad"])
        for c in out.columns[1:]:
            out[c] = out[c].astype("int64")
        return out

    g = sum_by(ds.map_batches(part, batch_format="pandas"),
               ["source"],
               ["n_docs", "n_scored2", "s_top2",
                "n_fail_top2", "n_scored3", "s_dup3",
                "n_fail_dup3"])
    empty = _empty_typed(source=object, n_docs="int64",
                         n_scored="int64", n_fail_top2="int64",
                         n_fail_dup3="int64", mean_top2="float64",
                         mean_dup3="float64")
    if g.empty:
        return empty
    n2 = g["n_scored2"].to_numpy(np.int64)
    n3 = g["n_scored3"].to_numpy(np.int64)
    mean2 = np.where(n2 > 0, (g["s_top2"].to_numpy(np.int64)
                              .astype(np.float64)
                              / np.maximum(n2, 1)) / 1e6, np.nan)
    mean3 = np.where(n3 > 0, (g["s_dup3"].to_numpy(np.int64)
                              .astype(np.float64)
                              / np.maximum(n3, 1)) / 1e6, np.nan)
    return pd.DataFrame({
        "source": g["source"].to_numpy(object),
        "n_docs": g["n_docs"].to_numpy(np.int64),
        "n_scored": n2,
        "n_fail_top2": g["n_fail_top2"].to_numpy(np.int64),
        "n_fail_dup3": g["n_fail_dup3"].to_numpy(np.int64),
        "mean_top2": mean2,
        "mean_dup3": mean3}) \
        .sort_values("source").reset_index(drop=True)


register("repetition_census", q_repetition_census, rf"""
    WITH toks AS (
      SELECT doc_id AS rid, source, coalesce(text, '') AS txt,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
      FROM documents),
    big AS (
      SELECT rid, unnest(list_transform(range(1, len(t)),
                                        i -> t[i] || ' ' || t[i+1]))
               AS bg
      FROM toks WHERE len(t) >= 2),
    bcnt AS (SELECT rid, bg, count(*) AS c FROM big GROUP BY 1, 2),
    top2 AS (
      SELECT rid, bg, c,
             row_number() OVER (PARTITION BY rid
                                ORDER BY c DESC, bg) AS rn
      FROM bcnt),
    t2 AS (
      SELECT k.rid,
             CAST(round(CAST(p.c * len(p.bg) AS DOUBLE)
                        / len(k.txt) * 1000000) AS BIGINT) AS t2_6
      FROM toks k JOIN top2 p ON p.rid = k.rid AND p.rn = 1
      WHERE len(k.txt) > 0),
    tri AS (
      SELECT rid, unnest(list_transform(range(1, len(t) - 1),
                                        i -> t[i] || ' ' || t[i+1]
                                             || ' ' || t[i+2])) AS tg
      FROM toks WHERE len(t) >= 3),
    tcnt AS (SELECT rid, tg, count(*) AS c FROM tri GROUP BY 1, 2),
    d3 AS (
      SELECT k.rid,
             CAST(round(CAST(coalesce(SUM(CASE WHEN p.c > 1
                                           THEN p.c * len(p.tg)
                                           ELSE 0 END), 0) AS DOUBLE)
                        / len(k.txt) * 1000000) AS BIGINT) AS d3_6
      FROM toks k JOIN tcnt p ON p.rid = k.rid
      WHERE len(k.txt) > 0 GROUP BY k.rid, len(k.txt)),
    per AS (
      SELECT k.source, t2.t2_6, d3.d3_6
      FROM toks k
      LEFT JOIN t2 ON t2.rid = k.rid
      LEFT JOIN d3 ON d3.rid = k.rid)
    SELECT source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(count(t2_6) AS BIGINT) AS n_scored,
           CAST(coalesce(SUM(CASE WHEN t2_6 > {_TOP2_FAIL_6}
                             THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_fail_top2,
           CAST(coalesce(SUM(CASE WHEN d3_6 > {_DUP3_FAIL_6}
                             THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_fail_dup3,
           (CAST(SUM(t2_6) AS DOUBLE) / count(t2_6)) / 1000000.0
             AS mean_top2,
           (CAST(SUM(d3_6) AS DOUBLE) / count(d3_6)) / 1000000.0
             AS mean_dup3
    FROM per GROUP BY source ORDER BY source""")


# --------------------------------------------------------- ccnet_buckets

def q_ccnet_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet head/middle/tail split per language — module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["lang", "text"])
    counts, _ = count_pass(ds, unigrams=False)
    lm_ref = ray.put(lm_from_counts(counts))

    def score_hist(b: pd.DataFrame) -> pd.DataFrame:
        sc = score_texts(b["text"], _get_broadcast(lm_ref))
        n = sc[:, 0]
        v = sc[:, 2].astype(np.float64) / np.maximum(n, 1)
        sc6 = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        return pd.DataFrame({"lang": b["lang"].to_numpy(object),
                             "scored": (n > 0).astype(np.int64),
                             "sc6": np.where(n > 0, sc6, np.int64(0)),
                             "cnt": np.int64(1)})

    h = sum_by(
        ds.map_batches(score_hist, batch_format="pandas"),
        ["lang", "scored", "sc6"], ["cnt"])
    if h.empty:
        return _empty_typed(lang=object, bucket=object, n_docs="int64")
    rows = []
    for lang, g in h.groupby("lang", sort=True):
        na = int(g.loc[g["scored"] == 0, "cnt"].sum())
        if na:
            rows.append((lang, "na", na))
        sg = g[g["scored"] == 1].sort_values("sc6")
        if not len(sg):
            continue
        cnt = sg["cnt"].to_numpy(np.int64)
        sc = sg["sc6"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        t1 = int(disc_pick(sc, cum, disc_rank(n, _P_T1)))
        t2 = int(disc_pick(sc, cum, disc_rank(n, _P_T2)))
        tail = int(cnt[sc <= t1].sum())
        mid = int(cnt[(sc > t1) & (sc <= t2)].sum())
        head = n - tail - mid
        if head:
            rows.append((lang, "head", head))
        if mid:
            rows.append((lang, "middle", mid))
        if tail:
            rows.append((lang, "tail", tail))
    return pd.DataFrame(rows, columns=["lang", "bucket", "n_docs"]) \
        .astype({"n_docs": "int64"}) \
        .sort_values(["lang", "bucket"]).reset_index(drop=True)


register("ccnet_buckets", q_ccnet_buckets, rf"""
    WITH toks AS (
      SELECT doc_id AS rid, lang, {TOKENS_SQL} AS t FROM documents),
    held AS (SELECT rid, {BIGRAMS_SQL} AS bg FROM toks),
    {lm_chain("lm_", "toks")},
    per_doc AS (
      SELECT rid, COUNT(*) AS n_bigrams, SUM(lp6) AS s
      FROM lm_scored GROUP BY rid),
    scored AS (
      SELECT k.lang,
             CAST(round(CAST(p.s AS DOUBLE) / p.n_bigrams, 0)
                  AS BIGINT) AS sc6
      FROM toks k JOIN per_doc p ON p.rid = k.rid),
    th AS (
      SELECT lang,
             quantile_disc(sc6, {_P_T1!r}) AS t1,
             quantile_disc(sc6, {_P_T2!r}) AS t2
      FROM scored GROUP BY lang),
    bkt AS (
      SELECT s.lang,
             CASE WHEN s.sc6 <= th.t1 THEN 'tail'
                  WHEN s.sc6 <= th.t2 THEN 'middle'
                  ELSE 'head' END AS bucket
      FROM scored s JOIN th USING (lang)
      UNION ALL
      SELECT k.lang, 'na' AS bucket
      FROM toks k LEFT JOIN per_doc p ON p.rid = k.rid
      WHERE p.rid IS NULL)
    SELECT lang, bucket, CAST(count(*) AS BIGINT) AS n_docs
    FROM bkt GROUP BY 1, 2 ORDER BY lang, bucket""")
