"""Round-5m operator — the dedup ablation, measured where it
matters:

* `dedup_lm_ab` — A/B of exact-dedup on held-out language-model
  quality: train the `heldout_perplexity` bigram LM twice — once on
  the RAW train split, once on the train split EXACT-DEDUPED
  (min-doc_id winner per identical text, the `dedup_exact` rule
  restricted to train) — and score the SAME val split with add-1
  unigram backoff. Output: one row per variant (n_train_docs,
  n_bigrams scored, backoff_rate, mean_lp). This is the experiment
  behind "dedup improves LMs" run as a single query: the val set
  never changes, only the training corpus does.

Distributed plan (shuffle budget — also in SCALE.md): the split is
row-local; the dedup winner selection is ONE bucketed content-hash
exchange carrying the payload once (the `training_prep` dedup
shape); each variant's bigram/unigram counts ride the
vocabulary-bounded reduces; BOTH variants' lp6 maps broadcast
together and the val corpus is scored in ONE pass emitting
per-(variant) scalar partials -> a 2-row reduce.

Exactness: identical to `heldout_perplexity` (per-occurrence lp6 on
the int 1e-6 grid, order-free sums, denom guard); the dedup winner
rule ties to min doc_id, mirrored by the twin's GROUP BY text /
MIN(doc_id) join. Empty inputs return the twin's 2 variant rows
with zero counts and NULL means. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import (lm_chain as _lm_chain,
                              lm_from_counts as _lm_from_counts)
from .functions.textops import nibble_split, split_sql
from .ops.exchange import exchange_by_key, sum_by
from .queries import _pq, register


def q_dedup_lm_ab(sf_dir: str) -> pd.DataFrame:
    """Raw vs exact-deduped train split, same val scoring — module
    docstring."""
    import ray

    from .functions import dedup as fdedup
    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def train_rows(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        b = b[split == "train"]
        if not len(b):
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype=object)})
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "text": b["text"].fillna("").to_numpy(object)})

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        h = fdedup.content_hash(g["text"])
        g = g.assign(__h=h).sort_values(["__h", "doc_id"],
                                        kind="mergesort")
        return g.drop_duplicates("__h", keep="first") \
            [["doc_id", "text"]]

    train = ds.map_batches(train_rows, batch_format="pandas").materialize()
    # equal texts share a bucket, so the per-hash min is key-local
    winners = exchange_by_key(train, ["text"], keep_min).materialize() \
        if train.count() else train

    def counts_of(dset) -> pd.DataFrame:
        def cnt(b: pd.DataFrame) -> pd.DataFrame:
            toks = b["text"].fillna("").str.split() if len(b) else \
                pd.Series([], dtype=object)
            grams = [f"{r[i]} {r[i + 1]}" for r in toks
                     for i in range(len(r) - 1)]
            unis = [w for r in toks for w in r]
            return pd.DataFrame({
                "kind": pd.Series(["b"] * len(grams)
                                  + ["u"] * len(unis), dtype=object),
                "g": pd.Series(grams + unis, dtype=object),
                "n": np.int64(1)})
        return sum_by(
            dset.map_batches(cnt, batch_format="pandas"),
            ["kind", "g"], ["n"])

    n_raw = train.count()
    n_ded = winners.count()
    lm_raw = _lm_from_counts(counts_of(train))
    lm_ded = _lm_from_counts(counts_of(winners))
    lut_ref = ray.put((lm_raw, lm_ded))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lms = _get_broadcast(lut_ref)
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        toks = b.loc[split == "val", "text"].fillna("").str.split()
        rows = {"variant": [], "n_bigrams": [], "n_backoff": [],
                "s_lp6": []}
        for name, lm in zip(("raw", "dedup"), lms):
            bgl, unl, unk = lm
            nb = nbo = 0
            s = 0
            for r in toks:
                for i in range(len(r) - 1):
                    nb += 1
                    lp = bgl.get(f"{r[i]} {r[i + 1]}")
                    if lp is None:
                        nbo += 1
                        lp = unl.get(r[i + 1], unk)
                    s += int(lp)
            rows["variant"].append(name)
            rows["n_bigrams"].append(nb)
            rows["n_backoff"].append(nbo)
            rows["s_lp6"].append(s)
        out = pd.DataFrame(rows)
        for c in ("n_bigrams", "n_backoff", "s_lp6"):
            out[c] = out[c].astype("int64")
        return out

    g = sum_by(ds.map_batches(score, batch_format="pandas"),
               ["variant"],
               ["n_bigrams", "n_backoff", "s_lp6"])
    if g.empty:
        g = pd.DataFrame({"variant": ["dedup", "raw"],
                          "n_bigrams": np.int64(0),
                          "n_backoff": np.int64(0),
                          "s_lp6": np.int64(0)})
    g = g.set_index("variant")
    rows = []
    for name, n_train in (("raw", n_raw), ("dedup", n_ded)):
        nb = int(g.loc[name, "n_bigrams"]) if name in g.index else 0
        nbo = int(g.loc[name, "n_backoff"]) if name in g.index else 0
        s = int(g.loc[name, "s_lp6"]) if name in g.index else 0
        rows.append((name, int(n_train), nb,
                     float(nbo) / nb if nb else np.nan,
                     (float(s) / nb) / 1e6 if nb else np.nan))
    return pd.DataFrame(rows, columns=["variant", "n_train_docs",
                                       "n_bigrams", "backoff_rate",
                                       "mean_lp"]) \
        .astype({"n_train_docs": "int64", "n_bigrams": "int64"}) \
        .sort_values("variant").reset_index(drop=True)


def _ab_oracle_sql() -> str:
    return rf"""
    WITH base AS (
      SELECT doc_id,
             {split_sql('doc_id')} AS split,
             coalesce(text, '') AS txt,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
      FROM documents),
    traw AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    tded AS (
      SELECT b.doc_id, b.t FROM base b
      JOIN (SELECT txt, MIN(doc_id) AS keep FROM base
            WHERE split = 'train' GROUP BY txt) w
        ON w.keep = b.doc_id
      WHERE b.split = 'train'),
    held AS (
      SELECT unnest(CASE WHEN len(t) < 2 THEN []
                         ELSE list_transform(range(1, len(t)),
                                             i -> t[i] || ' '
                                                  || t[i+1])
                    END) AS bg
      FROM base WHERE split = 'val'),
    {_lm_chain("r_", "traw")},
    {_lm_chain("d_", "tded")},
    nt AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM traw)
                    AS n_raw,
                  (SELECT CAST(count(*) AS BIGINT) FROM tded)
                    AS n_ded),
    agg AS (
      SELECT 'raw' AS variant, nt.n_raw AS n_train_docs,
             CAST(count(s.lp6) AS BIGINT) AS n_bigrams,
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT)
               AS n_backoff,
             SUM(s.lp6) AS s
      FROM nt LEFT JOIN r_scored s ON TRUE
      GROUP BY nt.n_raw
      UNION ALL
      SELECT 'dedup', nt.n_ded,
             CAST(count(s.lp6) AS BIGINT),
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT),
             SUM(s.lp6)
      FROM nt LEFT JOIN d_scored s ON TRUE
      GROUP BY nt.n_ded)
    SELECT variant, n_train_docs, n_bigrams,
           CASE WHEN n_bigrams > 0
                THEN CAST(n_backoff AS DOUBLE) / n_bigrams
           END AS backoff_rate,
           CASE WHEN n_bigrams > 0
                THEN (CAST(CAST(s AS VARCHAR) AS DOUBLE)
                      / n_bigrams) / 1000000.0
           END AS mean_lp
    FROM agg ORDER BY variant"""


register("dedup_lm_ab", q_dedup_lm_ab, _ab_oracle_sql())
