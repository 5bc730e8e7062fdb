"""Round-5d operator — held-out language-model evaluation with the
split discipline a real pretraining pipeline uses:

* `heldout_perplexity` — train a bigram MLE LM on the TRAIN split
  only (the `split_assign` md5-nibble rule: nibble 0 = test, 1 =
  val, rest = train), score the VAL and TEST splits with add-1
  unigram backoff for bigrams unseen in training:
  lp(w1 w2) = ln(nb_t / nl_t) if the bigram occurs in train, else
  ln((c_uni_t(w2) + 1) / (N_t + V_t)). Output per held-out split:
  docs scored, bigram count, unseen-bigram (backoff) rate, and mean
  log-probability — the held-out-perplexity gate run before a data
  mix ships (`doc_perplexity` scores the corpus on ITSELF; this is
  the honest generalization number).

Distributed plan (shuffle budget — also in SCALE.md): the split is
row-local (md5 of doc_id — no exchange); pass 1 = train-side bigram
and unigram count partials -> vocabulary-bounded reduces (the
`doc_perplexity` exchange scale); the two lp6 maps broadcast once
(`ray.put` + per-worker cache); pass 2 = per-batch per-split scalar
partials (n_docs, n_bigrams, n_backoff, Σ lp6) -> a 2-row reduce.

Exactness: every per-occurrence log-probability quantizes to the int
1e-6 grid (`halfaway6` == DuckDB round()) BEFORE summation, so the
fold is an order-free int64 sum; the backoff constant for
train-unseen continuations is the same double on both sides
(identical (c+1, N+V) integer pairs). Empty/degenerate inputs return
the twin's shape (splits with no scorable docs keep a zero row with
NULL means). Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import lm_from_counts
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _pq, register


def q_heldout_perplexity(sf_dir: str) -> pd.DataFrame:
    """Held-out bigram LM evaluation — module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def train_counts(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        toks = b.loc[split == "train", "text"].fillna("").str.split()
        grams = [f"{r[i]} {r[i + 1]}" for r in toks
                 for i in range(len(r) - 1)]
        unis = [w for r in toks for w in r]
        return pd.DataFrame({
            "kind": pd.Series(["b"] * len(grams) + ["u"] * len(unis),
                              dtype=object),
            "g": pd.Series(grams + unis, dtype=object), "n": np.int64(1)})

    vocab = sum_by(
        ds.map_batches(train_counts, batch_format="pandas"),
        ["kind", "g"], ["n"])
    empty_cols = {"split": object, "n_docs": "int64",
                  "n_bigrams": "int64", "backoff_rate": "float64",
                  "mean_lp": "float64"}

    bg_lut, un_lut, unk_lp6 = lm_from_counts(vocab)

    lut_ref = ray.put((bg_lut, un_lut, unk_lp6))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        bgl, unl, unk = _get_broadcast(lut_ref)
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        rows = {"split": [], "n_docs": [], "n_bigrams": [],
                "n_backoff": [], "s_lp6": []}
        for sp in ("val", "test"):
            toks = b.loc[split == sp, "text"].fillna("").str.split()
            nd = nb = nbo = 0
            s = 0
            for r in toks:
                if len(r) < 2:
                    continue
                nd += 1
                for i in range(len(r) - 1):
                    nb += 1
                    lp = bgl.get(f"{r[i]} {r[i + 1]}")
                    if lp is None:
                        nbo += 1
                        lp = unl.get(r[i + 1], unk)
                    s += int(lp)
            rows["split"].append(sp)
            rows["n_docs"].append(nd)
            rows["n_bigrams"].append(nb)
            rows["n_backoff"].append(nbo)
            rows["s_lp6"].append(s)
        out = pd.DataFrame(rows)
        for c in ("n_docs", "n_bigrams", "n_backoff", "s_lp6"):
            out[c] = out[c].astype("int64")
        return out

    g = sum_by(ds.map_batches(score, batch_format="pandas"),
               ["split"],
               ["n_docs", "n_bigrams", "n_backoff",
                "s_lp6"])
    if g.empty:
        g = pd.DataFrame({"split": ["test", "val"],
                          "n_docs": np.int64(0),
                          "n_bigrams": np.int64(0),
                          "n_backoff": np.int64(0),
                          "s_lp6": np.int64(0)})
    nb = g["n_bigrams"].to_numpy(np.int64)
    rate = np.where(nb > 0, g["n_backoff"].to_numpy(np.int64)
                    .astype(np.float64) / np.maximum(nb, 1), np.nan)
    mean = np.where(nb > 0, (g["s_lp6"].to_numpy(np.int64)
                             .astype(np.float64)
                             / np.maximum(nb, 1)) / 1e6, np.nan)
    return pd.DataFrame({
        "split": g["split"].to_numpy(object),
        "n_docs": g["n_docs"].to_numpy(np.int64),
        "n_bigrams": nb,
        "backoff_rate": rate,
        "mean_lp": mean}) \
        .sort_values("split").reset_index(drop=True)


register("heldout_perplexity", q_heldout_perplexity, rf"""
    WITH base AS (
      SELECT doc_id,
             {split_sql('doc_id')} AS split,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
      FROM documents),
    tr_uni AS (
      SELECT w, count(*) AS c FROM (
        SELECT unnest(t) AS w FROM base WHERE split = 'train')
      GROUP BY w),
    tr_tot AS (
      SELECT CAST(coalesce(SUM(c), 0) AS BIGINT)
               + CAST(count(*) AS BIGINT) AS denom
      FROM tr_uni),
    tr_big AS (
      SELECT bg, count(*) AS nb FROM (
        SELECT unnest(CASE WHEN len(t) < 2 THEN []
                           ELSE list_transform(range(1, len(t)),
                                               i -> t[i] || ' '
                                                    || t[i+1])
                      END) AS bg
        FROM base WHERE split = 'train')
      GROUP BY bg),
    tr_left AS (
      SELECT split_part(bg, ' ', 1) AS w1,
             CAST(SUM(nb) AS BIGINT) AS nl
      FROM tr_big GROUP BY 1),
    lp AS (
      SELECT bg,
             CAST(round(ln(CAST(nb AS DOUBLE) / CAST(nl AS DOUBLE))
                        * 1000000) AS BIGINT) AS lp6
      FROM tr_big JOIN tr_left
        ON split_part(tr_big.bg, ' ', 1) = tr_left.w1),
    held AS (
      SELECT split, doc_id,
             unnest(CASE WHEN len(t) < 2 THEN []
                         ELSE list_transform(range(1, len(t)),
                                             i -> t[i] || ' '
                                                  || t[i+1])
                    END) AS bg
      FROM base WHERE split IN ('val', 'test')),
    scored AS (
      SELECT h.split, h.doc_id,
             CASE WHEN l.lp6 IS NOT NULL THEN 0 ELSE 1 END
               AS backoff,
             coalesce(l.lp6,
                      CASE WHEN tt.denom > 0 THEN
                        CAST(round(ln(CAST(coalesce(u.c, 0) + 1
                                           AS DOUBLE)
                                      / CAST(tt.denom AS DOUBLE))
                                   * 1000000) AS BIGINT)
                      ELSE 0 END) AS lp6
      FROM held h
      CROSS JOIN tr_tot tt
      LEFT JOIN lp l ON l.bg = h.bg
      LEFT JOIN tr_uni u ON u.w = split_part(h.bg, ' ', 2)),
    per AS (
      SELECT split,
             CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
             CAST(count(*) AS BIGINT) AS n_bigrams,
             CAST(SUM(backoff) AS BIGINT) AS n_backoff,
             SUM(lp6) AS s
      FROM scored GROUP BY split),
    shell AS (SELECT unnest(['test', 'val']) AS split)
    SELECT shell.split,
           CAST(coalesce(per.n_docs, 0) AS BIGINT) AS n_docs,
           CAST(coalesce(per.n_bigrams, 0) AS BIGINT) AS n_bigrams,
           CASE WHEN per.n_bigrams > 0
                THEN CAST(per.n_backoff AS DOUBLE) / per.n_bigrams
           END AS backoff_rate,
           CASE WHEN per.n_bigrams > 0
                THEN (CAST(CAST(per.s AS VARCHAR) AS DOUBLE)
                      / per.n_bigrams) / 1000000.0
           END AS mean_lp
    FROM shell LEFT JOIN per ON per.split = shell.split
    ORDER BY shell.split""")
