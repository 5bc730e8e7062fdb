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
row-local (md5 of doc_id — no exchange); the LM is `functions/lm_ab`:
pass 1 = its `count_pass` over the train rows -> one
vocabulary-bounded reduce (the `doc_perplexity` exchange scale); the
LM broadcasts once (`ray.put` + per-worker cache); pass 2 = per-batch
per-split `score_sums` partials (n_docs, n_bigrams, n_backoff, Σ lp6)
-> a 2-row reduce. The twin is `lm_ab.lm_chain` over the train rows.

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

from .functions.lm_ab import (BIGRAMS_SQL, SUMS, TOKENS_SQL, ab_frame,
                              count_pass, lm_chain, lm_from_counts,
                              score_sums)
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _pq, register


_HELD = ("test", "val")


def q_heldout_perplexity(sf_dir: str) -> pd.DataFrame:
    """Held-out bigram LM evaluation — module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def train(b: pd.DataFrame) -> pd.DataFrame:
        return b[nibble_split(b["doc_id"].to_numpy(np.int64)) == "train"]

    counts, _ = count_pass(ds.map_batches(train, batch_format="pandas"))
    lm_ref = ray.put(lm_from_counts(counts))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lm = _get_broadcast(lm_ref)
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        return pd.DataFrame(
            [(sp, *score_sums(b.loc[split == sp, "text"], lm))
             for sp in _HELD], columns=["split", *SUMS])

    g = sum_by(ds.map_batches(score, batch_format="pandas"),
               ["split"], SUMS).set_index("split") \
        .reindex(_HELD, fill_value=0)
    return ab_frame(g.itertuples(), "split", "n_docs")


register("heldout_perplexity", q_heldout_perplexity, f"""
    WITH base AS (
      SELECT doc_id, {split_sql('doc_id')} AS split, {TOKENS_SQL} AS t
      FROM documents),
    tr AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    held AS (
      SELECT split, doc_id, {BIGRAMS_SQL} AS bg
      FROM base WHERE split IN ('val', 'test')),
    {lm_chain("tr_", "tr")},
    per AS (
      SELECT split,
             CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
             CAST(count(*) AS BIGINT) AS n_bigrams,
             CAST(SUM(backoff) AS BIGINT) AS n_backoff,
             SUM(lp6) AS s
      FROM tr_scored GROUP BY split),
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
