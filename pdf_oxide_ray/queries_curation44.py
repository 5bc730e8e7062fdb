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
shape); each variant's counts are one `lm_ab.count_pass`
(vocabulary-bounded reduce, which also counts the variant's train
docs); BOTH variants' LMs broadcast together and the val corpus is
scored in ONE pass emitting per-variant `score_sums` partials -> a
2-row reduce, finished by `lm_ab.ab_frame` (twin: `lm_ab.ab_sql`).

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

from .functions.lm_ab import (BIGRAMS_SQL, SUMS, TOKENS_SQL, ab_frame,
                              ab_sql, count_pass, lm_from_counts,
                              score_sums)
from .functions.textops import nibble_split, split_sql
from .ops.exchange import exchange_by_key, sum_by
from .queries import _pq, register


_VARIANTS = ("raw", "dedup")


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
    counts = {"raw": count_pass(train)}
    # equal texts share a bucket, so the per-hash min is key-local
    counts["dedup"] = \
        count_pass(exchange_by_key(train, ["text"], keep_min)) \
        if counts["raw"][1] else counts["raw"]
    lm_ref = ray.put({v: lm_from_counts(c) for v, (c, _) in counts.items()})

    def score(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        texts = b.loc[split == "val", "text"]
        return pd.DataFrame(
            [(v, *score_sums(texts, lm))
             for v, lm in _get_broadcast(lm_ref).items()],
            columns=["variant", *SUMS])

    g = sum_by(ds.map_batches(score, batch_format="pandas"),
               ["variant"], SUMS).set_index("variant") \
        .reindex(_VARIANTS, fill_value=0)
    return ab_frame((v, counts[v][1], *g.loc[v, SUMS[1:]])
                    for v in _VARIANTS)


register("dedup_lm_ab", q_dedup_lm_ab, f"""
    WITH base AS (
      SELECT doc_id, {split_sql('doc_id')} AS split,
             coalesce(text, '') AS txt, {TOKENS_SQL} AS t
      FROM documents),
    traw AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    tded AS (
      SELECT b.doc_id, b.t FROM base b
      JOIN (SELECT txt, MIN(doc_id) AS keep FROM base
            WHERE split = 'train' GROUP BY txt) w
        ON w.keep = b.doc_id
      WHERE b.split = 'train'),
    held AS (SELECT {BIGRAMS_SQL} AS bg FROM base WHERE split = 'val'),
    {ab_sql([("raw", "r_", "traw"), ("dedup", "d_", "tded")])}""")
