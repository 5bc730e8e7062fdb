"""Round-5p operator — the quality-filter ablation, completing the
curation trilogy (dedup → decontam → quality):

* `quality_lm_ab` — does quality filtering change held-out LM
  quality? Train the `heldout_perplexity` bigram LM on (a) the RAW
  train split and (b) the train split filtered to docs at/above the
  TRAIN split's P75 heuristic quality score (the `quality_filter`
  rule scoped to train), then score the SAME val split with add-1
  unigram backoff. Output: one row per variant (n_train_docs,
  n_bigrams, backoff_rate, mean_lp) — read next to `dedup_lm_ab`
  and `decontam_lm_ab` as the third column of the ablation table.

Distributed plan (shuffle budget — also in SCALE.md): the split and
the quality score are row-local; the threshold reads off the
bounded quality-score histogram (`_quality_threshold`'s exact disc
rule, train rows only); each variant's counts are one
`lm_ab.count_pass` over the materialized train rows (the quality
filter a map in front); both LMs broadcast together and the val
corpus scores in ONE pass emitting per-variant `score_sums` partials
-> a 2-row reduce, finished by `lm_ab.ab_frame` (twin:
`lm_ab.ab_sql`).

Exactness: the `heldout_perplexity` recipe plus the PROVEN
quality-score pair (`quality_filter` engine vs SQL — identical
float chains, disc-rule threshold). Empty inputs return the twin's
2 variant rows. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import (BIGRAMS_SQL, SUMS, TOKENS_SQL, ab_frame,
                              ab_sql, count_pass, lm_from_counts,
                              score_sums)
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _pq, _quality_threshold, register


_QAB_P = 0.75
_VARIANTS = ("raw", "quality")


def q_quality_lm_ab(sf_dir: str) -> pd.DataFrame:
    """Raw vs quality-filtered train split, same val scoring —
    module docstring."""
    import ray

    from .functions import textops as ftext
    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def train_only(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        b = b[split == "train"]
        return b[["doc_id", "text"]] if len(b) else \
            pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "text": pd.Series([], dtype=object)})

    train_ds = ds.map_batches(train_only, batch_format="pandas") \
        .materialize()
    thr = _quality_threshold(train_ds, _QAB_P) \
        if train_ds.count() else None

    def quality(b: pd.DataFrame) -> pd.DataFrame:
        if thr is None or not len(b):
            return b
        return b[ftext.quality_score(b["text"]).to_numpy(np.float64)
                 >= thr]

    counts = {
        "raw": count_pass(train_ds),
        "quality": count_pass(
            train_ds.map_batches(quality, batch_format="pandas"))}
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


register("quality_lm_ab", q_quality_lm_ab, rf"""
    WITH base AS (
      SELECT doc_id, text, {split_sql('doc_id')} AS split,
             {TOKENS_SQL} AS t
      FROM documents),
    tw AS (
      SELECT doc_id, t,
             length(list_filter(regexp_split_to_array(text, '\s+'),
                    x -> x <> '')) AS n_tokens,
             length(text) - length(regexp_replace(text, '[.!?,;:]',
                    '', 'g')) AS n_punct,
             list_filter(regexp_split_to_array(lower(text), '\s+'),
                    x -> x <> '') AS words
      FROM base WHERE split = 'train'),
    tf AS (
      SELECT doc_id, t, n_tokens, n_punct,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(len(list_filter(words, x -> list_contains(
                 ['the','and','of','to','a','in','is','that','for',
                  'it'], x))) AS DOUBLE) / len(words) END
               AS stop_ratio,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(list_sum(list_transform(words, x -> length(x)))
                    AS DOUBLE) / len(words) END AS mean_word_len
      FROM tw),
    ts AS (
      SELECT doc_id, t,
             0.3 * least(greatest(n_tokens / 50.0, 0.0), 1.0)
             + 0.2 * least(greatest(
                 n_punct / greatest(n_tokens / 10.0, 1.0), 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(stop_ratio - 0.35) / 0.35, 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(mean_word_len - 4.5) / 4.5, 0.0), 1.0)
               AS quality
      FROM tf),
    traw AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    tqual AS (
      SELECT doc_id, t FROM ts
      WHERE quality >= (SELECT quantile_disc(quality, {_QAB_P!r})
                        FROM ts)),
    held AS (SELECT {BIGRAMS_SQL} AS bg FROM base WHERE split = 'val'),
    {ab_sql([("raw", "r_", "traw"), ("quality", "q_", "tqual")])}""")
