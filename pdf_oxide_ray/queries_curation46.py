"""Round-5o operator — measuring eval-contamination inflation:

* `decontam_lm_ab` — how much does training-set contamination
  inflate an eval score? The eval set is BOUNDED by construction
  (the 64 lowest-doc_id val-split docs — the usual "benchmark is
  small by definition" contract); the `heldout_perplexity` bigram LM
  trains twice — on the RAW train split, and on the train split with
  every doc sharing ANY word 8-gram with the eval set REMOVED (the
  `decontaminate` rule) — and both models score the SAME eval set.
  The mean-log-prob delta IS the contamination inflation: the number
  a benchmark-hygiene audit reports next to the contamination-rate
  screens (`contamination_by_source`, `fuzzy_decontam_rate`,
  `semantic_decontam`).

Distributed plan (shuffle budget — also in SCALE.md): eval docs are
bounded (64) and their 8-gram set broadcasts once (`ray.put` +
per-worker cache — the decontamination family's plan); the split
and the contamination filter are row-local maps in front of each
variant's `lm_ab.count_pass` (one vocabulary-bounded reduce, which
also counts the variant's train docs); the eval set scores against
both LMs in one driver-side `score_sums` step (64 docs — bounded
final), finished by `lm_ab.ab_frame` (twin: `lm_ab.ab_sql`).

Exactness: the `heldout_perplexity` recipe (int 1e-6 lp6 grid,
order-free sums, denom guard); 8-grams are whitespace-token windows
joined by single spaces on both sides. Empty inputs return the
twin's 2 variant rows. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import (BIGRAMS_SQL, TOKENS_SQL, ab_frame, ab_sql,
                              count_pass, lm_from_counts, score_sums)
from .functions.textops import nibble_split, split_sql
from .queries import _pq, register


_DAB_EVAL_K = 64   # eval set: the 64 lowest-doc_id val docs
_DAB_N = 8         # word n-gram width for the contamination rule


# the word 8-grams of a token list ``t``, the twin of ``_ngrams``
_NGRAMS_SQL = (f"unnest(CASE WHEN len(t) < {_DAB_N} THEN [] "
               f"ELSE list_transform(range(1, len(t) - {_DAB_N - 2}), "
               f"i -> array_to_string(t[i:i + {_DAB_N - 1}], ' ')) END)")


def _ngrams(toks: list, n: int) -> set:
    return {" ".join(toks[i:i + n])
            for i in range(len(toks) - n + 1)}


def q_decontam_lm_ab(sf_dir: str) -> pd.DataFrame:
    """Raw vs decontaminated train split, scored on the eval set —
    module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def val_rows(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        b = b[split == "val"]
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "text": b["text"].fillna("").to_numpy(object)}) \
            if len(b) else pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype=object)})

    val = ds.map_batches(val_rows, batch_format="pandas").to_pandas()
    eval_texts = val.sort_values("doc_id").head(_DAB_EVAL_K)["text"] \
        if len(val) else pd.Series([], dtype=object)
    eval_grams: set = set()
    for t in eval_texts:
        eval_grams |= _ngrams(t.split(), _DAB_N)
    grams_ref = ray.put(frozenset(eval_grams))

    def train(b: pd.DataFrame) -> pd.DataFrame:
        return b[nibble_split(b["doc_id"].to_numpy(np.int64)) == "train"]

    def clean(b: pd.DataFrame) -> pd.DataFrame:
        grams = _get_broadcast(grams_ref)
        if not grams:
            return b
        return b[np.array([not (_ngrams(t.split(), _DAB_N) & grams)
                           for t in b["text"].fillna("")], dtype=bool)]

    train_ds = ds.map_batches(train, batch_format="pandas")
    rows = []
    for name, dset in (("raw", train_ds),
                       ("decontam",
                        train_ds.map_batches(clean, batch_format="pandas"))):
        counts, n_train = count_pass(dset)
        rows.append((name, n_train,
                     *score_sums(eval_texts, lm_from_counts(counts))[1:]))
    return ab_frame(rows)


# `trg` holds each train doc with an 8-gram in the eval set, and `tded`
# anti-joins it away on doc_id: a semi join on the exploded 8-grams
# rather than a per-doc correlated NOT EXISTS, which spills past 12 GB
# at sf0.1. The anti join on doc_id equals the per-row rule because
# doc_id is unique in `documents` (checked at sf0.001, sf0.01, sf0.1).
register("decontam_lm_ab", q_decontam_lm_ab, f"""
    WITH base AS (
      SELECT doc_id, {split_sql('doc_id')} AS split, {TOKENS_SQL} AS t
      FROM documents),
    ev AS (SELECT doc_id, t FROM base WHERE split = 'val'
           ORDER BY doc_id LIMIT {_DAB_EVAL_K}),
    evg AS (SELECT DISTINCT {_NGRAMS_SQL} AS g FROM ev),
    traw AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    trg AS (
      SELECT DISTINCT doc_id FROM (
        SELECT doc_id, {_NGRAMS_SQL} AS g FROM traw)
      SEMI JOIN evg USING (g)),
    tded AS (SELECT * FROM traw ANTI JOIN trg USING (doc_id)),
    held AS (SELECT {BIGRAMS_SQL} AS bg FROM ev),
    {ab_sql([("raw", "r_", "traw"), ("decontam", "d_", "tded")])}""")
