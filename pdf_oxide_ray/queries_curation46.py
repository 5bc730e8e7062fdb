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
and the contamination filter are row-local; both variants' counts
ride vocabulary-bounded reduces; both lp6 maps broadcast together
and the eval set scores in one driver-side step (64 docs — bounded
final).

Exactness: the `heldout_perplexity` recipe (int 1e-6 lp6 grid,
order-free sums, denom guard); 8-grams are whitespace-token windows
joined by single spaces on both sides. Empty inputs return the
twin's 2 variant rows. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import split_sql
from .ops.exchange import sum_by
from .queries import _pq, register


_DAB_EVAL_K = 64   # eval set: the 64 lowest-doc_id val docs
_DAB_N = 8         # word n-gram width for the contamination rule


def _ngrams(toks: list, n: int) -> set:
    return {" ".join(toks[i:i + n])
            for i in range(len(toks) - n + 1)}


def q_decontam_lm_ab(sf_dir: str) -> pd.DataFrame:
    """Raw vs decontaminated train split, scored on the eval set —
    module docstring."""
    import ray

    from .functions.lm_ab import lm_from_counts as _lm_from_counts
    from .functions.textops import nibble_split
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
    eval_docs = val.sort_values("doc_id").head(_DAB_EVAL_K) \
        if len(val) else val
    eval_grams: set = set()
    for t in (eval_docs["text"] if len(eval_docs) else []):
        eval_grams |= _ngrams(t.split(), _DAB_N)
    grams_ref = ray.put(frozenset(eval_grams))

    def counts(variant_decontam: bool):
        def cnt(b: pd.DataFrame) -> pd.DataFrame:
            grams = _get_broadcast(grams_ref)
            split = nibble_split(b["doc_id"].to_numpy(np.int64))
            texts = b.loc[split == "train", "text"].fillna("")
            if variant_decontam and grams:
                keep = [not (_ngrams(t.split(), _DAB_N) & grams)
                        for t in texts]
                texts = texts[np.array(keep, dtype=bool)] \
                    if len(texts) else texts
            toks = texts.str.split()
            gr = [f"{r[i]} {r[i + 1]}" for r in toks
                  for i in range(len(r) - 1)]
            un = [w for r in toks for w in r]
            return pd.DataFrame({
                "kind": ["b"] * len(gr) + ["u"] * len(un) + ["d"],
                "g": gr + un + [""],
                "n": np.append(np.ones(len(gr) + len(un), np.int64),
                               np.int64(len(texts)))})
        return cnt

    results = []
    for name, dec in (("raw", False), ("decontam", True)):
        vocab = sum_by(
            ds.map_batches(counts(dec), batch_format="pandas"),
            ["kind", "g"], ["n"])
        n_train = int(vocab.loc[vocab["kind"] == "d", "n"].sum()) \
            if len(vocab) else 0
        lm = _lm_from_counts(vocab[vocab["kind"] != "d"]
                             if len(vocab) else vocab)
        bgl, unl, unk = lm
        nb = nbo = 0
        s = 0
        for t in (eval_docs["text"] if len(eval_docs) else []):
            r = t.split()
            for i in range(len(r) - 1):
                nb += 1
                lp = bgl.get(f"{r[i]} {r[i + 1]}")
                if lp is None:
                    nbo += 1
                    lp = unl.get(r[i + 1], unk)
                s += int(lp)
        results.append((name, n_train, nb,
                        float(nbo) / nb if nb else np.nan,
                        (float(s) / nb) / 1e6 if nb else np.nan))
    return pd.DataFrame(results,
                        columns=["variant", "n_train_docs",
                                 "n_bigrams", "backoff_rate",
                                 "mean_lp"]) \
        .astype({"n_train_docs": "int64", "n_bigrams": "int64"}) \
        .sort_values("variant").reset_index(drop=True)


def _dab_oracle_sql() -> str:
    from .functions.lm_ab import lm_chain as _lm_chain

    return rf"""
    WITH base AS (
      SELECT doc_id,
             {split_sql('doc_id')} AS split,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
      FROM documents),
    ev AS (SELECT doc_id, t FROM base WHERE split = 'val'
           ORDER BY doc_id LIMIT {_DAB_EVAL_K}),
    evg AS (
      SELECT DISTINCT
             unnest(CASE WHEN len(t) < {_DAB_N} THEN []
                         ELSE list_transform(
                             range(1, len(t) - {_DAB_N - 2}),
                             i -> array_to_string(
                                 t[i:i + {_DAB_N - 1}], ' '))
                    END) AS g
      FROM ev),
    traw AS (SELECT doc_id, t FROM base WHERE split = 'train'),
    tded AS (
      SELECT doc_id, t FROM traw tr
      WHERE NOT EXISTS (
        SELECT 1 FROM evg WHERE evg.g IN (
          SELECT unnest(CASE WHEN len(tr.t) < {_DAB_N} THEN []
                             ELSE list_transform(
                                 range(1, len(tr.t)
                                       - {_DAB_N - 2}),
                                 i -> array_to_string(
                                     tr.t[i:i + {_DAB_N - 1}],
                                     ' '))
                        END)))),
    held AS (
      SELECT unnest(CASE WHEN len(t) < 2 THEN []
                         ELSE list_transform(range(1, len(t)),
                                             i -> t[i] || ' '
                                                  || t[i+1])
                    END) AS bg
      FROM ev),
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
      FROM nt LEFT JOIN r_scored s ON TRUE GROUP BY nt.n_raw
      UNION ALL
      SELECT 'decontam', nt.n_ded,
             CAST(count(s.lp6) AS BIGINT),
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT),
             SUM(s.lp6)
      FROM nt LEFT JOIN d_scored s ON TRUE GROUP BY nt.n_ded)
    SELECT variant, n_train_docs, n_bigrams,
           CASE WHEN n_bigrams > 0
                THEN CAST(n_backoff AS DOUBLE) / n_bigrams
           END AS backoff_rate,
           CASE WHEN n_bigrams > 0
                THEN (CAST(CAST(s AS VARCHAR) AS DOUBLE)
                      / n_bigrams) / 1000000.0
           END AS mean_lp
    FROM agg ORDER BY variant"""


register("decontam_lm_ab", q_decontam_lm_ab, _dab_oracle_sql())
