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
rule, train rows only); both variants' counts ride
vocabulary-bounded reduces; both lp6 maps broadcast together and
the val corpus scores in ONE pass emitting per-variant scalar
partials -> a 2-row reduce.

Exactness: the `heldout_perplexity` recipe plus the PROVEN
quality-score pair (`quality_filter` engine vs SQL — identical
float chains, disc-rule threshold). Empty inputs return the twin's
2 variant rows. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.lm_ab import (lm_chain as _lm_chain,
                              lm_from_counts as _lm_from_counts)
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _pq, _quality_threshold, register


_QAB_P = 0.75


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

    def counts(filtered: bool):
        def cnt(b: pd.DataFrame) -> pd.DataFrame:
            split = nibble_split(b["doc_id"].to_numpy(np.int64))
            texts = b.loc[split == "train", "text"]
            if filtered and thr is not None and len(texts):
                q = ftext.quality_score(texts).to_numpy(np.float64)
                texts = texts[q >= thr]
            texts = texts.fillna("")
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

    lms = {}
    ntr = {}
    for name, filt in (("raw", False), ("quality", True)):
        vocab = sum_by(
            ds.map_batches(counts(filt), batch_format="pandas"),
            ["kind", "g"], ["n"])
        ntr[name] = int(vocab.loc[vocab["kind"] == "d", "n"].sum()) \
            if len(vocab) else 0
        lms[name] = _lm_from_counts(vocab[vocab["kind"] != "d"]
                                    if len(vocab) else vocab)
    lut_ref = ray.put((lms["raw"], lms["quality"]))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        pair = _get_broadcast(lut_ref)
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        toks = b.loc[split == "val", "text"].fillna("").str.split()
        rows = {"variant": [], "n_bigrams": [], "n_backoff": [],
                "s_lp6": []}
        for name, lm in zip(("raw", "quality"), pair):
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
        g = pd.DataFrame({"variant": ["quality", "raw"],
                          "n_bigrams": np.int64(0),
                          "n_backoff": np.int64(0),
                          "s_lp6": np.int64(0)})
    g = g.set_index("variant")
    rows = []
    for name in ("quality", "raw"):
        nb = int(g.loc[name, "n_bigrams"]) if name in g.index else 0
        nbo = int(g.loc[name, "n_backoff"]) if name in g.index else 0
        s = int(g.loc[name, "s_lp6"]) if name in g.index else 0
        rows.append((name, ntr.get(name, 0), nb,
                     float(nbo) / nb if nb else np.nan,
                     (float(s) / nb) / 1e6 if nb else np.nan))
    return pd.DataFrame(rows, columns=["variant", "n_train_docs",
                                       "n_bigrams", "backoff_rate",
                                       "mean_lp"]) \
        .astype({"n_train_docs": "int64", "n_bigrams": "int64"}) \
        .sort_values("variant").reset_index(drop=True)


register("quality_lm_ab", q_quality_lm_ab, rf"""
    WITH base AS (
      SELECT doc_id, text,
             {split_sql('doc_id')} AS split,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
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
    held AS (
      SELECT unnest(CASE WHEN len(t) < 2 THEN []
                         ELSE list_transform(range(1, len(t)),
                                             i -> t[i] || ' '
                                                  || t[i+1])
                    END) AS bg
      FROM base WHERE split = 'val'),
    {{R_CHAIN}},
    {{Q_CHAIN}},
    nt AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM traw)
                    AS n_raw,
                  (SELECT CAST(count(*) AS BIGINT) FROM tqual)
                    AS n_qual),
    agg AS (
      SELECT 'raw' AS variant, nt.n_raw AS n_train_docs,
             CAST(count(s.lp6) AS BIGINT) AS n_bigrams,
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT)
               AS n_backoff,
             SUM(s.lp6) AS s
      FROM nt LEFT JOIN r_scored s ON TRUE GROUP BY nt.n_raw
      UNION ALL
      SELECT 'quality', nt.n_qual,
             CAST(count(s.lp6) AS BIGINT),
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT),
             SUM(s.lp6)
      FROM nt LEFT JOIN q_scored s ON TRUE GROUP BY nt.n_qual)
    SELECT variant, n_train_docs, n_bigrams,
           CASE WHEN n_bigrams > 0
                THEN CAST(n_backoff AS DOUBLE) / n_bigrams
           END AS backoff_rate,
           CASE WHEN n_bigrams > 0
                THEN (CAST(CAST(s AS VARCHAR) AS DOUBLE)
                      / n_bigrams) / 1000000.0
           END AS mean_lp
    FROM agg ORDER BY variant""".replace(
    "{R_CHAIN}", _lm_chain("r_", "traw")).replace(
    "{Q_CHAIN}", _lm_chain("q_", "tqual")))
