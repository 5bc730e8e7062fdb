"""Round-5g operator family — LM coverage curves and Unicode
hygiene:

* `ngram_coverage_curve` — how much of the VAL split's bigram mass
  the top-N TRAIN bigrams cover, for N in {100, 1000, 10000}: the
  LM/tokenizer coverage curve behind "how big a model vocabulary /
  cache do we need". Splits follow the `split_assign` md5-nibble
  rule; top-N selection orders by (count DESC, bigram ASC) so ties
  are deterministic on both sides.
* `unicode_nfc_census` — per source: docs whose text changes under
  Unicode NFC normalization and the total character-count delta —
  the normalization-hygiene audit a multilingual web pipeline runs
  before dedup/tokenization (composed vs decomposed accents hash
  differently; cf. `casefold_dup_gain` for the case dimension).
  Python ``unicodedata.normalize('NFC', ...)`` and DuckDB
  ``nfc_normalize`` implement the same Unicode algorithm, verified
  equal on the tested surface.

Distributed plans (shuffle budgets — also in SCALE.md):

`ngram_coverage_curve`: two vocabulary-bounded reduces (train bigram
counts, val bigram counts — the `doc_perplexity` exchange scale);
the top-N rank and mass fold are driver math over the held
vocabulary (the accepted vocab-bounded final).

`unicode_nfc_census`: pure per-batch scoring -> (source, counters)
int partials -> ONE dimension-bounded reduce.

Empty inputs return the twins' shapes (the coverage curve keeps its
3 N rows with zero counts and NULL coverage). Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pandas as pd

from .functions.lm_ab import BIGRAMS_SQL, TOKENS_SQL, bigrams
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_COV_NS = (100, 1000, 10000)


# --------------------------------------------------- ngram_coverage_curve

def q_ngram_coverage_curve(sf_dir: str) -> pd.DataFrame:
    """Top-N train-bigram coverage of val bigram mass — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"].to_numpy(np.int64))
        frames = []
        for sp in ("train", "val"):
            toks = b.loc[split == sp, "text"].fillna("").str.split()
            grams = bigrams(toks)
            frames.append(pd.DataFrame({
                "sp": sp, "g": pd.Series(grams, dtype=object),
                "n": np.int64(1)}))
        return pd.concat(frames, ignore_index=True)

    vocab = sum_by(
        ds.map_batches(counts, batch_format="pandas"),
        ["sp", "g"], ["n"])
    tr = vocab[vocab["sp"] == "train"] if len(vocab) else vocab
    va = vocab[vocab["sp"] == "val"] if len(vocab) else vocab
    total_val = int(va["n"].sum()) if len(va) else 0
    if len(tr):
        tr = tr.sort_values(["n", "g"], ascending=[False, True],
                            kind="mergesort").reset_index(drop=True)
        val_map = dict(zip(va["g"], va["n"])) if len(va) else {}
        ranked_val = np.fromiter(
            (int(val_map.get(g, 0)) for g in tr["g"]),
            dtype=np.int64, count=len(tr))
        cum = np.cumsum(ranked_val)
    else:
        cum = np.array([], dtype=np.int64)
    rows = []
    for n_top in _COV_NS:
        covered = int(cum[min(n_top, len(cum)) - 1]) if len(cum) \
            else 0
        rows.append((n_top, len(tr), total_val, covered,
                     float(covered) / total_val if total_val
                     else np.nan))
    return pd.DataFrame(rows, columns=["n_top", "train_vocab",
                                       "val_bigrams", "covered",
                                       "coverage"]) \
        .astype({"n_top": "int64", "train_vocab": "int64",
                 "val_bigrams": "int64", "covered": "int64"})


register("ngram_coverage_curve", q_ngram_coverage_curve, rf"""
    WITH base AS (
      SELECT doc_id, {split_sql('doc_id')} AS split, {TOKENS_SQL} AS t
      FROM documents),
    bg AS (
      SELECT split, {BIGRAMS_SQL} AS g
      FROM base WHERE split IN ('train', 'val')),
    tr AS (SELECT g, count(*) AS n FROM bg WHERE split = 'train'
           GROUP BY g),
    va AS (SELECT g, count(*) AS n FROM bg WHERE split = 'val'
           GROUP BY g),
    ranked AS (
      SELECT tr.g, row_number() OVER (ORDER BY tr.n DESC, tr.g)
               AS rn,
             coalesce(va.n, 0) AS vn
      FROM tr LEFT JOIN va USING (g)),
    tot AS (SELECT CAST(coalesce(SUM(n), 0) AS BIGINT) AS tv
            FROM va),
    tvoc AS (SELECT CAST(count(*) AS BIGINT) AS nv FROM tr),
    ns AS (SELECT unnest([100, 1000, 10000]) AS n_top)
    SELECT CAST(ns.n_top AS BIGINT) AS n_top,
           tvoc.nv AS train_vocab,
           tot.tv AS val_bigrams,
           CAST(coalesce(SUM(CASE WHEN ranked.rn <= ns.n_top
                             THEN ranked.vn ELSE 0 END), 0)
                AS BIGINT) AS covered,
           CASE WHEN tot.tv > 0
                THEN CAST(coalesce(SUM(CASE WHEN ranked.rn <= ns.n_top
                                       THEN ranked.vn ELSE 0 END), 0)
                          AS DOUBLE) / tot.tv
           END AS coverage
    FROM ns CROSS JOIN tot CROSS JOIN tvoc
    LEFT JOIN ranked ON TRUE
    GROUP BY ns.n_top, tot.tv, tvoc.nv
    ORDER BY n_top""")


# ----------------------------------------------------- unicode_nfc_census

def q_unicode_nfc_census(sf_dir: str) -> pd.DataFrame:
    """Per-source NFC normalization effect — module docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("")
        norm = text.map(lambda t: unicodedata.normalize("NFC", t))
        changed = (text != norm)
        delta = text.str.len().to_numpy(np.int64) \
            - norm.str.len().to_numpy(np.int64)
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_docs": np.int64(1),
            "n_changed": changed.to_numpy().astype(np.int64),
            "char_delta": delta})

    g = sum_by(ds.map_batches(part, batch_format="pandas"),
               ["source"],
               ["n_docs", "n_changed", "char_delta"])
    if g.empty:
        return _empty_typed(source=object, n_docs="int64",
                            n_changed="int64", char_delta="int64")
    return g.astype({"n_docs": "int64", "n_changed": "int64",
                     "char_delta": "int64"}) \
        .sort_values("source").reset_index(drop=True)


register("unicode_nfc_census", q_unicode_nfc_census, """
    SELECT source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(coalesce(SUM(CASE WHEN coalesce(text, '')
                                  <> nfc_normalize(coalesce(text, ''))
                             THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_changed,
           CAST(coalesce(SUM(length(coalesce(text, ''))
                             - length(nfc_normalize(
                                 coalesce(text, '')))), 0) AS BIGINT)
             AS char_delta
    FROM documents GROUP BY source ORDER BY source""")
