"""Round-4ae operator family — normalization-sensitivity dedup audits
(how much MORE duplication each text normalization reveals over the
raw exact-hash baseline — the standard pre-dedup calibration for
choosing a canonicalization):

* `casefold_dup_gain` — exact-dup census under raw text vs
  casefold+whitespace-collapse normalization
  (lower(trim(regexp_replace(text, '\\s+', ' ')))): docs, dup docs
  (beyond each group's first), dup clusters for BOTH keys plus the
  normalization gain. One row.
* `bow_dup_census` — duplication up to token ORDER: the key is the
  sorted whitespace-token multiset (catches shuffled/templated
  rewrites that exact hashing misses, cheaper than MinHash). Same
  census columns plus the gain over the raw-exact baseline. One row.

Both normalizations are byte/codepoint-deterministic (binary
collation on both sides — no locale-dependent ops).

Distributed plans (shuffle budgets — also in SCALE.md):

Both queries ship per-batch (key-hash, n) counts — text never crosses
the exchange (the `dedup_exact` discipline; sha256/16B per key). They
meet in the gated keyed combine, where each key set emits ONE
(n_docs, dup_docs, clusters) partial row, so above the gate the
driver sees one row per bucket, never the key table.

Empty inputs return the twins' single all-zero row. Self-registers
into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .ops.exchange import combine_by_key
from .queries import _pq, register


def _key_counts(keys: pd.Series) -> pd.DataFrame:
    """Per-batch (h, n): the key hash of each distinct key and its
    document count in the batch."""
    vc = keys.map(
        lambda t: hashlib.sha256(t.encode("utf-8")).hexdigest()[:32]) \
        .value_counts(sort=False)
    return pd.DataFrame({"h": vc.index.to_numpy(object),
                         "n": vc.to_numpy(np.int64)})


def _census(d: pd.DataFrame) -> pd.DataFrame:
    c = d.groupby("h")["n"].sum().to_numpy(np.int64)
    return pd.DataFrame({"n_docs": [int(c.sum())],
                         "dup_docs": [int((c - 1).sum())],
                         "clusters": [int((c > 1).sum())]})


def _dup_census(ds_keys) -> tuple[int, int, int]:
    """(n_docs, dup_docs, clusters) for a Dataset of (h, n) per-batch
    key counts, through the gated keyed combine."""
    parts = combine_by_key(ds_keys, ["h"], _census)
    if parts.empty:
        return 0, 0, 0
    return (int(parts["n_docs"].sum()), int(parts["dup_docs"].sum()),
            int(parts["clusters"].sum()))


def _exact_keys(b: pd.DataFrame) -> pd.DataFrame:
    return _key_counts(b["text"].fillna(""))


def _norm_keys(b: pd.DataFrame) -> pd.DataFrame:
    norm = b["text"].fillna("") \
        .str.replace(r"\s+", " ", regex=True).str.strip().str.lower()
    return _key_counts(norm)


def _bow_keys(b: pd.DataFrame) -> pd.DataFrame:
    bow = b["text"].fillna("").str.split() \
        .map(lambda toks: " ".join(sorted(toks)))
    return _key_counts(bow)


# ------------------------------------------------------ casefold_dup_gain

def q_casefold_dup_gain(sf_dir: str) -> pd.DataFrame:
    """Raw vs casefold+ws-collapse dup census — module docstring."""
    ds = _pq(sf_dir, "documents", ["text"]).materialize()
    n, ed, ec = _dup_census(ds.map_batches(_exact_keys,
                                           batch_format="pandas"))
    _, nd, nc = _dup_census(ds.map_batches(_norm_keys,
                                           batch_format="pandas"))
    return pd.DataFrame({
        "n_docs": pd.Series([n], dtype="int64"),
        "exact_dup_docs": pd.Series([ed], dtype="int64"),
        "exact_clusters": pd.Series([ec], dtype="int64"),
        "norm_dup_docs": pd.Series([nd], dtype="int64"),
        "norm_clusters": pd.Series([nc], dtype="int64"),
        "dup_gain": pd.Series([nd - ed], dtype="int64")})


register("casefold_dup_gain", q_casefold_dup_gain, r"""
    WITH g1 AS (SELECT coalesce(text, '') AS k, count(*) AS c
                FROM documents GROUP BY 1),
    g2 AS (SELECT lower(trim(regexp_replace(coalesce(text, ''),
                             '\s+', ' ', 'g'))) AS k, count(*) AS c
           FROM documents GROUP BY 1)
    SELECT CAST(COALESCE((SELECT SUM(c) FROM g1), 0) AS BIGINT)
             AS n_docs,
           CAST(COALESCE((SELECT SUM(c - 1) FROM g1), 0) AS BIGINT)
             AS exact_dup_docs,
           CAST(COALESCE((SELECT count(*) FROM g1 WHERE c > 1), 0)
                AS BIGINT) AS exact_clusters,
           CAST(COALESCE((SELECT SUM(c - 1) FROM g2), 0) AS BIGINT)
             AS norm_dup_docs,
           CAST(COALESCE((SELECT count(*) FROM g2 WHERE c > 1), 0)
                AS BIGINT) AS norm_clusters,
           CAST(COALESCE((SELECT SUM(c - 1) FROM g2), 0)
                - COALESCE((SELECT SUM(c - 1) FROM g1), 0) AS BIGINT)
             AS dup_gain""")


# -------------------------------------------------------- bow_dup_census

def q_bow_dup_census(sf_dir: str) -> pd.DataFrame:
    """Token-multiset (order-insensitive) dup census — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["text"]).materialize()
    n, ed, _ = _dup_census(ds.map_batches(_exact_keys,
                                          batch_format="pandas"))
    _, bd, bc = _dup_census(ds.map_batches(_bow_keys,
                                           batch_format="pandas"))
    return pd.DataFrame({
        "n_docs": pd.Series([n], dtype="int64"),
        "bow_dup_docs": pd.Series([bd], dtype="int64"),
        "bow_clusters": pd.Series([bc], dtype="int64"),
        "gain_over_exact": pd.Series([bd - ed], dtype="int64")})


register("bow_dup_census", q_bow_dup_census, r"""
    WITH g1 AS (SELECT coalesce(text, '') AS k, count(*) AS c
                FROM documents GROUP BY 1),
    gb AS (SELECT array_to_string(list_sort(list_filter(
                    regexp_split_to_array(coalesce(text, ''), '\s+'),
                    x -> x <> '')), ' ') AS k, count(*) AS c
           FROM documents GROUP BY 1)
    SELECT CAST(COALESCE((SELECT SUM(c) FROM gb), 0) AS BIGINT)
             AS n_docs,
           CAST(COALESCE((SELECT SUM(c - 1) FROM gb), 0) AS BIGINT)
             AS bow_dup_docs,
           CAST(COALESCE((SELECT count(*) FROM gb WHERE c > 1), 0)
                AS BIGINT) AS bow_clusters,
           CAST(COALESCE((SELECT SUM(c - 1) FROM gb), 0)
                - COALESCE((SELECT SUM(c - 1) FROM g1), 0) AS BIGINT)
             AS gain_over_exact""")
