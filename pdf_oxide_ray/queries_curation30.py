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

Both queries ship (key-hash, 1) partials — text never crosses the
exchange (the `dedup_exact` discipline; sha256/16B per doc). Below
the reduce gate the census is driver math; above it the per-key
counts stay in a distributed groupby and each block emits ONE
(n_keys, dup_docs, clusters) partial row, so the driver sees
#blocks rows, never the key table.

Empty inputs return the twins' single all-zero row. Self-registers
into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .queries import _pq, _scoped_parallelism, register
from . import queries as _qmod


def _key_hash(keys: pd.Series) -> pd.Series:
    return keys.map(
        lambda t: hashlib.sha256(t.encode("utf-8")).hexdigest()[:32])


def _dup_census(ds_keys) -> tuple[int, int, int]:
    """(n_docs, dup_docs, clusters) for a Dataset of one 'h' column —
    gated: driver value_counts below `_REDUCE_GATE_ROWS`, else a
    distributed per-key count whose blocks emit one census partial."""
    m = ds_keys.materialize()
    n_docs = m.count()
    if n_docs == 0:
        return 0, 0, 0
    if n_docs <= _qmod._REDUCE_GATE_ROWS:
        vc = m.to_pandas()["h"].value_counts().to_numpy()
        return (int(n_docs), int((vc - 1).sum()),
                int((vc > 1).sum()))
    from ray.data.aggregate import Count

    def census(b: pd.DataFrame) -> pd.DataFrame:
        c = b["count()"].to_numpy(np.int64)
        return pd.DataFrame({"dup_docs": [int((c - 1).sum())],
                             "clusters": [int((c > 1).sum())]})

    with _scoped_parallelism(64):
        parts = m.groupby("h").aggregate(Count()) \
            .map_batches(census, batch_format="pandas").to_pandas()
    return (int(n_docs), int(parts["dup_docs"].sum()),
            int(parts["clusters"].sum()))


def _exact_keys(b: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({"h": _key_hash(b["text"].fillna(""))})


def _norm_keys(b: pd.DataFrame) -> pd.DataFrame:
    norm = b["text"].fillna("") \
        .str.replace(r"\s+", " ", regex=True).str.strip().str.lower()
    return pd.DataFrame({"h": _key_hash(norm)})


def _bow_keys(b: pd.DataFrame) -> pd.DataFrame:
    bow = b["text"].fillna("").str.split() \
        .map(lambda toks: " ".join(sorted(toks)))
    return pd.DataFrame({"h": _key_hash(bow)})


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
