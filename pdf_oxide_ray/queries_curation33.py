"""Round-5b operator family — exact-substring dedup anchors and the
winnow detector's operating curve:

* `substring_dup_pairs` — exact-substring duplicate pairs (the
  Lee et al. 2022 "Deduplicating Training Data Makes Language Models
  Better" exact-substring criterion, anchor-window form): two docs
  pair iff they share ANY exact 32-char substring. Every offset's
  window is an anchor (stride 1 — exact), anchors shared by 2..16
  docs generate pairs (the winnow family's hot-anchor guard,
  mirrored in the twin). At 100 TB the standard knob is anchor
  stride s <= L/2 (detects any shared run >= 2L-1 with 1/s the
  exchange volume); stride 1 here keeps the criterion exact.
* `winnow_threshold_curve` — the winnowing detector's operating
  curve: for thresholds T = 1..8 shared fingerprints, the predicted
  pair count, exact-text true-positive count, precision and recall
  (truth = Σ C(m,2) over equal-text groups, non-empty text).
  `dedup_prf` is the single point at the production threshold; this
  is the sweep a curation owner reads to PICK that threshold.

Distributed plans (shuffle budgets — also in SCALE.md):

`substring_dup_pairs`: per-batch DISTINCT (anchor, doc_id) explode ->
ONE bucketed exchange (crc32(anchor) % 64); per-bucket pair
generation groups by the anchor STRING (no hash-collision false
pairs) under the 2..16 guard; a final (id_a, id_b) reduce distincts
pairs across buckets. Pair list bounded by true-dup counts
(driver-contract final, the `winnow_dup_pairs` contract).

`winnow_threshold_curve`: rides `_winnow_pair_counts_ds` (ONE
bucketed fp exchange, documented there); the pair list is bounded
and driver-held under the same contract; truth counts come from the
`dedup_exact` (hash, n) reduce as Σ C(m,2) — truth pairs are never
materialized; hashes for ONLY the pair ids are extracted by a
broadcast-filtered scan (the `dedup_prf` shape). Output is 8 rows.

Empty inputs return the twins' empty shapes (`winnow_threshold_curve`
keeps its 8 threshold rows with zero counts and NULL ratios).
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from .ops.exchange import _scoped_parallelism
from .queries import _empty_typed, _pq, _reduce_partials, register


_SUB_L = 32          # exact-substring anchor length (chars)
_SUB_HOT = 16        # anchors shared by > 16 docs are skipped (guard)
_CURVE_TS = list(range(1, 9))


# --------------------------------------------------- substring_dup_pairs

def q_substring_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Docs sharing any exact 32-char substring — module docstring."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, subs = [], []
        for doc_id, text in zip(b["doc_id"].to_numpy(np.int64),
                                b["text"].fillna("").to_numpy(object)):
            if len(text) < _SUB_L:
                continue
            uniq = {text[i:i + _SUB_L]
                    for i in range(len(text) - _SUB_L + 1)}
            ids.extend([doc_id] * len(uniq))
            subs.extend(uniq)
        sub_s = pd.Series(subs, dtype=object)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "sub": sub_s,
            "bucket": np.fromiter(
                (zlib.crc32(s.encode()) for s in subs),
                dtype=np.uint32, count=len(subs))
            .astype(np.int64) % 64})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        f = g[["sub", "doc_id"]].drop_duplicates() \
            .sort_values(["sub", "doc_id"], kind="mergesort")
        sub = f["sub"].to_numpy(object)
        ids = f["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, sub[1:] != sub[:-1]])
        counts = np.diff(np.r_[starts, len(sub)])
        out_a: list = []
        out_b: list = []
        for s in range(2, _SUB_HOT + 1):
            sel = starts[counts == s]
            if not sel.size:
                continue
            mat = ids[sel[:, None] + np.arange(s)]
            ia, ib = np.triu_indices(s, k=1)
            out_a.append(mat[:, ia].ravel())
            out_b.append(mat[:, ib].ravel())
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)}) \
            .drop_duplicates() \
            .assign(n=np.int64(1))

    with _scoped_parallelism(32):
        per_bucket = ds.map_batches(explode, batch_format="pandas") \
            .groupby("bucket").map_groups(pairs_in_bucket,
                                          batch_format="pandas")
        agg = _reduce_partials(per_bucket, ["id_a", "id_b"], ["n"])
    if agg.empty:
        return _empty_typed(id_a="int64", id_b="int64")
    return agg[["id_a", "id_b"]].astype("int64") \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)


register("substring_dup_pairs", q_substring_dup_pairs, f"""
    WITH d AS (SELECT doc_id, coalesce(text, '') AS txt,
                      length(coalesce(text, '')) AS L
               FROM documents),
    subs AS (
      SELECT DISTINCT doc_id, sub FROM (
        SELECT doc_id,
               unnest(list_transform(range(1, L - {_SUB_L - 2}),
                                     i -> substr(txt, CAST(i AS INT),
                                                 {_SUB_L}))) AS sub
        FROM d WHERE L >= {_SUB_L})),
    sc AS (SELECT sub, count(*) AS c FROM subs GROUP BY sub)
    SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
    FROM subs a
    JOIN subs b ON a.sub = b.sub AND a.doc_id < b.doc_id
    JOIN sc ON sc.sub = a.sub AND sc.c BETWEEN 2 AND {_SUB_HOT}
    ORDER BY id_a, id_b""")


# ------------------------------------------------ winnow_threshold_curve

def q_winnow_threshold_curve(sf_dir: str) -> pd.DataFrame:
    """Winnow detector precision/recall at thresholds 1..8 — module
    docstring."""
    import ray

    from .functions import dedup as fdedup
    from .queries import _winnow_pair_counts_ds
    from .stages.joins import _get_broadcast

    pc = _winnow_pair_counts_ds(sf_dir).to_pandas()

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["text"].fillna("").str.len() > 0]
        return pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                             "n": np.int64(1)}) \
            .groupby("h", as_index=False).sum()

    with _scoped_parallelism(32):
        per_hash = _reduce_partials(
            ds.map_batches(hpart, batch_format="pandas"), ["h"], ["n"])
    m = per_hash["n"].to_numpy(np.int64) if len(per_hash) else \
        np.array([], dtype=np.int64)
    n_truth = int((m * (m - 1) // 2).sum())

    if len(pc):
        c = pc["sum(n)"].to_numpy(np.int64)
        ids = np.unique(np.concatenate([
            pc["id_a"].to_numpy(np.int64),
            pc["id_b"].to_numpy(np.int64)]))
        ids_ref = ray.put(ids)

        def hash_of_pair_ids(b: pd.DataFrame) -> pd.DataFrame:
            keys = _get_broadcast(ids_ref)
            d = b["doc_id"].to_numpy(np.int64)
            pos = np.searchsorted(keys, d)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == d
            b = b[hit & (b["text"].fillna("").str.len() > 0)]
            if not len(b):
                return pd.DataFrame({
                    "doc_id": pd.Series([], dtype="int64"),
                    "h": pd.Series([], dtype="string")})
            return pd.DataFrame({
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "h": fdedup.content_hash(b["text"])})

        hmap = ds.map_batches(hash_of_pair_ids,
                              batch_format="pandas").to_pandas()
        lut = dict(zip(hmap["doc_id"], hmap["h"])) \
            if len(hmap) else {}
        truth = np.fromiter(
            ((lut.get(int(a)) is not None
              and lut.get(int(a)) == lut.get(int(b_)))
             for a, b_ in zip(pc["id_a"], pc["id_b"])),
            dtype=bool, count=len(pc))
    else:
        c = np.array([], dtype=np.int64)
        truth = np.array([], dtype=bool)

    rows = []
    for t in _CURVE_TS:
        sel = c >= t
        n_pred = int(sel.sum())
        n_tp = int((sel & truth).sum())
        prec = float(n_tp) / n_pred if n_pred else np.nan
        rec = float(n_tp) / n_truth if n_truth else np.nan
        rows.append((t, n_pred, n_truth, n_tp, prec, rec))
    return pd.DataFrame(rows, columns=["threshold", "n_pred",
                                       "n_truth", "n_tp",
                                       "precision", "recall"]) \
        .astype({"threshold": "int64", "n_pred": "int64",
                 "n_truth": "int64", "n_tp": "int64"})


def _curve_oracle_sql() -> str:
    from .queries import _winnow_fps_ctes

    return f"""
    WITH {_winnow_fps_ctes()},
    fpc AS (SELECT fp, count(*) AS c FROM fps GROUP BY fp),
    pairs AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n
      FROM fps a JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
      JOIN fpc ON fpc.fp = a.fp AND fpc.c BETWEEN 2 AND 16
      GROUP BY 1, 2),
    tagged AS (
      SELECT p.n,
             CASE WHEN ta.text = tb.text THEN 1 ELSE 0 END AS tp
      FROM pairs p
      JOIN documents ta ON ta.doc_id = p.id_a
      JOIN documents tb ON tb.doc_id = p.id_b),
    truth AS (
      SELECT CAST(coalesce(SUM(m * (m - 1) // 2), 0) AS BIGINT)
               AS n_truth
      FROM (SELECT count(*) AS m FROM documents
            WHERE length(coalesce(text, '')) > 0
            GROUP BY text)),
    ts AS (SELECT unnest(range(1, 9)) AS threshold)
    SELECT CAST(ts.threshold AS BIGINT) AS threshold,
           CAST(coalesce(SUM(CASE WHEN g.n >= ts.threshold
                             THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_pred,
           truth.n_truth,
           CAST(coalesce(SUM(CASE WHEN g.n >= ts.threshold
                             THEN g.tp ELSE 0 END), 0) AS BIGINT)
             AS n_tp,
           CASE WHEN SUM(CASE WHEN g.n >= ts.threshold
                         THEN 1 ELSE 0 END) > 0
                THEN CAST(SUM(CASE WHEN g.n >= ts.threshold
                              THEN g.tp ELSE 0 END) AS DOUBLE)
                     / SUM(CASE WHEN g.n >= ts.threshold
                           THEN 1 ELSE 0 END)
           END AS precision,
           CASE WHEN truth.n_truth > 0
                THEN CAST(coalesce(SUM(CASE WHEN g.n >= ts.threshold
                                       THEN g.tp ELSE 0 END), 0)
                          AS DOUBLE) / truth.n_truth
           END AS recall
    FROM ts CROSS JOIN truth LEFT JOIN tagged g ON TRUE
    GROUP BY ts.threshold, truth.n_truth
    ORDER BY threshold"""


register("winnow_threshold_curve", q_winnow_threshold_curve,
         _curve_oracle_sql())
