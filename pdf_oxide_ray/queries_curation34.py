"""Round-5c operator family — scale-knob calibration and
sketch-based join planning:

* `anchor_stride_recall` — calibrates `substring_dup_pairs`' 100 TB
  knob IN ONE PASS: for anchor strides s in {1, 4, 8, 16} (keep only
  anchors whose doc offset is ≡ 0 mod s), the duplicate-pair count
  and its recall vs the exact stride-1 set. A pair survives stride s
  iff BOTH docs sample some shared anchor at a ≡0-mod-s offset. The
  table that justifies trading exchange volume (÷s) for recall
  before a production run.
* `join_size_estimate` — sketch-based join-cardinality estimation
  (the KMV/bottom-k end-biased sampler a distributed planner runs
  before choosing broadcast vs bucketed): estimate
  |lineitem ⋈ orders on orderkey| from the union's 64 smallest
  md5(key) hashes + the sampled keys' true per-side multiplicities,
  next to the exact Σ_k cntL(k)·cntO(k), with the relative error.
  Deterministic given md5 (the `kmv_distinct` convention), hence
  bit-exact against the twin.

Distributed plans (shuffle budgets — also in SCALE.md):

`anchor_stride_recall`: the `substring_dup_pairs` explode carries 3
extra 0/1 flag columns (one per non-trivial stride; OR-folded per
(doc, anchor)); per-bucket pair generation emits per-pair stride
flags (bucket-local OR), and the cross-bucket (id_a, id_b) reduce
sums them — pair-level OR = sum > 0. Pair list bounded by true-dup
counts (the family's documented contract); counts are driver math.

`join_size_estimate`: phase 1 = per-batch bottom-64 distinct
md5(orderkey) partials per side (≤ 64 rows/block — the key column
never moves) -> driver fold of the union sketch; phase 2 = the ≤ 64
sampled keys broadcast (`ray.put` + per-worker cache) and per-batch
(key, nL, nO) count partials for ONLY those keys -> one 64-row
reduce; the exact product sum rides tagged per-batch (key, n)
partials through ONE bucketed exchange where each bucket emits a
single Σ nL·nO scalar. Nothing corpus-sized reaches the driver.

Empty inputs return the twins' shapes (`anchor_stride_recall` keeps
its 4 stride rows; `join_size_estimate` its single row with zero
exact and NULL error). Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd

from .ops.exchange import _scoped_parallelism
from .queries import _empty_typed, _pq, _reduce_partials, register


_ASR_L = 32
_ASR_HOT = 16
_ASR_STRIDES = (4, 8, 16)     # stride 1 is the implicit exact baseline
_JSE_K = 64                   # bottom-k sketch size
_16P12 = 281474976710656.0    # 16^12, exact double


# --------------------------------------------------- anchor_stride_recall

def q_anchor_stride_recall(sf_dir: str) -> pd.DataFrame:
    """Pair recall per anchor stride — module docstring."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, subs, f4, f8, f16 = [], [], [], [], []
        for doc_id, text in zip(b["doc_id"].to_numpy(np.int64),
                                b["text"].fillna("").to_numpy(object)):
            if len(text) < _ASR_L:
                continue
            flags: dict = {}
            for i in range(len(text) - _ASR_L + 1):
                s = text[i:i + _ASR_L]
                f = flags.get(s)
                if f is None:
                    f = [0, 0, 0]
                    flags[s] = f
                for j, st in enumerate(_ASR_STRIDES):
                    if i % st == 0:
                        f[j] = 1
            for s, f in flags.items():
                ids.append(doc_id)
                subs.append(s)
                f4.append(f[0])
                f8.append(f[1])
                f16.append(f[2])
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "sub": pd.Series(subs, dtype=object),
            "f4": pd.Series(f4, dtype="int64"),
            "f8": pd.Series(f8, dtype="int64"),
            "f16": pd.Series(f16, dtype="int64"),
            "bucket": np.fromiter(
                (zlib.crc32(s.encode()) for s in subs),
                dtype=np.uint32, count=len(subs))
            .astype(np.int64) % 64})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"id_a": "int64", "id_b": "int64", "p1": "int64",
                "p4": "int64", "p8": "int64", "p16": "int64"}
        f = g.groupby(["sub", "doc_id"], as_index=False) \
            [["f4", "f8", "f16"]].max() \
            .sort_values(["sub", "doc_id"], kind="mergesort")
        sub = f["sub"].to_numpy(object)
        ids = f["doc_id"].to_numpy(np.int64)
        fl = f[["f4", "f8", "f16"]].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, sub[1:] != sub[:-1]])
        counts = np.diff(np.r_[starts, len(sub)])
        frames = []
        for s in range(2, _ASR_HOT + 1):
            sel = starts[counts == s]
            if not sel.size:
                continue
            grid = sel[:, None] + np.arange(s)
            ia, ib = np.triu_indices(s, k=1)
            a_idx = grid[:, ia].ravel()
            b_idx = grid[:, ib].ravel()
            frames.append(pd.DataFrame({
                "id_a": ids[a_idx], "id_b": ids[b_idx],
                "p1": np.int64(1),
                "p4": fl[a_idx, 0] & fl[b_idx, 0],
                "p8": fl[a_idx, 1] & fl[b_idx, 1],
                "p16": fl[a_idx, 2] & fl[b_idx, 2]}))
        if not frames:
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in cols.items()})
        return pd.concat(frames, ignore_index=True) \
            .groupby(["id_a", "id_b"], as_index=False).max()

    with _scoped_parallelism(32):
        per_bucket = ds.map_batches(explode, batch_format="pandas") \
            .groupby("bucket").map_groups(pairs_in_bucket,
                                          batch_format="pandas")
        agg = _reduce_partials(per_bucket, ["id_a", "id_b"],
                               ["p1", "p4", "p8", "p16"])
    if agg.empty:
        n = {1: 0, 4: 0, 8: 0, 16: 0}
    else:
        n = {1: int((agg["p1"] > 0).sum()),
             4: int((agg["p4"] > 0).sum()),
             8: int((agg["p8"] > 0).sum()),
             16: int((agg["p16"] > 0).sum())}
    n1 = n[1]
    rows = [(s, n[s], float(n[s]) / n1 if n1 else np.nan)
            for s in (1, 4, 8, 16)]
    return pd.DataFrame(rows, columns=["stride", "n_pairs", "recall"]) \
        .astype({"stride": "int64", "n_pairs": "int64"})


register("anchor_stride_recall", q_anchor_stride_recall, f"""
    WITH d AS (SELECT doc_id, coalesce(text, '') AS txt,
                      length(coalesce(text, '')) AS L
               FROM documents),
    ex AS (
      SELECT doc_id, unnest(range(1, L - {_ASR_L - 2})) AS gi, txt
      FROM d WHERE L >= {_ASR_L}),
    occ AS (
      SELECT doc_id, substr(txt, CAST(gi AS INT), {_ASR_L}) AS sub,
             CASE WHEN (gi - 1) % 4 = 0 THEN 1 ELSE 0 END AS f4,
             CASE WHEN (gi - 1) % 8 = 0 THEN 1 ELSE 0 END AS f8,
             CASE WHEN (gi - 1) % 16 = 0 THEN 1 ELSE 0 END AS f16
      FROM ex),
    subs AS (
      SELECT doc_id, sub, MAX(f4) AS f4, MAX(f8) AS f8,
             MAX(f16) AS f16
      FROM occ GROUP BY 1, 2),
    sc AS (SELECT sub, count(*) AS c FROM subs GROUP BY sub),
    pf AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b,
             MAX(a.f4 * b.f4) AS p4, MAX(a.f8 * b.f8) AS p8,
             MAX(a.f16 * b.f16) AS p16
      FROM subs a
      JOIN subs b ON a.sub = b.sub AND a.doc_id < b.doc_id
      JOIN sc ON sc.sub = a.sub AND sc.c BETWEEN 2 AND {_ASR_HOT}
      GROUP BY 1, 2),
    cnt AS (
      SELECT CAST(count(*) AS BIGINT) AS n1,
             CAST(coalesce(SUM(p4), 0) AS BIGINT) AS n4,
             CAST(coalesce(SUM(p8), 0) AS BIGINT) AS n8,
             CAST(coalesce(SUM(p16), 0) AS BIGINT) AS n16
      FROM pf)
    SELECT s.stride, s.n_pairs,
           CASE WHEN cnt.n1 > 0
                THEN CAST(s.n_pairs AS DOUBLE) / cnt.n1 END AS recall
    FROM cnt, (SELECT CAST(1 AS BIGINT) AS stride, n1 AS n_pairs
               FROM cnt
               UNION ALL SELECT 4, n4 FROM cnt
               UNION ALL SELECT 8, n8 FROM cnt
               UNION ALL SELECT 16, n16 FROM cnt) s
    ORDER BY s.stride""")


# ----------------------------------------------------- join_size_estimate

def _jse_fold(frames: list[pd.DataFrame]) -> pd.DataFrame:
    f = pd.concat(frames, ignore_index=True).drop_duplicates()
    return f.sort_values("h", kind="mergesort").head(_JSE_K)


def q_join_size_estimate(sf_dir: str) -> pd.DataFrame:
    """KMV join-cardinality estimate vs exact — module docstring."""
    import ray

    from .ops.exchange import _bucket_of
    from .stages.joins import _get_broadcast

    lineitem = _pq(sf_dir, "lineitem", ["l_orderkey"])
    orders = _pq(sf_dir, "orders", ["o_orderkey"])

    def sketch(col: str):
        def part(b: pd.DataFrame) -> pd.DataFrame:
            keys = b[col].dropna().astype(np.int64).drop_duplicates()
            if not len(keys):
                return pd.DataFrame({"key": pd.Series([],
                                                      dtype="int64"),
                                     "h": pd.Series([], dtype=object)})
            h = [hashlib.md5(str(k).encode()).hexdigest()
                 for k in keys]
            return pd.DataFrame({"key": keys.to_numpy(np.int64),
                                 "h": pd.Series(h, dtype=object)}) \
                .sort_values("h", kind="mergesort").head(_JSE_K)
        return part

    sk_l = lineitem.map_batches(sketch("l_orderkey"),
                                batch_format="pandas").to_pandas()
    sk_o = orders.map_batches(sketch("o_orderkey"),
                              batch_format="pandas").to_pandas()
    union = _jse_fold([sk_l, sk_o]) if (len(sk_l) or len(sk_o)) else \
        pd.DataFrame({"key": pd.Series([], dtype="int64"),
                      "h": pd.Series([], dtype=object)})
    k_used = len(union)

    # exact product sum: tagged (key, nL, nO) partials -> bucketed
    # exchange -> per-bucket scalar Σ nL·nO
    def l_part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("l_orderkey", as_index=False).size()
        return pd.DataFrame({"key": g["l_orderkey"].to_numpy(np.int64),
                             "nl": g["size"].to_numpy(np.int64),
                             "no": np.int64(0)})

    def o_part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("o_orderkey", as_index=False).size()
        return pd.DataFrame({"key": g["o_orderkey"].to_numpy(np.int64),
                             "nl": np.int64(0),
                             "no": g["size"].to_numpy(np.int64)})

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bucket"] = _bucket_of(b["key"], 32)
        return b

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("key", as_index=False)[["nl", "no"]].sum()
        return pd.DataFrame({
            "prod": [np.int64((s["nl"].to_numpy(np.int64)
                               * s["no"].to_numpy(np.int64)).sum())]})

    with _scoped_parallelism(32):
        tagged = lineitem.map_batches(l_part, batch_format="pandas") \
            .union(orders.map_batches(o_part, batch_format="pandas"))
        parts = tagged.map_batches(add_bucket,
                                   batch_format="pandas") \
            .groupby("bucket").map_groups(bucket_sum,
                                          batch_format="pandas") \
            .to_pandas()
    exact = int(parts["prod"].sum()) if len(parts) else 0

    if k_used == 0:
        return pd.DataFrame({
            "exact_rows": pd.Series([0], dtype="int64"),
            "est_rows": [np.nan], "rel_err": [np.nan],
            "k_used": pd.Series([0], dtype="int64")})

    # phase 2: true multiplicities for ONLY the sampled keys
    samp = np.sort(union["key"].to_numpy(np.int64))
    ref = ray.put(samp)

    def counts_for(col: str):
        def part(b: pd.DataFrame) -> pd.DataFrame:
            keys = _get_broadcast(ref)
            d = b[col].dropna().astype(np.int64).to_numpy()
            pos = np.searchsorted(keys, d)
            pos[pos == len(keys)] = 0
            hit = d[keys[pos] == d]
            if not len(hit):
                return pd.DataFrame({"key": pd.Series([],
                                                      dtype="int64"),
                                     "n": pd.Series([],
                                                    dtype="int64")})
            vc = pd.Series(hit).value_counts()
            return pd.DataFrame({"key": vc.index.to_numpy(np.int64),
                                 "n": vc.to_numpy(np.int64)})
        return part

    cl = _reduce_partials(
        lineitem.map_batches(counts_for("l_orderkey"),
                             batch_format="pandas"), ["key"], ["n"])
    co = _reduce_partials(
        orders.map_batches(counts_for("o_orderkey"),
                           batch_format="pandas"), ["key"], ["n"])
    lut_l = dict(zip(cl["key"], cl["n"])) if len(cl) else {}
    lut_o = dict(zip(co["key"], co["n"])) if len(co) else {}
    sum_prod = sum(int(lut_l.get(int(k), 0)) * int(lut_o.get(int(k), 0))
                   for k in union["key"])

    if k_used >= _JSE_K:
        h48 = int(union["h"].iloc[-1][:12], 16)
        d_hat = (np.float64(_JSE_K - 1) * np.float64(_16P12)
                 / np.float64(h48)) if h48 else np.nan
    else:
        d_hat = np.float64(k_used)
    est = float(d_hat) * (float(sum_prod) / float(k_used))
    rel = (est - float(exact)) / float(exact) if exact else np.nan
    return pd.DataFrame({
        "exact_rows": pd.Series([exact], dtype="int64"),
        "est_rows": [est], "rel_err": [rel],
        "k_used": pd.Series([k_used], dtype="int64")})


register("join_size_estimate", q_join_size_estimate, f"""
    WITH lk AS (SELECT l_orderkey AS key, count(*) AS nl
                FROM lineitem GROUP BY 1),
    ok AS (SELECT o_orderkey AS key, count(*) AS no
           FROM orders GROUP BY 1),
    exact AS (
      SELECT CAST(coalesce(SUM(lk.nl * ok.no), 0) AS BIGINT) AS x
      FROM lk JOIN ok USING (key)),
    uk AS (
      SELECT key, md5(CAST(key AS VARCHAR)) AS h FROM (
        SELECT key FROM lk UNION SELECT key FROM ok)),
    bot AS (SELECT key, h,
                   row_number() OVER (ORDER BY h) AS r
            FROM uk),
    samp AS (SELECT * FROM bot WHERE r <= {_JSE_K}),
    ku AS (SELECT CAST(count(*) AS BIGINT) AS k_used FROM samp),
    kth AS (SELECT h FROM samp ORDER BY r DESC LIMIT 1),
    sp AS (
      SELECT CAST(coalesce(SUM(coalesce(lk.nl, 0)
                               * coalesce(ok.no, 0)), 0) AS BIGINT)
               AS sum_prod
      FROM samp
      LEFT JOIN lk ON lk.key = samp.key
      LEFT JOIN ok ON ok.key = samp.key),
    dh AS (
      SELECT CASE
               WHEN ku.k_used >= {_JSE_K} THEN
                 CASE WHEN CAST(concat('0x', substr(kth.h, 1, 12))
                           AS BIGINT) > 0
                      THEN CAST({_JSE_K - 1} AS DOUBLE)
                           * {_16P12!r}
                           / CAST(CAST(concat('0x',
                                              substr(kth.h, 1, 12))
                                       AS BIGINT) AS DOUBLE)
                 END
               ELSE CAST(ku.k_used AS DOUBLE) END AS d_hat
      FROM ku LEFT JOIN kth ON TRUE)
    SELECT exact.x AS exact_rows,
           CASE WHEN ku.k_used > 0
                THEN dh.d_hat * (CAST(sp.sum_prod AS DOUBLE)
                                 / CAST(ku.k_used AS DOUBLE)) END
             AS est_rows,
           CASE WHEN ku.k_used > 0 AND exact.x > 0
                THEN (dh.d_hat * (CAST(sp.sum_prod AS DOUBLE)
                                  / CAST(ku.k_used AS DOUBLE))
                      - CAST(exact.x AS DOUBLE))
                     / CAST(exact.x AS DOUBLE) END AS rel_err,
           ku.k_used
    FROM exact, ku, dh, sp""")
