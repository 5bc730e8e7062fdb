"""Round-4t operator family — source-level content containment,
engagement inequality, and PCA energy:

* `source_fp_overlap` — pairwise source-level winnow-fingerprint
  Jaccard: which SOURCES mirror each other's content (the
  crawl-containment matrix at content granularity —
  ``cross_source_dups`` is whole-doc exact text, ``source_vocab_overlap``
  is token vocabulary; this is shared CONTENT mass).
* `user_activity_gini` — Gini coefficient of per-user event counts:
  the engagement-concentration number (0 = uniform, ->1 = a few power
  users hold the traffic). Exact closed form from cumulative ranks
  over the bounded count histogram — `source_gini`'s integer plan,
  lifted to a corpus-sized key domain by a first (user, n) reduce.
* `embedding_pca_evr` — top-8 PCA explained-variance ratios of the
  embedding covariance, built from the EXACT int64-quantized moment
  sums (the `embedding_gram` tree-aggregate, plus a first-moment
  row): the spectrum a curator reads before whitening / dim-reducing
  a 100 TB embedding table. Eigendecomposition is driver math on the
  d x d matrix — NOT SQL-expressible, so this entry is rows-only
  (pinned in tests/test_pinned_rows_only.py).

Distributed plans (shuffle budgets — also in SCALE.md):

`source_fp_overlap`: per-batch DISTINCT (fp, source) pairs (text never
leaves the extract batch) -> ONE fp-keyed ``exchange_by_key``; in-bucket
sorted run-lengths give per-fp source sets (group size <= #sources, no
hot-fp guard needed), pair partials and per-source distinct counts
both emit from the same pass; final reduce is C(#sources,2)-bounded.

`user_activity_gini`: (user, n) count partials -> ONE user-bounded
reduce -> the distinct-count-level histogram (tiny); the rank formula
folds a run of c equal values v after rank r0 as v*(c*r0 + c(c+1)/2)
in Python ints — both engines divide identical integers.

`embedding_pca_evr`: each block ships d(d+1)/2 + d int64 cells (Gram
upper triangle + first-moment vector, both half-away 1e-6 quantized
after a float32->float64 widen — the `embedding_gram` convention,
queries_relational2.py:1151); the driver folds #blocks tiny partials,
forms cov = E[vv^T] - mm^T and runs one d x d eigh. Row-linear cost,
corpus-size-free exchange.

Empty inputs return the documented empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions import textops as ftext
from .ops.exchange import exchange_by_key, sum_by
from .ops.pairs import key_runs, run_pairs
from .queries import _empty_typed, _pq, _winnow_fps_ctes, register


# ------------------------------------------------- source fp overlap

def q_source_fp_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise source winnow-fingerprint Jaccard — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        rows, fps = ftext.winnow_rows(b["text"], 16, 8)
        return pd.DataFrame({
            "source": b["source"].to_numpy(object)[rows],
            "fp": fps}).drop_duplicates()

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        f = g.drop_duplicates() \
            .sort_values(["fp", "source"], kind="mergesort")
        src = f["source"].to_numpy(object)
        a, b = run_pairs(*key_runs(f["fp"]))
        return pd.DataFrame({
            "kind": np.repeat(["src", "pair"], [len(src), len(a)])
            .astype(object),
            "source_a": np.concatenate([src, src[a]]),
            "source_b": np.concatenate([np.full(len(src), "", object),
                                        src[b]]),
            "n": np.int64(1)})

    per = exchange_by_key(ds.map_batches(explode, batch_format="pandas"),
                          ["fp"], pairs_in_bucket)
    agg = sum_by(per, ["kind", "source_a", "source_b"],
                 ["n"])
    empty = _empty_typed(source_a=object, source_b=object,
                         n_shared="int64", n_a="int64", n_b="int64",
                         jaccard="float64")
    if agg.empty:
        return empty
    cnt = agg[agg["kind"] == "src"].set_index("source_a")["n"]
    pair = agg[agg["kind"] == "pair"]
    if pair.empty:
        return empty
    na = pair["source_a"].map(cnt).to_numpy(np.int64)
    nb = pair["source_b"].map(cnt).to_numpy(np.int64)
    sh = pair["n"].to_numpy(np.int64)
    return pd.DataFrame({
        "source_a": pair["source_a"].to_numpy(object),
        "source_b": pair["source_b"].to_numpy(object),
        "n_shared": sh, "n_a": na, "n_b": nb,
        "jaccard": sh.astype(np.float64) / (na + nb - sh)}) \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)


register("source_fp_overlap", q_source_fp_overlap, f"""
    WITH {_winnow_fps_ctes()},
    sf AS (SELECT DISTINCT d.source, f.fp
           FROM fps f JOIN documents d USING (doc_id)),
    cnt AS (SELECT source, CAST(count(*) AS BIGINT) AS n_fp
            FROM sf GROUP BY source),
    pair AS (
      SELECT a.source AS source_a, b.source AS source_b,
             CAST(count(*) AS BIGINT) AS n_shared
      FROM sf a JOIN sf b
        ON a.fp = b.fp AND a.source < b.source
      GROUP BY a.source, b.source)
    SELECT source_a, source_b, n_shared,
           ca.n_fp AS n_a, cb.n_fp AS n_b,
           CAST(n_shared AS DOUBLE) / (ca.n_fp + cb.n_fp - n_shared)
             AS jaccard
    FROM pair JOIN cnt ca ON ca.source = pair.source_a
              JOIN cnt cb ON cb.source = pair.source_b
    ORDER BY source_a, source_b""")


# ------------------------------------------------ user activity gini

def q_user_activity_gini(sf_dir: str) -> pd.DataFrame:
    """Gini of per-user event counts — module docstring."""
    ds = _pq(sf_dir, "events", ["user_id"])

    def upart(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"]
                             .to_numpy(np.int64),
                             "n": np.int64(1)})

    u = sum_by(ds.map_batches(upart, batch_format="pandas"),
               ["user_id"], ["n"])
    if u.empty:  # the twin's empty shape is ONE row of zeros + NULL
        return pd.DataFrame({
            "n_users": pd.Series([0], dtype="int64"),
            "total_events": pd.Series([0], dtype="int64"),
            "gini": [np.nan]})
    vc = u["n"].value_counts().sort_index()
    n = t = s = r0 = 0
    for v, c in zip(vc.index.tolist(), vc.tolist()):
        v, c = int(v), int(c)
        t += v * c
        s += v * (c * r0 + c * (c + 1) // 2)
        r0 += c
        n += c
    gini = (float(2 * s - (n + 1) * t) / float(n * t)
            if n * t else np.nan)
    return pd.DataFrame({
        "n_users": pd.Series([n], dtype="int64"),
        "total_events": pd.Series([t], dtype="int64"),
        "gini": [gini]})


register("user_activity_gini", q_user_activity_gini, """
    WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS v
               FROM events GROUP BY user_id),
    r AS (SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) AS BIGINT)
                 AS i
          FROM u),
    m AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(coalesce(SUM(v), 0) AS BIGINT) AS t,
                 SUM(i * v) AS s
          FROM r)
    SELECT n AS n_users, t AS total_events,
           CASE WHEN n * t > 0
                THEN CAST(2 * s - (n + 1) * t AS DOUBLE)
                     / CAST(n * t AS DOUBLE)
           END AS gini
    FROM m""")


# -------------------------------------------------- embedding PCA EVR

_PCA_TOPK = 8


def q_embedding_pca_evr(sf_dir: str) -> pd.DataFrame:
    """Top-8 explained-variance ratios of the embedding covariance —
    module docstring. Rows-only (eigh is not SQL-expressible); the
    moment sums are exact int64, so the covariance matrix — and hence
    the spectrum — is batching- and order-invariant."""
    emb = _pq(sf_dir, "embeddings", ["embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"i": pd.Series([], dtype=np.int64),
                                 "j": pd.Series([], dtype=np.int64),
                                 "q": pd.Series([], dtype=np.int64),
                                 "n_rows": pd.Series([],
                                                     dtype=np.int64)})
        arr = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        prod = arr[:, :, None] * arr[:, None, :] * 1e6
        g = np.copysign(np.floor(np.abs(prod) + 0.5), prod) \
            .astype(np.int64).sum(axis=0)
        sv = arr * 1e6
        s1 = np.copysign(np.floor(np.abs(sv) + 0.5), sv) \
            .astype(np.int64).sum(axis=0)
        d = arr.shape[1]
        iu, ju = np.triu_indices(d)
        out = pd.DataFrame({"i": (iu + 1).astype(np.int64),
                            "j": (ju + 1).astype(np.int64),
                            "q": g[iu, ju]})
        first = pd.DataFrame({"i": np.zeros(d, dtype=np.int64),
                              "j": np.arange(1, d + 1,
                                             dtype=np.int64),
                              "q": s1,
                              "n_rows": np.int64(0)})
        out["n_rows"] = np.int64(0)
        out.loc[0, "n_rows"] = np.int64(len(arr))  # count rides row 0
        return pd.concat([out, first], ignore_index=True)

    agg = sum_by(emb.map_batches(partial, batch_format="pandas"),
                 ["i", "j"], ["q", "n_rows"])
    if agg.empty:
        return _empty_typed(rank="int64", eigenvalue="float64",
                            evr="float64", cum_evr="float64")
    n = int(agg["n_rows"].sum())
    if n == 0:
        return _empty_typed(rank="int64", eigenvalue="float64",
                            evr="float64", cum_evr="float64")
    first = agg[agg["i"] == 0].sort_values("j")
    d = len(first)
    mean = first["q"].to_numpy(np.int64).astype(np.float64) \
        / 1e6 / n
    g = np.zeros((d, d), dtype=np.float64)
    up = agg[agg["i"] > 0]
    gi = up["i"].to_numpy(np.int64) - 1
    gj = up["j"].to_numpy(np.int64) - 1
    gv = up["q"].to_numpy(np.int64).astype(np.float64) / 1e6 / n
    g[gi, gj] = gv
    g[gj, gi] = gv
    cov = g - np.outer(mean, mean)
    ev = np.linalg.eigvalsh(cov)[::-1]
    ev = np.clip(ev, 0.0, None)
    tot = float(ev.sum())
    k = min(_PCA_TOPK, d)
    evr = ev[:k] / tot if tot > 0 else np.full(k, np.nan)
    return pd.DataFrame({
        "rank": pd.Series(np.arange(1, k + 1), dtype="int64"),
        "eigenvalue": ev[:k],
        "evr": evr,
        "cum_evr": np.cumsum(evr)})


register("embedding_pca_evr", q_embedding_pca_evr)
# no ORACLE_SQL entry: eigendecomposition is not SQL-expressible —
# pinned rows-only (tests/test_pinned_rows_only.py)
