"""Round-5l operator — hybrid retrieval rank fusion:

* `rrf_fusion` — Reciprocal Rank Fusion (Cormack et al. 2009) of the
  two retrieval systems the repo already fields: the BM25 top-20 for
  the fixed query {join, spark, window} (`bm25_search`'s scoring
  chain) and the hashing-embedder cosine top-20 for the SAME query
  text (`doc_embed_knn`'s bit-reconstructible embedding chain). Each
  doc's fused score is Σ over lists of round(1e6 / (60 + rank))
  (the standard RRF k = 60, quantized so the sum is an exact int);
  the output is the fused top-10 — the hybrid-search merge step
  every modern retrieval stack runs between sparse and dense
  scorers.

Distributed plan (shuffle budget — also in SCALE.md): the BM25 leg
rides its documented plan (skinny (dl, tf) table, 5-number global
fold, scalar-closure scoring, per-batch top-k partials); the dense
leg embeds docs on an actor pool and scores against the broadcast
query vector with per-batch top-k partials (`brute_force_topk`);
both finals are k-bounded. Fusion is driver math over ≤ 40 rows.

Exactness: BM25 ranks order by the 1e-6-rounded score (that chain's
proven convention); dense ranks follow the `doc_embed_knn`
convention (integer-valued per-dim sums -> ~1e-16 dot noise, far
below any rank boundary at this scale); RRF contributions are ints
on the 1e-6 grid, so fusion order and ties (rrf DESC, doc_id) are
bit-deterministic. Empty inputs return the twin's empty shape.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL``
on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.retrieval_sql import BM25_SQL
from .queries import _empty_typed, _pq, register


_RRF_K = 60
_RRF_TOP = 10
_RRF_POOL = 20
_RRF_QUERY = "join spark window"


def _rrf6(rank: int) -> int:
    raw = 1e6 / (_RRF_K + rank)
    return int(np.copysign(np.floor(abs(raw) + 0.5), raw))


def q_rrf_fusion(sf_dir: str) -> pd.DataFrame:
    """Fused BM25 + dense top-10 — module docstring."""
    from .functions import similarity as fsim
    from .queries_curation8 import q_bm25_search

    empty = _empty_typed(position="int64", doc_id="int64",
                         rrf_score="float64")
    bm25 = q_bm25_search(sf_dir)

    import ray

    # pool strictly below session CPUs: an actor pool equal to
    # num_cpus starves the read stage (the doc_embed_knn deadlock)
    pool = max(1, min(4, int(ray.cluster_resources()
                             .get("CPU", 2)) - 2))
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    emb = ds.map_batches(fsim.HashingEmbedder,
                         fn_constructor_kwargs={"text_col": "text"},
                         concurrency=pool, batch_format="pandas",
                         batch_size=512)
    qv = fsim.HashingEmbedder()._embed(_RRF_QUERY)
    if ds.count() == 0:  # empty corpus: reduce_topk would see a
        return empty     # column-less candidate frame
    dense = fsim.brute_force_topk(emb, qv[None, :], k=_RRF_POOL)

    contrib: dict[int, int] = {}
    for r, doc in enumerate(bm25["doc_id"].astype("int64"), 1):
        contrib[int(doc)] = contrib.get(int(doc), 0) + _rrf6(r)
    if len(dense):
        d = dense.sort_values("rank")
        for r, doc in enumerate(d["vec_id"].astype("int64"), 1):
            contrib[int(doc)] = contrib.get(int(doc), 0) + _rrf6(r)
    if not contrib:
        return empty
    fused = sorted(contrib.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [(pos, doc, s / 1e6)
            for pos, (doc, s) in enumerate(fused[:_RRF_TOP], 1)]
    return pd.DataFrame(rows, columns=["position", "doc_id",
                                       "rrf_score"]) \
        .astype({"position": "int64", "doc_id": "int64"})


def _rrf_oracle_sql() -> str:
    terms = _RRF_QUERY.split()
    qtoks = ", ".join(f"('{t}')" for t in terms)
    return f"""
    WITH blist AS (
      SELECT doc_id,
             row_number() OVER (ORDER BY score DESC, doc_id) AS r
      FROM ({BM25_SQL})),
    etoks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9A-Za-z_]+'))
               AS tok
      FROM documents),
    eh AS (SELECT doc_id, md5(tok) AS hx FROM etoks),
    etv AS (
      SELECT doc_id,
        ((strpos('0123456789abcdef', substr(hx, 15, 1)) - 1) % 4)
          * 16
          + (strpos('0123456789abcdef', substr(hx, 16, 1)) - 1)
          AS dim,
        CASE WHEN strpos('0123456789abcdef', substr(hx, 1, 1)) - 1
                  >= 8
             THEN 1.0 ELSE -1.0 END AS val
      FROM eh),
    evec AS (SELECT doc_id, dim, SUM(val) AS v FROM etv
             GROUP BY doc_id, dim),
    enrm AS (SELECT doc_id, sqrt(SUM(v*v)) AS n FROM evec
             GROUP BY doc_id),
    qh AS (SELECT md5(tok) AS hx
           FROM (VALUES {qtoks}) t(tok)),
    qtv AS (
      SELECT
        ((strpos('0123456789abcdef', substr(hx, 15, 1)) - 1) % 4)
          * 16
          + (strpos('0123456789abcdef', substr(hx, 16, 1)) - 1)
          AS dim,
        CASE WHEN strpos('0123456789abcdef', substr(hx, 1, 1)) - 1
                  >= 8
             THEN 1.0 ELSE -1.0 END AS val
      FROM qh),
    qvec AS (SELECT dim, SUM(val) AS v FROM qtv GROUP BY dim),
    qnrm AS (SELECT sqrt(SUM(v*v)) AS n FROM qvec),
    dots AS (
      SELECT e.doc_id,
             SUM((e.v / en.n) * (q.v / qn.n)) AS s
      FROM evec e
      JOIN enrm en USING (doc_id)
      JOIN qvec q ON q.dim = e.dim
      CROSS JOIN qnrm qn
      WHERE en.n > 0 AND qn.n > 0
      GROUP BY e.doc_id),
    alld AS (
      SELECT d.doc_id, COALESCE(dots.s, 0.0) AS s
      FROM documents d LEFT JOIN dots USING (doc_id)),
    elist AS (
      SELECT doc_id,
             row_number() OVER (ORDER BY s DESC, doc_id) AS r
      FROM alld
      QUALIFY r <= {_RRF_POOL}),
    contrib AS (
      SELECT doc_id,
             CAST(round(1000000.0 / ({_RRF_K} + r)) AS BIGINT) AS c
      FROM blist
      UNION ALL
      SELECT doc_id,
             CAST(round(1000000.0 / ({_RRF_K} + r)) AS BIGINT) AS c
      FROM elist),
    fused AS (
      SELECT doc_id, CAST(SUM(c) AS BIGINT) AS rrf6,
             row_number() OVER (ORDER BY SUM(c) DESC, doc_id)
               AS position
      FROM contrib GROUP BY doc_id)
    SELECT CAST(position AS BIGINT) AS position, doc_id,
           CAST(rrf6 AS DOUBLE) / 1000000.0 AS rrf_score
    FROM fused WHERE position <= {_RRF_TOP}
    ORDER BY position"""


register("rrf_fusion", q_rrf_fusion, _rrf_oracle_sql())
