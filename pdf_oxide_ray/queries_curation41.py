"""Round-5j operator — diversified retrieval reranking:

* `mmr_rerank` — Maximal Marginal Relevance (Carbonell & Goldstein
  1998) over the brute-force candidate pool: per query (vec_id < 5),
  take the top-20 cosine candidates, then greedily select 5 where
  each pick maximizes ``relevance − max-similarity-to-already-
  selected`` (λ = 0.5, so the λ-weighted objective reduces to the
  difference on the shared 4-decimal grid; ties break toward the
  lower vec_id). The diversify-before-serving step of a retrieval
  pipeline — plain top-k returns near-duplicates, MMR spreads the
  list.

Distributed plan (shuffle budget — also in SCALE.md): the candidate
pool rides the existing brute-force plan (query matrix broadcast,
per-batch top-k partials, (#queries × 20)-bounded merge); candidate
VECTORS are gathered by ONE broadcast-filtered scan (≤ 100 ids —
the `dedup_prf` gather shape); the greedy loop is driver math over
a 20 × 20-per-query grid.

Exactness: candidate membership follows the `embedding_knn`
convention (raw-cosine order, vec_id ties); every quantity the
GREEDY compares is an int on the 4-decimal grid (rel4, pairwise
sim4), so selection and ties are bit-deterministic, mirrored by the
twin's 5 unrolled CTE steps. Empty inputs return the twin's empty
shape. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .queries import _KNN_QUERIES, _empty_typed, _pq, register


_MMR_POOL = 20
_MMR_K = 5


def _round4(x: np.ndarray) -> np.ndarray:
    raw = x * 1e4
    return np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
        .astype(np.int64)


def q_mmr_rerank(sf_dir: str) -> pd.DataFrame:
    """MMR-diversified top-5 from the cosine top-20 — module
    docstring."""
    import ray

    from .functions import similarity as fsim
    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    empty = _empty_typed(query_id="int64", position="int64",
                         vec_id="int64", rel="float64")
    qdf = ds.filter(expr=f"vec_id < {_KNN_QUERIES}").to_pandas()
    if qdf.empty:
        return empty
    qdf = qdf.sort_values("vec_id")
    qm = np.stack(qdf["embedding"].to_numpy())
    qids = qdf["vec_id"].to_numpy(np.int64)

    pool = fsim.brute_force_topk(ds, qm, k=_MMR_POOL)
    if pool.empty:
        return empty
    cand_ids = np.unique(pool["vec_id"].to_numpy(np.int64))
    ids_ref = ray.put(np.sort(cand_ids))

    def gather(b: pd.DataFrame) -> pd.DataFrame:
        keys = _get_broadcast(ids_ref)
        d = b["vec_id"].to_numpy(np.int64)
        pos = np.searchsorted(keys, d)
        pos[pos == len(keys)] = 0
        b = b[keys[pos] == d]
        if not len(b):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "embedding": pd.Series([], dtype=object)})
        return b[["vec_id", "embedding"]]

    vecs = ds.map_batches(gather, batch_format="pandas").to_pandas()
    vmap = {int(v): np.asarray(e, dtype=np.float64)
            for v, e in zip(vecs["vec_id"], vecs["embedding"])}

    rows = []
    for iq, qid in enumerate(qids):
        g = pool[pool["query_id"] == iq].sort_values("rank")
        cids = g["vec_id"].to_numpy(np.int64)
        rel4 = _round4(g["score"].to_numpy(np.float64))
        mat = fsim.normalize_rows(
            np.stack([vmap[int(c)] for c in cids]))
        sim4 = _round4(mat @ mat.T)
        selected: list[int] = []
        remaining = list(range(len(cids)))
        for position in range(1, min(_MMR_K, len(cids)) + 1):
            best = None
            for ci in remaining:
                pen = max((int(sim4[ci, sj]) for sj in selected),
                          default=0)
                key = (-(int(rel4[ci]) - pen), int(cids[ci]))
                if best is None or key < best[0]:
                    best = (key, ci)
            ci = best[1]
            selected.append(ci)
            remaining.remove(ci)
            rows.append((int(qid), position, int(cids[ci]),
                         float(rel4[ci]) / 1e4))
    return pd.DataFrame(rows, columns=["query_id", "position",
                                       "vec_id", "rel"]) \
        .astype({"query_id": "int64", "position": "int64",
                 "vec_id": "int64"})


def _mmr_oracle_sql() -> str:
    steps = []
    for t in range(1, _MMR_K + 1):
        prev = f"sel{t - 1}" if t > 1 else None
        if t == 1:
            pick = """
    sel1 AS (
      SELECT query_id, vec_id, rel4, 1 AS position FROM (
        SELECT query_id, vec_id, rel4,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY rel4 DESC, vec_id) AS rn
        FROM cand) WHERE rn = 1)"""
        else:
            sel_union = " UNION ALL ".join(
                f"SELECT query_id, vec_id, rel4, position FROM sel{j}"
                for j in range(1, t))
            pick = f"""
    pool{t} AS (
      SELECT c.query_id, c.vec_id, c.rel4,
             MAX(p.sim4) AS pen
      FROM cand c
      JOIN ({sel_union}) s ON s.query_id = c.query_id
      JOIN pair p ON p.query_id = c.query_id
                 AND p.a = c.vec_id AND p.b = s.vec_id
      WHERE c.vec_id NOT IN (
        SELECT vec_id FROM ({sel_union}) x
        WHERE x.query_id = c.query_id)
      GROUP BY c.query_id, c.vec_id, c.rel4),
    sel{t} AS (
      SELECT query_id, vec_id, rel4, {t} AS position FROM (
        SELECT query_id, vec_id, rel4,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY rel4 - pen DESC, vec_id)
                 AS rn
        FROM pool{t}) WHERE rn = 1)"""
        steps.append(pick)
    finals = " UNION ALL ".join(
        f"SELECT query_id, position, vec_id, "
        f"CAST(rel4 AS DOUBLE) / 10000.0 AS rel FROM sel{t}"
        for t in range(1, _MMR_K + 1))
    return f"""
    WITH q AS (SELECT vec_id AS query_id, embedding AS qe
               FROM embeddings WHERE vec_id < {_KNN_QUERIES}),
    scored AS (
      SELECT q.query_id, e.vec_id,
             CAST(round(CAST(list_cosine_similarity(e.embedding,
                                                    q.qe) AS DOUBLE)
                        * 10000) AS BIGINT) AS rel4,
             row_number() OVER (
                 PARTITION BY q.query_id
                 ORDER BY list_cosine_similarity(e.embedding, q.qe)
                          DESC, e.vec_id) AS rn
      FROM embeddings e CROSS JOIN q),
    cand AS (SELECT query_id, vec_id, rel4 FROM scored
             WHERE rn <= {_MMR_POOL}),
    pair AS (
      SELECT ca.query_id, ca.vec_id AS a, cb.vec_id AS b,
             CAST(round(CAST(list_cosine_similarity(ea.embedding,
                                                    eb.embedding)
                             AS DOUBLE) * 10000) AS BIGINT) AS sim4
      FROM cand ca
      JOIN cand cb ON cb.query_id = ca.query_id
      JOIN embeddings ea ON ea.vec_id = ca.vec_id
      JOIN embeddings eb ON eb.vec_id = cb.vec_id),
    {",".join(steps)}
    SELECT * FROM ({finals})
    ORDER BY query_id, position"""


register("mmr_rerank", q_mmr_rerank, _mmr_oracle_sql())
