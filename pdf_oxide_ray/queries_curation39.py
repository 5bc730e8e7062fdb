"""Round-5h operator — semantic (embedding-space) decontamination:

* `semantic_decontam` — the embedding-cosine analogue of the 8-gram
  decontamination family: for each eval vector (vec_id < 5, the
  `embedding_knn` convention), how many CORPUS vectors (vec_id >= 5,
  nonzero norm) lie within cosine >= 0.9, and the highest corpus
  similarity seen. Fuzzy text decontam (`fuzzy_decontam_rate`)
  catches paraphrases at the token level; this catches them in
  embedding space — the pair of screens a benchmark-hygiene audit
  runs together.

Distributed plan (shuffle budget — also in SCALE.md): the eval
matrix broadcasts once (`ray.put` + per-worker cache, 5 x 64
floats); each batch emits per-query SCALAR partials
(n_hits, max_sim4) -> a (#queries x #blocks)-bounded driver fold
(sum + max). No exchange at all — the corpus never moves.

Exactness: cosine rides the repo's embedding convention — float64
dot / norms rounded to 4 decimals on both sides (DuckDB
``list_cosine_similarity`` parity is driver-proven by
`embedding_knn`); the >= tau compare happens on the ROUNDED value,
and zero-norm vectors are excluded explicitly on both sides (NaN
comparison semantics differ between engines). Empty inputs return
the twin's empty shape. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .queries import _empty_typed, _pq, register


_SD_NQ = 5       # eval vectors: vec_id < 5
_SD_TAU = 0.9    # cosine threshold on the 4-decimal grid


def q_semantic_decontam(sf_dir: str) -> pd.DataFrame:
    """Eval-set cosine contamination census — module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    empty = _empty_typed(query_id="int64", n_hits="int64",
                         max_sim="float64")
    qdf = ds.filter(expr=f"vec_id < {_SD_NQ}").to_pandas()
    if qdf.empty:  # zero matches: column-less frame, sort would raise
        return empty
    qdf = qdf.sort_values("vec_id")
    qm = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qn = np.sqrt((qm * qm).sum(1))
    keep_q = qn > 0
    qids = qdf["vec_id"].to_numpy(np.int64)[keep_q]
    qm, qn = qm[keep_q], qn[keep_q]
    if not len(qids):
        return empty
    ref = ray.put((qm, qn, qids))

    def part(b: pd.DataFrame) -> pd.DataFrame:
        qmat, qnorm, qi = _get_broadcast(ref)
        b = b[b["vec_id"].to_numpy(np.int64) >= _SD_NQ]
        cols = {"query_id": "int64", "n_hits": "int64",
                "mx4": "int64"}
        if not len(b):
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in cols.items()})
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        nrm = np.sqrt((mat * mat).sum(1))
        mat, nrm = mat[nrm > 0], nrm[nrm > 0]
        if not len(mat):
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in cols.items()})
        sims = (mat @ qmat.T) / (nrm[:, None] * qnorm[None, :])
        raw = sims * 1e4
        s4 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)  # 4-decimal grid, half-away like round()
        return pd.DataFrame({
            "query_id": qi,
            "n_hits": (s4 >= int(round(_SD_TAU * 1e4))).sum(0)
            .astype(np.int64),
            "mx4": s4.max(0).astype(np.int64)})

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    if parts.empty:  # corpus side empty: one zero row per query
        return pd.DataFrame({
            "query_id": pd.Series(qids, dtype="int64"),
            "n_hits": pd.Series([0] * len(qids), dtype="int64"),
            "max_sim": [np.nan] * len(qids)})
    g = parts.groupby("query_id", as_index=False) \
        .agg(n_hits=("n_hits", "sum"), mx4=("mx4", "max"))
    out = pd.DataFrame({"query_id": pd.Series(qids, dtype="int64")}) \
        .merge(g, on="query_id", how="left")
    n_hits = out["n_hits"].fillna(0).astype("int64")
    mx = out["mx4"].to_numpy(np.float64) / 1e4
    return pd.DataFrame({
        "query_id": out["query_id"].astype("int64"),
        "n_hits": n_hits,
        "max_sim": mx}) \
        .sort_values("query_id").reset_index(drop=True)


register("semantic_decontam", q_semantic_decontam, f"""
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qe FROM embeddings
      WHERE vec_id < {_SD_NQ}
        AND sqrt(list_inner_product(embedding, embedding)) > 0),
    c AS (
      SELECT vec_id, embedding FROM embeddings
      WHERE vec_id >= {_SD_NQ}
        AND sqrt(list_inner_product(embedding, embedding)) > 0),
    s AS (
      SELECT q.query_id,
             ROUND(CAST(list_cosine_similarity(c.embedding, q.qe)
                        AS DOUBLE), 4) AS sim
      FROM q CROSS JOIN c)
    SELECT q.query_id,
           CAST(coalesce(SUM(CASE WHEN s.sim >= {_SD_TAU!r}
                             THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_hits,
           MAX(s.sim) AS max_sim
    FROM q LEFT JOIN s USING (query_id)
    GROUP BY q.query_id ORDER BY q.query_id""")
