"""Round-5f operator — PQ/ADC search quality, closing the ANN loop:

* `pq_adc_recall` — asymmetric-distance (ADC) top-k search over PQ
  codes, scored against exact L2 top-k: each of the 5 query vectors
  (vec_id < 5, the `embedding_knn` convention) gets a per-subspace
  lookup table of query-to-centroid distances; a database vector's
  approximate distance is the SUM of its 4 code cells' LUT entries.
  Output per query: overlap of the ADC top-5 with the exact top-5
  and recall@5 — THE number a vector-store owner reads next to
  `pq_distortion`'s MSE before shipping a PQ index.

Distributed plan (shuffle budget — also in SCALE.md): codebooks come
from `train_pq_codebooks` (5 bounded-reduce passes, shared with
`pq_distortion`); the scoring pass broadcasts (codebooks + query
matrix + per-query LUTs) once and each batch emits per-(query)
top-5 PARTIAL candidate lists for both the ADC and the exact
distance (≤ 2·5·5 rows per block); the driver merges
(#queries × k)-bounded partials. The corpus never lands anywhere.

Exactness: every distance is an int64 sum of PER-COMPONENT squared
errors quantized to the 1e-9 grid (identical doubles on both sides
before rounding), so ranking ties break deterministically by
(distance, vec_id) in engine and twin alike. Empty input returns
the twin's empty shape. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.pq_sql import PQ_D, PQ_ITERS, PQ_M, pq_chain
from .queries import _KMEANS_SCALE, _empty_typed, _pq, register


_N_Q = 5   # query vectors: vec_id < 5
_TOPK = 5
_S = _KMEANS_SCALE


def _sq9(diff: np.ndarray) -> np.ndarray:
    raw = (diff * diff) * 1e9
    return np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
        .astype(np.int64)


def q_pq_adc_recall(sf_dir: str) -> pd.DataFrame:
    """ADC top-5 recall vs exact L2 top-5 — module docstring."""
    import ray

    from .queries_curation36 import _argmin, _quant, \
        train_pq_codebooks
    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    empty = _empty_typed(query_id="int64", n_overlap="int64",
                         recall="float64")
    cents = train_pq_codebooks(sf_dir)
    if cents is None:
        return empty
    qdf = ds.filter(expr=f"vec_id < {_N_Q}").to_pandas() \
        .sort_values("vec_id")
    if qdf.empty:  # rows exist but no query ids: twin emits 0 rows
        return empty
    qmat = _quant(np.stack(qdf["embedding"].to_numpy()))
    qids = qdf["vec_id"].to_numpy(np.int64)
    # per-query, per-subspace LUT: int64 sum of per-component sq9.
    # k_eff = len(codebook) (< PQ_K when the corpus has fewer seeds).
    k_eff_cb = len(cents[0])
    luts = np.zeros((len(qids), PQ_M, k_eff_cb), dtype=np.int64)
    for s in range(PQ_M):
        qs = qmat[:, s * PQ_D:(s + 1) * PQ_D]
        for c in range(k_eff_cb):
            luts[:, s, c] = _sq9(qs - cents[s][c][None, :]).sum(1)
    ref = ray.put((cents, qmat, qids, luts))

    def topk_part(b: pd.DataFrame) -> pd.DataFrame:
        cs, qm, qi, lut = _get_broadcast(ref)
        mat = _quant(np.stack(b["embedding"].to_numpy()))
        vids = b["vec_id"].to_numpy(np.int64)
        n = len(vids)
        adc = np.zeros((len(qi), n), dtype=np.int64)
        for s in range(PQ_M):
            a = _argmin(mat[:, s * PQ_D:(s + 1) * PQ_D], cs[s])
            adc += lut[:, s, :][:, a]
        frames = []
        for iq in range(len(qi)):
            ex = _sq9(mat - qm[iq][None, :]).sum(1)
            for kind, dist in (("a", adc[iq]), ("e", ex)):
                order = np.lexsort((vids, dist))[:_TOPK]
                frames.append(pd.DataFrame({
                    "query_id": np.int64(qi[iq]), "kind": kind,
                    "vec_id": vids[order], "d": dist[order]}))
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(topk_part, batch_format="pandas") \
        .to_pandas()  # <= 2*k*#queries rows per block: bounded final
    rows = []
    for qid in qids:
        g = parts[parts["query_id"] == qid]
        tops = {}
        for kind in ("a", "e"):
            gk = g[g["kind"] == kind] \
                .sort_values(["d", "vec_id"], kind="mergesort") \
                .head(_TOPK)
            tops[kind] = set(gk["vec_id"].astype(np.int64))
        k_eff = len(tops["e"])
        ov = len(tops["a"] & tops["e"])
        rows.append((int(qid), ov,
                     float(ov) / k_eff if k_eff else np.nan))
    return pd.DataFrame(rows, columns=["query_id", "n_overlap",
                                       "recall"]) \
        .astype({"query_id": "int64", "n_overlap": "int64"})


def _adc_oracle_sql() -> str:
    chains = ",".join(pq_chain(s, _S) for s in range(PQ_M))
    lut_joins = "\n      UNION ALL\n".join(f"""
      SELECT q.vec_id AS query_id, {s} AS sub, c.cluster,
             CAST(SUM(CAST(round((q.x - c.c) * (q.x - c.c)
                                 * 1000000000) AS BIGINT))
                  AS BIGINT) AS ld
      FROM q{s} q, c{s}_{PQ_ITERS} c
      WHERE q.vec_id < {_N_Q} AND q.j = c.j
      GROUP BY q.vec_id, c.cluster""" for s in range(PQ_M))
    code_union = " UNION ALL ".join(
        f"SELECT vec_id, {s} AS sub, cluster FROM a{s}_f"
        for s in range(PQ_M))
    exact_union = " UNION ALL ".join(f"""
      SELECT q.vec_id AS query_id, v.vec_id,
             CAST(SUM(CAST(round((v.x - q.x) * (v.x - q.x)
                                 * 1000000000) AS BIGINT))
                  AS BIGINT) AS pd
      FROM q{s} v JOIN q{s} q
        ON q.vec_id < {_N_Q} AND q.j = v.j
      GROUP BY q.vec_id, v.vec_id""" for s in range(PQ_M))
    return f"""
    WITH dims AS (SELECT unnest(range(0, {PQ_D})) AS j),
    {chains},
    lut AS ({lut_joins}),
    codes AS ({code_union}),
    adc AS (
      SELECT l.query_id, c.vec_id,
             CAST(SUM(l.ld) AS BIGINT) AS d
      FROM codes c JOIN lut l ON l.sub = c.sub
                            AND l.cluster = c.cluster
      GROUP BY l.query_id, c.vec_id),
    exact AS (
      SELECT query_id, vec_id, CAST(SUM(pd) AS BIGINT) AS d
      FROM ({exact_union}) GROUP BY query_id, vec_id),
    ta AS (SELECT query_id, vec_id FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY d, vec_id) AS rn
      FROM adc) WHERE rn <= {_TOPK}),
    te AS (SELECT query_id, vec_id FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY d, vec_id) AS rn
      FROM exact) WHERE rn <= {_TOPK}),
    ov AS (
      SELECT te.query_id,
             CAST(count(ta.vec_id) AS BIGINT) AS n_overlap,
             CAST(count(*) AS BIGINT) AS k_eff
      FROM te LEFT JOIN ta ON ta.query_id = te.query_id
                          AND ta.vec_id = te.vec_id
      GROUP BY te.query_id)
    SELECT query_id, n_overlap,
           CAST(n_overlap AS DOUBLE) / k_eff AS recall
    FROM ov ORDER BY query_id"""


register("pq_adc_recall", q_pq_adc_recall, _adc_oracle_sql())
