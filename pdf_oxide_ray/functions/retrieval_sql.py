"""Oracle SQL shared across query families (LEAF module, the
`functions/markov_sql.py` pattern): the BM25 scoring chain that
`bm25_search` registers and `rrf_fusion` fuses, and the quantized
all-pairs similarity CTE behind `knn_label_consistency`,
`embedding_margin` and `hubness_census`. Built here so any family can
be the first module imported: a family that read them from its
sibling at import time ran before that sibling had registered them.
"""

from __future__ import annotations

_WORD_SQL = "regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+')"

BM25_TERMS = ("join", "spark", "window")  # fixed 3-term query
BM25_K = 20

BM25_SQL = f"""
    WITH tok AS (
      SELECT doc_id, unnest({_WORD_SQL}) AS w FROM documents),
    dl AS (
      SELECT d.doc_id,
             COALESCE(t.dl, 0) AS dl,
             COALESCE(t.tf1, 0) AS tf1,
             COALESCE(t.tf2, 0) AS tf2,
             COALESCE(t.tf3, 0) AS tf3
      FROM documents d LEFT JOIN (
        SELECT doc_id, COUNT(*) AS dl,
               SUM(CASE WHEN w = '{BM25_TERMS[0]}' THEN 1 ELSE 0 END)
                 AS tf1,
               SUM(CASE WHEN w = '{BM25_TERMS[1]}' THEN 1 ELSE 0 END)
                 AS tf2,
               SUM(CASE WHEN w = '{BM25_TERMS[2]}' THEN 1 ELSE 0 END)
                 AS tf3
        FROM tok GROUP BY doc_id) t USING (doc_id)),
    g AS (
      SELECT COUNT(*) AS n,
             CAST(SUM(dl) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
               AS avgdl,
             SUM(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
             SUM(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2,
             SUM(CASE WHEN tf3 > 0 THEN 1 ELSE 0 END) AS df3
      FROM dl),
    s AS (
      SELECT d.doc_id, d.dl,
             ((ln((CAST(g.n - g.df1 AS DOUBLE) + 0.5)
                  / (CAST(g.df1 AS DOUBLE) + 0.5) + 1.0)
               * ((CAST(d.tf1 AS DOUBLE) * 2.2)
                  / (CAST(d.tf1 AS DOUBLE)
                     + 1.2 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                             / g.avgdl)))))
              + (ln((CAST(g.n - g.df2 AS DOUBLE) + 0.5)
                    / (CAST(g.df2 AS DOUBLE) + 0.5) + 1.0)
                 * ((CAST(d.tf2 AS DOUBLE) * 2.2)
                    / (CAST(d.tf2 AS DOUBLE)
                       + 1.2 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                               / g.avgdl))))))
             + (ln((CAST(g.n - g.df3 AS DOUBLE) + 0.5)
                   / (CAST(g.df3 AS DOUBLE) + 0.5) + 1.0)
                * ((CAST(d.tf3 AS DOUBLE) * 2.2)
                   / (CAST(d.tf3 AS DOUBLE)
                      + 1.2 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                              / g.avgdl)))))
               AS score
      FROM dl d, g
      WHERE d.tf1 + d.tf2 + d.tf3 > 0)
    SELECT doc_id, dl,
           round(score * 1000000.0, 0) / 1000000.0 AS score
    FROM s
    ORDER BY round(score * 1000000.0, 0) / 1000000.0 DESC, doc_id
    LIMIT {BM25_K}"""

PAIR_SQL = """
    WITH v AS (
      SELECT vec_id, CAST(label AS BIGINT) AS label,
             list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve
      FROM embeddings),
    q AS (
      SELECT vec_id, label,
             CASE WHEN ma = 0
                  THEN list_transform(ve, x -> CAST(0 AS BIGINT))
                  ELSE list_transform(
                         ve, x -> CAST(round(x * 127.0 / ma) AS BIGINT))
             END AS qe
      FROM (SELECT vec_id, label, ve,
                   list_max(list_transform(ve, x -> abs(x))) AS ma
            FROM v)),
    p AS (
      SELECT a.vec_id AS ida, a.label AS la,
             b.vec_id AS idb, b.label AS lb,
             list_inner_product(a.qe, b.qe) AS sim
      FROM q a JOIN q b ON a.vec_id <> b.vec_id)"""
