"""Round-4ab operator family — distribution distance + cluster quality:

* `source_length_wasserstein` — pairwise Wasserstein-1 (earth-mover)
  distance between per-source token-count distributions, the
  transport-cost sibling of `source_length_ks` (sup-norm) and
  `source_js_matrix` (divergence): W1 = ∫|CDF_a - CDF_b| over the
  integer length grid. All mass rides exact integers — the integrand
  is |cum_a·N_b - cum_b·N_a| x grid-gap summed as ints, divided ONCE
  at the end — so the result is order-free and bit-exact. The final
  division routes HUGEINT -> VARCHAR -> DOUBLE (the strtod twin of
  Python ``float(int)``; plain HUGEINT->DOUBLE casts are 1 ulp off
  past 2^53, see CLAUDE.md).
* `cluster_silhouette` — per-cluster mean SIMPLIFIED silhouette
  (a = dist to own centroid, b = nearest other centroid,
  s = (b-a)/max(a,b)) over the shared Lloyd's k-means model
  (`_kmeans_centroids`): the standard clustering-quality report that
  costs O(N·K), not the O(N²) of full silhouette. Distances are
  computed on 2^-20-grid INTEGER components (final centroids
  re-quantized on both sides), so squared distances are exact int64
  sums; sqrt/subtract/divide are single IEEE ops; per-point s rides
  the int 1e-9 grid so cluster means are order-free.

Distributed plans (shuffle budgets — also in SCALE.md):

`source_length_wasserstein`: ONE (source, token-count) bounded
histogram reduce; every pair's transport integral is driver math
over the merged grid (sources x grid, never documents).

`cluster_silhouette`: model training = the shared 5-pass streamed
Lloyd's loop (broadcast centroids, int64 component-sum partials);
scoring = one more streamed pass emitting (cluster, n, sum_s9)
partials — K rows per batch. Below `_KMEANS_LOCAL_MAX` the identical
math runs driver-local in 8k-row slices (bit-identical either way).

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import token_count_ws
from .ops.exchange import sum_by
from .queries import (_empty_typed, _get_broadcast, _kmeans_centroids,
                     _kmeans_centroids_from_df, _embeddings_local,
                     _kmeans_cte_chain, _KMEANS_SCALE, _pq, register)


_SIL_PREC = 10 ** 9          # per-point silhouette grid: 1e-9
_SIL_SLICE = 8192


# ------------------------------------------- source_length_wasserstein

def q_source_length_wasserstein(sf_dir: str) -> pd.DataFrame:
    """Pairwise W1 between source token-length distributions — module
    docstring. Engine transport integral rides Python big ints; the
    twin casts the ca*nb / cb*na cum terms (bounded by na*nb) and the
    final na*nb denominator to HUGEINT, so neither side overflows at
    any source size."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "t": token_count_ws(b["text"]).to_numpy(),
                             "n": np.int64(1)})

    h = sum_by(ds.map_batches(part, batch_format="pandas"),
               ["source", "t"], ["n"])
    empty = _empty_typed(source_a=object, source_b=object, w1="float64")
    if h.empty:
        return empty
    per: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for s, g in h.groupby("source"):
        g = g.sort_values("t")
        per[s] = (g["t"].to_numpy(np.int64), g["n"].to_numpy(np.int64))
    srcs = sorted(per)
    rows = []
    for ia in range(len(srcs)):
        for ib in range(ia + 1, len(srcs)):
            sa, sb = srcs[ia], srcs[ib]
            ta, na_ = per[sa]
            tb, nb_ = per[sb]
            na, nb = int(na_.sum()), int(nb_.sum())
            grid = np.union1d(ta, tb)
            ca = np.cumsum(np.zeros(len(grid), np.int64)
                           + _scatter(grid, ta, na_))
            cb = np.cumsum(np.zeros(len(grid), np.int64)
                           + _scatter(grid, tb, nb_))
            num = 0  # python ints: |ca*nb - cb*na| * gap sums overflow-free
            for k in range(len(grid) - 1):
                num += abs(int(ca[k]) * nb - int(cb[k]) * na) \
                    * int(grid[k + 1] - grid[k])
            rows.append((sa, sb, float(num) / float(na * nb)))
    return pd.DataFrame(rows, columns=["source_a", "source_b", "w1"]) \
        .astype({"w1": "float64"})


def _scatter(grid: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    out = np.zeros(len(grid), np.int64)
    out[np.searchsorted(grid, t)] = n
    return out


register("source_length_wasserstein", q_source_length_wasserstein, r"""
    WITH tc AS (
      SELECT source,
             len(list_filter(regexp_split_to_array(coalesce(text, ''),
                 '\s+'), x -> x <> '')) AS t
      FROM documents),
    h AS (SELECT source, t, count(*) AS n FROM tc GROUP BY 1, 2),
    tot AS (SELECT source, CAST(SUM(n) AS BIGINT) AS nn
            FROM h GROUP BY 1),
    pairs AS (SELECT a.source AS sa, a.nn AS na,
                     b.source AS sb, b.nn AS nb
              FROM tot a JOIN tot b ON a.source < b.source),
    pts AS (SELECT p.sa, p.sb, p.na, p.nb, h.t,
              CAST(SUM(CASE WHEN h.source = p.sa THEN h.n ELSE 0 END)
                   AS BIGINT) AS da,
              CAST(SUM(CASE WHEN h.source = p.sb THEN h.n ELSE 0 END)
                   AS BIGINT) AS db
            FROM pairs p JOIN h ON h.source IN (p.sa, p.sb)
            GROUP BY 1, 2, 3, 4, 5),
    cum AS (SELECT sa, sb, na, nb, t,
              CAST(SUM(da) OVER w AS BIGINT) AS ca,
              CAST(SUM(db) OVER w AS BIGINT) AS cb,
              lead(t) OVER w AS nt
            FROM pts WINDOW w AS (PARTITION BY sa, sb ORDER BY t)),
    ws AS (SELECT sa, sb,
                  SUM(abs(CAST(ca AS HUGEINT) * nb
                          - CAST(cb AS HUGEINT) * na)
                      * (nt - t)) AS num
           FROM cum WHERE nt IS NOT NULL GROUP BY 1, 2)
    SELECT p.sa AS source_a, p.sb AS source_b,
           CAST(CAST(COALESCE(ws.num, 0) AS VARCHAR) AS DOUBLE)
             / CAST(CAST(CAST(p.na AS HUGEINT) * p.nb AS VARCHAR)
                    AS DOUBLE) AS w1
    FROM pairs p LEFT JOIN ws ON ws.sa = p.sa AND ws.sb = p.sb
    ORDER BY source_a, source_b""")


# ------------------------------------------------- cluster_silhouette

def _sil_partial(xi: np.ndarray, ci: np.ndarray) -> pd.DataFrame:
    """(cluster, n, sum_s9) partial over integer-grid components."""
    d2 = ((xi[:, None, :] - ci[None, :, :]) ** 2).sum(axis=2)
    own = np.argmin(d2, axis=1)           # first-min = lower cluster id
    a2 = d2[np.arange(len(xi)), own]
    masked = d2.copy()
    masked[np.arange(len(xi)), own] = np.iinfo(np.int64).max
    b2 = masked.min(axis=1)
    sqa = np.sqrt(a2.astype(np.float64))
    sqb = np.sqrt(b2.astype(np.float64))
    mx = np.maximum(sqa, sqb)
    sil = np.zeros(len(xi), np.float64)
    np.divide(sqb - sqa, mx, out=sil, where=mx > 0)
    raw = sil * _SIL_PREC
    s9 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    return pd.DataFrame({"cluster": own.astype(np.int64),
                         "n": np.int64(1), "s9": s9}) \
        .groupby("cluster", as_index=False).sum()


def q_cluster_silhouette(sf_dir: str) -> pd.DataFrame:
    """Per-cluster mean simplified silhouette on the shared k-means
    model — module docstring."""
    empty = _empty_typed(cluster="int64", n="int64",
                         mean_sil="float64")
    local = _embeddings_local(sf_dir)
    S = _KMEANS_SCALE
    if local is not None:
        cent = _kmeans_centroids_from_df(local)
        if cent is None or len(cent) < 2:
            return empty
        ci = np.rint(cent * S).astype(np.int64)
        mat = np.stack(local["embedding"].to_numpy()).astype(np.float64)
        xi = np.rint(mat * S).astype(np.int64)
        parts = [_sil_partial(xi[o:o + _SIL_SLICE], ci)
                 for o in range(0, len(xi), _SIL_SLICE)]
        agg = pd.concat(parts).groupby("cluster", as_index=False).sum()
    else:
        cent = _kmeans_centroids(sf_dir)
        if cent is None or len(cent) < 2:
            return empty
        import ray

        ci_ref = ray.put(np.rint(cent * S).astype(np.int64))
        ds = _pq(sf_dir, "embeddings", ["embedding"])

        def part(b: pd.DataFrame) -> pd.DataFrame:
            ci = _get_broadcast(ci_ref)
            mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
            return _sil_partial(np.rint(mat * S).astype(np.int64), ci)

        agg = sum_by(ds.map_batches(part, batch_format="pandas"),
                     ["cluster"], ["n", "s9"])
    agg = agg.sort_values("cluster").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64).astype(np.float64)
    return pd.DataFrame({
        "cluster": agg["cluster"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "mean_sil": agg["s9"].to_numpy(np.int64).astype(np.float64)
        / n / float(_SIL_PREC)})


def _silhouette_sql() -> str:
    S = repr(_KMEANS_SCALE)
    from .queries import _KMEANS_ITERS

    return _kmeans_cte_chain() + f""",
    cq AS (SELECT cluster, j,
                  CAST(round_even(c * {S}, 0) AS BIGINT) AS ci
           FROM c{_KMEANS_ITERS}),
    xq AS (SELECT vec_id, j,
                  CAST(round_even(x * {S}, 0) AS BIGINT) AS xi
           FROM q),
    dd AS (SELECT xq.vec_id, cq.cluster,
                  CAST(SUM((xq.xi - cq.ci) * (xq.xi - cq.ci))
                       AS BIGINT) AS d2
           FROM xq JOIN cq USING (j) GROUP BY 1, 2),
    asg AS (SELECT vec_id, cluster AS own, d2 AS a2 FROM (
              SELECT vec_id, cluster, d2,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY d2, cluster) AS rn
              FROM dd) WHERE rn = 1),
    bb AS (SELECT dd.vec_id, min(dd.d2) AS b2
           FROM dd JOIN asg USING (vec_id)
           WHERE dd.cluster <> asg.own GROUP BY 1),
    sil AS (SELECT asg.own AS cluster,
              CASE WHEN greatest(sqrt(CAST(a2 AS DOUBLE)),
                                 sqrt(CAST(b2 AS DOUBLE))) > 0
                   THEN (sqrt(CAST(b2 AS DOUBLE))
                         - sqrt(CAST(a2 AS DOUBLE)))
                        / greatest(sqrt(CAST(a2 AS DOUBLE)),
                                   sqrt(CAST(b2 AS DOUBLE)))
                   ELSE 0.0 END AS s
            FROM asg JOIN bb USING (vec_id))
    SELECT cluster, count(*) AS n,
           CAST(CAST(SUM(CAST(round(s * {_SIL_PREC}) AS BIGINT))
                     AS BIGINT) AS DOUBLE)
             / count(*) / {_SIL_PREC}.0 AS mean_sil
    FROM sil GROUP BY cluster ORDER BY cluster"""


register("cluster_silhouette", q_cluster_silhouette, _silhouette_sql())
