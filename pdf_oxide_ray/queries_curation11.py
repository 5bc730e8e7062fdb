"""Round-4l operator family — embedding-quality evaluation ops run
before trusting a vector index or a labeled corpus:

* `knn_label_consistency` — leave-one-out 1-NN label agreement: for
  each vector, the nearest OTHER vector by quantized-int8 dot product
  (ties break on smallest vec_id); per label, how often the neighbor
  shares the label. The standard embedding-space sanity probe (random
  labels → accuracy ≈ 1/#labels; separable labels → high).
* `embedding_margin` — per-vector nearest-same-label vs
  nearest-other-label similarity margin, averaged per label — the
  metric-learning separability diagnostic (positive mean margin =
  same-label neighbors dominate).

Both ride the repo's int8 symmetric quantization (per-vector scale
127/max|v|, half-away rounding — the `embedding_quantize` chain), so
every similarity is an EXACT integer ≤ 64·127² ≈ 1.03e6 on both
engines: numpy int64 matmuls here, DuckDB `list_inner_product` (exact
int-valued doubles) in the twins — no float-association drift, no
grid.

Distributed plan (shuffle budget — also in SCALE.md): this is the
documented all-pairs BASELINE, size-gated like `all_pairs_cosine`
(explicit error above the gate naming the IVF/LSH path — never a
silent quadratic): the quantized matrix (N×64 int8-range int64 +
labels + ids) broadcasts ONCE via `ray.put` (~0.5 KB/vector), and each
batch computes a (batch × N) int64 matmul + masked row maxima — zero
shuffle; the per-label reduce is label-bounded via `sum_by`.
At web scale the same per-batch kernel runs against per-IVF-cell
broadcast shards instead of the full matrix.

Exactness: sims/margins are int64 (order-free sums — margins sum to
|N|·1e6 max, exactly representable as the twin's SUM of int-valued
doubles); accuracies/means are single int/int double divisions.
Empty/singleton inputs return the twins' empty shapes. Self-registers
into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.retrieval_sql import PAIR_SQL
from .queries import _empty_typed, _pq, register


_PAIR_GATE_ROWS = 2_000_000  # same gate as all_pairs_cosine

_NEG = np.int64(-(2 ** 62))  # masked-out similarity sentinel


def _quantized_matrix(sf_dir: str):
    """(ids_sorted, labels, Q) — the per-vector int8-grid quantization
    (the embedding_quantize chain), driver-held under the documented
    all-pairs gate."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    m = ds.materialize()
    n = m.count()
    if n == 0:
        return None
    if n > _PAIR_GATE_ROWS:
        raise NotImplementedError(
            f"all-pairs 1-NN baseline gated at {_PAIR_GATE_ROWS} rows "
            f"(got {n}); run the IVF path (functions/similarity.py: "
            "train coarse quantizer on a sample, broadcast per-cell "
            "shards, same per-batch kernel)")
    df = m.to_pandas().sort_values("vec_id").reset_index(drop=True)
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    ma = np.abs(mat).max(axis=1)
    safe = np.where(ma == 0, 1.0, ma)
    x = (mat * 127.0) / safe[:, None]
    q = np.copysign(np.floor(np.abs(x) + 0.5), x)  # half-away, like SQL
    q[ma == 0] = 0.0
    return (df["vec_id"].to_numpy(np.int64),
            df["label"].to_numpy(np.int64), q.astype(np.int64))


def _nn_stats(sf_dir: str) -> pd.DataFrame | None:
    """Per-vector (label, nn_label, best_same, best_other) over the
    broadcast quantized matrix; batch × N int64 matmul, masked maxima."""
    import ray

    qm = _quantized_matrix(sf_dir)
    if qm is None:
        return None
    ids_s, labels_s, q_mat = qm
    if len(ids_s) < 2:
        return None
    ref = ray.put((ids_s, labels_s, q_mat.T.copy()))
    ds = _pq(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def batch_nn(b: pd.DataFrame) -> pd.DataFrame:
        from .stages.joins import _get_broadcast

        ids, labels, qt = _get_broadcast(ref)
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        ma = np.abs(mat).max(axis=1)
        safe = np.where(ma == 0, 1.0, ma)
        x = (mat * 127.0) / safe[:, None]
        q = np.copysign(np.floor(np.abs(x) + 0.5), x)
        q[ma == 0] = 0.0
        sims = q.astype(np.int64) @ qt  # (batch, N) exact int64
        bids = b["vec_id"].to_numpy(np.int64)
        blab = b["label"].to_numpy(np.int64)
        self_col = np.searchsorted(ids, bids)
        sims[np.arange(len(bids)), self_col] = _NEG
        same = labels[None, :] == blab[:, None]
        s_same = np.where(same, sims, _NEG)
        s_other = np.where(~same, sims, _NEG)
        # global NN with min-id tie-break
        rowmax = sims.max(axis=1)
        at_max = sims == rowmax[:, None]
        big = np.int64(2 ** 62)
        nn_col = np.where(at_max, ids[None, :], big).min(axis=1)
        nn_lab = labels[np.searchsorted(ids, nn_col)]
        return pd.DataFrame({"vec_id": bids, "label": blab,
                             "nn_label": nn_lab,
                             "best_same": s_same.max(axis=1),
                             "best_other": s_other.max(axis=1)})

    out = ds.map_batches(batch_nn, batch_format="pandas").to_pandas()
    return out if not out.empty else None


def q_knn_label_consistency(sf_dir: str) -> pd.DataFrame:
    """Leave-one-out 1-NN label agreement per label — module
    docstring."""
    empty = _empty_typed(label="int64", n="int64", n_match="int64",
                         accuracy="float64")
    st = _nn_stats(sf_dir)
    if st is None:
        return empty
    per = st.assign(n=np.int64(1),
                    n_match=(st["nn_label"] == st["label"])
                    .to_numpy().astype(np.int64)) \
        .groupby("label", as_index=False)[["n", "n_match"]].sum()
    per["accuracy"] = per["n_match"].to_numpy(np.float64) \
        / per["n"].to_numpy(np.float64)
    return per.sort_values("label").reset_index(drop=True) \
        .astype({"label": "int64", "n": "int64", "n_match": "int64"})


register("knn_label_consistency", q_knn_label_consistency, PAIR_SQL + """,
    nn AS (
      SELECT ida, la, lb FROM (
        SELECT ida, la, lb,
               ROW_NUMBER() OVER (PARTITION BY ida
                                  ORDER BY sim DESC, idb) AS rn
        FROM p) WHERE rn = 1)
    SELECT la AS label, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CASE WHEN lb = la THEN 1 ELSE 0 END) AS BIGINT)
             AS n_match,
           CAST(SUM(CASE WHEN lb = la THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) AS accuracy
    FROM nn GROUP BY la ORDER BY la""")


def q_embedding_margin(sf_dir: str) -> pd.DataFrame:
    """Per-label mean (nearest-same − nearest-other) similarity margin
    — module docstring."""
    empty = _empty_typed(label="int64", n="int64",
                         avg_margin="float64")
    st = _nn_stats(sf_dir)
    if st is None:
        return empty
    ok = st[(st["best_same"] != _NEG) & (st["best_other"] != _NEG)]
    if ok.empty:
        return empty
    per = ok.assign(n=np.int64(1),
                    margin=ok["best_same"] - ok["best_other"]) \
        .groupby("label", as_index=False)[["n", "margin"]].sum()
    per["avg_margin"] = per["margin"].to_numpy(np.float64) \
        / per["n"].to_numpy(np.float64)
    return per.drop(columns=["margin"]) \
        .sort_values("label").reset_index(drop=True) \
        .astype({"label": "int64", "n": "int64"})


register("embedding_margin", q_embedding_margin, PAIR_SQL + """,
    mm AS (
      SELECT ida, la,
             MAX(CASE WHEN lb = la THEN sim END) AS best_same,
             MAX(CASE WHEN lb <> la THEN sim END) AS best_other
      FROM p GROUP BY ida, la)
    SELECT la AS label, CAST(COUNT(*) AS BIGINT) AS n,
           SUM(best_same - best_other) / CAST(COUNT(*) AS DOUBLE)
             AS avg_margin
    FROM mm WHERE best_same IS NOT NULL AND best_other IS NOT NULL
    GROUP BY la ORDER BY la""")
