"""Round-4x operator family — embedding-space release diagnostics:

* `split_embedding_drift` — per-label L2 distance between the TRAIN
  and TEST split centroids in embedding space — the "did my split
  shear the embedding distribution" gate run before training a probe
  on one split and evaluating on the other. Splits ride the corpus
  md5-nibble convention on vec_id; components quantize to the int
  1e-6 grid (the `label_centroid_sim` chain) so the squared distance
  numerator Σ(S_tr·n_te − S_te·n_tr)² is an EXACT integer on both
  engines (Python big ints / HUGEINT), and the final double is one
  sqrt + two divisions of correctly-rounded operands
  (HUGEINT routed VARCHAR→DOUBLE per the house rule).
* `hubness_census` — k-occurrence histogram (k=10): how many vectors
  appear in exactly `occ` other vectors' top-10 neighbor lists under
  the exact int8-quantized dot product (ties break on smallest
  vec_id). High-dimensional hubness (Radovanović et al., JMLR'10) is
  THE failure mode of dot-product ANN — a heavy right tail means a
  few "hub" vectors dominate every candidate list and recall
  collapses; run this census before trusting IVF/LSH recall numbers.

Distributed plans (shuffle budgets — also in SCALE.md):

`split_embedding_drift`: per-batch (label, split, dim) int64
component-sum partials with piggybacked counts → ONE
label×2×64-bounded reduce; the per-label closing is driver math on
the dimension-bounded frame in Python big ints. No text, no vectors
cross the exchange. Twin-side HUGEINT holds to ~4e6 vectors/label
(num < 64·(1e6·n²)²); the engine side is overflow-free at any scale.

`hubness_census`: the documented all-pairs BASELINE riding the
`knn_label_consistency` gate (explicit error above 2M rows naming
the IVF path — never a silent quadratic): the quantized matrix
broadcasts ONCE via `ray.put`, each batch runs one (batch × N) int64
matmul + a vectorized top-10 argpartition on the composite
(sim·(N+1) − id) key (exact tie-break, no float), and emits only
(neighbor_id, 1) int partials → ONE vec-bounded reduce → an
occ-bounded histogram. At web scale the same per-batch kernel runs
against per-IVF-cell broadcast shards.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.retrieval_sql import PAIR_SQL
from .functions.textops import nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_HUB_K = 10



def _vd(x: str) -> str:
    """HUGEINT -> correctly-rounded DOUBLE (strtod; the house rule —
    DuckDB's direct cast is 1 ulp off past 2^53)."""
    return f"CAST(CAST({x} AS VARCHAR) AS DOUBLE)"


# --------------------------------------------- split_embedding_drift

def q_split_embedding_drift(sf_dir: str) -> pd.DataFrame:
    """Per-label train-vs-test centroid L2 distance on the 1e-6
    component grid — module docstring."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def sums(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["vec_id"])
        keep = split != "val"
        if not keep.any():
            return pd.DataFrame({
                "label": pd.Series([], dtype="int64"),
                "split": pd.Series([], dtype=object),
                "dim": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
                "c": pd.Series([], dtype="int64")})
        b = b[keep]
        split = split[keep]
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64) \
            * 1e6
        q = np.copysign(np.floor(np.abs(mat) + 0.5), mat) \
            .astype(np.int64)
        lab = b["label"].to_numpy(np.int64)
        d = q.shape[1]
        return pd.DataFrame({
            "label": np.repeat(lab, d),
            "split": np.repeat(split.astype(object), d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64),
                           len(lab)),
            "s": q.reshape(-1),
            # piggybacked count: every dim row carries 1 per vector,
            # so after the reduce any dim's c is that cell's n
            "c": np.int64(1)})

    agg = sum_by(ds.map_batches(sums, batch_format="pandas"),
                 ["label", "split", "dim"], ["s", "c"])
    empty = _empty_typed(label="int64", n_train="int64",
                         n_test="int64", drift="float64")
    if agg.empty:
        return empty
    rows = []
    for label, g in agg.groupby("label"):
        tr = g[g["split"] == "train"].sort_values("dim")
        te = g[g["split"] == "test"].sort_values("dim")
        if tr.empty or te.empty:
            continue  # twin's INNER JOIN: both splits present
        n_tr = int(tr["c"].iloc[0])
        n_te = int(te["c"].iloc[0])
        num = 0
        for a, b in zip(tr["s"].tolist(), te["s"].tolist()):
            t = int(a) * n_te - int(b) * n_tr
            num += t * t
        drift = (np.sqrt(np.float64(float(num)))
                 / (np.float64(n_tr) * np.float64(n_te)) / 1e6)
        rows.append((int(label), n_tr, n_te, float(drift)))
    if not rows:
        return empty
    return pd.DataFrame(rows, columns=["label", "n_train", "n_test",
                                       "drift"]) \
        .astype({"label": "int64", "n_train": "int64",
                 "n_test": "int64"}) \
        .sort_values("label").reset_index(drop=True)


register("split_embedding_drift", q_split_embedding_drift, f"""
    WITH sp AS (
      SELECT CAST(label AS BIGINT) AS label, embedding,
             {split_sql('vec_id')} AS split
      FROM embeddings),
    q AS (
      SELECT label, split, i.i AS dim,
             SUM(CAST(round(CAST(embedding[i.i] AS DOUBLE) * 1000000)
                      AS HUGEINT)) AS s,
             CAST(count(*) AS HUGEINT) AS n
      FROM sp, (SELECT unnest(range(1, 65)) AS i) i
      WHERE split IN ('train', 'test')
      GROUP BY 1, 2, 3),
    tr AS (SELECT label, dim, s, n FROM q WHERE split = 'train'),
    te AS (SELECT label, dim, s, n FROM q WHERE split = 'test'),
    d2 AS (
      SELECT tr.label,
             SUM((tr.s * te.n - te.s * tr.n)
                 * (tr.s * te.n - te.s * tr.n)) AS num,
             MAX(tr.n) AS n_tr, MAX(te.n) AS n_te
      FROM tr JOIN te ON te.label = tr.label AND te.dim = tr.dim
      GROUP BY 1)
    SELECT label, CAST(n_tr AS BIGINT) AS n_train,
           CAST(n_te AS BIGINT) AS n_test,
           sqrt({_vd('num')})
             / (CAST(n_tr AS DOUBLE) * CAST(n_te AS DOUBLE))
             / 1000000.0 AS drift
    FROM d2 ORDER BY label""")


# --------------------------------------------------- hubness_census

def q_hubness_census(sf_dir: str) -> pd.DataFrame:
    """k-occurrence histogram of the exact int8 top-10 neighbor graph
    — module docstring."""
    import ray

    from .queries_curation11 import _quantized_matrix
    from .stages.joins import _get_broadcast

    qm = _quantized_matrix(sf_dir)
    empty = _empty_typed(occ="int64", n_vecs="int64")
    if qm is None:
        return empty
    ids_s, _labels, q_mat = qm
    n = len(ids_s)
    if n == 1:
        return pd.DataFrame({"occ": pd.Series([0], dtype="int64"),
                             "n_vecs": pd.Series([1], dtype="int64")})
    k = min(_HUB_K, n - 1)
    ref = ray.put((ids_s, q_mat.T.copy()))
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def batch_topk(b: pd.DataFrame) -> pd.DataFrame:
        ids, qt = _get_broadcast(ref)
        nn = qt.shape[1]
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        ma = np.abs(mat).max(axis=1)
        safe = np.where(ma == 0, 1.0, ma)
        x = (mat * 127.0) / safe[:, None]
        q = np.copysign(np.floor(np.abs(x) + 0.5), x)
        q[ma == 0] = 0.0
        sims = q.astype(np.int64) @ qt  # (batch, N) exact int64
        bids = b["vec_id"].to_numpy(np.int64)
        cols = np.searchsorted(ids, bids)
        # composite key: larger sim wins; equal sim -> smaller id wins
        key = sims * np.int64(nn + 1) \
            - np.arange(nn, dtype=np.int64)[None, :]
        key[np.arange(len(bids)), cols] = np.int64(-(2 ** 62))
        top = np.argpartition(-key, k - 1, axis=1)[:, :k]
        nbr = ids[top.reshape(-1)]
        return pd.DataFrame({"nbr": nbr, "one": np.int64(1)})

    occ = sum_by(ds.map_batches(batch_topk, batch_format="pandas"),
                 ["nbr"], ["one"])
    counts = np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(ids_s, occ["nbr"].to_numpy(np.int64))
    counts[pos] = occ["one"].to_numpy(np.int64)
    out = pd.DataFrame({"occ": counts, "n_vecs": np.int64(1)}) \
        .groupby("occ", as_index=False).sum()
    return out.astype({"occ": "int64", "n_vecs": "int64"}) \
        .sort_values("occ").reset_index(drop=True)


def _hubness_oracle_sql() -> str:
    return PAIR_SQL + f""",
    topk AS (
      SELECT idb FROM (
        SELECT idb, ROW_NUMBER() OVER (PARTITION BY ida
                                       ORDER BY sim DESC, idb) AS rn
        FROM p) WHERE rn <= {_HUB_K}),
    oc AS (SELECT idb, CAST(count(*) AS BIGINT) AS c
           FROM topk GROUP BY idb),
    o2 AS (SELECT COALESCE(oc.c, 0) AS occ
           FROM embeddings e LEFT JOIN oc ON oc.idb = e.vec_id)
    SELECT occ, CAST(count(*) AS BIGINT) AS n_vecs
    FROM o2 GROUP BY occ ORDER BY occ"""


register("hubness_census", q_hubness_census, _hubness_oracle_sql())
