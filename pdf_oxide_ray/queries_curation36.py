"""Round-5e operator — product quantization, the workhorse ANN
compressor:

* `pq_distortion` — PQ codebook training + reconstruction-error
  audit: the 64-d embedding splits into m = 4 subspaces of 16 dims;
  each subspace trains its own k = 8 codebook with the repo's shared
  EXACT Lloyd recipe (seeds = vec_id < 8, dyadic 2^20 quantization
  grid, int64 component sums, argmin ties toward the lower cluster
  id — `q_kmeans_assign`'s contract), and the output reports each
  subspace's vector count and mean squared reconstruction error.
  The table a vector-store owner reads before committing to a PQ
  code size (m x log2 k bits/vector vs distortion).

Distributed plan (shuffle budget — also in SCALE.md): ALL FOUR
subspaces train in the SAME pass — per iteration, centroids
broadcast once (`ray.put` + per-worker cache) and each batch emits
(subspace, cluster, n, 16 int64 component sums) partials -> ONE
reduce bounded by m x k rows; 5 iterations = 5 passes (Lloyd is
iterative by nature; at 100 TB the codebook trains on a SAMPLE —
the `train_ivf_centroids` recipe — and only the final distortion
pass streams the corpus). The distortion pass emits (subspace, n,
Σ d2) scalar partials -> a 4-row reduce.

Exactness: centroids are bit-identical per iteration (the kmeans
contract); the DISTORTION is made order-free by quantizing each
COMPONENT's squared error to the int 1e-9 grid before summation —
(x_j − c_j)² is the same double on both sides, so the per-vector
d2 is an int64 sum and the final MSE one mirrored division chain.
Empty input returns the twin's empty shape. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.pq_sql import PQ_D, PQ_ITERS, PQ_K, PQ_M, pq_chain
from .ops.exchange import sum_by
from .queries import _KMEANS_SCALE, _empty_typed, _pq, register


_PQ_M, _PQ_D, _PQ_K, _PQ_ITERS = PQ_M, PQ_D, PQ_K, PQ_ITERS
_S = _KMEANS_SCALE


def _quant(mat: np.ndarray) -> np.ndarray:
    return np.rint(mat.astype(np.float64) * _S) / _S


def _argmin(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
    d2 = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T) \
        + (c * c).sum(1)[None, :]
    return np.argmin(d2, axis=1)


def train_pq_codebooks(sf_dir: str) -> list[np.ndarray] | None:
    """Train the m=4 subspace codebooks (shared by `pq_distortion`
    and `pq_adc_recall` so the twins' CTE chains mirror exactly one
    training path — the `_kmeans_centroids` convention). None on an
    empty corpus."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    seed = ds.filter(expr=f"vec_id < {_PQ_K}").to_pandas()
    if seed.empty:
        return None
    seed_mat = _quant(np.stack(
        seed.sort_values("vec_id")["embedding"].to_numpy()))
    cents = [seed_mat[:, s * _PQ_D:(s + 1) * _PQ_D].copy()
             for s in range(_PQ_M)]

    sum_cols = [f"s{j}" for j in range(_PQ_D)]

    for _ in range(_PQ_ITERS):
        ref = ray.put(cents)

        def stats(b: pd.DataFrame) -> pd.DataFrame:
            cs = _get_broadcast(ref)
            mat = _quant(np.stack(b["embedding"].to_numpy()))
            frames = []
            for s in range(_PQ_M):
                sub = mat[:, s * _PQ_D:(s + 1) * _PQ_D]
                a = _argmin(sub, cs[s])
                ints = np.rint(sub * _S).astype(np.int64)
                out = {"sub": np.int64(s),
                       "cluster": np.arange(_PQ_K, dtype=np.int64),
                       "n": np.bincount(a, minlength=_PQ_K)
                       .astype(np.int64)}
                sums = np.zeros((_PQ_K, _PQ_D), dtype=np.int64)
                np.add.at(sums, a, ints)
                for j in range(_PQ_D):
                    out[f"s{j}"] = sums[:, j]
                frames.append(pd.DataFrame(out))
            return pd.concat(frames, ignore_index=True)

        agg = sum_by(
            ds.map_batches(stats, batch_format="pandas"),
            ["sub", "cluster"], ["n"] + sum_cols)
        for s in range(_PQ_M):
            g = agg[agg["sub"] == s].set_index("cluster")
            upd = cents[s].copy()
            for cl in range(_PQ_K):
                if cl in g.index and int(g.loc[cl, "n"]) > 0:
                    n = int(g.loc[cl, "n"])
                    sums = g.loc[cl, sum_cols].to_numpy(np.int64)
                    upd[cl] = (sums.astype(np.float64) / n) / _S
            cents[s] = upd
    return cents


def q_pq_distortion(sf_dir: str) -> pd.DataFrame:
    """PQ codebooks + per-subspace reconstruction MSE — module
    docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    empty = _empty_typed(subspace="int64", n_vectors="int64",
                         mse="float64")
    cents = train_pq_codebooks(sf_dir)
    if cents is None:
        return empty

    ref = ray.put(cents)

    def dist(b: pd.DataFrame) -> pd.DataFrame:
        cs = _get_broadcast(ref)
        mat = _quant(np.stack(b["embedding"].to_numpy()))
        rows = {"sub": [], "n": [], "sd": []}
        for s in range(_PQ_M):
            sub = mat[:, s * _PQ_D:(s + 1) * _PQ_D]
            a = _argmin(sub, cs[s])
            diff = sub - cs[s][a]
            raw = (diff * diff) * 1e9
            sq9 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
                .astype(np.int64)
            rows["sub"].append(s)
            rows["n"].append(len(sub))
            rows["sd"].append(int(sq9.sum()))
        out = pd.DataFrame(rows)
        out["sub"] = out["sub"].astype("int64")
        out["n"] = out["n"].astype("int64")
        out["sd"] = out["sd"].astype("int64")
        return out

    g = sum_by(ds.map_batches(dist, batch_format="pandas"),
               ["sub"], ["n", "sd"])
    if g.empty:
        return empty
    n = g["n"].to_numpy(np.int64)
    mse = (g["sd"].to_numpy(np.int64).astype(np.float64)
           / n.astype(np.float64)) / 1e9
    return pd.DataFrame({
        "subspace": g["sub"].to_numpy(np.int64),
        "n_vectors": n, "mse": mse}) \
        .sort_values("subspace").reset_index(drop=True)


def _pq_oracle_sql() -> str:
    chains = ",".join(pq_chain(s, _S) for s in range(_PQ_M))
    unions = " UNION ALL ".join(
        f"SELECT * FROM res{s}" for s in range(_PQ_M))
    return f"""
    WITH dims AS (SELECT unnest(range(0, {_PQ_D})) AS j),
    {chains}
    SELECT subspace, n_vectors,
           (CAST(sd AS DOUBLE) / CAST(n_vectors AS DOUBLE))
             / 1000000000.0 AS mse
    FROM ({unions})
    WHERE n_vectors > 0  -- empty table: 0 rows, like the engine
    ORDER BY subspace"""


register("pq_distortion", q_pq_distortion, _pq_oracle_sql())
