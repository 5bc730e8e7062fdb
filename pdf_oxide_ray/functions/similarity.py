"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast once via
``ray.put`` and every ``map_batches`` task does one numpy matmul per batch
against it (no shuffle; partial top-k per batch, merged small on the driver
side via a final aggregate).

Scale path: multi-table hyperplane LSH (``lsh_near_dup_pairs``) — every
vector hashes into 48 independent 12-bit tables (OR-amplification), only
skinny (vec_id, bucket) rows shuffle, and only candidate ids' vectors are
gathered for the exact cosine verify.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd

from ..ops.exchange import exchange_by_key
from ..ops.pairs import key_runs, run_pairs


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def batch_topk_fn(queries_ref, k: int):
    """Build a map_batches body: per-batch cosine top-k against a broadcast
    query matrix (``ray.put`` once; zero-copy ``ray.get`` cached per worker).
    Emits (query_id, vec_id, score) candidate rows — k per query per batch —
    which a final small reduce merges to global top-k."""
    state: dict = {}

    def _q() -> np.ndarray:
        if "q" not in state:
            import ray

            raw = queries_ref if isinstance(queries_ref, np.ndarray) \
                else ray.get(queries_ref)
            state["q"] = normalize_rows(np.asarray(raw, dtype=np.float64))
        return state["q"]

    def topk(batch: pd.DataFrame) -> pd.DataFrame:
        q = _q()
        vecs = normalize_rows(
            np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        sims = vecs @ q.T  # (B, Q)
        kk = min(k, len(batch))
        out_q, out_v, out_s = [], [], []
        vec_ids = batch["vec_id"].to_numpy()
        for qi in range(q.shape[0]):
            col = sims[:, qi]
            idx = np.argpartition(-col, kk - 1)[:kk]
            out_q.extend([qi] * kk)
            out_v.extend(vec_ids[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pd.DataFrame({"query_id": out_q, "vec_id": out_v,
                             "score": out_s})

    return topk


def reduce_topk(candidates: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Merge per-batch candidates to global top-k per query (deterministic
    tiebreak: higher score, then lower vec_id)."""
    rows = []
    for qid, grp in candidates.groupby("query_id"):
        top = heapq.nsmallest(k, grp.itertuples(),
                              key=lambda r: (-r.score, r.vec_id))
        for rank, r in enumerate(top):
            rows.append((qid, rank, r.vec_id, float(r.score)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "score"])


def brute_force_topk(ds, query_matrix: np.ndarray, k: int = 10,
                     concurrency: int | None = None) -> pd.DataFrame:
    """embeddings Dataset -> top-k table. Broadcasts queries via ray.put."""
    import ray

    ref = ray.put(np.asarray(query_matrix, dtype=np.float64))
    kwargs = {}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    cands = ds.map_batches(batch_topk_fn(ref, k), batch_format="pandas",
                           batch_size=4096, **kwargs).to_pandas()
    return reduce_topk(cands, k=k)


# ---------------------------------------------------------------------------
# LSH-bucketed variant (scale path)
# ---------------------------------------------------------------------------

# Multi-table hyperplane LSH: _LSH_TABLES tables of _LSH_PLANES planes
# each, seeded from _LSH_SEED; a bucket of more than _LSH_HOT_CAP
# vectors is a dense family (see lsh_near_dup_pairs).
_LSH_TAU = 0.99
_LSH_PLANES = 12
_LSH_TABLES = 48
_LSH_SEED = 97
_LSH_HOT_CAP = 128

# Stacked plane matrices, built once per worker process per vector dim
# (the batch_topk_fn closure-state pattern): one (dim, T*P) matmul per
# batch instead of T small ones, and no per-batch RandomState rebuilds.
_PLANES_CACHE: dict = {}


def _stacked_planes(dim: int) -> np.ndarray:
    p = _PLANES_CACHE.get(dim)
    if p is None:
        p = np.concatenate([
            np.random.RandomState(_LSH_SEED + t).normal(
                size=(dim, _LSH_PLANES))
            for t in range(_LSH_TABLES)], axis=1).astype(np.float64)
        _PLANES_CACHE[dim] = p
    return p


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: the scale path for similarity search
# ---------------------------------------------------------------------------

def train_ivf_centroids(sample: np.ndarray, n_lists: int = 16,
                        n_iters: int = 10, seed: int = 7) -> np.ndarray:
    """Deterministic spherical k-means over a (driver-side) SAMPLE of the
    corpus — at 100 TB the coarse quantizer trains on a tiny sample, the
    assignment pass streams (the standard IVF recipe)."""
    sample = normalize_rows(sample.astype(np.float64))
    rs = np.random.RandomState(seed)
    n_lists = min(n_lists, len(sample))
    centroids = sample[rs.choice(len(sample), n_lists, replace=False)]
    for _ in range(n_iters):
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(n_lists):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = normalize_rows(centroids)
    return centroids


def add_ivf_list(batch: pd.DataFrame, centroids_ref,
                 vec_col: str = "embedding") -> pd.DataFrame:
    """map_batches body: assign each vector to its nearest centroid (the
    inverted list id). Centroids ride a ray.put broadcast fetched via
    the per-worker ``_get_broadcast`` cache."""
    from ..stages.joins import _get_broadcast

    centroids = _get_broadcast(centroids_ref)
    mat = normalize_rows(np.stack(batch[vec_col].to_numpy())
                         .astype(np.float64))
    batch = batch.copy()
    batch["ivf_list"] = np.argmax(mat @ centroids.T, axis=1).astype("int64")
    return batch


def ivf_topk(ds, query_matrix: np.ndarray, centroids: np.ndarray,
             k: int = 5, n_probe: int = 4,
             vec_col: str = "embedding", id_col: str = "vec_id"):
    """IVF ANN search: probe only the ``n_probe`` inverted lists nearest
    each query. The dataset is filtered to the probed lists (vectorized
    expression filter), then exact-scored — at scale this touches
    n_probe/n_lists of the corpus instead of all of it."""
    import ray

    q = normalize_rows(query_matrix.astype(np.float64))
    probe_lists = np.argsort(-(q @ centroids.T), axis=1)[:, :n_probe]
    wanted = frozenset(int(x) for x in probe_lists.ravel())
    centroids_ref = ray.put(centroids)

    def assign_and_probe(b: pd.DataFrame) -> pd.DataFrame:
        b = add_ivf_list(b, centroids_ref, vec_col)
        return b[b["ivf_list"].isin(wanted)]

    probed = ds.map_batches(assign_and_probe, batch_format="pandas")
    q_ref = ray.put(q)
    candidates = probed.map_batches(batch_topk_fn(q_ref, k),
                                    batch_format="pandas").to_pandas()
    return reduce_topk(candidates, k)


def lsh_near_dup_pairs(ds) -> pd.DataFrame:
    """Multi-table hyperplane LSH near-dup pairs (OR-amplification):
    the (id_a, id_b) pairs of cosine >= ``_LSH_TAU``.

    A single 12-bit table finds a cos>=0.99 pair with only ~0.57
    probability ((1 - acos(.99)/pi)^12), so the production design hashes
    every vector into ``_LSH_TABLES`` independent tables: the miss
    probability drops to (1-0.57)^48 ~ 1.5e-18, making equality with the
    exact all-pairs oracle near-certain on ANY corpus rather than
    contingent on collision luck.

    Scale shape: only skinny (vec_id, bucket) rows are exploded
    (tables x corpus) and shuffled — never the vectors; candidate pairs
    come from ONE bucket-keyed ``exchange_by_key`` with the kit's
    within-key pair kernel; then ONLY candidate ids' vectors are
    gathered for the exact cosine verify, so the verify set is bounded
    by true near-dups + collisions, not the corpus.

    Buckets larger than ``_LSH_HOT_CAP`` (dense duplicate families that
    would otherwise explode the candidate stream once per table) are
    NOT dropped — that would break oracle equality exactly when dup
    clusters exist. Instead their memberships flow out as skinny marker
    rows, overlapping families are merged with union-find, and each
    merged family is all-pairs verified once. The verified output for an
    m-sized true dup family is O(m^2) rows by the problem's own contract
    (the exact oracle emits the same set).
    """
    import ray

    from .dedup import connected_components

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        vecs = normalize_rows(
            np.stack(b["embedding"].to_numpy()).astype(np.float64))
        ids = b["vec_id"].to_numpy()
        if len(ids) and int(ids.min()) < 0:
            # the dense-marker encoding reuses the id_b sign bit
            raise ValueError("lsh_near_dup_pairs requires vec_id >= 0")
        bits = (vecs @ _stacked_planes(vecs.shape[1])) > 0
        weights = (1 << np.arange(_LSH_PLANES)).astype(np.int64)
        sig = bits.reshape(len(ids), _LSH_TABLES, _LSH_PLANES) @ weights
        bucket = ((np.arange(_LSH_TABLES, dtype=np.int64)
                   << np.int64(_LSH_PLANES))[None, :] | sig).reshape(-1)
        return pd.DataFrame({"vec_id": np.repeat(ids, _LSH_TABLES),
                             "bucket": bucket})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        f = g.drop_duplicates() \
            .sort_values(["bucket", "vec_id"], kind="mergesort")
        ids = f["vec_id"].to_numpy(np.int64)
        bucket = f["bucket"].to_numpy(np.int64)
        starts, counts = key_runs(bucket)
        a, b = run_pairs(starts, counts, max_size=_LSH_HOT_CAP)
        # dense family: skinny membership markers, not pairs
        hot = np.repeat(counts > _LSH_HOT_CAP, counts)
        return pd.DataFrame({"id_a": np.r_[ids[a], ids[hot]],
                             "id_b": np.r_[ids[b], -bucket[hot] - 1]})

    empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                          "id_b": pd.Series(dtype="int64")})
    raw = exchange_by_key(ds.map_batches(explode, batch_format="pandas"),
                          ["bucket"], pairs_in_bucket).to_pandas()
    if raw.empty:
        return empty
    dense = raw[raw["id_b"] < 0]
    cand = raw[raw["id_b"] >= 0].drop_duplicates(ignore_index=True)

    groups: list[np.ndarray] = []
    if not dense.empty:
        # vectorized (bucket-min, member) edges: dedupe memberships first
        # so an id contributes one edge per distinct root, not one per
        # table (a family hot in all 48 tables would otherwise build 48x
        # the Python tuples before union-find)
        mem = dense.drop_duplicates(ignore_index=True)
        mem = mem.assign(root=mem.groupby("id_b")["id_a"].transform("min"))
        ed = mem[["root", "id_a"]].drop_duplicates(ignore_index=True)
        comp = connected_components(
            list(zip(ed["root"].tolist(), ed["id_a"].tolist())))
        by_root: dict[int, list[int]] = {}
        for i, r in comp.items():
            by_root.setdefault(r, []).append(i)
        groups = [np.sort(np.array(v, dtype=np.int64))
                  for v in by_root.values()]

    need = set()
    if not cand.empty:
        need |= set(cand["id_a"]) | set(cand["id_b"])
    for g in groups:
        need |= set(g.tolist())
    if not need:
        return empty
    need_ref = ray.put(frozenset(need))

    def gather(b: pd.DataFrame) -> pd.DataFrame:
        from ..stages.joins import _get_broadcast

        keep = b[b["vec_id"].isin(_get_broadcast(need_ref))]
        return keep[["vec_id", "embedding"]]

    vecs_df = ds.map_batches(gather, batch_format="pandas").to_pandas()
    lookup = dict(zip(vecs_df["vec_id"],
                      normalize_rows(np.stack(
                          vecs_df["embedding"].to_numpy()
                      ).astype(np.float64))))

    frames = []
    if not cand.empty:
        va = np.stack([lookup[i] for i in cand["id_a"]])
        vb = np.stack([lookup[i] for i in cand["id_b"]])
        sims = np.einsum("ij,ij->i", va, vb)
        frames.append(cand[sims >= _LSH_TAU])
    for g in groups:
        mat = np.stack([lookup[i] for i in g])
        # chunked band verify: never materialize the m x m matrix — a
        # merely-similar (sub-tau) mega-cluster must cost O(m^2) flops at
        # most, not O(m^2) driver memory (output stays O(true pairs),
        # which is the oracle's own output size)
        m = len(g)
        chunk = max(1, (1 << 25) // max(m, 1))  # ~256 MB float64 band
        for s in range(0, m, chunk):
            ecol = min(s + chunk, m)
            sims = mat[s:ecol] @ mat.T            # (chunk, m)
            ia, ib = np.nonzero(sims >= _LSH_TAU)
            keep = (ia + s) < ib                  # upper triangle only
            frames.append(pd.DataFrame({"id_a": g[ia[keep] + s],
                                        "id_b": g[ib[keep]]}))
    out = pd.concat(frames, ignore_index=True) if frames else empty
    if out.empty:
        return empty
    return out.drop_duplicates(ignore_index=True) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)


class HashingEmbedder:
    """Actor-pool text-embedding stage (the batched model-inference shape:
    expensive state in ``__init__`` once per actor, vectorized scoring in
    ``__call__`` per batch). The "model" is a deterministic
    feature-hashing vectorizer (the public hashing trick; no encoder
    weights exist in this container) — swap the body for a real encoder in
    production; the Ray plumbing (pool sizing, batch shape,
    fixed-size list<float> output, L2 normalization) is what this stage
    locks in."""

    def __init__(self, dim: int = 64, text_col: str = "text",
                 out_col: str = "embedding"):
        import re

        self.dim = dim
        self.text_col = text_col
        self.out_col = out_col
        # ASCII class to match the RE2-based SQL oracle (see dedup.py)
        self.token_re = re.compile(r"\w+", re.ASCII)

    def _embed(self, text: str) -> np.ndarray:
        """md5 token hash + float64 accumulation so a DuckDB oracle can
        reconstruct the vector BIT-identically: the per-dim sums are
        integer-valued (exact in any order), the norm is a sqrt of an
        exact integer sum, and the divisions are identical on both
        sides."""
        import hashlib

        v = np.zeros(self.dim, dtype=np.float64)
        for tok in self.token_re.findall((text or "").lower()):
            h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8],
                               "big")
            v[h % self.dim] += 1.0 if (h >> 63) else -1.0
        n = float(np.linalg.norm(v))
        return v / n if n > 0 else v

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": batch["doc_id"].astype("int64"),
            self.out_col: [self._embed(t) for t in batch[self.text_col]],
        })
