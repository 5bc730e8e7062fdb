"""Persistent IVF ANN index: build once, query with partition-pruned
reads — the operational form of the in-memory IVF operators
(`functions/similarity.py`), turning similarity search from a query
into an artifact a serving/batch job consumes.

Layout under ``out_dir``::

    centroids.parquet            (list_id, centroid: list<float>)
    assignments/list_id=N/*.parquet   (vec_id, embedding)
    _manifest.json               {n_vectors, n_lists, dim, list_sizes}

Design (Ray-Data-first, 100 TB notes):

* **Build**: coarse quantizer trains on a driver-side SAMPLE
  (`train_ivf_centroids` — the standard big-corpus recipe); ONE
  streamed `map_batches` assigns every vector (centroids broadcast
  once) and `write_parquet(partition_cols=["list_id"])` lands the
  corpus partitioned by list — resumable, never one giant file. The
  manifest is the commit point (the `state/manifest.py` doctrine):
  a complete manifest short-circuits a rebuild.
* **Query**: centroids load driver-side (small); only the PROBED
  lists' partitions are read (directory-level pruning — at 100 TB
  this is the difference between scanning 1/n_lists·n_probe of the
  corpus and all of it); scoring reuses `batch_topk_fn` +
  `reduce_topk` verbatim, so index-backed results are bit-identical
  to the in-memory `ivf_topk` path ((#queries × k)-bounded final).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd


def _strip_pandas_meta(t):
    """Drop schema-level pandas metadata before writing: blocks built
    from pandas batches with ndarray cells record a dtype string
    ("numpy.ndarray(shape=...)") that pyarrow cannot reconstruct on a
    later to_pandas — written files must be arrow-clean."""
    return t.replace_schema_metadata(None)


def build_ivf_index(input_path: str, out_dir: str, *,
                    n_lists: int = 16, sample_rows: int = 2000,
                    seed: int = 7) -> dict:
    """embeddings parquet -> partitioned IVF index directory.
    Returns the manifest dict. A complete existing manifest (same
    n_lists) short-circuits the rebuild (resume contract)."""
    import ray
    import ray.data as rd

    from ..functions.similarity import add_ivf_list, \
        train_ivf_centroids

    man_path = os.path.join(out_dir, "_manifest.json")
    if os.path.exists(man_path):
        with open(man_path) as f:
            man = json.load(f)
        if man.get("n_lists") == n_lists:
            return man

    ds = rd.read_parquet(input_path, columns=["vec_id", "embedding"])
    sample = ds.limit(sample_rows).to_pandas()
    if sample.empty:
        os.makedirs(out_dir, exist_ok=True)
        man = {"n_vectors": 0, "n_lists": n_lists, "dim": 0,
               "list_sizes": {}}
        with open(man_path, "w") as f:
            json.dump(man, f)
        return man
    mat = np.stack(sample["embedding"].to_numpy())
    centroids = train_ivf_centroids(mat, n_lists=n_lists, seed=seed)
    cent_ref = ray.put(centroids)

    os.makedirs(out_dir, exist_ok=True)
    pd.DataFrame({
        "list_id": np.arange(len(centroids), dtype=np.int64),
        # float64: probe selection must be bit-identical to the
        # in-memory ivf_topk path
        "centroid": [c.astype(np.float64).tolist()
                     for c in centroids],
    }).to_parquet(os.path.join(out_dir, "centroids.parquet"),
                  index=False)

    assigned = ds.map_batches(
        lambda b: add_ivf_list(b, cent_ref)
        .rename(columns={"ivf_list": "list_id"}),
        batch_format="pandas") \
        .map_batches(_strip_pandas_meta, batch_format="pyarrow")
    # write to a temp dir and swap it in (the run_extraction_partitioned
    # recipe): files a crashed earlier build left in assignments/ would
    # otherwise be counted and read as part of this build
    adir = os.path.join(out_dir, "assignments")
    tmp_dir = os.path.join(out_dir, ".assignments.tmp")
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    assigned.write_parquet(tmp_dir, partition_cols=["list_id"])
    if os.path.isdir(adir):
        shutil.rmtree(adir)
    os.replace(tmp_dir, adir)

    # list sizes from parquet METADATA (no data re-read)
    import pyarrow.dataset as pads

    sizes = {}
    n_total = 0
    for name in sorted(os.listdir(adir)):
        if not name.startswith("list_id="):
            continue
        lid = name.split("=", 1)[1]
        n = sum(f.count_rows() for f in
                pads.dataset(os.path.join(adir, name))
                .get_fragments())
        sizes[lid] = n
        n_total += n
    man = {"n_vectors": n_total, "n_lists": n_lists,
           "dim": int(mat.shape[1]), "list_sizes": sizes}
    with open(man_path, "w") as f:
        json.dump(man, f)  # manifest last: the commit point
    return man


def query_ivf_index(out_dir: str, query_matrix: np.ndarray, *,
                    k: int = 5, n_probe: int = 4) -> pd.DataFrame:
    """Top-k cosine search against a built index, reading ONLY the
    probed lists' partitions. Semantics are IDENTICAL to the
    in-memory `functions.similarity.ivf_topk` (union of the queries'
    probed lists as the candidate pool, same tie-breaks) — the same
    functions score and merge, so the two paths cannot drift.
    Returns (query_id, rank [0-based], vec_id, score) with score
    rounded to 4 decimals AFTER ranking (the repo's embedding
    convention); query_id is the row index into query_matrix."""
    import ray
    import ray.data as rd

    from ..functions.similarity import (batch_topk_fn,
                                        normalize_rows, reduce_topk)

    empty = pd.DataFrame({
        "query_id": pd.Series([], dtype="int64"),
        "rank": pd.Series([], dtype="int64"),
        "vec_id": pd.Series([], dtype="int64"),
        "score": pd.Series([], dtype="float64")})
    cent_path = os.path.join(out_dir, "centroids.parquet")
    if not os.path.exists(cent_path) or not len(query_matrix):
        return empty
    cents = pd.read_parquet(cent_path)
    if cents.empty:
        return empty
    cmat = np.stack(cents["centroid"].to_numpy()).astype(np.float64)
    qm = np.asarray(query_matrix, dtype=np.float64)
    q = normalize_rows(qm)
    probe = np.argsort(-(q @ cmat.T), axis=1)[:, :n_probe]
    probed_lists = sorted(frozenset(int(x) for x in probe.ravel()))
    paths = [os.path.join(out_dir, "assignments", f"list_id={lid}")
             for lid in probed_lists]
    paths = [p for p in paths if os.path.isdir(p)]
    if not paths:
        return empty
    files = [os.path.join(p, f) for p in paths
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not files:
        return empty
    probed_ds = rd.read_parquet(files,
                                columns=["vec_id", "embedding"])
    q_ref = ray.put(qm)
    cands = probed_ds.map_batches(batch_topk_fn(q_ref, k),
                                  batch_format="pandas",
                                  batch_size=4096).to_pandas()
    if cands.empty:
        return empty
    out = reduce_topk(cands, k=k)
    out["score"] = np.round(out["score"].astype(np.float64), 4)
    return out.astype({"query_id": "int64", "rank": "int64",
                       "vec_id": "int64"})


def update_ivf_index(input_path: str, out_dir: str) -> dict:
    """Day-2 incremental index update: assign NEW vectors with the
    FROZEN coarse quantizer (the standard IVF maintenance recipe —
    retraining would invalidate every stored code) and append their
    partition files next to the existing ones; vec_ids already in the
    index are skipped (idempotent re-ingest, the `incremental_dedup`
    anti-join shape with the existing id set broadcast as a sorted
    int64 array). The manifest rewrites LAST (commit point). Returns
    the updated manifest plus {'n_added': ...}.

    Scale shape: existing ids load as ONE skinny int64 column (ids
    only, never vectors); the new corpus streams through one
    assignment pass; appended files land inside the existing
    list_id=N directories so `query_ivf_index`'s pruning is
    unchanged."""
    import ray
    import ray.data as rd

    from ..functions.similarity import add_ivf_list
    from ..stages.joins import _get_broadcast

    man_path = os.path.join(out_dir, "_manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    cent_path = os.path.join(out_dir, "centroids.parquet")
    if not os.path.exists(cent_path):  # empty index: nothing frozen
        raise ValueError("index has no quantizer; run build first")
    cents = pd.read_parquet(cent_path)
    cmat = np.stack(cents["centroid"].to_numpy()).astype(np.float64)
    cent_ref = ray.put(cmat)

    adir = os.path.join(out_dir, "assignments")
    have_files = [os.path.join(adir, d, f)
                  for d in sorted(os.listdir(adir))
                  if d.startswith("list_id=")
                  for f in sorted(os.listdir(os.path.join(adir, d)))
                  if f.endswith(".parquet")]
    if have_files:
        import pyarrow.dataset as pads

        have = np.sort(pads.dataset(have_files)
                       .to_table(columns=["vec_id"])
                       .column("vec_id").to_numpy()
                       .astype(np.int64))
    else:
        have = np.array([], dtype=np.int64)
    have_ref = ray.put(have)

    def assign_new(b: pd.DataFrame) -> pd.DataFrame:
        keys = _get_broadcast(have_ref)
        ids = b["vec_id"].to_numpy(np.int64)
        if len(keys):
            pos = np.searchsorted(keys, ids)
            pos[pos == len(keys)] = 0
            b = b[~(keys[pos] == ids)]
        if not len(b):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "embedding": pd.Series([], dtype=object),
                "list_id": pd.Series([], dtype="int64")})
        return add_ivf_list(b, cent_ref) \
            .rename(columns={"ivf_list": "list_id"})

    new_ds = rd.read_parquet(input_path,
                             columns=["vec_id", "embedding"]) \
        .map_batches(assign_new, batch_format="pandas") \
        .map_batches(_strip_pandas_meta, batch_format="pyarrow") \
        .materialize()
    n_added = new_ds.count()
    if n_added:
        new_ds.write_parquet(adir, partition_cols=["list_id"])

    # recount from parquet metadata (no vector re-read)
    import pyarrow.dataset as pads

    sizes = {}
    n_total = 0
    for name in sorted(os.listdir(adir)):
        if not name.startswith("list_id="):
            continue
        n = sum(f.count_rows() for f in
                pads.dataset(os.path.join(adir, name))
                .get_fragments())
        sizes[name.split("=", 1)[1]] = n
        n_total += n
    man.update({"n_vectors": n_total, "list_sizes": sizes})
    with open(man_path, "w") as f:
        json.dump(man, f)  # commit point
    man = dict(man)
    man["n_added"] = int(n_added)
    return man
