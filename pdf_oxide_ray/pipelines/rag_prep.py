"""RAG ingestion pipeline: documents -> overlapping token chunks ->
deterministic embeddings (actor-pool `HashingEmbedder`) -> persistent
IVF index + chunk store, plus text-in/text-out search — the composed
retrieval-prep job a user of the individual operators (chunk_plan,
the embedder stage, ann_index) actually runs.

Layout under ``out_dir``::

    chunks.parquet            (chunk_id, doc_id, chunk_idx, text)
    chunk_embeddings.parquet  (vec_id, embedding)   [build artifact]
    index/...                 (the `ann_index` layout)
    _rag_manifest.json        {n_docs, n_chunks, chunk_tokens, stride}

Design (Ray-Data-first, 100 TB notes):

* ONE streamed pass chunks + carries text (chunking is doc-local;
  chunk_id = doc_id·2^16 + chunk_idx keeps ids stable under any
  partitioning — docs with ≥ 2^16 chunks, and doc_ids outside
  [0, 2^47), are rejected loudly);
* the embedder is a CALLABLE CLASS on an actor pool (setup once per
  actor, the stateful-stage doctrine) emitting fixed-width
  list<float> vectors;
* the index build reuses `build_ivf_index` verbatim (sample-trained
  quantizer, partitioned assignment, manifest commit point) — two
  artifacts, one recipe;
* search embeds the query driver-side (same deterministic embedder),
  probes the index (partition-pruned read), and joins chunk TEXT for
  only the k hits via a parquet predicate read — never the chunk
  store.

The manifest commits LAST; a complete manifest short-circuits a
rebuild (resume contract).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

_CHUNK_ID_BITS = 16
_DOC_ID_LIMIT = 1 << (63 - _CHUNK_ID_BITS)  # chunk_id must fit int64


def build_rag_index(docs_path: str, out_dir: str, *,
                    chunk_tokens: int = 64, stride: int = 48,
                    n_lists: int = 8, embed_dim: int = 64,
                    concurrency: int = 2) -> dict:
    """documents parquet -> chunk store + embeddings + IVF index.
    Returns the RAG manifest."""
    import ray.data as rd

    from ..functions.similarity import HashingEmbedder
    from .ann_index import _strip_pandas_meta, build_ivf_index

    man_path = os.path.join(out_dir, "_rag_manifest.json")
    if os.path.exists(man_path):
        with open(man_path) as f:
            man = json.load(f)
        if (man.get("chunk_tokens") == chunk_tokens
                and man.get("stride") == stride):
            return man

    os.makedirs(out_dir, exist_ok=True)
    ds = rd.read_parquet(docs_path, columns=["doc_id", "text"])

    def chunk(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids = b["doc_id"].to_numpy(np.int64)
        bad = (doc_ids < 0) | (doc_ids >= _DOC_ID_LIMIT)
        if bad.any():
            raise ValueError(
                f"doc_id {doc_ids[bad][0]} outside [0, 2^"
                f"{63 - _CHUNK_ID_BITS}): chunk_id = doc_id << "
                f"{_CHUNK_ID_BITS} would overflow int64")
        ids, cidx, texts = [], [], []
        for doc_id, text in zip(doc_ids,
                                b["text"].fillna("").to_numpy(object)):
            toks = text.split()
            if not toks:
                continue
            starts = range(0, max(len(toks) - chunk_tokens, 0)
                           + 1, stride) if len(toks) > chunk_tokens \
                else [0]
            for k, s in enumerate(starts):
                if k >= (1 << _CHUNK_ID_BITS):
                    raise ValueError(
                        f"doc {doc_id}: more than "
                        f"{1 << _CHUNK_ID_BITS} chunks; raise "
                        "chunk_tokens/stride or widen the id split")
                ids.append(doc_id)
                cidx.append(k)
                texts.append(" ".join(toks[s:s + chunk_tokens]))
        out = pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "chunk_idx": pd.Series(cidx, dtype="int64"),
            "text": pd.Series(texts, dtype=object)})
        out["chunk_id"] = ((out["doc_id"].to_numpy(np.int64)
                            << _CHUNK_ID_BITS)
                           | out["chunk_idx"].to_numpy(np.int64))
        return out[["chunk_id", "doc_id", "chunk_idx", "text"]]

    chunks = ds.map_batches(chunk, batch_format="pandas") \
        .materialize()
    n_chunks = chunks.count()
    chunks.map_batches(_strip_pandas_meta, batch_format="pyarrow") \
        .write_parquet(os.path.join(out_dir, "chunks"))

    def relabel(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "embedding": [np.asarray(v, dtype=np.float32)
                          for v in b["embedding"]]})

    # HashingEmbedder keys vec_id from doc_id; rebind to chunk_id.
    # Callable CLASS on an actor pool: setup once per actor
    # (concurrency REQUIRED for classes; sized below session CPUs).
    emb = chunks.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["chunk_id"],
                                "text": b["text"]}),
        batch_format="pandas") \
        .map_batches(HashingEmbedder,
                     fn_constructor_kwargs={"dim": embed_dim,
                                            "text_col": "text"},
                     concurrency=concurrency,
                     batch_format="pandas", batch_size=256) \
        .map_batches(relabel, batch_format="pandas") \
        .map_batches(_strip_pandas_meta, batch_format="pyarrow")
    emb_path = os.path.join(out_dir, "chunk_embeddings")
    emb.write_parquet(emb_path)

    n_docs = ds.count()
    build_ivf_index(emb_path, os.path.join(out_dir, "index"),
                    n_lists=n_lists)
    man = {"n_docs": int(n_docs), "n_chunks": int(n_chunks),
           "chunk_tokens": chunk_tokens, "stride": stride,
           "embed_dim": embed_dim}
    with open(man_path, "w") as f:
        json.dump(man, f)  # commit point
    return man


def rag_search(out_dir: str, query_text: str, *, k: int = 5,
               n_probe: int = 4) -> pd.DataFrame:
    """Text query -> top-k chunks (chunk_id, doc_id, chunk_idx,
    score, text). Embeds the query with the SAME deterministic
    embedder, probes the index partition-pruned, then reads chunk
    text for only the k hit ids (parquet predicate read)."""
    import pyarrow.dataset as pads

    from ..functions.similarity import HashingEmbedder
    from .ann_index import query_ivf_index

    with open(os.path.join(out_dir, "_rag_manifest.json")) as f:
        man = json.load(f)
    emb = HashingEmbedder(dim=int(man["embed_dim"]))
    qv = emb._embed(query_text)
    hits = query_ivf_index(os.path.join(out_dir, "index"),
                           qv[None, :], k=k, n_probe=n_probe)
    if hits.empty:
        return pd.DataFrame({
            "chunk_id": pd.Series([], dtype="int64"),
            "doc_id": pd.Series([], dtype="int64"),
            "chunk_idx": pd.Series([], dtype="int64"),
            "score": pd.Series([], dtype="float64"),
            "text": pd.Series([], dtype=object)})
    import pyarrow.compute as pc

    ids = hits["vec_id"].to_numpy(np.int64)
    tbl = pads.dataset(os.path.join(out_dir, "chunks")) \
        .to_table(filter=pc.field("chunk_id").isin(ids.tolist()))
    meta = tbl.to_pandas()
    out = hits.rename(columns={"vec_id": "chunk_id"}) \
        .merge(meta, on="chunk_id", how="left") \
        .sort_values("rank")
    return out[["chunk_id", "doc_id", "chunk_idx", "score",
                "text"]].reset_index(drop=True)
