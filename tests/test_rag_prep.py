"""RAG prep pipeline (`pipelines/rag_prep.py`): chunk layout +
stable chunk ids, actor-pool embedding, index composition, rebuild
short-circuit, self-retrieval search, and the CLI entry points."""

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.pipelines.rag_prep import build_rag_index, rag_search

SF = "/root/testdata/sf0.01"
DOCS = os.path.join(SF, "documents.parquet")


def test_build_and_self_retrieval(ray_session, tmp_path):
    out = str(tmp_path / "rag")
    man = build_rag_index(DOCS, out, n_lists=8)
    docs = pd.read_parquet(DOCS)
    nonempty = docs["text"].fillna("").str.split().str.len() > 0
    assert man["n_docs"] == len(docs)
    assert man["n_chunks"] >= int(nonempty.sum())
    chunks = pd.read_parquet(os.path.join(out, "chunks"))
    assert man["n_chunks"] == len(chunks)
    # chunk ids decode back to (doc_id, chunk_idx)
    cid = chunks["chunk_id"].to_numpy(np.int64)
    assert ((cid >> 16) == chunks["doc_id"].to_numpy(np.int64)).all()
    assert ((cid & 0xFFFF)
            == chunks["chunk_idx"].to_numpy(np.int64)).all()

    # querying with an exact chunk text returns that chunk first
    probe = chunks.iloc[7]
    got = rag_search(out, probe["text"], k=3, n_probe=8)
    assert len(got) >= 1
    top = got.iloc[0]
    assert top["score"] == 1.0
    assert top["text"] == probe["text"]

    # rebuild short-circuits on the committed manifest
    man2 = build_rag_index(DOCS, out, n_lists=8)
    assert man2 == man


def test_search_misses_gracefully(ray_session, tmp_path):
    out = str(tmp_path / "rag")
    build_rag_index(DOCS, out, n_lists=8)
    got = rag_search(out, "zzzz qqqq completely unseen tokens",
                     k=3, n_probe=2)
    # still returns k nearest chunks, scores below 1
    assert len(got) == 3
    assert (got["score"] < 1.0).all()
    assert got["text"].notna().all()


def test_cli_rag_build_and_search(tmp_path):
    out = str(tmp_path / "rag")
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    r = subprocess.run(
        [sys.executable, "-m", "pdf_oxide_ray.cli", "rag-build",
         "--input", DOCS, "--output", out],
        capture_output=True, text=True, cwd="/root/repo", env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    man = json.loads(r.stdout.strip().splitlines()[-1])
    assert man["n_chunks"] > 0
    chunks = pd.read_parquet(os.path.join(out, "chunks"))
    q = chunks.iloc[0]["text"]
    r2 = subprocess.run(
        [sys.executable, "-m", "pdf_oxide_ray.cli", "rag-search",
         "--index", out, "--query", q, "--k", "2"],
        capture_output=True, text=True, cwd="/root/repo", env=env)
    assert r2.returncode == 0, r2.stderr[-2000:]
    rows = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rows and rows[0]["score"] == 1.0


def _write_docs(path, doc_ids, texts):
    pd.DataFrame({"doc_id": pd.Series(doc_ids, dtype="int64"),
                  "text": texts}).to_parquet(path)
    return str(path)


def test_embeddings_written_without_pandas_metadata(ray_session, tmp_path):
    """A reader in a fresh worker must not need Ray's pandas tensor
    extension to parse the embeddings file's schema; the chunk files
    carry no pandas metadata either."""
    import pyarrow.parquet as pq

    docs = _write_docs(tmp_path / "docs.parquet", range(40),
                       [f"doc {i} " + "word " * (i % 7 + 3)
                        for i in range(40)])
    out = str(tmp_path / "rag")
    build_rag_index(docs, out, n_lists=4)
    for sub in ("chunk_embeddings", "chunks"):
        d = os.path.join(out, sub)
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert files, sub
        for f in files:
            meta = pq.read_schema(os.path.join(d, f)).metadata or {}
            assert b"pandas" not in meta, (sub, f)


def test_derived_63_bit_doc_id_is_rejected(ray_session, tmp_path):
    """jsonl_docs derives 63-bit doc ids; doc_id << 16 would wrap int64,
    so chunking must refuse instead of writing negative chunk ids."""
    from pdf_oxide_ray.sources.jsonl_docs import read_jsonl_docs

    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"text": "a document without an id"}) + "\n")
    parsed = read_jsonl_docs(str(src)).to_pandas()
    assert parsed["doc_id"].iloc[0] >= 1 << 47
    docs = _write_docs(tmp_path / "docs.parquet", parsed["doc_id"],
                       parsed["text"])
    # Ray Data re-raises the task's ValueError wrapped; its text survives
    with pytest.raises(Exception, match=r"ValueError: doc_id \d+ outside"):
        build_rag_index(docs, str(tmp_path / "rag"))
