"""Persistent IVF index (`pipelines/ann_index.py`): build layout +
manifest commit point, rebuild short-circuit, partition-pruned
querying that matches the in-memory IVF path, probe-widening
behavior, and the CLI entry points."""

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.pipelines.ann_index import (build_ivf_index,
                                               query_ivf_index)

SF = "/root/testdata/sf0.01"
EMB = os.path.join(SF, "embeddings.parquet")


def test_build_layout_and_manifest(ray_session, tmp_path):
    out = str(tmp_path / "idx")
    man = build_ivf_index(EMB, out, n_lists=8)
    assert man["n_lists"] == 8 and man["dim"] == 64
    emb = pd.read_parquet(EMB)
    assert man["n_vectors"] == len(emb)
    assert sum(man["list_sizes"].values()) == len(emb)
    assert os.path.exists(os.path.join(out, "centroids.parquet"))
    lists = [n for n in os.listdir(os.path.join(out, "assignments"))
             if n.startswith("list_id=")]
    assert len(lists) == len(man["list_sizes"])
    # rebuild short-circuits on the committed manifest
    before = os.path.getmtime(os.path.join(out, "_manifest.json"))
    man2 = build_ivf_index(EMB, out, n_lists=8)
    assert man2 == man
    assert os.path.getmtime(os.path.join(out,
                                         "_manifest.json")) == before


def test_build_ignores_stray_partial_assignments(ray_session, tmp_path):
    """A crashed earlier build can leave files under assignments/ with
    no manifest; the rebuild must replace them, not count them."""
    out = str(tmp_path / "idx")
    stray = os.path.join(out, "assignments", "list_id=0")
    os.makedirs(stray)
    emb = pd.read_parquet(EMB)
    emb.head(10)[["vec_id", "embedding"]].to_parquet(
        os.path.join(stray, "stray.parquet"), index=False)
    man = build_ivf_index(EMB, out, n_lists=8)
    assert man["n_vectors"] == len(emb)
    got = pd.read_parquet(os.path.join(out, "assignments"),
                          columns=["vec_id"])
    assert len(got) == len(emb) and not got["vec_id"].duplicated().any()


def test_query_matches_inmemory_ivf(ray_session, tmp_path):
    """Index-backed search must return exactly the in-memory IVF
    result (same quantizer seed, same probe rule, same rounding)."""
    import ray.data as rd

    from pdf_oxide_ray.functions.similarity import (ivf_topk,
                                                    train_ivf_centroids)

    out = str(tmp_path / "idx")
    build_ivf_index(EMB, out, n_lists=16)
    emb = pd.read_parquet(EMB).sort_values("vec_id")
    qm = np.stack(emb.head(5)["embedding"].to_numpy())

    got = query_ivf_index(out, qm, k=5, n_probe=4)

    ds = rd.read_parquet(EMB, columns=["vec_id", "embedding"])
    sample = np.stack(ds.limit(2000).to_pandas()["embedding"]
                      .to_numpy())
    cents = train_ivf_centroids(sample, n_lists=16)
    ref = ivf_topk(ds, qm, cents, k=5, n_probe=4)
    ref = ref.copy()
    ref["score"] = np.round(ref["score"].astype(np.float64), 4)

    g = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    r = ref.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert g["vec_id"].tolist() == r["vec_id"].tolist()
    assert g["score"].tolist() == r["score"].tolist()


def test_probe_widening_improves_candidates(ray_session, tmp_path):
    out = str(tmp_path / "idx")
    build_ivf_index(EMB, out, n_lists=16)
    emb = pd.read_parquet(EMB).sort_values("vec_id")
    qm = np.stack(emb.head(3)["embedding"].to_numpy())
    narrow = query_ivf_index(out, qm, k=5, n_probe=1)
    wide = query_ivf_index(out, qm, k=5, n_probe=16)
    # full probe = exhaustive: top-1 is the query itself (cosine 1)
    top1 = wide[wide["rank"] == 0].sort_values("query_id")
    assert (top1["score"] == 1.0).all()
    # widening can only improve (or keep) each query's best score
    for qid in range(3):
        n1 = narrow[narrow["query_id"] == qid]["score"].max()
        w1 = wide[wide["query_id"] == qid]["score"].max()
        assert w1 >= n1


def test_empty_index(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    src = tmp_path / "empty.parquet"
    pq_.write_table(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32())}), src)
    out = str(tmp_path / "idx")
    man = build_ivf_index(str(src), out, n_lists=8)
    assert man["n_vectors"] == 0
    got = query_ivf_index(out, np.zeros((0, 64)), k=5)
    assert len(got) == 0


def test_cli_ann_build_and_query(tmp_path):
    out = str(tmp_path / "idx")
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    r = subprocess.run(
        [sys.executable, "-m", "pdf_oxide_ray.cli", "ann-build",
         "--input", EMB, "--output", out, "--lists", "8"],
        capture_output=True, text=True, cwd="/root/repo", env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    man = json.loads(r.stdout.strip().splitlines()[-1])
    assert man["n_lists"] == 8 and man["n_vectors"] > 0
    r2 = subprocess.run(
        [sys.executable, "-m", "pdf_oxide_ray.cli", "ann-query",
         "--index", out, "--queries", EMB, "--nq", "2", "--k", "3"],
        capture_output=True, text=True, cwd="/root/repo", env=env)
    assert r2.returncode == 0, r2.stderr[-2000:]
    rows = json.loads(r2.stdout.strip().splitlines()[-1])
    assert len(rows) == 6
    assert {r_["query_id"] for r_ in rows} == {0, 1}


def test_incremental_update(ray_session, tmp_path):
    """Build on the first half, update with the FULL table: only the
    second half is added (idempotent anti-join), appended files land
    in the existing partitions, and a re-update adds nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from pdf_oxide_ray.pipelines.ann_index import update_ivf_index

    emb = pd.read_parquet(EMB).sort_values("vec_id")
    half = emb.head(len(emb) // 2)
    src1 = tmp_path / "half.parquet"
    half.to_parquet(src1, index=False)
    out = str(tmp_path / "idx")
    man1 = build_ivf_index(str(src1), out, n_lists=8)
    assert man1["n_vectors"] == len(half)

    man2 = update_ivf_index(EMB, out)
    assert man2["n_added"] == len(emb) - len(half)
    assert man2["n_vectors"] == len(emb)

    # idempotent: nothing new on re-run
    man3 = update_ivf_index(EMB, out)
    assert man3["n_added"] == 0
    assert man3["n_vectors"] == len(emb)

    # the updated index serves vectors from BOTH generations
    qm = np.stack(emb.tail(2)["embedding"].to_numpy())
    got = query_ivf_index(out, qm, k=1, n_probe=8)
    assert (got["score"] == 1.0).all()  # each finds itself
    assert set(got["vec_id"]) == set(emb.tail(2)["vec_id"])
