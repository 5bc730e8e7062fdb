"""Round-5j checks (`mmr_rerank`): seeded random embeddings plus
forced shapes — a candidate pool full of near-duplicates of the top
hit (MMR must skip them for diverse picks where plain top-k would
not), pools smaller than k, and no-query corpora — must match the
DuckDB oracle bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "embeddings.parquet")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_emb(d, mat, ids=None):
    os.makedirs(d, exist_ok=True)
    mat = np.asarray(mat, dtype=np.float32)
    ids = (np.arange(len(mat), dtype=np.int64) if ids is None
           else np.asarray(ids, dtype=np.int64))
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([row.tolist() for row in mat],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(len(mat), dtype=np.int32)),
    })
    pq.write_table(t, d / "embeddings.parquet")
    return str(d)


@pytest.mark.parametrize("seed", [0, 23])
def test_mmr_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _write_emb(tmp_path / f"mmr-{seed}",
                   rng.normal(0, 1, (120, 64)))
    mine = QUERIES["mmr_rerank"](d)
    gold = _oracle(d, ORACLE_SQL["mmr_rerank"])
    assert_frames_equal(mine, gold, "mmr_rerank")
    assert len(mine) == 25
    # no duplicates within a query's list
    for qid, g in mine.groupby("query_id"):
        assert g["vec_id"].is_unique


def test_mmr_diversifies_near_dup_pool(ray_session, tmp_path):
    """Vectors 10-24 are tiny perturbations of one direction, 25-29
    of a second orthogonal direction: plain top-5 for a query aligned
    with direction 1 would be five near-copies; MMR must interleave
    the diverse cluster once the first pick saturates similarity."""
    rng = np.random.default_rng(3)
    d1 = np.zeros(64)
    d1[0] = 10.0
    d2 = np.zeros(64)
    d2[1] = 10.0
    mat = rng.normal(0, 0.2, (30, 64))
    mat[0] = d1  # query 0 aligned with direction 1
    for i in range(10, 25):
        mat[i] = d1 + rng.normal(0, 0.01, 64)
    for i in range(25, 30):
        mat[i] = d2 + rng.normal(0, 0.01, 64)
    d = _write_emb(tmp_path / "mmr-dup", mat)
    mine = QUERIES["mmr_rerank"](d)
    gold = _oracle(d, ORACLE_SQL["mmr_rerank"])
    assert_frames_equal(mine, gold, "mmr_rerank-dup")
    picks0 = mine[mine["query_id"] == 0].sort_values("position")
    # plain top-5 would be the query + four direction-1 clones; after
    # the first pick saturates clone similarity (penalty ~= relevance),
    # MMR must NOT fill the rest of the list with clones
    clone_picks = sum(10 <= v < 25 for v in
                      picks0["vec_id"].iloc[1:])
    assert clone_picks <= 1


def test_mmr_pool_smaller_than_k(ray_session, tmp_path):
    rng = np.random.default_rng(5)
    d = _write_emb(tmp_path / "mmr-tiny", rng.normal(0, 1, (3, 64)))
    mine = QUERIES["mmr_rerank"](d)
    gold = _oracle(d, ORACLE_SQL["mmr_rerank"])
    assert_frames_equal(mine, gold, "mmr_rerank-tiny")
    assert set(mine.groupby("query_id").size()) == {3}


def test_mmr_no_queries(ray_session, tmp_path):
    rng = np.random.default_rng(6)
    d = _write_emb(tmp_path / "mmr-noq", rng.normal(0, 1, (10, 64)),
                   ids=np.arange(100, 110))
    mine = QUERIES["mmr_rerank"](d)
    gold = _oracle(d, ORACLE_SQL["mmr_rerank"])
    assert_frames_equal(mine, gold, "mmr_rerank-noq")
    assert len(mine) == 0
