"""Round-5e checks (`pq_distortion`): seeded random embeddings plus
forced shapes — vectors identical to a seed (zero reconstruction
error in that subspace), an empty-cluster iteration (the COALESCE
carry-forward), few-vector corpora, and the empty table — must match
the DuckDB oracle bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "embeddings.parquet")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_emb(d, mat):
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    mat = np.asarray(mat, dtype=np.float32)
    schema = pa.schema([("vec_id", pa.int64()),
                        ("embedding", pa.list_(pa.float32())),
                        ("label", pa.int32())])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(mat), dtype=np.int64)),
        "embedding": pa.array([row.tolist() for row in mat],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(len(mat), dtype=np.int32)),
    }, schema=schema)
    pq.write_table(t, d / "embeddings.parquet")
    return str(d)


@pytest.mark.parametrize("seed", [0, 21])
def test_pq_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _write_emb(tmp_path / f"pq-{seed}",
                   rng.normal(0, 1, (200, 64)))
    mine = QUERIES["pq_distortion"](d)
    gold = _oracle(d, ORACLE_SQL["pq_distortion"])
    assert_frames_equal(mine, gold, "pq_distortion")
    assert len(mine) == 4
    assert (mine["n_vectors"] == 200).all()
    assert (mine["mse"] > 0).all()


def test_pq_exact_copies_zero_error(ray_session, tmp_path):
    """Every vector is a copy of one of the 8 seeds: Lloyd converges
    to the seeds themselves, reconstruction error is exactly 0 in
    every subspace."""
    rng = np.random.default_rng(4)
    seeds = rng.normal(0, 1, (8, 64))
    mat = seeds[np.arange(96) % 8]
    d = _write_emb(tmp_path / "pq-copies", mat)
    mine = QUERIES["pq_distortion"](d)
    gold = _oracle(d, ORACLE_SQL["pq_distortion"])
    assert_frames_equal(mine, gold, "pq_distortion-copies")
    assert (mine["mse"] == 0.0).all()


def test_pq_tiny_corpus(ray_session, tmp_path):
    """Fewer vectors than iterations would ever need; some clusters
    stay empty every iteration (COALESCE carries seeds forward on
    both sides)."""
    rng = np.random.default_rng(9)
    d = _write_emb(tmp_path / "pq-tiny", rng.normal(0, 1, (9, 64)))
    mine = QUERIES["pq_distortion"](d)
    gold = _oracle(d, ORACLE_SQL["pq_distortion"])
    assert_frames_equal(mine, gold, "pq_distortion-tiny")
    assert (mine["n_vectors"] == 9).all()


def test_pq_empty(ray_session, tmp_path):
    d = _write_emb(tmp_path / "pq-empty", np.zeros((0, 64)))
    mine = QUERIES["pq_distortion"](d)
    gold = _oracle(d, ORACLE_SQL["pq_distortion"])
    assert_frames_equal(mine, gold, "pq_distortion-empty")
    assert len(mine) == 0
