"""Round-5f checks (`pq_adc_recall`): seeded random embeddings plus
forced shapes — queries identical to seed centroids (ADC finds the
self-match exactly), tiny corpora where k_eff < 5, rows-but-no-query
ids, and the empty table — must match the DuckDB oracle
bit-for-bit."""

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


@pytest.mark.parametrize("seed", [0, 33])
def test_adc_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _write_emb(tmp_path / f"adc-{seed}",
                   rng.normal(0, 1, (150, 64)))
    mine = QUERIES["pq_adc_recall"](d)
    gold = _oracle(d, ORACLE_SQL["pq_adc_recall"])
    assert_frames_equal(mine, gold, "pq_adc_recall")
    assert len(mine) == 5
    # the query itself is always its own exact nearest neighbor, and
    # ADC finds the self-match (distance to own codes is minimal), so
    # recall can never be 0
    assert (mine["recall"] > 0).all()


def test_adc_clustered(ray_session, tmp_path):
    """Vectors in 8 tight clusters around the seeds: ADC distances
    within the query's cluster are IDENTICAL (same codes), so ties
    collapse to vec_id order — recall is partial but never zero, and
    every ADC candidate comes from the right cluster (parity with the
    twin is the real assertion)."""
    rng = np.random.default_rng(2)
    seeds = rng.normal(0, 10, (8, 64))
    mat = seeds[np.arange(120) % 8] + rng.normal(0, 0.01, (120, 64))
    d = _write_emb(tmp_path / "adc-clustered", mat)
    mine = QUERIES["pq_adc_recall"](d)
    gold = _oracle(d, ORACLE_SQL["pq_adc_recall"])
    assert_frames_equal(mine, gold, "pq_adc_recall-clustered")
    assert (mine["recall"] > 0).all()


def test_adc_tiny_corpus(ray_session, tmp_path):
    """3 vectors: k_eff = 3 < 5; recall denominators shrink on both
    sides identically."""
    rng = np.random.default_rng(5)
    d = _write_emb(tmp_path / "adc-tiny", rng.normal(0, 1, (3, 64)))
    mine = QUERIES["pq_adc_recall"](d)
    gold = _oracle(d, ORACLE_SQL["pq_adc_recall"])
    assert_frames_equal(mine, gold, "pq_adc_recall-tiny")
    assert len(mine) == 3


def test_adc_no_queries(ray_session, tmp_path):
    """Rows exist but no vec_id < 5: zero query rows on both sides."""
    rng = np.random.default_rng(6)
    d = _write_emb(tmp_path / "adc-noq", rng.normal(0, 1, (20, 64)),
                   ids=np.arange(100, 120))
    mine = QUERIES["pq_adc_recall"](d)
    gold = _oracle(d, ORACLE_SQL["pq_adc_recall"])
    assert_frames_equal(mine, gold, "pq_adc_recall-noq")
    assert len(mine) == 0
