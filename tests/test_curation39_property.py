"""Round-5h checks (`semantic_decontam`): seeded random embeddings
plus forced shapes — planted near-copies of an eval vector (hits at
the tau boundary), a zero-norm eval vector (excluded identically),
a corpus with no eligible vectors (NULL max_sim), and rows-but-no-
query ids — must match the DuckDB oracle bit-for-bit."""

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


@pytest.mark.parametrize("seed", [0, 27])
def test_semantic_decontam_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _write_emb(tmp_path / f"sd-{seed}",
                   rng.normal(0, 1, (180, 64)))
    mine = QUERIES["semantic_decontam"](d)
    gold = _oracle(d, ORACLE_SQL["semantic_decontam"])
    assert_frames_equal(mine, gold, "semantic_decontam")
    assert len(mine) == 5
    assert (mine["max_sim"] <= 1.0).all()


def test_semantic_decontam_planted(ray_session, tmp_path):
    """Corpus vectors 10/11 are a copy and a tiny perturbation of
    eval vector 0 (both above tau); vector 12 is its negation (sim
    -1, never a hit); eval vector 3 is all-zero and must be excluded
    on both sides."""
    rng = np.random.default_rng(1)
    mat = rng.normal(0, 1, (30, 64))
    mat[3] = 0.0                      # zero-norm eval vector
    mat[10] = mat[0]
    mat[11] = mat[0] + rng.normal(0, 0.001, 64)
    mat[12] = -mat[0]
    d = _write_emb(tmp_path / "sd-planted", mat)
    mine = QUERIES["semantic_decontam"](d)
    gold = _oracle(d, ORACLE_SQL["semantic_decontam"])
    assert_frames_equal(mine, gold, "semantic_decontam-planted")
    m = mine.set_index("query_id")
    assert 3 not in m.index           # zero-norm eval excluded
    assert int(m.loc[0, "n_hits"]) >= 2
    assert m.loc[0, "max_sim"] == 1.0


def test_semantic_decontam_no_corpus(ray_session, tmp_path):
    """Only eval vectors exist: zero hits, NULL max_sim per query."""
    rng = np.random.default_rng(2)
    d = _write_emb(tmp_path / "sd-nocorpus",
                   rng.normal(0, 1, (5, 64)))
    mine = QUERIES["semantic_decontam"](d)
    gold = _oracle(d, ORACLE_SQL["semantic_decontam"])
    assert_frames_equal(mine, gold, "semantic_decontam-nocorpus")
    assert (mine["n_hits"] == 0).all()
    assert mine["max_sim"].isna().all()


def test_semantic_decontam_no_queries(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    d = _write_emb(tmp_path / "sd-noq", rng.normal(0, 1, (20, 64)),
                   ids=np.arange(50, 70))
    mine = QUERIES["semantic_decontam"](d)
    gold = _oracle(d, ORACLE_SQL["semantic_decontam"])
    assert_frames_equal(mine, gold, "semantic_decontam-noq")
    assert len(mine) == 0
