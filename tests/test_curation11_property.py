"""Randomized end-to-end equivalence for the round-4l family
(`knn_label_consistency`, `embedding_margin`): seeded random embedding
tables — including DUPLICATE vectors (forcing the min-vec_id tie-break
in the 1-NN argmax), all-zero vectors, a single-label corpus (margin
must be empty), and the documented all-pairs size gate — must match
the DuckDB oracles bit-for-bit, plus empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import pdf_oxide_ray.queries_curation11 as c11
from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_emb(tmp_path, seed: int, n: int, dim: int = 8,
               n_labels: int = 3, with_dups: bool = True) -> str:
    rs = np.random.RandomState(seed)
    mat = np.round(rs.randn(n, dim), 3).astype(np.float32)
    if with_dups:
        for i in range(0, n - 3, max(7, n // 12)):
            mat[i + 1] = mat[i]      # exact duplicate -> sim tie
            mat[i + 2] = 0.0         # zero vector
    emb = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [mat[i].tolist() for i in range(n)],
        "label": rs.randint(0, n_labels, n).astype(np.int32)})
    d = tmp_path / f"cur11-{seed}-{n}-{n_labels}"
    os.makedirs(d, exist_ok=True)
    emb.to_parquet(d / "embeddings.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf_dir}/embeddings.parquet')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 8])
def test_nn_family_matches_oracle_with_ties(ray_session, tmp_path,
                                            seed):
    d = _write_emb(tmp_path, seed, 200)
    for name in ("knn_label_consistency", "embedding_margin"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        assert_frames_equal(mine, gold, name)


def test_single_label_margin_empty(ray_session, tmp_path):
    d = _write_emb(tmp_path, 3, 60, n_labels=1, with_dups=False)
    assert len(QUERIES["embedding_margin"](d)) == 0
    acc = QUERIES["knn_label_consistency"](d)
    assert len(acc) == 1 and float(acc["accuracy"].iloc[0]) == 1.0


def test_all_pairs_gate_raises(ray_session, tmp_path, monkeypatch):
    d = _write_emb(tmp_path, 5, 50, with_dups=False)
    monkeypatch.setattr(c11, "_PAIR_GATE_ROWS", 10)
    with pytest.raises(NotImplementedError, match="IVF"):
        QUERIES["knn_label_consistency"](d)


def test_empty_and_singleton_parity(ray_session, tmp_path):
    d = tmp_path / "empty11"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                  "embedding": pd.Series([], dtype=object),
                  "label": pd.Series([], dtype="int32")}) \
        .to_parquet(d / "embeddings.parquet", index=False)
    for name in ("knn_label_consistency", "embedding_margin"):
        assert len(QUERIES[name](str(d))) == 0, name
    d1 = _write_emb(tmp_path, 6, 1, with_dups=False)
    for name in ("knn_label_consistency", "embedding_margin"):
        assert len(QUERIES[name](d1)) == 0, name
