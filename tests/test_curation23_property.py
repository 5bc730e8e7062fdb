"""Round-4x family checks (`split_embedding_drift`, `hubness_census`):
seeded random embeddings plus forced shapes — a label whose test
split is empty (excluded by the twin's inner join), a deliberate hub
vector that lands in every top-10, mass-conservation invariants —
must match the DuckDB oracles bit-for-bit; plus empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_emb(tmp_path, tag: str, mat: np.ndarray,
               labels: np.ndarray) -> str:
    d = tmp_path / f"cur23-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "vec_id": np.arange(len(mat), dtype=np.int64),
        "embedding": [row.astype(np.float32) for row in mat],
        "label": labels.astype(np.int64),
    }).to_parquet(d / "embeddings.parquet", index=False)
    return str(d)


def _rand_emb(seed: int, n: int, n_labels: int = 3):
    rs = np.random.RandomState(seed)
    centers = rs.randn(n_labels, 64) * 2.0
    labels = rs.randint(0, n_labels, n)
    mat = centers[labels] + rs.randn(n, 64) * 0.7
    return mat, labels


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "embeddings.parquet")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 5])
def test_split_embedding_drift_matches_oracle(ray_session, tmp_path,
                                              seed):
    mat, labels = _rand_emb(seed, 150)
    d = _write_emb(tmp_path, f"drift{seed}", mat, labels)
    mine = QUERIES["split_embedding_drift"](d)
    gold = _oracle(d, ORACLE_SQL["split_embedding_drift"])
    assert_frames_equal(mine, gold, "split_embedding_drift")
    assert (mine["drift"] >= 0).all()
    # a random split of the same cluster drifts far less than the
    # inter-center distance scale
    assert (mine["drift"] < 4.0).all()


def test_split_drift_one_sided_label_excluded(ray_session, tmp_path):
    """vec_ids whose md5 nibble is '0' are test; give one label only
    non-test ids -> that label must drop out (the twin's inner
    join)."""
    import hashlib

    nib = {v: hashlib.md5(str(v).encode()).hexdigest()[0]
           for v in range(400)}
    train_ids = [v for v, h in nib.items()
                 if h not in ("0", "1")][:20]
    test_ids = [v for v, h in nib.items() if h == "0"][:8]
    ids = np.array(train_ids + test_ids, dtype=np.int64)
    rs = np.random.RandomState(3)
    mat = rs.randn(len(ids), 64)
    # label 7 only on train ids; label 1 on both
    labels = np.array([7] * 10 + [1] * 10 + [1] * 8, dtype=np.int64)
    d = tmp_path / "cur23-oneside"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"vec_id": ids,
                  "embedding": [r.astype(np.float32) for r in mat],
                  "label": labels}) \
        .to_parquet(d / "embeddings.parquet", index=False)
    mine = QUERIES["split_embedding_drift"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["split_embedding_drift"])
    assert_frames_equal(mine, gold, "split_embedding_drift-oneside")
    assert set(mine["label"]) == {1}


@pytest.mark.parametrize("seed", [1, 8])
def test_hubness_census_matches_oracle(ray_session, tmp_path, seed):
    mat, labels = _rand_emb(seed, 120)
    d = _write_emb(tmp_path, f"hub{seed}", mat, labels)
    mine = QUERIES["hubness_census"](d)
    gold = _oracle(d, ORACLE_SQL["hubness_census"])
    assert_frames_equal(mine, gold, "hubness_census")
    n = 120
    assert int(mine["n_vecs"].sum()) == n
    assert int((mine["occ"] * mine["n_vecs"]).sum()) == n * 10


def test_hubness_forced_hub(ray_session, tmp_path):
    """One vector aligned with every other -> it appears in all n-1
    top-10 lists (a maximal hub), and the census shows occ = n-1."""
    base = np.zeros((40, 64))
    base[0, 0] = 10.0            # the hub
    for i in range(1, 40):       # each other vector: own axis + a
        base[i, i] = 5.0         # moderate shared pull toward dim 0
        base[i, 0] = 4.0
    # quantized: dot(i, hub) = 102*127 > dot(i, j) = 102*102 -> the
    # hub is every row's top-1 neighbor
    d = _write_emb(tmp_path, "forcedhub", base,
                   np.zeros(40, dtype=np.int64))
    mine = QUERIES["hubness_census"](d)
    gold = _oracle(d, ORACLE_SQL["hubness_census"])
    assert_frames_equal(mine, gold, "hubness_census-forced")
    assert int(mine["occ"].max()) == 39


def test_hubness_small_n(ray_session, tmp_path):
    """n=3 < k+1: every vector's top-k is the other two -> every
    occ = 2, matching the twin's rn <= 10 over 2 candidates."""
    mat = np.eye(3, 64) + 0.01
    d = _write_emb(tmp_path, "small", mat,
                   np.zeros(3, dtype=np.int64))
    mine = QUERIES["hubness_census"](d)
    gold = _oracle(d, ORACLE_SQL["hubness_census"])
    assert_frames_equal(mine, gold, "hubness_census-small")
    assert mine["occ"].tolist() == [2]
    assert mine["n_vecs"].tolist() == [3]


def test_empty_input_parity_curation_r4x(ray_session, tmp_path):
    d = tmp_path / "empty23"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                  "embedding": pd.Series([], dtype=object),
                  "label": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "embeddings.parquet", index=False)
    for name in ("split_embedding_drift", "hubness_census"):
        assert len(QUERIES[name](str(d))) == 0, name
