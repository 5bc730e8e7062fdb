"""Round-4ab family checks (`source_length_wasserstein`,
`cluster_silhouette`): seeded random inputs plus forced shapes —
identical distributions (W1 must be exactly 0), disjoint point masses
(W1 = the gap), degenerate one-grid-point pairs (the COALESCE-0 twin
path), a single source (no pairs), duplicate vectors and zero vectors
in the cluster model — must match the DuckDB oracles bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_docs(tmp_path, tag, sources, texts):
    d = tmp_path / f"cur27-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series(sources, dtype=object),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_emb(tmp_path, tag, mat):
    d = tmp_path / f"cur27e-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "vec_id": np.arange(len(mat), dtype=np.int64),
        "embedding": [row.tolist() for row in mat],
        "label": np.zeros(len(mat), dtype=np.int32),
    }).to_parquet(d / "embeddings.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 13])
def test_wasserstein_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    srcs, texts = [], []
    for s, lam in (("a", 5), ("b", 9), ("c", 30)):
        for _ in range(120):
            srcs.append(s)
            texts.append(" ".join(["w"] * max(1, int(rng.poisson(lam)))))
    d = _write_docs(tmp_path, f"r{seed}", srcs, texts)
    mine = QUERIES["source_length_wasserstein"](d)
    gold = _oracle(d, ORACLE_SQL["source_length_wasserstein"])
    assert_frames_equal(mine, gold, "source_length_wasserstein")
    assert len(mine) == 3


def test_wasserstein_forced_shapes(ray_session, tmp_path):
    """same = identical distributions (W1 exactly 0); far = point
    masses at 1 and 11 tokens (W1 exactly 10); one = both sources on
    ONE shared grid point (the LEFT-JOIN COALESCE twin path)."""
    srcs = ["same1"] * 4 + ["same2"] * 4 + ["far1"] * 3 + ["far2"] * 3
    texts = (["x", "x x", "x x x", "x"] * 2
             + ["x"] * 3 + [" ".join(["x"] * 11)] * 3)
    d = _write_docs(tmp_path, "forced", srcs, texts)
    mine = QUERIES["source_length_wasserstein"](d)
    gold = _oracle(d, ORACLE_SQL["source_length_wasserstein"])
    assert_frames_equal(mine, gold, "wasserstein-forced")
    m = mine.set_index(["source_a", "source_b"])["w1"]
    assert m[("same1", "same2")] == 0.0
    assert m[("far1", "far2")] == 10.0


def test_wasserstein_single_source_and_one_point(ray_session, tmp_path):
    d = _write_docs(tmp_path, "single", ["only"] * 5, ["x y"] * 5)
    assert len(QUERIES["source_length_wasserstein"](d)) == 0
    # two sources, each entirely at token-count 2 -> one grid point
    d2 = _write_docs(tmp_path, "onept", ["a", "a", "b"],
                     ["x y", "p q", "r s"])
    mine = QUERIES["source_length_wasserstein"](d2)
    gold = _oracle(d2, ORACLE_SQL["source_length_wasserstein"])
    assert_frames_equal(mine, gold, "wasserstein-onept")
    assert mine["w1"].iloc[0] == 0.0


@pytest.mark.parametrize("seed", [2, 29])
def test_cluster_silhouette_random(ray_session, tmp_path, seed):
    rs = np.random.RandomState(seed)
    mat = np.round(rs.randn(150, 64), 3).astype(np.float32)
    mat[9] = mat[8]          # exact duplicate
    mat[10] = 0.0            # zero vector
    d = _write_emb(tmp_path, f"r{seed}", mat)
    mine = QUERIES["cluster_silhouette"](d)
    gold = _oracle(d, ORACLE_SQL["cluster_silhouette"])
    assert_frames_equal(mine, gold, "cluster_silhouette")
    assert int(mine["n"].sum()) == 150
    assert (mine["mean_sil"].abs() <= 1.0).all()


def test_cluster_silhouette_single_vector(ray_session, tmp_path):
    """One vector -> one seed centroid -> no 'other' cluster: both
    sides return the empty shape."""
    d = _write_emb(tmp_path, "one", np.ones((1, 64), dtype=np.float32))
    mine = QUERIES["cluster_silhouette"](d)
    gold = _oracle(d, ORACLE_SQL["cluster_silhouette"])
    assert len(mine) == 0 and len(gold) == 0
    assert sorted(mine.columns) == ["cluster", "mean_sil", "n"]
