"""Round-5i family checks (`norm_label_auc`, `welch_ttest`): seeded
random inputs plus forced shapes — a perfectly separating score
(AUC exactly 1), full ties (AUC exactly 0.5 via midranks), a single
class (NULL AUC), identical sources (t exactly 0), an n=1 source
(NULL t/df), and empty inputs — must match the DuckDB oracles
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
    for t in ("embeddings", "documents"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_emb(d, mat, labels):
    os.makedirs(d, exist_ok=True)
    mat = np.asarray(mat, dtype=np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(len(mat), dtype=np.int64)),
        "embedding": pa.array([row.tolist() for row in mat],
                              pa.list_(pa.float32())),
        "label": pa.array(np.asarray(labels, dtype=np.int32)),
    })
    pq.write_table(t, d / "embeddings.parquet")
    return str(d)


def _write_docs(d, sources, n_chars):
    os.makedirs(d, exist_ok=True)
    n = len(sources)
    pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": pd.Series(["x"] * n, dtype="string"),
        "lang": pd.Series(["en"] * n, dtype="string"),
        "source": pd.Series(sources, dtype="string"),
        "n_chars": pd.Series(np.asarray(n_chars, dtype=np.int64)),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 37])
def test_auc_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, 200)
    mat = rng.normal(0, 1, (200, 64))
    d = _write_emb(tmp_path / f"auc-{seed}", mat, labels)
    mine = QUERIES["norm_label_auc"](d)
    gold = _oracle(d, ORACLE_SQL["norm_label_auc"])
    assert_frames_equal(mine, gold, "norm_label_auc")
    assert 0.0 <= float(mine["auc"].iloc[0]) <= 1.0


def test_auc_separating_and_tied(ray_session, tmp_path):
    """Positives scaled 10x (perfect separation -> AUC exactly 1);
    then all-identical vectors (full ties -> AUC exactly 0.5)."""
    rng = np.random.default_rng(1)
    base = rng.normal(0, 1, (40, 64))
    labels = np.r_[np.zeros(20), np.full(20, 9)]
    mat = np.vstack([base[:20], base[20:] * 10.0])
    d = _write_emb(tmp_path / "auc-sep", mat, labels)
    mine = QUERIES["norm_label_auc"](d)
    gold = _oracle(d, ORACLE_SQL["norm_label_auc"])
    assert_frames_equal(mine, gold, "norm_label_auc-sep")
    assert float(mine["auc"].iloc[0]) == 1.0

    same = np.tile(base[0], (30, 1))
    d2 = _write_emb(tmp_path / "auc-ties", same,
                    np.r_[np.zeros(15), np.full(15, 9)])
    mine2 = QUERIES["norm_label_auc"](d2)
    gold2 = _oracle(d2, ORACLE_SQL["norm_label_auc"])
    assert_frames_equal(mine2, gold2, "norm_label_auc-ties")
    assert float(mine2["auc"].iloc[0]) == 0.5


def test_auc_single_class(ray_session, tmp_path):
    rng = np.random.default_rng(2)
    d = _write_emb(tmp_path / "auc-one", rng.normal(0, 1, (25, 64)),
                   np.zeros(25))
    mine = QUERIES["norm_label_auc"](d)
    gold = _oracle(d, ORACLE_SQL["norm_label_auc"])
    assert_frames_equal(mine, gold, "norm_label_auc-oneclass")
    assert np.isnan(mine["auc"].iloc[0])


@pytest.mark.parametrize("seed", [4, 17])
def test_welch_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    sources = [f"s{i % 4}" for i in range(240)]
    lens = rng.integers(10, 2000, 240)
    d = _write_docs(tmp_path / f"wt-{seed}", sources, lens)
    mine = QUERIES["welch_ttest"](d)
    gold = _oracle(d, ORACLE_SQL["welch_ttest"])
    assert_frames_equal(mine, gold, "welch_ttest")
    assert len(mine) == 6  # 4 choose 2


def test_welch_forced(ray_session, tmp_path):
    """s0 and s1 have IDENTICAL length multisets (t exactly 0);
    s2 has a single doc (NULL t/df); s3 has zero variance vs s0
    (finite t via s0's variance)."""
    sources = (["s0"] * 4 + ["s1"] * 4 + ["s2"] + ["s3"] * 3)
    lens = [100, 200, 300, 400, 100, 200, 300, 400, 777,
            250, 250, 250]
    d = _write_docs(tmp_path / "wt-forced", sources, lens)
    mine = QUERIES["welch_ttest"](d)
    gold = _oracle(d, ORACLE_SQL["welch_ttest"])
    assert_frames_equal(mine, gold, "welch_ttest-forced")
    m = mine.set_index(["source_a", "source_b"])
    assert m.loc[("s0", "s1"), "t_stat"] == 0.0
    assert np.isnan(m.loc[("s0", "s2"), "t_stat"])
    assert np.isfinite(m.loc[("s0", "s3"), "t_stat"])
