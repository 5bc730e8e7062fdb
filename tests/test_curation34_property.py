"""Round-5c family checks (`anchor_stride_recall`,
`join_size_estimate`): seeded random inputs plus forced shapes — a
pair whose only shared run sits at stride-misaligned offsets (found
at stride 1, lost at coarse strides), identical docs (recall 1
everywhere), the below-k exact-sketch branch (rel_err exactly 0),
the at-k estimator branch, and empty inputs — must match the DuckDB
oracles bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "lineitem", "orders"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_docs(d, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype="string"),
        "lang": pd.Series(["en"] * len(texts), dtype="string"),
        "source": pd.Series(["s0"] * len(texts), dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_join(d, l_keys, o_keys):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "l_orderkey": np.asarray(l_keys, dtype=np.int64),
        "l_quantity": 1.0,
    }).to_parquet(d / "lineitem.parquet", index=False)
    pd.DataFrame({
        "o_orderkey": np.asarray(o_keys, dtype=np.int64),
        "o_totalprice": 1.0,
    }).to_parquet(d / "orders.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 7])
def test_stride_recall_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta"]
    texts = [" ".join(rng.choice(words, rng.integers(8, 30)))
             for _ in range(70)]
    for i in range(0, 70, 9):
        texts[i] = texts[2]
    d = _write_docs(tmp_path / f"asr-{seed}", texts)
    mine = QUERIES["anchor_stride_recall"](d)
    gold = _oracle(d, ORACLE_SQL["anchor_stride_recall"])
    assert_frames_equal(mine, gold, "anchor_stride_recall")
    m = mine.set_index("stride")["n_pairs"]
    assert m.loc[1] >= m.loc[4] >= m.loc[8] >= m.loc[16]
    assert mine.set_index("stride")["recall"].loc[1] == 1.0


def test_stride_recall_misaligned(ray_session, tmp_path):
    """Docs 0/1 share ONE 32-char run; in doc 1 every occurrence sits
    at offset 3 (never ≡0 mod 4/8/16), so the pair survives stride 1
    only. Docs 2/3 are identical (same offsets -> survive ALL
    strides)."""
    run = "Q" * 32
    twin_run = "R" * 32  # distinct run: no cross-group pairs
    texts = [run + " some extra tail text here",   # offset 0
             "abc" + run,                          # offset 3 only
             "pad " + twin_run + " twin body",
             "pad " + twin_run + " twin body"]
    d = _write_docs(tmp_path / "asr-forced", texts)
    mine = QUERIES["anchor_stride_recall"](d)
    gold = _oracle(d, ORACLE_SQL["anchor_stride_recall"])
    assert_frames_equal(mine, gold, "anchor_stride_recall-forced")
    m = mine.set_index("stride")["n_pairs"]
    assert m.loc[1] == 2          # (0,1) and (2,3)
    assert m.loc[16] == 1         # only the identical twins survive


def test_stride_recall_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "asr-empty", [])
    mine = QUERIES["anchor_stride_recall"](d)
    gold = _oracle(d, ORACLE_SQL["anchor_stride_recall"])
    assert_frames_equal(mine, gold, "anchor_stride_recall-empty")
    assert len(mine) == 4 and (mine["n_pairs"] == 0).all()


def test_join_estimate_below_k_exact(ray_session, tmp_path):
    """< 64 distinct union keys: the sketch holds every key, so the
    estimate equals the exact product sum and rel_err is exactly 0."""
    rng = np.random.default_rng(3)
    d = _write_join(tmp_path / "jse-small",
                    rng.integers(0, 40, 300), np.arange(40))
    mine = QUERIES["join_size_estimate"](d)
    gold = _oracle(d, ORACLE_SQL["join_size_estimate"])
    assert_frames_equal(mine, gold, "join_size_estimate-small")
    r = mine.iloc[0]
    assert int(r["k_used"]) < 64
    assert r["rel_err"] == 0.0
    assert float(r["est_rows"]) == float(r["exact_rows"])


@pytest.mark.parametrize("seed", [1, 11])
def test_join_estimate_at_k(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _write_join(tmp_path / f"jse-{seed}",
                    rng.integers(0, 3000, 9000),
                    rng.integers(0, 3000, 3000))
    mine = QUERIES["join_size_estimate"](d)
    gold = _oracle(d, ORACLE_SQL["join_size_estimate"])
    assert_frames_equal(mine, gold, "join_size_estimate")
    r = mine.iloc[0]
    assert int(r["k_used"]) == 64
    # KMV with k=64 is a coarse estimator; sanity bound only
    assert abs(float(r["rel_err"])) < 0.8


def test_join_estimate_empty(ray_session, tmp_path):
    d = _write_join(tmp_path / "jse-empty", [], [])
    mine = QUERIES["join_size_estimate"](d)
    gold = _oracle(d, ORACLE_SQL["join_size_estimate"])
    assert_frames_equal(mine, gold, "join_size_estimate-empty")
    assert int(mine["exact_rows"].iloc[0]) == 0
