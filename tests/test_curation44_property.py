"""Round-5m checks (`dedup_lm_ab`): seeded random inputs plus forced
shapes — a dup-heavy train split (the deduped LM sees each text
once, shifting val log-probs away from the duplicated mass), a
dup-free train split (both variants identical), and the empty
corpus — must match the DuckDB oracle bit-for-bit."""

import hashlib
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_docs(d, ids, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.asarray(ids, dtype=np.int64),
        "text": pd.Series(texts, dtype="string"),
        "lang": pd.Series(["en"] * len(texts), dtype="string"),
        "source": pd.Series(["s0"] * len(texts), dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _nib(d: int) -> str:
    return hashlib.md5(str(d).encode()).hexdigest()[0]


@pytest.mark.parametrize("seed", [0, 25])
def test_ab_random_dup_heavy(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d", "e"]
    templates = [" ".join(rng.choice(words, 12)) for _ in range(8)]
    ids = np.arange(300)
    texts = [templates[rng.integers(0, 8)] if rng.random() < 0.5
             else " ".join(rng.choice(words, rng.integers(2, 20)))
             for _ in ids]
    d = _write_docs(tmp_path / f"ab-{seed}", ids, texts)
    mine = QUERIES["dedup_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["dedup_lm_ab"])
    assert_frames_equal(mine, gold, "dedup_lm_ab")
    m = mine.set_index("variant")
    assert int(m.loc["dedup", "n_train_docs"]) \
        < int(m.loc["raw", "n_train_docs"])
    # the same val set was scored by both variants
    assert int(m.loc["dedup", "n_bigrams"]) \
        == int(m.loc["raw", "n_bigrams"])
    # dup-heavy training shifts the LM: the variants disagree
    assert m.loc["dedup", "mean_lp"] != m.loc["raw", "mean_lp"]


def test_ab_no_dups_identical(ray_session, tmp_path):
    ids = np.arange(60)
    texts = [f"unique text number {i} with words" for i in ids]
    d = _write_docs(tmp_path / "ab-nodup", ids, texts)
    mine = QUERIES["dedup_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["dedup_lm_ab"])
    assert_frames_equal(mine, gold, "dedup_lm_ab-nodup")
    m = mine.set_index("variant")
    assert int(m.loc["dedup", "n_train_docs"]) \
        == int(m.loc["raw", "n_train_docs"])
    a, b = m.loc["dedup", "mean_lp"], m.loc["raw", "mean_lp"]
    assert (a == b) or (np.isnan(a) and np.isnan(b))


def test_ab_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "ab-empty", [], [])
    mine = QUERIES["dedup_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["dedup_lm_ab"])
    assert_frames_equal(mine, gold, "dedup_lm_ab-empty")
    assert len(mine) == 2 and (mine["n_train_docs"] == 0).all()
