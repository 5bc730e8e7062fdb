"""Round-5p checks (`quality_lm_ab`): seeded random inputs plus
forced shapes — a train split whose low-quality half is vocabulary-
distinct (filtering must shift the val score and shrink the train
set by the P75 rule's exact count), and the empty corpus — must
match the DuckDB oracle bit-for-bit."""

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


@pytest.mark.parametrize("seed", [0, 29])
def test_quality_ab_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["the", "and", "report", "value", "metric", "x"]
    ids = np.arange(240)
    texts = [" ".join(rng.choice(words, rng.integers(0, 60)))
             + ("." if rng.random() < 0.5 else "")
             for _ in ids]
    d = _write_docs(tmp_path / f"qab-{seed}", ids, texts)
    mine = QUERIES["quality_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["quality_lm_ab"])
    assert_frames_equal(mine, gold, "quality_lm_ab")
    m = mine.set_index("variant")
    # P75 keep-at-or-above rule retains at most all, at least ~25%
    assert 0 < int(m.loc["quality", "n_train_docs"]) \
        <= int(m.loc["raw", "n_train_docs"])


def test_quality_ab_bimodal(ray_session, tmp_path):
    """Half the train docs are high-quality prose, half are
    single-token junk with a DISTINCT vocabulary: filtering removes
    the junk, so the filtered LM backs off on junk-vocabulary val
    bigrams and the variants diverge."""
    rng = np.random.default_rng(7)
    good = ("the value and the metric is that for it report, "
            "the and of to a in is that for it.")
    ids = np.arange(200)
    texts = []
    for i in ids:
        if i % 2:
            texts.append(good)
        else:
            texts.append(f"junk{i}")
    d = _write_docs(tmp_path / "qab-bimodal", ids, texts)
    mine = QUERIES["quality_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["quality_lm_ab"])
    assert_frames_equal(mine, gold, "quality_lm_ab-bimodal")
    m = mine.set_index("variant")
    assert int(m.loc["quality", "n_train_docs"]) \
        < int(m.loc["raw", "n_train_docs"])


def test_quality_ab_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "qab-empty", [], [])
    mine = QUERIES["quality_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["quality_lm_ab"])
    assert_frames_equal(mine, gold, "quality_lm_ab-empty")
    assert len(mine) == 2 and (mine["n_train_docs"] == 0).all()
