"""Round-5o checks (`decontam_lm_ab`): seeded random inputs plus
forced shapes — train docs planted with verbatim 8-gram copies of an
eval doc (the decontam variant must drop them and score the eval set
worse), contamination-free corpora (variants identical), and the
empty corpus — must match the DuckDB oracle bit-for-bit."""

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


def _ids_with(pred, n, start=0):
    out, d = [], start
    while len(out) < n:
        if pred(_nib(d)):
            out.append(d)
        d += 1
    return out


@pytest.mark.parametrize("seed", [0, 19])
def test_decontam_ab_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d", "e", "f"]
    ids = np.arange(250)
    texts = [" ".join(rng.choice(words, rng.integers(0, 25)))
             for _ in ids]
    d = _write_docs(tmp_path / f"dab-{seed}", ids, texts)
    mine = QUERIES["decontam_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["decontam_lm_ab"])
    assert_frames_equal(mine, gold, "decontam_lm_ab")
    m = mine.set_index("variant")
    assert int(m.loc["decontam", "n_train_docs"]) \
        <= int(m.loc["raw", "n_train_docs"])


def test_decontam_ab_planted_leak(ray_session, tmp_path):
    """A val doc's full text (>= 8 tokens) is copied verbatim into
    several train docs: the decontam variant drops exactly those, its
    eval log-prob falls, and its backoff rate rises."""
    val_ids = _ids_with(lambda n: n == "1", 1)
    train_ids = _ids_with(lambda n: n not in "01", 30)
    eval_text = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
    ids = val_ids + train_ids
    texts = [eval_text]
    # 5 leaked copies + 25 clean docs sharing unigrams only
    texts += [eval_text + f" extra{j}" for j in range(5)]
    texts += [f"w{(j % 10) + 1} filler{j} w{(j % 7) + 1}"
              for j in range(25)]
    d = _write_docs(tmp_path / "dab-leak", ids, texts)
    mine = QUERIES["decontam_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["decontam_lm_ab"])
    assert_frames_equal(mine, gold, "decontam_lm_ab-leak")
    m = mine.set_index("variant")
    assert int(m.loc["raw", "n_train_docs"]) \
        - int(m.loc["decontam", "n_train_docs"]) == 5
    # contamination inflated the raw score
    assert m.loc["raw", "mean_lp"] > m.loc["decontam", "mean_lp"]
    assert m.loc["decontam", "backoff_rate"] \
        >= m.loc["raw", "backoff_rate"]


def test_decontam_ab_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "dab-empty", [], [])
    mine = QUERIES["decontam_lm_ab"](d)
    gold = _oracle(d, ORACLE_SQL["decontam_lm_ab"])
    assert_frames_equal(mine, gold, "decontam_lm_ab-empty")
    assert len(mine) == 2 and (mine["n_train_docs"] == 0).all()
