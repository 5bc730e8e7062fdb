"""Round-5d checks (`heldout_perplexity`): seeded random inputs plus
forced shapes — held-out bigrams unseen in train (unigram backoff),
continuation words never seen in train (the unk constant), an EMPTY
train split (every doc id hashes to the val/test nibbles; backoff
contributes 0 like the engine), and the empty corpus — must match
the DuckDB oracle bit-for-bit."""

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


def _ids_with_nibbles(allowed: set, n: int, start: int = 0):
    out = []
    d = start
    while len(out) < n:
        if _nib(d) in allowed:
            out.append(d)
        d += 1
    return out


@pytest.mark.parametrize("seed", [0, 19])
def test_heldout_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d", "e", "f"]
    ids = np.arange(300)
    texts = [" ".join(rng.choice(words, rng.integers(0, 25)))
             for _ in ids]
    d = _write_docs(tmp_path / f"ho-{seed}", ids, texts)
    mine = QUERIES["heldout_perplexity"](d)
    gold = _oracle(d, ORACLE_SQL["heldout_perplexity"])
    assert_frames_equal(mine, gold, "heldout_perplexity")
    assert set(mine["split"]) == {"test", "val"}
    # mean log-prob is negative wherever bigrams were scored
    scored = mine[mine["n_bigrams"] > 0]
    assert (scored["mean_lp"] < 0).all()


def test_heldout_unseen_continuations(ray_session, tmp_path):
    """A val doc made ENTIRELY of words absent from train forces the
    unk backoff constant on every bigram (backoff_rate exactly 1)."""
    train_ids = _ids_with_nibbles(set("23456789abcdef"), 3)
    val_ids = _ids_with_nibbles({"1"}, 1)
    ids = train_ids + val_ids
    texts = ["known words here", "known words again", "known words"]
    texts += ["zz qq zz qq zz"]
    d = _write_docs(tmp_path / "ho-unseen", ids, texts)
    mine = QUERIES["heldout_perplexity"](d)
    gold = _oracle(d, ORACLE_SQL["heldout_perplexity"])
    assert_frames_equal(mine, gold, "heldout_perplexity-unseen")
    val = mine.set_index("split").loc["val"]
    assert int(val["n_bigrams"]) == 4
    assert val["backoff_rate"] == 1.0


def test_heldout_empty_train_split(ray_session, tmp_path):
    """Every doc id hashes to the test/val nibbles: the train LM is
    empty, every bigram backs off to the engine's 0 constant, and the
    twin's denom guard must mirror it instead of ln(x/0)."""
    ids = _ids_with_nibbles({"0", "1"}, 6)
    texts = [f"w{i} w{i + 1} w{i + 2}" for i in range(6)]
    d = _write_docs(tmp_path / "ho-notrain", ids, texts)
    mine = QUERIES["heldout_perplexity"](d)
    gold = _oracle(d, ORACLE_SQL["heldout_perplexity"])
    assert_frames_equal(mine, gold, "heldout_perplexity-notrain")
    scored = mine[mine["n_bigrams"] > 0]
    assert (scored["backoff_rate"] == 1.0).all()
    assert (scored["mean_lp"] == 0.0).all()


def test_heldout_empty_corpus(ray_session, tmp_path):
    d = _write_docs(tmp_path / "ho-empty", [], [])
    mine = QUERIES["heldout_perplexity"](d)
    gold = _oracle(d, ORACLE_SQL["heldout_perplexity"])
    assert_frames_equal(mine, gold, "heldout_perplexity-empty")
    assert len(mine) == 2 and (mine["n_docs"] == 0).all()
