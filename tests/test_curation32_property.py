"""Round-5a family checks (`repetition_census`, `ccnet_buckets`):
seeded random inputs plus forced shapes — top-bigram count ties
(lexicographic tie-break), docs below the 2-/3-token scoring floors,
empty text, a repetition-bomb doc that fails both thresholds, a
language whose scores are all identical (degenerate terciles), and
'na' bucketing for unscorable docs — must match the DuckDB oracles
bit-for-bit."""

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


def _write_docs(d, sources, langs, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": pd.Series(langs, dtype=object),
        "source": pd.Series(sources, dtype=object),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 17])
def test_repetition_census_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "ep"]
    texts = [" ".join(rng.choice(words, rng.integers(0, 30)))
             for _ in range(160)]
    d = _write_docs(tmp_path / f"rep-{seed}",
                    [f"s{i % 4}" for i in range(160)],
                    ["en"] * 160, texts)
    mine = QUERIES["repetition_census"](d)
    gold = _oracle(d, ORACLE_SQL["repetition_census"])
    assert_frames_equal(mine, gold, "repetition_census")


def test_repetition_census_forced(ray_session, tmp_path):
    """Tie between 'x y' and 'y z' (both count 2) -> lexicographic
    min 'x y' on both sides; a repetition bomb fails both rules; a
    2-token doc scores top2 but not dup3; short/empty docs are
    counted but unscored."""
    texts = ["x y z x y z",                    # top-bigram tie
             "spam spam spam spam spam spam",  # bomb: fails both
             "just two",                       # no trigram
             "one",                            # unscored
             ""]                               # unscored
    d = _write_docs(tmp_path / "rep-forced", ["s0"] * 5, ["en"] * 5,
                    texts)
    mine = QUERIES["repetition_census"](d)
    gold = _oracle(d, ORACLE_SQL["repetition_census"])
    assert_frames_equal(mine, gold, "repetition_census-forced")
    r = mine.iloc[0]
    assert int(r["n_docs"]) == 5 and int(r["n_scored"]) == 3
    assert int(r["n_fail_top2"]) >= 1  # the bomb
    assert int(r["n_fail_dup3"]) >= 1


@pytest.mark.parametrize("seed", [2, 29])
def test_ccnet_buckets_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d", "e", "f", "g"]
    texts, langs = [], []
    for lang in ("en", "de", "fr"):
        for _ in range(60):
            texts.append(" ".join(rng.choice(words,
                                             rng.integers(0, 25))))
            langs.append(lang)
    d = _write_docs(tmp_path / f"ccn-{seed}",
                    ["s0"] * len(texts), langs, texts)
    mine = QUERIES["ccnet_buckets"](d)
    gold = _oracle(d, ORACLE_SQL["ccnet_buckets"])
    assert_frames_equal(mine, gold, "ccnet_buckets")
    # every lang's buckets sum back to its doc count
    tot = mine.groupby("lang")["n_docs"].sum()
    assert (tot == 60).all()


def test_ccnet_buckets_degenerate_and_na(ray_session, tmp_path):
    """lang 'xx': every scored doc has the SAME score (t1 == t2 ==
    score -> everything 'tail'); lang 'yy': only unscorable docs
    (pure 'na')."""
    texts = ["p q", "p q", "p q", "solo", "", "word"]
    langs = ["xx", "xx", "xx", "yy", "yy", "yy"]
    d = _write_docs(tmp_path / "ccn-forced", ["s0"] * 6, langs, texts)
    mine = QUERIES["ccnet_buckets"](d)
    gold = _oracle(d, ORACLE_SQL["ccnet_buckets"])
    assert_frames_equal(mine, gold, "ccnet_buckets-forced")
    m = mine.set_index(["lang", "bucket"])["n_docs"]
    assert int(m.loc[("xx", "tail")]) == 3
    assert ("xx", "head") not in m.index
    assert int(m.loc[("yy", "na")]) == 3
