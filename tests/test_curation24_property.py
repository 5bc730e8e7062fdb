"""Round-4y family checks (`shuffle_autocorr`, `dp_source_counts`,
`quality_dup_lift`): seeded random inputs plus forced shapes — a
single-source corpus (clump_ratio must be ~the all-pairs baseline),
singleton sources (NULL ratio), exact-copy families concentrated in
one decile — must match the DuckDB oracles bit-for-bit; plus
invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, tag: str, texts, sources) -> str:
    d = tmp_path / f"cur24-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series(sources, dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _rand_docs(seed: int, n: int, n_src: int = 4):
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:03d}" for i in range(30)], dtype=object)
    texts = [" ".join(words[rs.randint(0, 30, rs.randint(5, 50))])
             for _ in range(n)]
    sources = [f"s{rs.randint(0, n_src)}" for _ in range(n)]
    return texts, sources


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 6])
def test_shuffle_autocorr_matches_oracle(ray_session, tmp_path, seed):
    texts, sources = _rand_docs(seed, 300)
    d = _write_docs(tmp_path, f"shuf{seed}", texts, sources)
    mine = QUERIES["shuffle_autocorr"](d)
    gold = _oracle(d, ORACLE_SQL["shuffle_autocorr"])
    assert_frames_equal(mine, gold, "shuffle_autocorr")
    # adjacency mass conservation: total adjacent-same pairs < N
    assert int(mine["n_adj"].sum()) < int(mine["n_docs"].sum())


def test_shuffle_autocorr_single_source(ray_session, tmp_path):
    """All docs one source: every one of the N-1 adjacent pairs is
    same-source; expected n(n-1)/N, ratio = (N-1)/exp on both."""
    texts, _ = _rand_docs(3, 120)
    d = _write_docs(tmp_path, "onesrc", texts, ["only"] * 120)
    mine = QUERIES["shuffle_autocorr"](d)
    gold = _oracle(d, ORACLE_SQL["shuffle_autocorr"])
    assert_frames_equal(mine, gold, "shuffle_autocorr-onesrc")
    assert int(mine["n_adj"].iloc[0]) == 119


def test_shuffle_autocorr_singleton_source(ray_session, tmp_path):
    """A 1-doc source has exp_pairs 0 and NULL/NaN clump_ratio."""
    texts, _ = _rand_docs(5, 60)
    sources = ["big"] * 59 + ["lone"]
    d = _write_docs(tmp_path, "lone", texts, sources)
    mine = QUERIES["shuffle_autocorr"](d)
    gold = _oracle(d, ORACLE_SQL["shuffle_autocorr"])
    assert_frames_equal(mine, gold, "shuffle_autocorr-lone")
    lone = mine.set_index("source").loc["lone"]
    assert lone["exp_pairs"] == 0.0 and np.isnan(lone["clump_ratio"])


@pytest.mark.parametrize("seed", [1, 8])
def test_dp_source_counts_matches_oracle(ray_session, tmp_path, seed):
    texts, sources = _rand_docs(seed, 200, n_src=6)
    d = _write_docs(tmp_path, f"dp{seed}", texts, sources)
    mine = QUERIES["dp_source_counts"](d)
    gold = _oracle(d, ORACLE_SQL["dp_source_counts"])
    assert_frames_equal(mine, gold, "dp_source_counts")
    # noise is Laplace(b=10): all noisy counts within ~40 of truth
    # for any u in md5's range at these sizes (|noise| = b|ln(eps)|
    # worst case, but md5 uniforms are never that extreme here)
    assert (np.abs(mine["n_noisy6"] - mine["n_true"]) < 400).all()
    # determinism: same input -> identical release
    again = QUERIES["dp_source_counts"](d)
    assert again["n_noisy6"].tolist() == mine["n_noisy6"].tolist()


@pytest.mark.parametrize("seed", [2, 9])
def test_quality_dup_lift_matches_oracle(ray_session, tmp_path, seed):
    rs = np.random.RandomState(seed)
    texts, sources = _rand_docs(seed, 250)
    # exact-copy family: every 9th doc is a copy of doc 0 -> they all
    # share doc 0's score and land in ONE decile as dups
    for i in range(0, 250, 9):
        texts[i] = texts[0]
    d = _write_docs(tmp_path, f"lift{seed}", texts, sources)
    mine = QUERIES["quality_dup_lift"](d)
    gold = _oracle(d, ORACLE_SQL["quality_dup_lift"])
    assert_frames_equal(mine, gold, "quality_dup_lift")
    assert int(mine["n_docs"].sum()) == 250
    assert int(mine["n_dups"].sum()) >= 28  # the copy family
    assert ((mine["dup_rate"] >= 0) & (mine["dup_rate"] <= 1)).all()


def test_quality_dup_lift_all_same_text(ray_session, tmp_path):
    """One distinct text: all thresholds equal -> decile 9 holds the
    whole corpus and dup_rate is 1.0 on both engines."""
    d = _write_docs(tmp_path, "allsame", ["the same text here"] * 40,
                    ["s0"] * 40)
    mine = QUERIES["quality_dup_lift"](d)
    gold = _oracle(d, ORACLE_SQL["quality_dup_lift"])
    assert_frames_equal(mine, gold, "quality_dup_lift-same")
    assert mine["decile"].tolist() == [9]
    assert mine["dup_rate"].tolist() == [1.0]


def test_empty_input_parity_curation_r4y(ray_session, tmp_path):
    d = tmp_path / "empty24"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    for name in ("shuffle_autocorr", "dp_source_counts",
                 "quality_dup_lift"):
        assert len(QUERIES[name](str(d))) == 0, name
