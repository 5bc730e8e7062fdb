"""Round-5b family checks (`substring_dup_pairs`,
`winnow_threshold_curve`): seeded random inputs plus forced shapes —
a planted shared 32-char run, docs below the anchor length, a hot
anchor shared by >16 docs (guard fires identically on both sides),
dup-heavy corpora across the threshold sweep, and the empty corpus
(8 zero rows, NULL ratios) — must match the DuckDB oracles
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


def _write_docs(d, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype="string"),
        "lang": pd.Series(["en"] * len(texts), dtype="string"),
        "source": pd.Series([f"s{i % 3}" for i in range(len(texts))],
                            dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 13])
def test_substring_pairs_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    texts = [" ".join(rng.choice(words, rng.integers(0, 25)))
             for _ in range(80)]
    # plant exact dups so anchors fire
    for i in range(0, 80, 11):
        texts[i] = texts[1]
    d = _write_docs(tmp_path / f"sub-{seed}", texts)
    mine = QUERIES["substring_dup_pairs"](d)
    gold = _oracle(d, ORACLE_SQL["substring_dup_pairs"])
    assert_frames_equal(mine, gold, "substring_dup_pairs")


def test_substring_pairs_forced(ray_session, tmp_path):
    """Docs 0/1 share ONLY a planted 32-char run inside otherwise
    different text; doc 2 is 31 chars (below the anchor length, never
    pairs); docs 3..20 are IDENTICAL (18 docs -> their anchors are
    shared by 18 > 16 docs, the hot-anchor guard drops every anchor,
    so the identical group yields NO pairs — mirrored in the twin)."""
    run = "Z" * 32
    texts = ["left padding text " + run + " tail one",
             "other beginning " + run + " different tail",
             "x" * 31]
    texts += ["w " * 20 + "common identical document body here"] * 18
    d = _write_docs(tmp_path / "sub-forced", texts)
    mine = QUERIES["substring_dup_pairs"](d)
    gold = _oracle(d, ORACLE_SQL["substring_dup_pairs"])
    assert_frames_equal(mine, gold, "substring_dup_pairs-forced")
    pairs = set(zip(mine["id_a"], mine["id_b"]))
    assert (0, 1) in pairs
    assert not any(a >= 3 or b >= 3 for a, b in pairs)


@pytest.mark.parametrize("seed", [5, 31])
def test_threshold_curve_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta"]
    base = [" ".join(rng.choice(words, 25)) for _ in range(12)]
    texts = [base[rng.integers(0, 12)] if rng.random() < 0.4
             else " ".join(rng.choice(words, rng.integers(5, 30)))
             for _ in range(100)]
    d = _write_docs(tmp_path / f"curve-{seed}", texts)
    mine = QUERIES["winnow_threshold_curve"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_threshold_curve"])
    assert_frames_equal(mine, gold, "winnow_threshold_curve")
    # predicted pairs are monotonically nonincreasing in threshold
    assert (np.diff(mine.sort_values("threshold")["n_pred"]
                    .to_numpy()) <= 0).all()


def test_threshold_curve_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "curve-empty", [])
    mine = QUERIES["winnow_threshold_curve"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_threshold_curve"])
    assert_frames_equal(mine, gold, "winnow_threshold_curve-empty")
    assert len(mine) == 8
    assert (mine["n_pred"] == 0).all()
    assert mine["precision"].isna().all()
