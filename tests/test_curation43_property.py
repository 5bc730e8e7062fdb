"""Round-5l checks (`rrf_fusion`): seeded random inputs plus forced
shapes — a doc that both systems rank #1 (fused #1 with the doubled
contribution), docs only one system surfaces, and the empty corpus —
must match the DuckDB oracle bit-for-bit."""

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
        "source": pd.Series(["s0"] * len(texts), dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 15])
def test_rrf_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["join", "spark", "window", "table", "scan", "merge",
             "row", "key"]
    texts = [" ".join(rng.choice(words, rng.integers(3, 30)))
             for _ in range(80)]
    d = _write_docs(tmp_path / f"rrf-{seed}", texts)
    mine = QUERIES["rrf_fusion"](d)
    gold = _oracle(d, ORACLE_SQL["rrf_fusion"])
    assert_frames_equal(mine, gold, "rrf_fusion")
    assert len(mine) == 10
    # fused scores are nonincreasing by position
    m = mine.sort_values("position")
    assert (np.diff(m["rrf_score"].to_numpy()) <= 0).all()


def test_rrf_consensus_doc_wins(ray_session, tmp_path):
    """Doc 0 is the exact query text — BM25 and the embedder both
    rank it #1, so fusion puts it first with contribution
    2 * round(1e6/61)."""
    texts = ["join spark window"]
    texts += ["table scan merge row key data plan"] * 15
    texts += ["join table", "spark row", "window key"]
    d = _write_docs(tmp_path / "rrf-consensus", texts)
    mine = QUERIES["rrf_fusion"](d)
    gold = _oracle(d, ORACLE_SQL["rrf_fusion"])
    assert_frames_equal(mine, gold, "rrf_fusion-consensus")
    top = mine.sort_values("position").iloc[0]
    assert int(top["doc_id"]) == 0
    assert top["rrf_score"] == 2 * round(1e6 / 61) / 1e6


def test_rrf_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "rrf-empty", [])
    mine = QUERIES["rrf_fusion"](d)
    gold = _oracle(d, ORACLE_SQL["rrf_fusion"])
    assert_frames_equal(mine, gold, "rrf_fusion-empty")
    assert len(mine) == 0
