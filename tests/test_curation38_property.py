"""Round-5g family checks (`ngram_coverage_curve`,
`unicode_nfc_census`): seeded random inputs plus forced shapes —
rank ties at the top-N boundary (count DESC, bigram ASC on both
sides), an empty val split, decomposed accents and combining marks
that NFC recomposes (nonzero char delta), already-composed text
(zero delta), and empty inputs — must match the DuckDB oracles
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


def _write_docs(d, texts, ids=None, sources=None):
    os.makedirs(d, exist_ok=True)
    n = len(texts)
    pd.DataFrame({
        "doc_id": (np.arange(n, dtype=np.int64) if ids is None
                   else np.asarray(ids, dtype=np.int64)),
        "text": pd.Series(texts, dtype="string"),
        "lang": pd.Series(["en"] * n, dtype="string"),
        "source": pd.Series(sources if sources is not None
                            else ["s0"] * n, dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 41])
def test_coverage_curve_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, rng.integers(0, 30)))
             for _ in range(250)]
    d = _write_docs(tmp_path / f"cov-{seed}", texts)
    mine = QUERIES["ngram_coverage_curve"](d)
    gold = _oracle(d, ORACLE_SQL["ngram_coverage_curve"])
    assert_frames_equal(mine, gold, "ngram_coverage_curve")
    # coverage is monotone in N and capped at 1
    m = mine.sort_values("n_top")
    cov = m["coverage"].to_numpy()
    assert (np.diff(cov) >= 0).all() and (cov <= 1.0).all()


def test_coverage_tie_at_boundary(ray_session, tmp_path):
    """Hundreds of distinct bigrams all with count 1: the top-100 cut
    slices a fully tied rank order — the (count DESC, bigram ASC)
    tie-break must agree bit-for-bit."""
    texts = [f"a{i:03d} b{i:03d}" for i in range(400)]
    d = _write_docs(tmp_path / "cov-ties", texts)
    mine = QUERIES["ngram_coverage_curve"](d)
    gold = _oracle(d, ORACLE_SQL["ngram_coverage_curve"])
    assert_frames_equal(mine, gold, "ngram_coverage_curve-ties")


def test_coverage_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "cov-empty", [])
    mine = QUERIES["ngram_coverage_curve"](d)
    gold = _oracle(d, ORACLE_SQL["ngram_coverage_curve"])
    assert_frames_equal(mine, gold, "ngram_coverage_curve-empty")
    assert len(mine) == 3 and (mine["covered"] == 0).all()


@pytest.mark.parametrize("seed", [3])
def test_nfc_census_random_ascii(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(["cafe", "naive", "plain"], 5))
             for _ in range(60)]
    d = _write_docs(tmp_path / f"nfc-{seed}", texts,
                    sources=[f"s{i % 3}" for i in range(60)])
    mine = QUERIES["unicode_nfc_census"](d)
    gold = _oracle(d, ORACLE_SQL["unicode_nfc_census"])
    assert_frames_equal(mine, gold, "unicode_nfc_census")
    assert (mine["n_changed"] == 0).all()  # pure ASCII never changes


def test_nfc_census_forced(ray_session, tmp_path):
    """'e' + COMBINING ACUTE recomposes to a single codepoint (delta
    1 per occurrence); precomposed text is a fixed point; empty and
    NULL-ish docs count but never change."""
    decomposed = "cafe\u0301 cre\u0301me"  # e + combining acute x2
    composed = "caf\u00e9 cr\u00e8me"
    texts = [decomposed, composed, "", "plain ascii"]
    d = _write_docs(tmp_path / "nfc-forced", texts,
                    sources=["s0", "s0", "s1", "s1"])
    mine = QUERIES["unicode_nfc_census"](d)
    gold = _oracle(d, ORACLE_SQL["unicode_nfc_census"])
    assert_frames_equal(mine, gold, "unicode_nfc_census-forced")
    m = mine.set_index("source")
    assert int(m.loc["s0", "n_changed"]) == 1
    assert int(m.loc["s0", "char_delta"]) == 2
    assert int(m.loc["s1", "n_changed"]) == 0
