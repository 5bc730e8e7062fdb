"""Round-4w family checks (`tokens_chars_ols`, `source_js_matrix`,
`candidate_jaccard_hist`): seeded random inputs plus the degenerate
shapes — constant-x / constant-y regression groups, zero-token docs,
identical-distribution and disjoint-vocab source pairs, exact-copy
dup pairs that clamp into the top Jaccard bin — must match the
DuckDB oracles bit-for-bit; plus invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, tag: str, df: pd.DataFrame) -> str:
    d = tmp_path / f"cur22-{tag}"
    os.makedirs(d, exist_ok=True)
    df.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _docs_frame(texts: list, sources: list) -> pd.DataFrame:
    return pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series(sources, dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    })


def _rand_docs(seed: int, n_docs: int, n_sources: int = 4,
               vocab: int = 30) -> pd.DataFrame:
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:03d}" for i in range(vocab)], dtype=object)
    texts = [" ".join(words[rs.randint(0, vocab, rs.randint(5, 60))])
             for _ in range(n_docs)]
    sources = [f"s{i % n_sources}" for i in range(n_docs)]
    return _docs_frame(texts, sources)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 7])
def test_tokens_chars_ols_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, f"ols{seed}", _rand_docs(seed, 160))
    mine = QUERIES["tokens_chars_ols"](d)
    gold = _oracle(d, ORACLE_SQL["tokens_chars_ols"])
    assert_frames_equal(mine, gold, "tokens_chars_ols")
    # tokens grow with chars on word-salad text: positive fits
    assert (mine["slope"].dropna() > 0).all()
    r2 = mine["r2"].dropna()
    assert ((r2 >= 0) & (r2 <= 1 + 1e-12)).all()


def test_tokens_chars_ols_degenerate_groups(ray_session, tmp_path):
    """Constant x -> NULL slope/intercept/r2; constant y with varying
    x -> slope 0, r2 NULL; zero-token docs keep y=0 rows."""
    texts = ["aa bb", "cc dd", "ee ff",      # sX: constant x AND y
             "a b", "a b c d e f", "",       # sY: empty text -> y=0
             "one two", "three four five"]   # sZ: constant y=2? no: 2,3
    sources = ["sX", "sX", "sX", "sY", "sY", "sY", "sZ", "sZ"]
    d = _write_docs(tmp_path, "olsdeg", _docs_frame(texts, sources))
    mine = QUERIES["tokens_chars_ols"](d)
    gold = _oracle(d, ORACLE_SQL["tokens_chars_ols"])
    assert_frames_equal(mine, gold, "tokens_chars_ols-degenerate")
    sx = mine.set_index("source")
    assert np.isnan(sx.loc["sX", "slope"])
    assert np.isnan(sx.loc["sX", "r2"])


@pytest.mark.parametrize("seed", [2, 9])
def test_source_js_matrix_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, f"js{seed}", _rand_docs(seed, 120))
    mine = QUERIES["source_js_matrix"](d)
    gold = _oracle(d, ORACLE_SQL["source_js_matrix"])
    assert_frames_equal(mine, gold, "source_js_matrix")
    # JS is bounded by ln 2 and non-negative (up to the 1e-12 grid)
    assert ((mine["js"] >= -1e-9)
            & (mine["js"] <= np.log(2) + 1e-9)).all()
    assert len(mine) == 6  # 4 sources -> C(4,2) pairs


def test_source_js_matrix_identical_and_disjoint(ray_session,
                                                 tmp_path):
    """Identical distributions -> js = 0 exactly; disjoint vocab ->
    js = ln 2 on the 1e-12 grid."""
    texts = ["a a b", "a a b",     # sA == sB distributionally
             "x y z", "x y z"]     # sC disjoint from both
    sources = ["sA", "sB", "sC", "sC"]
    d = _write_docs(tmp_path, "jsedge", _docs_frame(texts, sources))
    mine = QUERIES["source_js_matrix"](d)
    gold = _oracle(d, ORACLE_SQL["source_js_matrix"])
    assert_frames_equal(mine, gold, "source_js_matrix-edge")
    m = mine.set_index(["source_a", "source_b"])["js"]
    assert m.loc[("sA", "sB")] == 0.0
    assert abs(m.loc[("sA", "sC")] - np.log(2)) < 1e-6


def test_source_js_single_source_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path, "js1src",
                    _docs_frame(["a b c", "d e"], ["only", "only"]))
    assert len(QUERIES["source_js_matrix"](d)) == 0


@pytest.mark.parametrize("seed", [3, 11])
def test_candidate_jaccard_hist_matches_oracle(ray_session, tmp_path,
                                               seed):
    """Exact copies (j = 1.0, clamped to bin 9) and shared-prefix
    near-copies across a seeded corpus."""
    rs = np.random.RandomState(seed)
    words = np.array([f"tok{i:02d}" for i in range(40)], dtype=object)
    texts = [" ".join(words[rs.randint(0, 40, rs.randint(40, 90))])
             for _ in range(90)]
    for i in range(0, 90, 13):          # exact-copy family
        texts[i] = texts[0]
    for i in range(1, 90, 17):          # near-copy: long shared prefix
        texts[i] = texts[1][:200] + " " + " ".join(
            words[rs.randint(0, 40, 6)])
    d = _write_docs(tmp_path, f"jac{seed}",
                    _docs_frame(texts, ["s0"] * 90))
    mine = QUERIES["candidate_jaccard_hist"](d)
    gold = _oracle(d, ORACLE_SQL["candidate_jaccard_hist"])
    assert_frames_equal(mine, gold, "candidate_jaccard_hist")
    assert len(mine) > 0
    assert mine["jbin"].max() == 9      # the exact copies land in 9
    assert ((mine["mean_j"] > 0) & (mine["mean_j"] <= 1.0)).all()
    assert (mine["jbin"] >= 0).all()


def test_empty_input_parity_curation_r4w(ray_session, tmp_path):
    d = tmp_path / "empty22"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    for name in ("tokens_chars_ols", "source_js_matrix",
                 "candidate_jaccard_hist"):
        assert len(QUERIES[name](str(d))) == 0, name
