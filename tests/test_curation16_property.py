"""Round-4q family checks (`token_heavy_hitters`,
`near_dup_split_safety`, `dedup_prf`): seeded random inputs — with a
vocabulary wide enough to force the per-batch Misra-Gries truncation,
injected heavy tokens riding the 1/200 threshold edge, exact + near
dup families for the detector scorecard — must match the DuckDB
oracles bit-for-bit; plus the MG no-false-negative guarantee against
a brute-force recount, invariants, and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_docs: int, vocab: int,
                tag: str, hot: int = 3, dup_every: int = 9) -> str:
    """Wide-vocab docs with `hot` tokens pushed past 0.5% frequency
    and every `dup_every`-th doc an exact copy of doc 0."""
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:04d}" for i in range(vocab)], dtype=object)
    texts = []
    for i in range(n_docs):
        k = rs.randint(30, 90)  # long enough for >= 20 winnow fps
        toks = list(words[rs.randint(0, vocab, k)])
        for h in range(hot):  # heavy tokens: ~1/hot chance per doc
            if rs.rand() < 0.8:
                toks.append(f"hot{h}")
        rs.shuffle(toks)
        texts.append(" ".join(toks))
    for i in range(0, n_docs, dup_every):
        texts[i] = texts[0]
    d = tmp_path / f"cur16-{tag}-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"s{i % 4}" for i in range(n_docs)],
                            dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed,vocab", [(0, 2000), (5, 30)])
def test_heavy_hitters_match_oracle(ray_session, tmp_path, seed,
                                    vocab):
    """vocab=2000 forces the per-batch MG truncation (K=512);
    vocab=30 exercises the everything-qualifies regime."""
    d = _write_docs(tmp_path, seed, 400, vocab, f"hh{vocab}")
    mine = QUERIES["token_heavy_hitters"](d)
    gold = _oracle(d, ORACLE_SQL["token_heavy_hitters"])
    assert_frames_equal(mine, gold, "token_heavy_hitters")
    # the guarantee the plan rides on: brute-force recount agrees
    docs = pd.read_parquet(os.path.join(d, "documents.parquet"))
    vc = docs["text"].str.split().explode().value_counts()
    want = vc[vc * 200 >= int(vc.sum())].sort_index()
    assert mine["tok"].tolist() == want.index.tolist()
    assert mine["n_tok"].tolist() == [int(x) for x in want.to_numpy()]
    for h in range(3):  # injected heavies always qualify
        assert f"hot{h}" in set(mine["tok"])


@pytest.mark.parametrize("seed", [1, 7])
def test_split_safety_matches_oracle(ray_session, tmp_path, seed):
    # dup family of 10 copies: inside the detector's 16-doc hot-fp
    # guard, so the pairs actually surface
    d = _write_docs(tmp_path, seed, 120, 12, "ss", dup_every=12)
    mine = QUERIES["near_dup_split_safety"](d)
    gold = _oracle(d, ORACLE_SQL["near_dup_split_safety"])
    assert_frames_equal(mine, gold, "near_dup_split_safety")
    assert len(mine) > 0  # dups every 6 docs guarantee pairs
    assert abs(mine["share"].sum() - 1.0) < 1e-12
    assert (mine["split_lo"] <= mine["split_hi"]).all()


@pytest.mark.parametrize("seed", [2, 9])
def test_dedup_prf_matches_oracle(ray_session, tmp_path, seed):
    # 13-copy dup family (<= the 16-doc hot-fp guard)
    d = _write_docs(tmp_path, seed, 150, 12, "prf", dup_every=12)
    mine = QUERIES["dedup_prf"](d)
    gold = _oracle(d, ORACLE_SQL["dedup_prf"])
    assert_frames_equal(mine, gold, "dedup_prf")
    r = mine.iloc[0]
    assert r["n_both"] <= min(r["n_pred"], r["n_truth"])
    assert r["n_truth"] >= 13 * 12 // 2  # 13 copies of doc 0
    # exact copies share every fingerprint -> recall is perfect here
    assert r["rec"] == 1.0
    assert 0.0 <= r["prec"] <= 1.0 and 0.0 <= r["f1"] <= 1.0


def test_empty_input_parity_curation_r4q(ray_session, tmp_path):
    d = tmp_path / "empty16"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    hh = QUERIES["token_heavy_hitters"](str(d))
    assert len(hh) == 0 and list(hh.columns) == ["tok", "n_tok"]
    ss = QUERIES["near_dup_split_safety"](str(d))
    assert len(ss) == 0
    prf = QUERIES["dedup_prf"](str(d))
    assert len(prf) == 1
    r = prf.iloc[0]
    assert int(r["n_pred"]) == 0 and int(r["n_truth"]) == 0
    assert np.isnan(r["prec"]) and np.isnan(r["rec"]) \
        and np.isnan(r["f1"])
    gold = _oracle(str(d), ORACLE_SQL["dedup_prf"])
    assert_frames_equal(prf, gold, "dedup_prf-empty")
