"""Randomized end-to-end equivalence for the round-4f family
(gopher_rules / dsir_weights / soft_dedup_weights): seeded random
corpora with forced exact-dup clusters, empty texts, stopword-bearing
and digit-only tokens, and a no-target-language corpus must match the
DuckDB oracle bit-for-bit; the soft-dedup distributed (above-gate,
bucketed-join) path must agree with the broadcast path; plus
closed-form invariants and empty-input parity."""

import math
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES

_WORDS = ["the", "and", "of", "to", "that", "have", "with", "be",
          "scan", "merge", "sort", "hash", "key", "row", "qq17x",
          "123", "7", "##", "aaaaaaaaaaaaaa", "zz"]


def _write_docs(tmp_path, seed: int, langs=("en", "de", "fr"),
                n_sources: int = 4) -> str:
    rs = np.random.RandomState(seed)
    n_docs = int(rs.randint(60, 250))
    texts = []
    for _ in range(n_docs):
        k = int(rs.randint(0, 90))
        texts.append(" ".join(_WORDS[i]
                              for i in rs.randint(0, len(_WORDS), k)))
    for i in range(0, n_docs, 13):
        texts[i] = ""  # zero-token docs
    # forced exact-dup clusters of size 2..6, crossing sources
    for i in range(0, n_docs - 6, 17):
        c = 2 + (i // 17) % 5
        for j in range(1, c):
            texts[i + j] = texts[i]
    docs = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts,
        "lang": [langs[i] for i in rs.randint(0, len(langs), n_docs)],
        "source": [f"s{i}" for i in rs.randint(0, n_sources, n_docs)],
        "n_chars": np.int64([len(t) for t in texts])})
    d = tmp_path / f"cur5-{seed}"
    os.makedirs(d, exist_ok=True)
    docs.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    return con.execute(sql).fetchdf()


def _assert_equal(a: pd.DataFrame, b: pd.DataFrame, name: str):
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[sorted(b.columns)].sort_values(sorted(b.columns)) \
        .reset_index(drop=True)
    assert list(a.columns) == list(b.columns), name
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            av = a[c].astype(float).to_numpy()
            bv = b[c].astype(float).to_numpy()
            assert all((math.isnan(x) and math.isnan(y)) or x == y
                       for x, y in zip(av, bv)), f"{name}: col {c}"
        else:
            assert (a[c].astype(str) == b[c].astype(str)).all(), \
                f"{name}: col {c}"


_NEW = ["gopher_rules", "dsir_weights", "soft_dedup_weights"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _NEW)
def test_curation5_matches_oracle_on_random_tables(ray_session, tmp_path,
                                                   seed, name):
    sf_dir = _write_docs(tmp_path, seed)
    ray_df = QUERIES[name](sf_dir)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    _assert_equal(ray_df, _oracle(sf_dir, ORACLE_SQL[name]), name)


def test_dsir_without_target_language(ray_session, tmp_path):
    """No lang='en' docs: target counts are all zero — the smoothed
    target LM degenerates to uniform 1/V; both sides must still agree."""
    sf_dir = _write_docs(tmp_path, 9, langs=("de", "fr"))
    _assert_equal(QUERIES["dsir_weights"](sf_dir),
                  _oracle(sf_dir, ORACLE_SQL["dsir_weights"]),
                  "dsir_no_target")


def test_soft_dedup_above_gate_path(ray_session, tmp_path, monkeypatch):
    """Force the distributed branch (hash groupby stays a Ray exchange,
    docs x dup-groups route through the bucketed join) and require the
    exact same frame as the broadcast branch / the oracle."""
    import pdf_oxide_ray.stages.joins as J
    from pdf_oxide_ray.ops import exchange

    sf_dir = _write_docs(tmp_path, 11)
    gold = _oracle(sf_dir, ORACLE_SQL["soft_dedup_weights"])
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    monkeypatch.setattr(J, "_ADAPTIVE_BROADCAST_MAX_ROWS", 0)
    _assert_equal(QUERIES["soft_dedup_weights"](sf_dir), gold,
                  "soft_dedup_above_gate")


def test_curation5_invariants(ray_session, tmp_path):
    sf_dir = _write_docs(tmp_path, 7)
    docs = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"))

    # gopher: failure counts bounded by n_docs; pass + any-fail == docs
    gr = QUERIES["gopher_rules"](sf_dir)
    assert int(gr["n_docs"].sum()) == len(docs)
    for c in ("fail_wordcount", "fail_meanlen", "fail_stopwords",
              "fail_alpharatio"):
        assert (gr[c] <= gr["n_docs"]).all()
    assert ((gr["pass_rate"] >= 0) & (gr["pass_rate"] <= 1)).all()
    # zero-token docs fail wordcount by definition
    n_empty = int((docs["text"].str.split().str.len() == 0).sum())
    assert int(gr["fail_wordcount"].sum()) >= n_empty

    # dsir: n_selected <= n_docs; doc census complete
    dw = QUERIES["dsir_weights"](sf_dir)
    assert int(dw["n_docs"].sum()) == len(docs)
    assert (dw["n_selected"] <= dw["n_docs"]).all()

    # soft dedup: census covers every doc and every token once;
    # effective tokens == raw tokens exactly on the c == 1 rows
    sd = QUERIES["soft_dedup_weights"](sf_dir)
    n_tok = docs["text"].str.split().str.len()
    assert int(sd["n_docs"].sum()) == len(docs)
    assert int(sd["sum_tokens"].sum()) == int(n_tok.sum())
    ones = sd[sd["c"] == 1]
    assert (ones["eff_tokens"]
            == ones["sum_tokens"].astype(float)).all()
    assert (sd["eff_tokens"] <= sd["sum_tokens"] + 1e-9).all()
    # forced clusters exist in the fixture
    assert (sd["c"] > 1).any()
    # cluster-size identity: docs in clusters of size c are a multiple
    # of nothing per source, but globally sum over sources of n_docs
    # at size c must be divisible by c only when clusters don't split
    # across sources — instead check against pandas directly
    cl = docs.assign(t=docs["text"].fillna("")) \
        .groupby("t")["doc_id"].transform("count")
    expect = docs.assign(c=cl.to_numpy(), n_tok=n_tok.to_numpy()) \
        .groupby(["source", "c"], as_index=False) \
        .agg(n_docs=("doc_id", "count"), sum_tokens=("n_tok", "sum"))
    merged = sd.merge(expect, on=["source", "c"],
                      suffixes=("", "_exp"), how="outer")
    assert (merged["n_docs"] == merged["n_docs_exp"]).all()
    assert (merged["sum_tokens"] == merged["sum_tokens_exp"]).all()


def test_empty_input_parity_curation5(ray_session, tmp_path):
    d = tmp_path / "empty-cur5"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    sd = str(d)
    for name in _NEW:
        out = QUERIES[name](sd)
        assert len(out) == 0, name
        assert len(_oracle(sd, ORACLE_SQL[name])) == 0, name
