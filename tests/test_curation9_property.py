"""Randomized end-to-end equivalence for the round-4j family
(`boilerplate_ngrams`, `prefix_containment`, `good_turing`,
`weighted_median_price`): seeded random corpora — including engineered
prefix CHAINS whose members land in different 2048-row sorted batches
(the cross-seam stitch must fire), exact duplicates, empty and NULL
documents — must match the DuckDB oracles bit-for-bit, plus closed-form
invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_doc: int,
                chains: bool = False) -> str:
    """Random corpus; with chains=True, ~10% of docs form prefix chains
    w, w x, w x y, ... (every non-final member is prefix-contained) and
    ~5% are exact duplicates of another doc."""
    rs = np.random.RandomState(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
             "theta", "iota", "kappa", "s%d" % seed]
    texts: list = []
    for i in range(n_doc):
        if i % 19 == 0:
            texts.append("")
        elif i % 29 == 0:
            texts.append(None)
        else:
            n = rs.randint(1, 40)
            texts.append(" ".join(
                vocab[j] for j in rs.randint(0, len(vocab), n)))
    if chains:
        i = 0
        while i + 3 < n_doc:
            base = " ".join(vocab[j] for j in rs.randint(0, len(vocab),
                                                         rs.randint(2, 6)))
            texts[i] = base
            texts[i + 1] = base + " " + vocab[rs.randint(0, len(vocab))]
            texts[i + 2] = texts[i + 1] + " " + \
                vocab[rs.randint(0, len(vocab))]
            texts[i + 3] = texts[i + 2]  # exact duplicate
            i += max(10, n_doc // 10)
    docs = pd.DataFrame({
        "doc_id": np.arange(n_doc, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"src{v}" for v in
                             np.asarray(rs.randint(0, 4, n_doc))],
                            dtype=object),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64")})
    d = tmp_path / f"cur9d-{seed}-{n_doc}-{int(chains)}"
    os.makedirs(d, exist_ok=True)
    docs.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_lineitem(tmp_path, seed: int, n: int) -> str:
    rs = np.random.RandomState(seed)
    li = pd.DataFrame({
        "l_orderkey": np.arange(n, dtype=np.int64),
        "l_returnflag": np.array(["A", "N", "R"])[
            rs.randint(0, 3, n)].astype(object),
        "l_quantity": rs.randint(0, 51, n).astype(np.float64),
        "l_extendedprice": np.round(rs.rand(n) * 1e5, 2)})
    d = tmp_path / f"cur9l-{seed}-{n}"
    os.makedirs(d, exist_ok=True)
    li.to_parquet(d / "lineitem.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str, table: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{table}.parquet')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 7])
def test_doc_family_matches_oracle_random(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 400, chains=False)
    for name in ("boilerplate_ngrams", "prefix_containment",
                 "good_turing"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name], "documents")
        assert_frames_equal(mine, gold, name)


def test_prefix_chains_span_sorted_batches(ray_session, tmp_path):
    """5000 distinct texts > two 2048-row sorted batches; engineered
    chains make contained texts land adjacent to batch seams, so the
    cross-seam prefix test must fire for the hash to match."""
    d = _write_docs(tmp_path, 3, 5000, chains=True)
    mine = QUERIES["prefix_containment"](d)
    gold = _oracle(d, ORACLE_SQL["prefix_containment"], "documents")
    assert_frames_equal(mine, gold, "prefix_containment")
    assert int(mine["n_prefix"].sum()) > 0  # chains actually exist
    assert int(mine["n_dup_eq"].sum()) > 0


@pytest.mark.parametrize("seed", [1, 11])
def test_weighted_median_matches_oracle_random(ray_session, tmp_path,
                                               seed):
    """Random weights incl. zero-quantity rows (excluded from the
    expanded multiset on both sides)."""
    d = _write_lineitem(tmp_path, seed, 3000)
    mine = QUERIES["weighted_median_price"](d)
    gold = _oracle(d, ORACLE_SQL["weighted_median_price"], "lineitem")
    assert_frames_equal(mine, gold, "weighted_median_price")


def test_good_turing_invariants(ray_session, tmp_path):
    """sum(r * N_r) = total tokens; r_star is NaN exactly where no
    r+1 class exists."""
    d = _write_docs(tmp_path, 5, 300)
    gt = QUERIES["good_turing"](d)
    docs = pd.read_parquet(os.path.join(d, "documents.parquet"))
    import re
    total = sum(len(re.findall(r"[0-9a-z_]+", (t or "").lower()))
                for t in docs["text"])
    assert int((gt["r"] * gt["n_r"]).sum()) == total
    have = set(gt["r"].tolist())
    expect_nan = [int(r) + 1 not in have for r in gt["r"]]
    assert gt["r_star"].isna().tolist() == expect_nan


def test_empty_input_parity_curation_r4j(ray_session, tmp_path):
    d = tmp_path / "empty9"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype=object),
                  "lang": pd.Series([], dtype=object),
                  "source": pd.Series([], dtype=object),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                  "l_returnflag": pd.Series([], dtype=object),
                  "l_quantity": pd.Series([], dtype="float64"),
                  "l_extendedprice": pd.Series([], dtype="float64")}) \
        .to_parquet(d / "lineitem.parquet", index=False)
    for name in ("boilerplate_ngrams", "prefix_containment",
                 "good_turing", "weighted_median_price"):
        assert len(QUERIES[name](str(d))) == 0, name
