"""Round-4s family checks (`corpus_datacard`,
`nation_value_percentiles`, `top_decile_share_by_source`): seeded
random inputs — with NULL/empty texts, exact dup families, tiny and
single-doc sources (percentile index edges), single-order nations —
must match the DuckDB oracles bit-for-bit; plus invariants and
empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_docs: int) -> str:
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:03d}" for i in range(50)], dtype=object)
    texts: list = []
    for i in range(n_docs):
        k = rs.randint(0, 40)
        texts.append(" ".join(words[rs.randint(0, 50, k)]))
    for i in range(0, n_docs, 7):   # dup family
        texts[i] = texts[0]
    texts[1] = ""                   # empty text
    srcs = [f"s{i % 5}" for i in range(n_docs)]
    srcs[2] = "lonely"              # single-doc source (p90 edge)
    df = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": pd.Series([("en", "de", "fr")[i % 3]
                           for i in range(n_docs)], dtype=object),
        "source": pd.Series(srcs, dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64")})
    if seed % 2:                    # a NULL text row too
        df.loc[3, "text"] = None
        df.loc[3, "n_chars"] = 0
    d = tmp_path / f"cur18d-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    df.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_tpch(tmp_path, seed: int, n_orders: int, n_cust: int,
                n_nat: int) -> str:
    rs = np.random.RandomState(seed)
    d = tmp_path / f"cur18t-{seed}-{n_orders}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "n_nationkey": np.arange(n_nat, dtype=np.int64)[::-1].copy(),
        "n_name": pd.Series([f"NATION_{i:02d}"
                             for i in range(n_nat)][::-1],
                            dtype=object),
        "n_regionkey": np.int64(0),
        "n_comment": "x"}).to_parquet(d / "nation.parquet",
                                      index=False)
    ck = np.arange(n_cust, dtype=np.int64)
    pd.DataFrame({
        "c_custkey": ck,
        "c_name": "c", "c_address": "a",
        "c_nationkey": rs.randint(0, n_nat, n_cust).astype(np.int64),
        "c_phone": "p", "c_acctbal": 0.0, "c_mktsegment": "m",
        "c_comment": "x"}).to_parquet(d / "customer.parquet",
                                      index=False)
    # one nation gets exactly one order (n=1 percentile edge)
    custkey = rs.randint(0, n_cust, n_orders).astype(np.int64)
    pd.DataFrame({
        "o_orderkey": np.arange(n_orders, dtype=np.int64),
        "o_custkey": custkey,
        "o_orderstatus": "O",
        "o_totalprice": np.round(rs.rand(n_orders) * 90000 + 850, 2),
        "o_orderdate": pd.Timestamp("2024-01-01"),
        "o_orderpriority": "1-URGENT", "o_clerk": "c",
        "o_shippriority": np.int32(0), "o_comment": "x"}) \
        .to_parquet(d / "orders.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "orders", "customer", "nation"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 5])
def test_datacard_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 140)
    mine = QUERIES["corpus_datacard"](d)
    gold = _oracle(d, ORACLE_SQL["corpus_datacard"])
    assert_frames_equal(mine, gold, "corpus_datacard")
    r = mine.iloc[0]
    assert int(r["n_docs"]) == 140
    assert int(r["n_distinct"]) < 140  # dup family collapses
    assert 0.0 < r["dup_rate"] < 1.0


def test_datacard_above_gate_branch(ray_session, tmp_path,
                                    monkeypatch):
    """Force the bucketed keyed combine + per-bucket collapse path
    (the 100 TB branch where the hash vocabulary must never land on
    the driver)."""
    from pdf_oxide_ray.ops import exchange

    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    d = _write_docs(tmp_path, 3, 90)
    mine = QUERIES["corpus_datacard"](d)
    gold = _oracle(d, ORACLE_SQL["corpus_datacard"])
    assert_frames_equal(mine, gold, "corpus_datacard-gate")


@pytest.mark.parametrize("seed", [1, 8])
def test_source_decile_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 140)
    mine = QUERIES["top_decile_share_by_source"](d)
    gold = _oracle(d, ORACLE_SQL["top_decile_share_by_source"])
    assert_frames_equal(mine, gold, "top_decile_share_by_source")
    lone = mine[mine["source"] == "lonely"]
    assert len(lone) == 1 and int(lone["n_docs"].iloc[0]) == 1
    ok = mine["top_share"].dropna()
    assert ((ok > 0.0) & (ok <= 1.0)).all()


@pytest.mark.parametrize("seed", [2, 9])
def test_nation_percentiles_match_oracle(ray_session, tmp_path, seed):
    d = _write_tpch(tmp_path, seed, 3000, 200, 9)
    mine = QUERIES["nation_value_percentiles"](d)
    gold = _oracle(d, ORACLE_SQL["nation_value_percentiles"])
    assert_frames_equal(mine, gold, "nation_value_percentiles")
    assert (mine["p25"] <= mine["p50"]).all()
    assert (mine["p50"] <= mine["p75"]).all()


def test_empty_input_parity_curation_r4s(ray_session, tmp_path):
    d = tmp_path / "empty18"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    card = QUERIES["corpus_datacard"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["corpus_datacard"])
    assert_frames_equal(card, gold, "corpus_datacard-empty")
    assert int(card["n_docs"].iloc[0]) == 0
    assert np.isnan(card["dup_rate"].iloc[0])
    assert len(QUERIES["top_decile_share_by_source"](str(d))) == 0
