"""Randomized end-to-end equivalence for the round-4k family
(`subsample_weights`, `char_coverage`, `vocab_coverage`,
`order_backlog`): seeded random corpora / order books — including
orders that never complete (no lineitems), completion days past the
last order day, NULL/empty documents — must match the DuckDB oracles
bit-for-bit, plus closed-form invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_doc: int) -> str:
    rs = np.random.RandomState(seed)
    vocab = ["red", "blue", "green", "cyan", "teal", "plum", "gold",
             "jade", "rust", "x%d" % seed]
    texts: list = []
    for i in range(n_doc):
        if i % 13 == 0:
            texts.append("")
        elif i % 31 == 0:
            texts.append(None)
        else:
            n = rs.randint(1, 50)
            texts.append(" ".join(
                vocab[j] for j in rs.randint(0, len(vocab), n)))
    docs = pd.DataFrame({
        "doc_id": np.arange(n_doc, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"s{v}" for v in
                             np.asarray(rs.randint(0, 3, n_doc))],
                            dtype=object),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64")})
    d = tmp_path / f"cur10d-{seed}-{n_doc}"
    os.makedirs(d, exist_ok=True)
    docs.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_orderbook(tmp_path, seed: int, n_ord: int) -> str:
    """Order book where ~20% of orders have NO lineitems (never
    complete — permanent backlog) and ship days can trail the last
    order day."""
    rs = np.random.RandomState(seed)
    base = pd.Timestamp("2023-01-01")
    odate = base + pd.to_timedelta(rs.randint(0, 300, n_ord), unit="D") \
        + pd.to_timedelta(rs.randint(0, 86_400, n_ord), unit="s")
    orders = pd.DataFrame({
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_orderdate": odate.astype("datetime64[us]")})
    rows = []
    for k in range(n_ord):
        if k % 5 == 0:
            continue  # never completes
        for j in range(rs.randint(1, 4)):
            rows.append((k, odate[k] + pd.Timedelta(
                days=int(rs.randint(0, 90)),
                seconds=int(rs.randint(0, 86_400)))))
    li = pd.DataFrame(rows, columns=["l_orderkey", "l_shipdate"])
    li["l_shipdate"] = li["l_shipdate"].astype("datetime64[us]")
    d = tmp_path / f"cur10o-{seed}-{n_ord}"
    os.makedirs(d, exist_ok=True)
    orders.to_parquet(d / "orders.parquet", index=False)
    li.to_parquet(d / "lineitem.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str, tables: list) -> pd.DataFrame:
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 9])
def test_tokenizer_family_matches_oracle_random(ray_session, tmp_path,
                                                seed):
    d = _write_docs(tmp_path, seed, 350)
    for name in ("subsample_weights", "char_coverage",
                 "vocab_coverage"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name], ["documents"])
        assert_frames_equal(mine, gold, name)


def test_tokenizer_family_invariants(ray_session, tmp_path):
    d = _write_docs(tmp_path, 4, 250)
    cov = QUERIES["vocab_coverage"](d)
    assert (cov["coverage"].to_numpy() >= cov["p"].to_numpy()).all()
    assert cov["k_words"].is_monotonic_increasing
    cc = QUERIES["char_coverage"](d)
    assert abs(float(cc["frac"].sum()) - 1.0) < 1e-9
    assert float(cc["cum_frac"].iloc[-1]) == pytest.approx(1.0)
    sw = QUERIES["subsample_weights"](d)
    assert ((sw["p_keep"] > 0) & (sw["p_keep"] <= 1.0)).all()
    # frequent words are dampened harder
    assert sw["p_keep"].iloc[0] <= sw["p_keep"].iloc[-1] + 1e-12


@pytest.mark.parametrize("seed", [2, 12])
def test_order_backlog_matches_oracle_random(ray_session, tmp_path,
                                             seed):
    d = _write_orderbook(tmp_path, seed, 800)
    mine = QUERIES["order_backlog"](d)
    gold = _oracle(d, ORACLE_SQL["order_backlog"],
                   ["orders", "lineitem"])
    assert_frames_equal(mine, gold, "order_backlog")
    # never-completing orders leave a terminal backlog
    assert int(mine["backlog"].iloc[-1]) > 0


def test_order_backlog_above_gate_distributed_path(ray_session,
                                                   tmp_path,
                                                   monkeypatch):
    """Force the bucketed branch of the keyed combine (gate -> 1) and
    verify it is hash-identical to the oracle on the same input."""
    from pdf_oxide_ray.ops import exchange

    d = _write_orderbook(tmp_path, 21, 500)
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    mine = QUERIES["order_backlog"](d)
    gold = _oracle(d, ORACLE_SQL["order_backlog"],
                   ["orders", "lineitem"])
    assert_frames_equal(mine, gold, "order_backlog[above-gate]")


def test_empty_input_parity_curation_r4k(ray_session, tmp_path):
    d = tmp_path / "empty10"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype=object),
                  "lang": pd.Series([], dtype=object),
                  "source": pd.Series([], dtype=object),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                  "o_orderdate": pd.Series([], dtype="datetime64[us]")}) \
        .to_parquet(d / "orders.parquet", index=False)
    pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                  "l_shipdate": pd.Series([], dtype="datetime64[us]")}) \
        .to_parquet(d / "lineitem.parquet", index=False)
    for name in ("subsample_weights", "char_coverage",
                 "vocab_coverage", "order_backlog"):
        assert len(QUERIES[name](str(d))) == 0, name
