"""Round-4v family checks (`fuzzy_decontam_rate`, `reorder_survival`):
seeded random inputs — train docs mirroring test docs (and val docs
that must NOT count), same-day repeat orders that are NOT reorders,
censored single-order users, a curve forced to zero — must match the
DuckDB oracles bit-for-bit; plus invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_docs: int) -> str:
    """Copies of doc 0's text land across splits (the md5 nibble of
    the ids decides which pairs straddle train/test)."""
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:03d}" for i in range(40)], dtype=object)
    texts: list = []
    for i in range(n_docs):
        k = rs.randint(30, 80)
        texts.append(" ".join(words[rs.randint(0, 40, k)]))
    for i in range(0, n_docs, 11):  # ~12-copy family across splits
        texts[i] = texts[0]
    d = tmp_path / f"cur21d-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"s{i % 3}" for i in range(n_docs)],
                            dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_orders(tmp_path, seed: int, n_users: int,
                  tag: str = "") -> str:
    """Mix of: two-order users (various gaps), same-day-repeat users
    (NOT reorders -> censored), single-order users (censored)."""
    rs = np.random.RandomState(seed)
    base = pd.Timestamp("2024-01-01").value // 1000
    day = 86_400_000_000
    rows = []
    for u in range(n_users):
        d1 = int(rs.randint(0, 40))
        rows.append((u, d1))
        mode = u % 3
        if mode == 0:                    # real reorder
            rows.append((u, d1 + 1 + int(rs.randint(0, 30))))
        elif mode == 1:                  # same-day repeat: censored
            rows.append((u, d1))
    df = pd.DataFrame(rows, columns=["u", "d"])
    out = pd.DataFrame({
        "o_orderkey": np.arange(len(df), dtype=np.int64),
        "o_custkey": df["u"].astype("int64"),
        "o_orderstatus": "O",
        "o_totalprice": np.round(rs.rand(len(df)) * 100 + 1, 2),
        "o_orderdate": pd.to_datetime(base + df["d"] * day,
                                      unit="us"),
        "o_orderpriority": "1-URGENT", "o_clerk": "c",
        "o_shippriority": np.int32(0), "o_comment": "x"})
    out["o_orderdate"] = out["o_orderdate"].astype("datetime64[us]")
    d = tmp_path / f"cur21o-{tag}{seed}-{n_users}"
    os.makedirs(d, exist_ok=True)
    out.to_parquet(d / "orders.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "orders"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 6])
def test_fuzzy_decontam_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 130)
    mine = QUERIES["fuzzy_decontam_rate"](d)
    gold = _oracle(d, ORACLE_SQL["fuzzy_decontam_rate"])
    assert_frames_equal(mine, gold, "fuzzy_decontam_rate")
    assert (mine["n_contam"] <= mine["n_train"]).all()
    assert ((mine["contam_rate"] >= 0)
            & (mine["contam_rate"] <= 1)).all()


@pytest.mark.parametrize("seed", [1, 8])
def test_reorder_survival_matches_oracle(ray_session, tmp_path, seed):
    d = _write_orders(tmp_path, seed, 240)
    mine = QUERIES["reorder_survival"](d)
    gold = _oracle(d, ORACLE_SQL["reorder_survival"])
    assert_frames_equal(mine, gold, "reorder_survival")
    assert len(mine) > 0
    # risk sets shrink over time; log-survival is non-increasing
    assert (np.diff(mine["n_risk"].to_numpy(np.int64)) < 0).all()
    ls = mine["log_surv6"].dropna().to_numpy(np.float64)
    assert (np.diff(ls) <= 0).all() and (ls <= 0).all()


def test_reorder_survival_curve_hits_zero(ray_session, tmp_path):
    """Every user reorders and the LAST event time exhausts the risk
    set -> n_risk == n_events there -> NULL log-survival from that
    row on, on both engines."""
    base = pd.Timestamp("2024-01-01").value // 1000
    day = 86_400_000_000
    rows = []
    for u in range(20):
        rows.append((u, 0))
        rows.append((u, 3 if u < 19 else 9))
    df = pd.DataFrame(rows, columns=["u", "d"])
    out = pd.DataFrame({
        "o_orderkey": np.arange(len(df), dtype=np.int64),
        "o_custkey": df["u"].astype("int64"),
        "o_totalprice": 10.0,
        "o_orderdate": pd.to_datetime(base + df["d"] * day,
                                      unit="us")})
    out["o_orderdate"] = out["o_orderdate"].astype("datetime64[us]")
    d = tmp_path / "cur21zero"
    os.makedirs(d, exist_ok=True)
    out.to_parquet(d / "orders.parquet", index=False)
    mine = QUERIES["reorder_survival"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["reorder_survival"])
    assert_frames_equal(mine, gold, "reorder_survival-zero")
    assert np.isnan(mine["log_surv6"].iloc[-1])


def test_reorder_survival_third_order_carries_max_day(ray_session,
                                                      tmp_path):
    """Regression: the global censor day can come from a user's 3rd+
    order — a max over the two-smallest-days table undercensors (off
    by the tail span; caught on the sf0.01 testdata)."""
    base = pd.Timestamp("2024-01-01").value // 1000
    day = 86_400_000_000
    rows = [(0, 0), (0, 5), (0, 90),   # user 0: 3rd order at day 90
            (1, 2),                    # censored: 88 days, not 3
            (2, 1), (2, 4)]
    df = pd.DataFrame(rows, columns=["u", "d"])
    out = pd.DataFrame({
        "o_orderkey": np.arange(len(df), dtype=np.int64),
        "o_custkey": df["u"].astype("int64"),
        "o_totalprice": 10.0,
        "o_orderdate": pd.to_datetime(base + df["d"] * day,
                                      unit="us")})
    out["o_orderdate"] = out["o_orderdate"].astype("datetime64[us]")
    d = tmp_path / "cur21max"
    os.makedirs(d, exist_ok=True)
    out.to_parquet(d / "orders.parquet", index=False)
    mine = QUERIES["reorder_survival"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["reorder_survival"])
    assert_frames_equal(mine, gold, "reorder_survival-maxday")
    # user 1 (censored at 90-2=88) must still be at risk at t=5
    assert int(mine.loc[mine["t_days"] == 5, "n_risk"].iloc[0]) == 2


def test_empty_input_parity_curation_r4v(ray_session, tmp_path):
    d = tmp_path / "empty21"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                  "o_custkey": pd.Series([], dtype="int64"),
                  "o_totalprice": pd.Series([], dtype="float64"),
                  "o_orderdate": pd.Series([],
                                           dtype="datetime64[us]")}) \
        .to_parquet(d / "orders.parquet", index=False)
    for name in ("fuzzy_decontam_rate", "reorder_survival"):
        assert len(QUERIES[name](str(d))) == 0, name
