"""Round-4aa family checks (`dow_seasonality`, `lineitem_fanout_hist`,
`event_markov_stationary`): seeded random inputs plus forced shapes —
half-cent price ties, orders with zero lineitems, the above-gate
distributed histogram branch, an absorbing event type (self-loop
augmentation) and a deterministic 2-cycle chain — must match the
DuckDB oracles bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.ops import exchange
from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("orders", "lineitem", "events"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_orders(d, dates, prices, custkey=None):
    os.makedirs(d, exist_ok=True)
    n = len(dates)
    pd.DataFrame({
        "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
        "o_custkey": (np.asarray(custkey, dtype=np.int64)
                      if custkey is not None
                      else np.arange(n, dtype=np.int64) % 7),
        "o_orderstatus": "O",
        "o_totalprice": np.asarray(prices, dtype=np.float64),
        "o_orderdate": pd.to_datetime(dates).astype("datetime64[us]"),
        "o_orderpriority": "1-URGENT",
    }).to_parquet(d / "orders.parquet", index=False)


def _write_lineitem(d, orderkeys):
    os.makedirs(d, exist_ok=True)
    n = len(orderkeys)
    pd.DataFrame({
        "l_orderkey": np.asarray(orderkeys, dtype=np.int64),
        "l_partkey": np.arange(n, dtype=np.int64) % 11,
        "l_suppkey": np.arange(n, dtype=np.int64) % 5,
        "l_linenumber": np.arange(n, dtype=np.int32),
        "l_quantity": 1.0, "l_extendedprice": 10.0,
        "l_discount": 0.0, "l_tax": 0.0,
        "l_returnflag": "N", "l_linestatus": "O",
        "l_shipdate": pd.Timestamp("2024-01-01"),
    }).to_parquet(d / "lineitem.parquet", index=False)


def _write_events(d, user_ids, types):
    os.makedirs(d, exist_ok=True)
    n = len(user_ids)
    base = pd.Timestamp("2024-01-01").value // 1000
    pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(base + np.arange(n, dtype=np.int64)
                             * 1_000_000, unit="us")
        .astype("datetime64[us]"),
        "user_id": np.asarray(user_ids, dtype=np.int64),
        "event_type": pd.Series(types, dtype=object),
        "value": 1.0, "props": "{}",
    }).to_parquet(d / "events.parquet", index=False)


@pytest.mark.parametrize("seed", [0, 11])
def test_dow_seasonality_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 500
    dates = pd.Timestamp("2023-06-01") \
        + pd.to_timedelta(rng.integers(0, 400, n), unit="D")
    # include exact half-cent ties: x.xx5 prices
    prices = np.round(rng.uniform(10, 5000, n), 2) + 0.005
    d = tmp_path / f"dow-{seed}"
    _write_orders(d, dates, prices)
    mine = QUERIES["dow_seasonality"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["dow_seasonality"])
    assert_frames_equal(mine, gold, "dow_seasonality")
    assert len(mine) == 7  # 400-day span covers every dow


def test_lineitem_fanout_zero_group(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    d = tmp_path / "fanout"
    # 40 orders; only keys 1..25 get lineitems (15 zero-fanout orders)
    _write_orders(d, [pd.Timestamp("2024-01-01")] * 40, [100.0] * 40)
    keys = rng.integers(1, 26, 300)
    _write_lineitem(d, keys)
    mine = QUERIES["lineitem_fanout_hist"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["lineitem_fanout_hist"])
    assert_frames_equal(mine, gold, "lineitem_fanout_hist")
    zero = mine[mine["n_items"] == 0]
    assert len(zero) == 1 and int(zero["n_orders"].iloc[0]) >= 15
    assert int(mine["n_orders"].sum()) == 40


def test_lineitem_fanout_above_gate_branch(ray_session, tmp_path,
                                           monkeypatch):
    """Force the distributed per-order reduce + histogram-partials
    path."""
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    d = tmp_path / "fanout-gate"
    _write_orders(d, [pd.Timestamp("2024-01-01")] * 10, [100.0] * 10)
    _write_lineitem(d, [1, 1, 1, 2, 2, 3, 4, 4, 4, 4])
    mine = QUERIES["lineitem_fanout_hist"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["lineitem_fanout_hist"])
    assert_frames_equal(mine, gold, "lineitem_fanout_hist-gate")


@pytest.mark.parametrize("seed", [1, 23])
def test_markov_stationary_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 800
    types = rng.choice(["view", "click", "buy", "churn"], n,
                       p=[0.5, 0.3, 0.15, 0.05])
    d = tmp_path / f"markov-{seed}"
    _write_events(d, rng.integers(0, 40, n), types)
    mine = QUERIES["event_markov_stationary"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["event_markov_stationary"])
    assert_frames_equal(mine, gold, "event_markov_stationary")
    assert abs(mine["stat_prob"].sum() - 1.0) < 1e-6


def test_markov_absorbing_and_cycle(ray_session, tmp_path):
    """'end' only ever appears as a successor (no outgoing edge -> the
    self-loop augmentation must fire identically on both sides), and
    user 2 is a deterministic a<->b 2-cycle."""
    d = tmp_path / "markov-forced"
    user = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2]
    typ = ["a", "b", "end", "b", "a", "end", "a", "b", "a", "b", "a"]
    _write_events(d, user, typ)
    mine = QUERIES["event_markov_stationary"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["event_markov_stationary"])
    assert_frames_equal(mine, gold, "event_markov_stationary-forced")
    # mass concentrates in the absorbing state
    end = mine.set_index("event_type")["stat_prob"]
    assert end["end"] > end["a"] and end["end"] > end["b"]


def test_markov_entry_only_state(ray_session, tmp_path):
    """'start' only ever OPENS streams (no incoming transition): the
    engine keeps it with stationary mass 0, and the twin's final
    LEFT JOIN onto the state space must emit the same zero row
    instead of dropping it (row-count parity break otherwise)."""
    d = tmp_path / "markov-entry-only"
    user = [0, 0, 0, 1, 1, 2, 2, 2]
    typ = ["start", "x", "x", "start", "x", "start", "x", "x"]
    _write_events(d, user, typ)
    mine = QUERIES["event_markov_stationary"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["event_markov_stationary"])
    assert_frames_equal(mine, gold, "event_markov_stationary-entry-only")
    probs = mine.set_index("event_type")["stat_prob"]
    assert set(probs.index) == {"start", "x"}
    assert probs["start"] == 0.0 and probs["x"] > 0.99
