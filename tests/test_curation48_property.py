"""Round-5q checks (`jackknife_variance`): seeded random inputs plus
forced shapes — clustered group means (jackknife SE far above the
naive SE, the case the op exists for), a single group (NULL
jackknife), price magnitudes that overflow int64 Σcents² (the hi/lo
split), and empty inputs — must match the DuckDB oracle
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
    for t in ("orders", "customer"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write(d, custkeys, prices, nations):
    os.makedirs(d, exist_ok=True)
    n = len(custkeys)
    pd.DataFrame({
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": np.asarray(custkeys, dtype=np.int64),
        "o_orderstatus": "O",
        "o_totalprice": np.asarray(prices, dtype=np.float64),
        "o_orderdate": pd.Timestamp("2024-01-01"),
        "o_orderpriority": "1-URGENT",
    }).to_parquet(d / "orders.parquet", index=False)
    ck = np.unique(np.asarray(custkeys, dtype=np.int64)) \
        if n else np.array([0], dtype=np.int64)
    pd.DataFrame({
        "c_custkey": ck,
        "c_nationkey": np.asarray([nations[int(c)] for c in ck],
                                  dtype=np.int64),
        "c_acctbal": 0.0,
    }).to_parquet(d / "customer.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 21])
def test_jackknife_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    cust = rng.integers(0, 50, 600)
    nations = {c: c % 7 for c in range(50)}
    prices = np.round(rng.uniform(10, 9000, 600), 2)
    d = _write(tmp_path / f"jk-{seed}", cust, prices, nations)
    mine = QUERIES["jackknife_variance"](d)
    gold = _oracle(d, ORACLE_SQL["jackknife_variance"])
    assert_frames_equal(mine, gold, "jackknife_variance")
    assert int(mine["n_groups"].iloc[0]) == 7


def test_jackknife_clustered_inflation(ray_session, tmp_path):
    """Group means differ wildly while within-group variance is tiny:
    the cluster-robust jackknife SE must dwarf the naive SE."""
    rng = np.random.default_rng(3)
    cust, prices = [], []
    nations = {}
    for g in range(5):
        for c in range(g * 10, g * 10 + 10):
            nations[c] = g
        for _ in range(40):
            cust.append(rng.integers(g * 10, g * 10 + 10))
            prices.append(1000.0 * (g + 1)
                          + round(rng.uniform(-1, 1), 2))
    d = _write(tmp_path / "jk-clustered", cust, prices, nations)
    mine = QUERIES["jackknife_variance"](d)
    gold = _oracle(d, ORACLE_SQL["jackknife_variance"])
    assert_frames_equal(mine, gold, "jackknife_variance-clustered")
    r = mine.iloc[0]
    assert r["se_jackknife"] > 3 * r["se_naive"]


def test_jackknife_single_group(ray_session, tmp_path):
    nations = {c: 0 for c in range(5)}
    d = _write(tmp_path / "jk-one", [0, 1, 2, 3, 4],
               [10.0, 20.0, 30.0, 40.0, 50.0], nations)
    mine = QUERIES["jackknife_variance"](d)
    gold = _oracle(d, ORACLE_SQL["jackknife_variance"])
    assert_frames_equal(mine, gold, "jackknife_variance-one")
    assert np.isnan(mine["se_jackknife"].iloc[0])


def test_jackknife_overflow_prices(ray_session, tmp_path):
    """Many max-magnitude prices: Σ cents² passes 2^63 and must ride
    the hi/lo split exactly."""
    rng = np.random.default_rng(9)
    n = 30000
    cust = rng.integers(0, 20, n)
    nations = {c: c % 4 for c in range(20)}
    prices = np.full(n, 99_999_999.99)
    d = _write(tmp_path / "jk-overflow", cust, prices, nations)
    mine = QUERIES["jackknife_variance"](d)
    gold = _oracle(d, ORACLE_SQL["jackknife_variance"])
    assert_frames_equal(mine, gold, "jackknife_variance-overflow")
    assert mine["se_naive"].iloc[0] == 0.0  # constant prices
