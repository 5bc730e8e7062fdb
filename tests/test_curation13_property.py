"""Round-4n family checks (`exchange_skew_census`, `debounce_census`):
seeded random event logs — including a single (user, type) burst long
enough to span multiple 4096-row sorted batches (every seam is a
sub-60s lag, so the cross-seam stitch must count them all), timestamp
ties, and single-event users — must match the DuckDB oracles
bit-for-bit; plus bucket-math invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_events(tmp_path, seed: int, n_ev: int,
                  burst: bool = False) -> str:
    rs = np.random.RandomState(seed)
    base = pd.Timestamp("2024-05-01").value // 1000  # us
    user = rs.randint(0, 80, n_ev).astype(np.int64)
    etype = np.array(["view", "click", "buy"])[
        rs.randint(0, 3, n_ev)].astype(object)
    ts = base + rs.randint(0, 10**9, n_ev).astype(np.int64)
    ties = rs.randint(0, n_ev, max(2, n_ev // 50))
    ts[ties] = ts[ties[0]]
    if burst:
        k = int(n_ev * 0.6)  # one user fires every second for 60% of rows
        user[:k] = 7
        etype[:k] = "view"
        ts[:k] = base - 10**10 + np.arange(k, dtype=np.int64) * 1_000_000
    ev = pd.DataFrame({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "user_id": user,
        "event_type": etype,
        "value": np.round(rs.rand(n_ev), 2),
        "props": "{}",
        "ts": pd.to_datetime(ts, unit="us")})
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    d = tmp_path / f"cur13-{seed}-{n_ev}-{int(burst)}"
    os.makedirs(d, exist_ok=True)
    ev.to_parquet(d / "events.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf_dir}/events.parquet')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 5])
def test_family_matches_oracle_random(ray_session, tmp_path, seed):
    d = _write_events(tmp_path, seed, 4000)
    for name in ("exchange_skew_census", "debounce_census"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        assert_frames_equal(mine, gold, name)


def test_debounce_burst_spans_sorted_batches(ray_session, tmp_path):
    """A 6000-row 1-Hz single-(user,type) burst spans 2+ sorted
    4096-row batches; every batch seam inside it is a sub-60s lag the
    driver stitch must count, so an off-by-one there breaks the
    hash."""
    d = _write_events(tmp_path, 3, 10_000, burst=True)
    mine = QUERIES["debounce_census"](d)
    gold = _oracle(d, ORACLE_SQL["debounce_census"])
    assert_frames_equal(mine, gold, "debounce_census")
    view = mine[mine["event_type"] == "view"].iloc[0]
    assert int(view["n_bounce"]) >= 5000  # the burst is all bounces


def test_skew_census_invariants(ray_session, tmp_path):
    d = _write_events(tmp_path, 11, 3000)
    out = QUERIES["exchange_skew_census"](d)
    assert int(out["n_rows"].sum()) == 3000
    assert (out["bucket"] >= 0).all() and (out["bucket"] < 64).all()
    assert (out["n_keys"] <= out["n_rows"]).all()


def test_empty_input_parity_curation_r4n(ray_session, tmp_path):
    d = tmp_path / "empty13"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                  "ts": pd.Series([], dtype="datetime64[us]"),
                  "user_id": pd.Series([], dtype="int64"),
                  "event_type": pd.Series([], dtype=object),
                  "value": pd.Series([], dtype="float64"),
                  "props": pd.Series([], dtype=object)}) \
        .to_parquet(d / "events.parquet", index=False)
    for name in ("exchange_skew_census", "debounce_census"):
        assert len(QUERIES[name](str(d))) == 0, name
