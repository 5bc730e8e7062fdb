"""Round-5n checks (`session_gap_grid`): seeded random inputs plus
forced shapes — gaps exactly AT a threshold (<= keeps the session
together on both sides), single-event users (one session, zero
duration), cross-batch session boundaries (the stitch path), and
the empty table — must match the DuckDB oracle bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "events.parquet")
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_events(d, user_ids, ts_us):
    os.makedirs(d, exist_ok=True)
    n = len(user_ids)
    base = pd.Timestamp("2024-01-01").value // 1000
    pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(base + np.asarray(ts_us, dtype=np.int64),
                             unit="us").astype("datetime64[us]"),
        "user_id": np.asarray(user_ids, dtype=np.int64),
        "event_type": pd.Series(["view"] * n, dtype="string"),
        "value": 1.0, "props": "{}",
    }).to_parquet(d / "events.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 31])
def test_gap_grid_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 5000  # > batch_size 4096: forces the boundary-stitch path
    users = rng.integers(0, 60, n)
    ts = rng.integers(0, 30 * 86_400_000_000, n)
    d = _write_events(tmp_path / f"sgg-{seed}", users, ts)
    mine = QUERIES["session_gap_grid"](d)
    gold = _oracle(d, ORACLE_SQL["session_gap_grid"])
    assert_frames_equal(mine, gold, "session_gap_grid")
    m = mine.sort_values("gap_minutes")
    # wider timeouts can only merge sessions
    assert (np.diff(m["n_sessions"].to_numpy()) <= 0).all()


def test_gap_grid_threshold_boundary(ray_session, tmp_path):
    """User 1's two events are EXACTLY 10 minutes apart (<= keeps
    them one session at every threshold); user 2's are 10 min + 1 µs
    apart (two sessions at the 10-min timeout, one at 30/60)."""
    users = [1, 1, 2, 2, 3]
    ts = [0, 600_000_000,
          10_000_000_000, 10_000_000_000 + 600_000_001,
          99_000_000_000]
    d = _write_events(tmp_path / "sgg-bound", users, ts)
    mine = QUERIES["session_gap_grid"](d)
    gold = _oracle(d, ORACLE_SQL["session_gap_grid"])
    assert_frames_equal(mine, gold, "session_gap_grid-bound")
    m = mine.set_index("gap_minutes")
    assert int(m.loc[10, "n_sessions"]) == 4  # u2 splits
    assert int(m.loc[30, "n_sessions"]) == 3
    assert int(m.loc[60, "n_sessions"]) == 3


def test_gap_grid_empty(ray_session, tmp_path):
    d = _write_events(tmp_path / "sgg-empty", [], [])
    mine = QUERIES["session_gap_grid"](d)
    gold = _oracle(d, ORACLE_SQL["session_gap_grid"])
    assert_frames_equal(mine, gold, "session_gap_grid-empty")
    assert len(mine) == 3 and (mine["n_sessions"] == 0).all()
