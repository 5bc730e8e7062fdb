"""Round-4ad family checks (`bounce_rate`, `negative_sampling_table`,
`funnel_latency`): seeded random inputs plus forced shapes — a gap of
EXACTLY 30 minutes (same session: the rule is strictly greater),
single-event bounce sessions, count ties in the sampling table (n
DESC, token ASC), a purchase-before-view user (excluded), zero
latency (purchase at the same instant as the view), and a corpus
with no conversions (the twin's (0, NULL...) aggregate row) — must
match the DuckDB oracles bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "documents"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_events(d, user_ids, offsets_s, types):
    os.makedirs(d, exist_ok=True)
    n = len(user_ids)
    base = pd.Timestamp("2024-01-01").value // 1000
    pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            base + np.asarray(offsets_s, dtype=np.int64) * 1_000_000,
            unit="us").astype("datetime64[us]"),
        "user_id": np.asarray(user_ids, dtype=np.int64),
        "event_type": pd.Series(types, dtype=object),
        "value": 1.0, "props": "{}",
    }).to_parquet(d / "events.parquet", index=False)
    return str(d)


def _write_docs(d, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en", "source": "s0",
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 19])
def test_bounce_rate_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 700
    offs = np.sort(rng.integers(0, 500_000, n))
    d = _write_events(tmp_path / f"br-{seed}",
                      rng.integers(0, 60, n), offs,
                      rng.choice(["view", "click", "buy"], n))
    mine = QUERIES["bounce_rate"](d)
    gold = _oracle(d, ORACLE_SQL["bounce_rate"])
    assert_frames_equal(mine, gold, "bounce_rate")


def test_bounce_rate_exact_gap_and_bounces(ray_session, tmp_path):
    """user 1: events at 0s and exactly +1800s (ONE session — the rule
    is strictly >30min), then +1801s later (a new session, single
    event = a bounce entered by its own type)."""
    d = _write_events(tmp_path / "br-forced",
                      [1, 1, 1, 2],
                      [0, 1800, 1800 + 1801, 50],
                      ["view", "click", "buy", "view"])
    mine = QUERIES["bounce_rate"](d)
    gold = _oracle(d, ORACLE_SQL["bounce_rate"])
    assert_frames_equal(mine, gold, "bounce_rate-forced")
    m = mine.set_index("entry_type")
    # user1: session(view,click) + session(buy-bounce); user2: view-bounce
    assert int(m.loc["view", "n_sessions"]) == 2
    assert int(m.loc["buy", "n_bounces"]) == 1
    assert m.loc["view", "avg_session_events"] == 1.5


@pytest.mark.parametrize("seed", [5, 41])
def test_negative_sampling_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(80)]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 40)))
             for _ in range(150)]
    d = _write_docs(tmp_path / f"neg-{seed}", texts)
    mine = QUERIES["negative_sampling_table"](d)
    gold = _oracle(d, ORACLE_SQL["negative_sampling_table"])
    assert_frames_equal(mine, gold, "negative_sampling_table")
    assert len(mine) == 50
    assert abs(mine["neg_prob"].sum() - 1.0) < 1e-9


def test_negative_sampling_ties_and_small_vocab(ray_session, tmp_path):
    """All counts tied -> the (n DESC, token ASC) cut keeps the 50
    lexicographically-smallest; a 3-token corpus keeps all 3."""
    texts = [f"t{i:03d}" for i in range(60)]   # 60 tokens, count 1 each
    d = _write_docs(tmp_path / "neg-tie", texts)
    mine = QUERIES["negative_sampling_table"](d)
    gold = _oracle(d, ORACLE_SQL["negative_sampling_table"])
    assert_frames_equal(mine, gold, "negative_sampling-ties")
    assert mine["token"].tolist() == sorted(mine["token"])[:50]
    d2 = _write_docs(tmp_path / "neg-small", ["a a a", "b b", "c"])
    mine2 = QUERIES["negative_sampling_table"](d2)
    gold2 = _oracle(d2, ORACLE_SQL["negative_sampling_table"])
    assert_frames_equal(mine2, gold2, "negative_sampling-small")
    assert mine2["token"].tolist() == ["a", "b", "c"]


@pytest.mark.parametrize("seed", [7, 53])
def test_funnel_latency_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 600
    d = _write_events(tmp_path / f"fl-{seed}",
                      rng.integers(0, 80, n),
                      rng.integers(0, 400_000, n),
                      rng.choice(["view", "purchase", "click"], n,
                                 p=[0.5, 0.2, 0.3]))
    mine = QUERIES["funnel_latency"](d)
    gold = _oracle(d, ORACLE_SQL["funnel_latency"])
    assert_frames_equal(mine, gold, "funnel_latency")


def test_funnel_latency_forced(ray_session, tmp_path):
    """user1 converts with latency 90s; user2 purchased BEFORE first
    view (excluded); user3 purchase at the same second as the view
    (latency 0, kept)."""
    d = _write_events(
        tmp_path / "fl-forced",
        [1, 1, 2, 2, 3, 3],
        [100, 190, 500, 400, 700, 700],
        ["view", "purchase", "view", "purchase", "view", "purchase"])
    mine = QUERIES["funnel_latency"](d)
    gold = _oracle(d, ORACLE_SQL["funnel_latency"])
    assert_frames_equal(mine, gold, "funnel_latency-forced")
    assert int(mine["n_converted"].iloc[0]) == 2
    assert mine["p50_s"].iloc[0] == 0.0
    assert mine["p99_s"].iloc[0] == 90.0
    # no purchases at all -> the aggregate's (0, NULL...) row
    d2 = _write_events(tmp_path / "fl-none", [1, 2], [0, 10],
                       ["view", "view"])
    mine2 = QUERIES["funnel_latency"](d2)
    gold2 = _oracle(d2, ORACLE_SQL["funnel_latency"])
    assert_frames_equal(mine2, gold2, "funnel_latency-none")
    assert int(mine2["n_converted"].iloc[0]) == 0
