"""Round-4z family checks (`value_psi_weekly`, `glove_cooc_topk`):
seeded random inputs plus forced shapes — a shifted-distribution week
(PSI must spike), an identical-distribution week (PSI ~ 0), empty
reference bins (the 1e-9 clamp path), window-4 pairs across short
docs and tie-heavy weights — must match the DuckDB oracles
bit-for-bit; plus invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal

_WEEK_US = 7 * 86_400_000_000


def _write_events(tmp_path, tag: str, weeks, values) -> str:
    """weeks: per-event epoch-week index; values: per-event value."""
    base = pd.Timestamp("2024-01-01").value // 1000
    w0 = base // _WEEK_US + 1          # first full epoch week
    ts = (np.asarray(weeks, dtype=np.int64) + w0) * _WEEK_US \
        + np.arange(len(weeks), dtype=np.int64) * 1_000_000
    d = tmp_path / f"cur25-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "event_id": np.arange(len(weeks), dtype=np.int64),
        "ts": pd.to_datetime(ts, unit="us").astype("datetime64[us]"),
        "user_id": np.arange(len(weeks), dtype=np.int64) % 17,
        "event_type": "view",
        "value": np.round(np.asarray(values, dtype=np.float64), 2),
        "props": "{}",
    }).to_parquet(d / "events.parquet", index=False)
    return str(d)


def _write_docs(tmp_path, tag: str, texts) -> str:
    d = tmp_path / f"cur25d-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en", "source": "s0",
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "documents"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 7])
def test_value_psi_matches_oracle(ray_session, tmp_path, seed):
    rs = np.random.RandomState(seed)
    n = 600
    weeks = rs.randint(0, 4, n)
    values = rs.gamma(2.0, 10.0, n)
    values[weeks == 3] *= 3.0          # week 3: a real shift
    d = _write_events(tmp_path, f"psi{seed}", weeks, values)
    mine = QUERIES["value_psi_weekly"](d)
    gold = _oracle(d, ORACLE_SQL["value_psi_weekly"])
    assert_frames_equal(mine, gold, "value_psi_weekly")
    by = mine.set_index("week")["psi"]
    assert by.iloc[0] == 0.0           # reference week vs itself
    assert by.iloc[-1] > by.iloc[1]    # the shifted week spikes
    assert (mine["psi"] >= 0).all()    # PSI is non-negative


def test_value_psi_identical_weeks(ray_session, tmp_path):
    """Two weeks with the SAME value multiset -> PSI exactly 0."""
    vals = [1.0, 2.0, 3.5, 7.25, 2.0] * 8
    weeks = [0] * 40 + [1] * 40
    d = _write_events(tmp_path, "same", weeks, vals + vals)
    mine = QUERIES["value_psi_weekly"](d)
    gold = _oracle(d, ORACLE_SQL["value_psi_weekly"])
    assert_frames_equal(mine, gold, "value_psi_weekly-same")
    assert mine["psi"].tolist() == [0.0, 0.0]


def test_value_psi_disjoint_week_clamp(ray_session, tmp_path):
    """A later week entirely above the reference max exercises the
    1e-9 clamp (reference bins empty on one side) identically."""
    weeks = [0] * 30 + [1] * 30
    vals = list(np.linspace(1, 10, 30)) + list(np.linspace(500, 600, 30))
    d = _write_events(tmp_path, "clamp", weeks, vals)
    mine = QUERIES["value_psi_weekly"](d)
    gold = _oracle(d, ORACLE_SQL["value_psi_weekly"])
    assert_frames_equal(mine, gold, "value_psi_weekly-clamp")
    assert mine["psi"].iloc[1] > 1.0   # massive drift


@pytest.mark.parametrize("seed", [1, 9])
def test_glove_cooc_matches_oracle(ray_session, tmp_path, seed):
    rs = np.random.RandomState(seed)
    words = np.array([f"w{i:02d}" for i in range(25)], dtype=object)
    texts = [" ".join(words[rs.randint(0, 25, rs.randint(1, 40))])
             for _ in range(150)]
    d = _write_docs(tmp_path, f"cooc{seed}", texts)
    mine = QUERIES["glove_cooc_topk"](d)
    gold = _oracle(d, ORACLE_SQL["glove_cooc_topk"])
    assert_frames_equal(mine, gold, "glove_cooc_topk")
    assert len(mine) == 50
    assert (mine["tok_a"] <= mine["tok_b"]).all()
    ws = mine["weight"].to_numpy(np.int64)
    assert (np.diff(ws) <= 0).all()    # sorted by weight desc


def test_glove_cooc_exact_weights(ray_session, tmp_path):
    """One doc 'a b c d e a': hand-checkable harmonic weights; pairs
    never cross doc boundaries (the second doc shares no tokens)."""
    d = _write_docs(tmp_path, "tiny", ["a b c d e a", "x y"])
    mine = QUERIES["glove_cooc_topk"](d)
    gold = _oracle(d, ORACLE_SQL["glove_cooc_topk"])
    assert_frames_equal(mine, gold, "glove_cooc_topk-tiny")
    m = mine.set_index(["tok_a", "tok_b"])["weight"]
    # (a,b): d=1 -> 12; plus (b, a@pos6) d=4 -> 3 => 15
    assert int(m.loc[("a", "b")]) == 15
    # (a,e): d=4 -> 3; plus (e, a@pos6) d=1 -> 12 => 15
    assert int(m.loc[("a", "e")]) == 15
    # (a,a): pos1->pos6 d=5 out of window -> absent
    assert ("a", "a") not in m.index
    assert int(m.loc[("x", "y")]) == 12


def test_empty_input_parity_curation_r4z(ray_session, tmp_path):
    d = tmp_path / "empty25"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                  "ts": pd.Series([], dtype="datetime64[us]"),
                  "user_id": pd.Series([], dtype="int64"),
                  "event_type": pd.Series([], dtype="string"),
                  "value": pd.Series([], dtype="float64"),
                  "props": pd.Series([], dtype="string")}) \
        .to_parquet(d / "events.parquet", index=False)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    for name in ("value_psi_weekly", "glove_cooc_topk"):
        assert len(QUERIES[name](str(d))) == 0, name
