"""Round-4o family checks (`dup_coverage`, `interarrival_percentiles`,
`split_balance`, `user_event_entropy`): seeded random corpora/event
logs — including duplicated + near-duplicated + short (< k) + empty
texts for the fingerprint path, a single-type burst spanning multiple
4096-row sorted batches for the seam stitch, timestamp ties, and
single-event users — must match the DuckDB oracles bit-for-bit; plus
invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_docs: int) -> str:
    rs = np.random.RandomState(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "theta", "kappa", "lambda", "sigma"]
    texts = []
    for i in range(n_docs):
        k = rs.randint(0, 60)
        texts.append(" ".join(rs.choice(words, k)) if k else "")
    # exact duplicates + a shared-prefix near-dup + sub-k shorties
    for i in range(0, n_docs, 7):
        texts[i] = texts[0]
    if n_docs > 3:
        texts[3] = texts[0] + " coda"
        texts[2] = "tiny"  # < k=16 chars -> whole-string fingerprint
    d = tmp_path / f"cur14d-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"s{i % 5}" for i in range(n_docs)],
                            dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


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
        k = int(n_ev * 0.6)  # one type fires sub-second for 60% of rows
        etype[:k] = "view"
        ts[:k] = base - 10**10 + np.arange(k, dtype=np.int64) * 700_000
    ev = pd.DataFrame({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "user_id": user,
        "event_type": etype,
        "value": np.round(rs.rand(n_ev), 2),
        "props": "{}",
        "ts": pd.to_datetime(ts, unit="us")})
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    d = tmp_path / f"cur14e-{seed}-{n_ev}-{int(burst)}"
    os.makedirs(d, exist_ok=True)
    ev.to_parquet(d / "events.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "events"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 5])
def test_doc_ops_match_oracle_random(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 120)
    for name in ("dup_coverage", "split_balance"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        assert_frames_equal(mine, gold, name)


@pytest.mark.parametrize("seed", [1, 6])
def test_event_ops_match_oracle_random(ray_session, tmp_path, seed):
    d = _write_events(tmp_path, seed, 4000)
    for name in ("interarrival_percentiles", "user_event_entropy"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        assert_frames_equal(mine, gold, name)


def test_dup_coverage_invariants(ray_session, tmp_path):
    """Exact duplicates have coverage 1.0; the empty-text doc is
    absent; n_shared <= n_fp everywhere."""
    d = _write_docs(tmp_path, 2, 60)
    out = QUERIES["dup_coverage"](d)
    docs = pd.read_parquet(os.path.join(d, "documents.parquet"))
    empties = set(docs.loc[docs["n_chars"] == 0, "doc_id"])
    assert not (set(out["doc_id"]) & empties)
    assert (out["n_shared"] <= out["n_fp"]).all()
    dup_ids = [i for i in range(0, 60, 7)]
    cov = out.set_index("doc_id")["coverage"]
    assert all(cov.get(i, 0.0) == 1.0 for i in dup_ids
               if i in cov.index)


def test_interarrival_burst_spans_sorted_batches(ray_session, tmp_path):
    """A 6000-row 0.7s-cadence single-type burst spans 2+ sorted
    4096-row batches; every seam inside it is a gap the driver stitch
    must fold into the histogram, so an off-by-one breaks the hash —
    and the p50 must be the sub-second bucket 0."""
    d = _write_events(tmp_path, 3, 10_000, burst=True)
    mine = QUERIES["interarrival_percentiles"](d)
    gold = _oracle(d, ORACLE_SQL["interarrival_percentiles"])
    assert_frames_equal(mine, gold, "interarrival_percentiles")
    view = mine[mine["event_type"] == "view"].iloc[0]
    assert int(view["p50_s"]) == 0


def test_user_event_entropy_bounds(ray_session, tmp_path):
    """0 <= H <= log2-free upper bound ln(n_types) (+quantization
    slack); single-type users have exactly 0."""
    d = _write_events(tmp_path, 9, 3000)
    out = QUERIES["user_event_entropy"](d)
    assert (out["entropy"] >= 0).all()
    ub = np.log(out["n_types"].to_numpy(np.float64)) + 1e-5
    assert (out["entropy"].to_numpy(np.float64) <= ub).all()
    single = out[out["n_types"] == 1]
    if len(single):
        assert (single["entropy"] == 0.0).all()


def test_empty_input_parity_curation_r4o(ray_session, tmp_path):
    d = tmp_path / "empty14"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype=object),
                  "lang": pd.Series([], dtype=object),
                  "source": pd.Series([], dtype=object),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                  "ts": pd.Series([], dtype="datetime64[us]"),
                  "user_id": pd.Series([], dtype="int64"),
                  "event_type": pd.Series([], dtype=object),
                  "value": pd.Series([], dtype="float64"),
                  "props": pd.Series([], dtype=object)}) \
        .to_parquet(d / "events.parquet", index=False)
    for name in ("dup_coverage", "interarrival_percentiles",
                 "split_balance", "user_event_entropy"):
        assert len(QUERIES[name](str(d))) == 0, name
