"""The multi-word bitmask path (``functions/bitmask.py``): the three
set-coverage queries (``loyal_users`` / ``user_type_breadth`` /
``source_vocab_overlap``) must match their DuckDB twins on domains
WIDER than one 63-bit word — the shape the old ``NotImplementedError``
guards refused (>63 event types / sources → 2-3 mask words)."""

import math
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.functions import bitmask as bm
from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES


def _write_wide_tables(tmp_path, seed: int, n_types: int,
                       n_sources: int) -> str:
    rs = np.random.RandomState(seed)
    n_events = int(rs.randint(300, 900))
    n_users = int(rs.randint(5, 25))
    types = [f"type_{i:03d}" for i in range(n_types)]
    events = pd.DataFrame({
        "event_id": np.arange(n_events, dtype=np.int64),
        "user_id": rs.randint(0, n_users, n_events).astype(np.int64),
        "event_type": [types[i] for i in
                       rs.randint(0, n_types, n_events)],
        "value": np.round(rs.rand(n_events) * 100, 2),
        "ts": pd.to_datetime("2024-03-01")
        + pd.to_timedelta(rs.randint(0, 86400, n_events), unit="s")})
    # guarantee at least one loyal user (covers every type) so the
    # division result is non-trivial
    full = pd.DataFrame({
        "event_id": np.arange(n_events, n_events + n_types,
                              dtype=np.int64),
        "user_id": np.int64(0),
        "event_type": types,
        "value": 1.0,
        "ts": pd.to_datetime("2024-03-02")})
    events = pd.concat([events, full], ignore_index=True)

    sources = [f"src_{i:03d}" for i in range(n_sources)]
    vocab = [f"w{i}" for i in range(40)]
    n_docs = int(rs.randint(100, 250))
    texts, srcs = [], []
    for _ in range(n_docs):
        k = int(rs.randint(0, 8))
        texts.append(" ".join(vocab[i]
                              for i in rs.randint(0, len(vocab), k)))
        srcs.append(sources[int(rs.randint(0, n_sources))])
    docs = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts, "lang": "en",
        "source": srcs,
        "n_chars": np.int64([len(t) for t in texts])})
    d = tmp_path / f"wide-{seed}"
    os.makedirs(d, exist_ok=True)
    events.to_parquet(d / "events.parquet", index=False)
    docs.to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def _assert_equal(a: pd.DataFrame, b: pd.DataFrame, name: str):
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[sorted(b.columns)].sort_values(sorted(b.columns)) \
        .reset_index(drop=True)
    assert list(a.columns) == list(b.columns), name
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            assert all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                       for x, y in zip(a[c].astype(float),
                                       b[c].astype(float))), \
                f"{name}: col {c}"
        else:
            assert (a[c].astype(str) == b[c].astype(str)).all(), \
                f"{name}: col {c}"


@pytest.mark.parametrize("seed,n_types,n_sources",
                         [(0, 130, 70), (1, 64, 127), (2, 190, 66)])
@pytest.mark.parametrize("name", ["loyal_users", "user_type_breadth",
                                  "source_vocab_overlap"])
def test_wide_domain_matches_oracle(ray_session, tmp_path, seed,
                                    n_types, n_sources, name):
    sf_dir = _write_wide_tables(tmp_path, seed, n_types, n_sources)
    ray_df = QUERIES[name](sf_dir)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    _assert_equal(ray_df, _oracle(sf_dir, ORACLE_SQL[name]), name)


def test_helpers_roundtrip():
    """encode → or_by_key → unpack/popcount/full recovers the set."""
    rs = np.random.RandomState(7)
    n_domain = 200
    nw = bm.n_words(n_domain)
    assert nw == 4  # 200/63
    codes = rs.randint(0, n_domain, 500).astype(np.int64)
    keys = rs.randint(0, 20, 500).astype(np.int64)
    df = bm.or_by_key(keys, bm.encode_codes(codes, nw), "k")
    # expected per-key sets
    exp = {}
    for k, c in zip(keys, codes):
        exp.setdefault(int(k), set()).add(int(c))
    bits = bm.unpack_bits(df, nw, n_domain)
    pc = bm.popcount(df, nw, n_domain)
    for i, k in enumerate(df["k"].to_numpy()):
        got = set(np.flatnonzero(bits[i]).tolist())
        assert got == exp[int(k)]
        assert pc[i] == len(exp[int(k)])
    # full-mask values cover exactly n_domain bits
    full = bm.full_mask_values(nw, n_domain)
    assert sum(bin(f).count("1") for f in full) == n_domain
    assert all(f >= 0 for f in full)


def test_single_word_domain_unchanged(ray_session):
    """<=63-type domains (the sf0.001 tables) still match the oracle
    through the generalized helpers."""
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    for name in ("loyal_users", "user_type_breadth",
                 "source_vocab_overlap"):
        ray_df = QUERIES[name](sf)
        if not isinstance(ray_df, pd.DataFrame):
            ray_df = ray_df.to_pandas()
        _assert_equal(ray_df, con.execute(ORACLE_SQL[name]).fetchdf(),
                      name)


def test_bitmask_above_gate_distributed_path(ray_session, monkeypatch):
    """Force the above-gate branch of the keyed combine (bucketed
    ``bm.fold_or`` per key set) and require the same frames as the
    driver-fold path / the oracle."""
    from pdf_oxide_ray.ops import exchange

    sf = "/root/testdata/sf0.001"
    small = {n: QUERIES[n](sf)
             for n in ("loyal_users", "user_type_breadth",
                       "source_vocab_overlap")}
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    for name, want in small.items():
        got = QUERIES[name](sf)
        _assert_equal(got, want, f"{name} above-gate")
