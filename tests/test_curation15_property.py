"""Round-4p family checks (`decayed_event_popularity`,
`dedup_method_agreement`, `readability_scores`,
`supplier_reliability`): seeded random inputs — including events older
than the 62-bucket decay cap, duplicated + vowel-free + punctuation-
free + empty texts, and single-item suppliers (the Wilson small-n
stress) — must match the DuckDB oracles bit-for-bit; plus invariants
and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_events(tmp_path, seed: int, n_ev: int,
                  ancient: bool = False) -> str:
    rs = np.random.RandomState(seed)
    base = pd.Timestamp("2024-05-01").value // 1000  # us
    ts = base + rs.randint(0, 90 * 86_400_000_000, n_ev) \
        .astype(np.int64)
    if ancient:  # rows past the 62-halflife cap must clamp, not wrap
        ts[: n_ev // 10] = base - 2 * 62 * 7 * 86_400_000_000
    ev = pd.DataFrame({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "user_id": rs.randint(0, 50, n_ev).astype(np.int64),
        "event_type": np.array(["view", "click", "buy"])[
            rs.randint(0, 3, n_ev)].astype(object),
        "value": np.round(rs.rand(n_ev), 2),
        "props": "{}",
        "ts": pd.to_datetime(ts, unit="us")})
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    d = tmp_path / f"cur15e-{seed}-{n_ev}-{int(ancient)}"
    os.makedirs(d, exist_ok=True)
    ev.to_parquet(d / "events.parquet", index=False)
    return str(d)


def _write_docs(tmp_path, seed: int, n_docs: int) -> str:
    rs = np.random.RandomState(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "bcdfg", "xyz"]  # incl. a vowel-free token
    texts = []
    for i in range(n_docs):
        k = rs.randint(0, 40)
        t = " ".join(rs.choice(words, k))
        if k and rs.rand() < 0.5:
            t += "." if rs.rand() < 0.5 else "?! Done."
        texts.append(t)
    for i in range(0, n_docs, 9):  # exact dups for the detectors
        texts[i] = texts[0]
    d = tmp_path / f"cur15d-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series([f"s{i % 4}" for i in range(n_docs)],
                            dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_lineitem(tmp_path, seed: int, n: int) -> str:
    rs = np.random.RandomState(seed)
    sk = rs.randint(0, 40, n).astype(np.int64)
    sk[0] = 999  # a single-item supplier (n=1 Wilson stress)
    li = pd.DataFrame({
        "l_orderkey": np.arange(n, dtype=np.int64),
        "l_partkey": rs.randint(0, 50, n).astype(np.int64),
        "l_suppkey": sk,
        "l_linenumber": np.int32(1),
        "l_quantity": np.float64(1.0),
        "l_extendedprice": np.round(rs.rand(n) * 100, 2),
        "l_discount": np.float64(0.0),
        "l_tax": np.float64(0.0),
        "l_returnflag": np.array(["R", "A", "N"])[
            rs.randint(0, 3, n)].astype(object),
        "l_linestatus": "O",
        "l_shipdate": pd.Timestamp("2024-01-01")})
    li["l_shipdate"] = li["l_shipdate"].astype("datetime64[us]")
    d = tmp_path / f"cur15l-{seed}-{n}"
    os.makedirs(d, exist_ok=True)
    li.to_parquet(d / "lineitem.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "events", "lineitem"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed,ancient", [(0, False), (4, True)])
def test_decay_matches_oracle(ray_session, tmp_path, seed, ancient):
    d = _write_events(tmp_path, seed, 3000, ancient=ancient)
    mine = QUERIES["decayed_event_popularity"](d)
    gold = _oracle(d, ORACLE_SQL["decayed_event_popularity"])
    assert_frames_equal(mine, gold, "decayed_event_popularity")
    # decayed weight can never exceed the raw count
    assert (mine["decayed_weight"]
            <= mine["n_events"].astype(np.float64)).all()


@pytest.mark.parametrize("seed", [1, 7])
def test_doc_ops_match_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 90)
    for name in ("readability_scores", "dedup_method_agreement"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        assert_frames_equal(mine, gold, name)


def test_agreement_elevated_dup_rate(ray_session, tmp_path):
    """Dup-heavy corpus (20 clusters x 6 identical docs -> hundreds of
    pairs per detector): the bucketed distributed intersection must
    match the oracle exactly — this is the regime where driver-side
    pair sets would not be driver-sized at scale."""
    rs = np.random.RandomState(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    templates = [" ".join(rs.choice(words, 30)) for _ in range(20)]
    texts = [templates[i % 20] for i in range(120)]
    d = tmp_path / "cur15-dupheavy"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(120, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series(["s0"] * 120, dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    mine = QUERIES["dedup_method_agreement"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["dedup_method_agreement"])
    assert_frames_equal(mine, gold, "dedup_method_agreement-dupheavy")
    assert int(mine["n_both"].iloc[0]) >= 50  # detectors both fire


def test_readability_edge_docs(ray_session, tmp_path):
    """Empty text, vowel-free text, and no-punctuation text: flesch is
    NULL only for wordless docs; syllables >= words otherwise."""
    d = tmp_path / "cur15r"
    os.makedirs(d, exist_ok=True)
    texts = ["", "bcdfg xyz bcdfg", "plain words no punctuation",
             "One. Two! Three?"]
    pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                  "text": pd.Series(texts, dtype=object),
                  "lang": "en", "source": "s",
                  "n_chars": pd.Series([len(t) for t in texts],
                                       dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    mine = QUERIES["readability_scores"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["readability_scores"])
    assert_frames_equal(mine, gold, "readability_scores")
    assert np.isnan(mine.loc[mine["doc_id"] == 0, "flesch"]).all()
    assert (mine["n_syllables"] >= mine["n_words"]).all()


@pytest.mark.parametrize("seed", [2, 9])
def test_supplier_reliability_matches_oracle(ray_session, tmp_path,
                                             seed):
    d = _write_lineitem(tmp_path, seed, 2500)
    mine = QUERIES["supplier_reliability"](d)
    gold = _oracle(d, ORACLE_SQL["supplier_reliability"])
    assert_frames_equal(mine, gold, "supplier_reliability")
    # Wilson LB is a strict shrink toward 0 from the raw rate
    assert (mine["wilson_lb"] <= mine["return_rate"] + 1e-12).all()
    assert (mine["wilson_lb"] >= 0).all()


def test_empty_input_parity_curation_r4p(ray_session, tmp_path):
    d = tmp_path / "empty15"
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
    pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                  "l_suppkey": pd.Series([], dtype="int64"),
                  "l_returnflag": pd.Series([], dtype=object)}) \
        .to_parquet(d / "lineitem.parquet", index=False)
    for name in ("decayed_event_popularity", "readability_scores",
                 "supplier_reliability"):
        assert len(QUERIES[name](str(d))) == 0, name
    # agreement is a single summary row with NULL agreement on empty
    agg = QUERIES["dedup_method_agreement"](str(d))
    assert len(agg) == 1 and int(agg["n_both"].iloc[0]) == 0
    assert np.isnan(agg["agreement"].iloc[0])
