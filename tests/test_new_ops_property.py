"""Randomized end-to-end equivalence for late-round-2 operators
(ngram_topk / tfidf_keywords / length_deciles / running_revenue /
pack_blocks / chunk_dedup / quality_filter / length_cdf, plus the
user_reconcile full-outer branches): for seeded random corpora —
including empty texts, irregular whitespace, tied lengths and tied
order dates — the Ray pipeline must equal the DuckDB oracle on the
same parquet files.
"""

import math
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES

_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "the",
          "a", "of", "scan", "merge", "sort", "hash", "key", "row"]


def _write_corpus(tmp_path, seed: int) -> str:
    rs = np.random.RandomState(seed)
    n_docs = int(rs.randint(5, 60))
    texts = []
    for _ in range(n_docs):
        k = int(rs.randint(0, 12))
        words = [_WORDS[i] for i in rs.randint(0, len(_WORDS), k)]
        sep = rs.choice([" ", "  ", " \t ", "\n"])
        t = sep.join(words)
        if rs.rand() < 0.2:
            t = " " + t + "  "
        texts.append(t)
    docs = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts,
        "lang": "en",
        "source": "synth",
        "n_chars": np.int64([len(t) for t in texts])})
    # deliberately skewed/tied n_chars for the decile index rule
    n_orders = int(rs.randint(5, 80))
    orders = pd.DataFrame({
        "o_orderkey": np.arange(n_orders, dtype=np.int64),
        "o_custkey": rs.randint(0, 6, n_orders).astype(np.int64),
        "o_orderstatus": "O",
        "o_totalprice": np.round(rs.rand(n_orders) * 1000, 2),
        "o_orderdate": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rs.randint(0, 5, n_orders), unit="D"),
        "o_orderpriority": "1-URGENT"})
    d = tmp_path / f"sf-{seed}"
    os.makedirs(d, exist_ok=True)
    docs.to_parquet(d / "documents.parquet", index=False)
    orders.to_parquet(d / "orders.parquet", index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def _assert_equal(a: pd.DataFrame, b: pd.DataFrame, name: str):
    a = a[sorted(a.columns)].sort_values(list(sorted(a.columns))) \
        .reset_index(drop=True)
    b = b[sorted(b.columns)].sort_values(list(sorted(b.columns))) \
        .reset_index(drop=True)
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            assert all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                       for x, y in zip(a[c].astype(float), b[c].astype(float))), \
                f"{name}: col {c}"
        else:
            assert (a[c].astype(str) == b[c].astype(str)).all(), \
                f"{name}: col {c}"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["ngram_topk", "tfidf_keywords",
                                  "length_deciles", "running_revenue",
                                  "pack_blocks", "chunk_dedup",
                                  "quality_filter", "length_cdf",
                                  "curate_corpus"])
def test_new_op_matches_oracle_on_random_corpus(ray_session, tmp_path,
                                                seed, name):
    sf_dir = _write_corpus(tmp_path, seed)
    ray_df = QUERIES[name](sf_dir)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    _assert_equal(ray_df, _oracle(sf_dir, ORACLE_SQL[name]), name)


@pytest.mark.parametrize("name", ["ngram_topk", "distinct_users_per_type",
                                  "latest_order_per_customer",
                                  "chunk_dedup", "quality_filter",
                                  "event_type_pivot", "length_cdf",
                                  "revenue_rollup", "top_customers"])
def test_above_gate_distributed_path(ray_session, monkeypatch, name):
    """Force the above-gate branch of the keyed combine (distributed
    reduce, driver never sees the full key space) and check it returns
    the same result as the small-data path."""
    import pdf_oxide_ray.queries as Q
    from pdf_oxide_ray.ops import exchange

    sf = "/root/testdata/sf0.001"
    small = Q.QUERIES[name](sf)
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    big = Q.QUERIES[name](sf)
    a = small.sort_values(list(small.columns)).reset_index(drop=True)
    b = big[small.columns].sort_values(list(small.columns)) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_length_deciles_empty_corpus(ray_session, tmp_path):
    """Empty documents table: NULL per decile, matching the SQL twin
    (previously an IndexError on the empty value histogram)."""
    import os

    import pdf_oxide_ray.queries as Q

    d = tmp_path / "empty"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype=object),
                  "lang": pd.Series([], dtype=object),
                  "source": pd.Series([], dtype=object),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    out = Q.QUERIES["length_deciles"](str(d))
    assert len(out) == 9
    assert out["n_chars"].isna().all()


@pytest.mark.parametrize("seed", [0, 1])
def test_user_reconcile_full_outer_all_branches(ray_session, tmp_path, seed):
    """Random events/customer tables with keys in BOTH-only regions:
    users with events but no customer record (left-only), customers with
    no events (right-only), and the overlap — the Ray bucketed full-outer
    plan must equal DuckDB's FULL OUTER JOIN on every branch."""
    rs = np.random.RandomState(seed)
    n_ev = int(rs.randint(20, 200))
    # user ids 0..29; customers cover only 10..39 => both-only regions
    events = pd.DataFrame({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rs.randint(0, 10_000, n_ev), unit="s"),
        "user_id": rs.randint(0, 30, n_ev).astype(np.int64),
        "event_type": "click",
        "value": 1.0,
        "props": "{}"})
    customer = pd.DataFrame({
        "c_custkey": np.arange(10, 40, dtype=np.int64),
        "c_name": "x", "c_nationkey": np.int64(0),
        "c_acctbal": 0.0, "c_mktsegment": "BUILDING"})
    d = tmp_path / f"rc-{seed}"
    os.makedirs(d, exist_ok=True)
    events.to_parquet(d / "events.parquet", index=False)
    customer.to_parquet(d / "customer.parquet", index=False)

    out = QUERIES["user_reconcile"](str(d))
    con = duckdb.connect()
    for t in ("events", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    gold = con.execute(ORACLE_SQL["user_reconcile"]).fetchdf()
    _assert_equal(out, gold, "user_reconcile")
    assert (~out["is_customer"]).any() and (out["n_events"] == 0).any()


def test_empty_input_parity_new_ops(ray_session, tmp_path):
    """Empty fact tables: each new op must mirror its SQL twin's
    empty-input result (0 rows, or ROLLUP's single all-NULL row)
    instead of raising on the column-less zero-block frame."""
    d = tmp_path / "empty2"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype=object),
                  "lang": pd.Series([], dtype=object),
                  "source": pd.Series([], dtype=object),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                  "o_custkey": pd.Series([], dtype="int64"),
                  "o_totalprice": pd.Series([], dtype="float64")}) \
        .to_parquet(d / "orders.parquet", index=False)
    pd.DataFrame({"c_custkey": [1], "c_nationkey": [0]}) \
        .to_parquet(d / "customer.parquet", index=False)
    pd.DataFrame({"n_nationkey": [0], "n_name": ["A"],
                  "n_regionkey": [0]}).to_parquet(d / "nation.parquet",
                                                  index=False)
    pd.DataFrame({"r_regionkey": [0], "r_name": ["R"]}) \
        .to_parquet(d / "region.parquet", index=False)

    assert len(QUERIES["chunk_dedup"](str(d))) == 0
    assert len(QUERIES["quality_filter"](str(d))) == 0
    assert len(QUERIES["length_cdf"](str(d))) == 0
    roll = QUERIES["revenue_rollup"](str(d))
    assert len(roll) == 1
    assert roll["r_name"].isna().all() and roll["revenue"].isna().all()


def test_empty_input_parity_analytic_ops(ray_session, tmp_path):
    """Empty fact tables across the analytic family: every op must return
    its SQL twin's empty-input shape (0 rows, or funnel's 3 zero-count
    stages) instead of raising on column-less zero-block frames."""
    d = tmp_path / "empty3"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                  "text": pd.Series([], dtype="string"),
                  "lang": pd.Series([], dtype="string"),
                  "source": pd.Series([], dtype="string"),
                  "n_chars": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "documents.parquet", index=False)
    pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                  "ts": pd.Series([], dtype="datetime64[us]"),
                  "user_id": pd.Series([], dtype="int64"),
                  "event_type": pd.Series([], dtype="string"),
                  "value": pd.Series([], dtype="float64"),
                  "props": pd.Series([], dtype="string")}) \
        .to_parquet(d / "events.parquet", index=False)
    pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                  "o_custkey": pd.Series([], dtype="int64"),
                  "o_totalprice": pd.Series([], dtype="float64"),
                  "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                  "o_orderpriority": pd.Series([], dtype="string"),
                  "o_shippriority": pd.Series([], dtype="int64")}) \
        .to_parquet(d / "orders.parquet", index=False)
    pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                  "l_extendedprice": pd.Series([], dtype="float64"),
                  "l_discount": pd.Series([], dtype="float64"),
                  "l_returnflag": pd.Series([], dtype="string"),
                  "l_shipdate": pd.Series([], dtype="datetime64[us]")}) \
        .to_parquet(d / "lineitem.parquet", index=False)
    pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                  "c_name": pd.Series([], dtype="string"),
                  "c_nationkey": pd.Series([], dtype="int64"),
                  "c_acctbal": pd.Series([], dtype="float64"),
                  "c_mktsegment": pd.Series([], dtype="string")}) \
        .to_parquet(d / "customer.parquet", index=False)

    zero_row = ["event_deltas", "rolling_value_sum", "group_topk_docs",
                "group_reservoir", "deterministic_shuffle", "mixture_sample",
                "hll_distinct_users", "shipping_priority",
                "returned_revenue", "user_reconcile",
                "source_length_quantiles"]
    for name in zero_row:
        out = QUERIES[name](str(d))
        assert len(out) == 0, f"{name}: {len(out)} rows on empty input"
    funnel = QUERIES["funnel_conversion"](str(d))
    assert len(funnel) == 3 and (funnel["n_users"] == 0).all()


def test_mixture_sample_nonnumeric_source(ray_session, tmp_path):
    """Source names without a numeric tail: TRY_CAST semantics — the row
    drops on both sides (previously a hard ValueError crash)."""
    d = tmp_path / "mix"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"doc_id": np.arange(20, dtype=np.int64),
                  "text": "x", "lang": "en",
                  "source": ["synth"] * 10 + [f"web{i}" for i in range(10)],
                  "n_chars": np.int64(1)}) \
        .to_parquet(d / "documents.parquet", index=False)
    out = QUERIES["mixture_sample"](str(d))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    gold = con.execute(ORACLE_SQL["mixture_sample"]).fetchdf()
    _assert_equal(out, gold, "mixture_sample")
    assert not out["source"].str.startswith("synth").any()


def test_all_queries_total_on_empty_tables(ray_session, tmp_path):
    """Totality: EVERY table-backed query must run on a fully-empty
    dataset (all 10 tables present, 0 rows) — the all-filtered-slice
    case at 100 TB — instead of crashing on zero-block column-less
    frames, None aggregates, or empty query matrices."""
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    d = tmp_path / "empty_all"
    os.makedirs(d, exist_ok=True)
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        schema = pq.read_schema(f"/root/testdata/sf0.001/{t}.parquet")
        pq.write_table(schema.empty_table(), str(d / f"{t}.parquet"))

    corpus_backed = {"extract_transcripts", "golden_parity", "doc_metadata",
                     "feature_census", "layout_stats", "heading_stats",
                     "structured_elements", "html_output", "pdf_images",
                     "media_features", "frame_sampling"}
    failures = []
    for name, fn in sorted(e.queries().items()):
        if name in corpus_backed:
            continue
        try:
            fn(str(d))
        except Exception as ex:  # noqa: BLE001 - collecting, not hiding
            failures.append(f"{name}: {type(ex).__name__}: {ex}")
    assert not failures, "\n".join(failures)


def test_connected_components_path_graph(ray_session):
    """The CC loop must propagate labels across a diameter-7 path (one
    hop per iteration), not just dense near-clique families: a path
    0-1-...-7 plus a disjoint triangle and an isolated pair."""
    import ray

    from pdf_oxide_ray.queries import _connected_components

    edges = pd.DataFrame({
        "a": [0, 1, 2, 3, 4, 5, 6,   10, 11, 10,   20],
        "b": [1, 2, 3, 4, 5, 6, 7,   11, 12, 12,   21]})
    out = _connected_components(ray.data.from_pandas(edges))
    want = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 20, 21],
        "component": [0] * 8 + [10] * 3 + [20] * 2})
    assert out.reset_index(drop=True).equals(want)


def test_connected_components_reversed_path(ray_session):
    """Worst case for min-label propagation: the minimum id sits at the
    END of the edge ordering (edges given high-to-low), still converges
    to the global min."""
    import ray

    from pdf_oxide_ray.queries import _connected_components

    edges = pd.DataFrame({"a": [9, 8, 7, 6, 5, 4, 3, 2, 1],
                          "b": [8, 7, 6, 5, 4, 3, 2, 1, 0]})
    out = _connected_components(ray.data.from_pandas(edges))
    assert (out["component"] == 0).all() and len(out) == 10


def test_mixture_sample_decimal_source_tail(ray_session, tmp_path):
    """Half-integer/decimal tails: DuckDB TRY_CAST rounds half AWAY
    from zero ('0.5'->1, '2.5'->3), np.rint would round to even —
    regression for the divergence on 'web0.5'-style sources."""
    d = tmp_path / "mixdec"
    os.makedirs(d, exist_ok=True)
    tails = ["0.5", "1.5", "2.5", "3.5", "1.4", "2.6", "0", "3"]
    pd.DataFrame({"doc_id": np.arange(len(tails) * 25, dtype=np.int64),
                  "text": "x", "lang": "en",
                  "source": [f"web{t}" for t in tails] * 25,
                  "n_chars": np.int64(1)}) \
        .to_parquet(d / "documents.parquet", index=False)
    out = QUERIES["mixture_sample"](str(d))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    gold = con.execute(ORACLE_SQL["mixture_sample"]).fetchdf()
    _assert_equal(out, gold, "mixture_sample")


def test_distinct_event_types_null_value(ray_session, tmp_path):
    """A NULL event_type must surface as a row, not silently empty the
    result (regression: the zero-block TypeError guard used to swallow
    the None-vs-str sort TypeError too)."""
    d = tmp_path / "evnull"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({"event_id": np.arange(4, dtype=np.int64),
                  "user_id": np.int64(1),
                  "event_type": ["click", None, "view", "click"],
                  "value": 1.0,
                  "ts": pd.Timestamp("2024-01-01"),
                  "properties": "{}"}) \
        .to_parquet(d / "events.parquet", index=False)
    out = QUERIES["distinct_event_types"](str(d))
    assert len(out) == 3
    assert set(out["event_type"].dropna()) == {"click", "view"}
    assert out["event_type"].isna().sum() == 1
