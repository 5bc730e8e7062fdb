"""Run every queries() entry against its DuckDB oracle at sf0.001 —
the same compare the driver performs at sf0.01 (row count + sorted-column
value equality)."""

import math
import os

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def _compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame, name: str):
    a, b = _canon(ray_df), _canon(sql_df)
    assert list(a.columns) == list(b.columns), \
        f"{name}: columns {list(a.columns)} vs {list(b.columns)}"
    assert len(a) == len(b), f"{name}: rows {len(a)} vs {len(b)}"
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            av = a[c].astype(float).to_numpy()
            bv = b[c].astype(float).to_numpy()
            # NaN==NaN is a MATCH: engine NaN mirrors SQL NULL (e.g. a
            # SUM over an all-filtered slice), and the driver's hash
            # formats both sides identically
            ok = all((math.isnan(x) and math.isnan(y))
                     or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                     for x, y in zip(av, bv))
            assert ok, f"{name}: float col {c} differs"
        else:
            assert (a[c].astype(str) == b[c].astype(str)).all(), \
                f"{name}: col {c} differs"


def _sql_checked_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql().keys())


# Parametrized over EVERY oracle_sql() entry so a new oracle can never
# land without a pytest twin (the old hand-maintained list had drifted
# 11 entries behind the registry).
@pytest.mark.parametrize("name", _sql_checked_names())
def test_query_vs_oracle(ray_session, oracle_con, name):
    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    assert name in qs and name in sqls
    ray_df = qs[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    sql_df = oracle_con.execute(sqls[name]).fetchdf()
    _compare(ray_df, sql_df, name)


def test_every_sql_entry_has_query():
    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    missing = set(sqls) - set(qs)
    assert not missing


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    rows_only = sorted(set(qs) - set(sqls) - {"extract_transcripts",
                                              "golden_parity"})
    for name in rows_only:
        out = qs[name](SF_DIR)
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert out is not None and len(out) >= 0, name


def test_entry_and_flagship_queries(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    df = ds.to_pandas()
    assert len(df) > 0
    assert {"conv_id", "turn_idx", "extracted_text", "status"} <= set(df.columns)

    parity = e.queries()["golden_parity"](SF_DIR)
    assert parity["n_rows"].iloc[0] == parity["n_matched"].iloc[0]
    assert parity["n_errors"].iloc[0] == 0


def test_winnow_fingerprints_shared_substring():
    """Winnowing guarantee: a shared substring of length >= k + w - 1
    yields at least one shared fingerprint."""
    from pdf_oxide_ray.functions.textops import winnow_fingerprints

    shared = "the quick brown fox jumps over the lazy dog"
    a = winnow_fingerprints("AAA " + shared + " BBB")
    b = winnow_fingerprints("CCC " + shared + " DDD")
    assert len(set(a.tolist()) & set(b.tolist())) > 0
    # disjoint texts share (almost surely) nothing
    c = winnow_fingerprints("completely different content here entirely")
    assert len(set(a.tolist()) & set(c.tolist())) == 0
    # deterministic + short-input safe
    assert (winnow_fingerprints("tiny") == winnow_fingerprints("tiny")).all()
    assert len(winnow_fingerprints("")) == 0


def test_ivf_equals_brute_force_when_probing_all(ray_session):
    """IVF with n_probe == n_lists scores every list — must reproduce the
    exact brute-force top-k; with fewer probes recall stays high."""
    import numpy as np
    import ray.data as rd

    from pdf_oxide_ray.functions import similarity as fsim

    rs = np.random.RandomState(3)
    vecs = rs.randn(400, 32)
    tbl = {"vec_id": list(range(400)), "embedding": [v for v in vecs]}
    import pandas as pd
    ds = rd.from_pandas(pd.DataFrame(tbl)).repartition(8)
    queries = vecs[:3] + rs.randn(3, 32) * 0.01
    centroids = fsim.train_ivf_centroids(vecs, n_lists=8)

    exact = fsim.brute_force_topk(ds, queries, k=5)
    full_probe = fsim.ivf_topk(ds, queries, centroids, k=5, n_probe=8)
    e = exact.sort_values(["query_id", "rank"]).reset_index(drop=True)
    f = full_probe.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert (e["vec_id"] == f["vec_id"]).all()

    approx = fsim.ivf_topk(ds, queries, centroids, k=5, n_probe=3)
    hits = 0
    for qid in range(3):
        es = set(e.loc[e["query_id"] == qid, "vec_id"])
        as_ = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        hits += len(es & as_)
    assert hits / 15 >= 0.6  # recall@5 with 3/8 lists probed


def test_minhash_hot_band_star_keeps_large_families(ray_session, tmp_path):
    """65+ near-identical docs exceed the hot-band pair guard; the star
    fallback must still cluster the whole family (union-find needs only
    a spanning set of verified edges)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_oxide_ray.queries import _MINHASH_HOT_BAND, q_minhash_dedup

    n = _MINHASH_HOT_BAND + 6
    base = ("the quick brown fox jumps over the lazy dog and keeps "
            "running through the quiet field toward the river bank")
    docs = [base + (" again" if i % 2 else "") for i in range(n)]
    docs += ["completely unrelated text about database query engines "
             "and vectorized execution plans"] * 1
    tbl = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = q_minhash_dedup(str(tmp_path))
    # the family of n docs forms one cluster rooted at doc 0
    assert len(out) == n
    assert set(out["cluster_root"]) == {0}
    assert set(out["doc_id"]) == set(range(n))


def test_doc_embed_knn_self_hit(ray_session):
    """End-to-end embed+ANN invariant: each query doc's own vector is its
    top hit at score 1.0 (the embedder L2-normalizes)."""
    from pdf_oxide_ray.queries import q_doc_embed_knn

    out = q_doc_embed_knn(SF_DIR)
    for qid in out["query_id"].unique():
        sub = out[out["query_id"] == qid].sort_values("score",
                                                      ascending=False)
        assert sub.iloc[0]["vec_id"] == qid
        assert abs(sub.iloc[0]["score"] - 1.0) < 1e-6


def test_heading_stats_content(ray_session):
    """heading_stats: every classified block lands in exactly one level
    bucket, so per-kind n sums to the total block count reported by
    layout_stats for the same corpus."""
    import __ray_entry__ as e

    qs = e.queries()
    heads = qs["heading_stats"](SF_DIR)
    layout = qs["layout_stats"](SF_DIR)
    assert set(heads["level"]) <= {"h1", "h2", "h3", "body", "small"}
    got = heads.groupby("kind")["n"].sum().to_dict()
    want = layout.set_index("kind")["n_blocks"].to_dict()
    assert got == want


def test_lsh_near_dups_find_planted_pairs(ray_session):
    """Multi-table LSH must equal exact all-pairs at tau=0.99 when
    near-dups actually exist (the sf corpora have none, which would make
    the oracle check vacuous on its own)."""
    import numpy as np
    import ray.data as rd

    from pdf_oxide_ray.functions.similarity import (lsh_near_dup_pairs,
                                                    normalize_rows)

    rs = np.random.RandomState(11)
    base = rs.randn(200, 32)
    # plant 10 near-dup pairs: vec 200+i is a tiny perturbation of vec i
    planted = base[:10] + rs.randn(10, 32) * 0.003
    vecs = np.vstack([base, planted])
    import pandas as pd
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": list(range(len(vecs))),
        "embedding": [v for v in vecs]})).repartition(8)

    got = lsh_near_dup_pairs(ds)

    nv = normalize_rows(vecs)
    sims = nv @ nv.T
    ia, ib = np.triu_indices(len(vecs), k=1)
    mask = sims[ia, ib] >= 0.99
    want = pd.DataFrame({"id_a": ia[mask], "id_b": ib[mask]}) \
        .astype("int64").sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(want) >= 10  # the planted pairs are really above tau
    pd.testing.assert_frame_equal(got, want)


def test_lsh_near_dups_dense_family_exceeding_bucket_cap(ray_session):
    """A duplicate family larger than _LSH_HOT_CAP must still produce
    the full all-pairs set (the dense-family union-verify path), not a
    silently truncated one."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_oxide_ray.functions.similarity import lsh_near_dup_pairs

    rs = np.random.RandomState(7)
    seed_vec = rs.randn(32)
    family = seed_vec[None, :] + rs.randn(150, 32) * 0.001  # > cap of 128
    noise = rs.randn(50, 32)
    vecs = np.vstack([family, noise])
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": list(range(len(vecs))),
        "embedding": [v for v in vecs]})).repartition(8)

    got = lsh_near_dup_pairs(ds)
    assert len(got) == 150 * 149 // 2
    assert got["id_a"].max() < 150 and got["id_b"].max() < 150


def test_semantic_dedup_drops_planted_cluster_dups(ray_session, tmp_path):
    """Planted near-identical vectors in the same k-means cluster must
    dedup to the lowest vec_id; the DuckDB twin must agree."""
    import duckdb
    import numpy as np
    import pandas as pd

    from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES

    rs = np.random.RandomState(3)
    base = rs.randn(40, 64).astype(np.float32)
    # ids 20/21/22 are copies of id 4 (tiny jitter): same cluster,
    # cosine ~1 -> only id 4 survives of the four
    for i, jit in ((20, 0.0), (21, 1e-4), (22, 2e-4)):
        base[i] = base[4] + jit
    df = pd.DataFrame({
        "vec_id": np.arange(40, dtype=np.int64),
        "embedding": [r for r in base],
        "label": np.int32(0)})
    d = tmp_path / "semdedup"
    d.mkdir()
    df.to_parquet(d / "embeddings.parquet", index=False)

    out = QUERIES["semantic_dedup"](str(d))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{d}/embeddings.parquet')")
    gold = con.execute(ORACLE_SQL["semantic_dedup"]).df()
    assert out["vec_id"].tolist() == gold["vec_id"].tolist()
    kept = set(out["vec_id"])
    assert 4 in kept and not ({20, 21, 22} & kept)
    assert len(out) < 40


def test_kmeans_family_local_and_distributed_paths_agree(ray_session,
                                                         monkeypatch):
    """The driver-local fast path (below _KMEANS_LOCAL_MAX) and the
    streamed path must produce bit-identical assignments and survivors
    (order-invariant int64 component sums make this provable; this
    pins it)."""
    import pdf_oxide_ray.queries as Q

    sf = "/root/testdata/sf0.01"
    local_k = Q.QUERIES["kmeans_assign"](sf)
    local_s = Q.QUERIES["semantic_dedup"](sf)
    monkeypatch.setattr(Q, "_KMEANS_LOCAL_MAX", 0)
    dist_k = Q.QUERIES["kmeans_assign"](sf)
    dist_s = Q.QUERIES["semantic_dedup"](sf)
    pd.testing.assert_frame_equal(local_k.reset_index(drop=True),
                                  dist_k.reset_index(drop=True))
    pd.testing.assert_frame_equal(local_s.reset_index(drop=True),
                                  dist_s.reset_index(drop=True))


def test_value_quantile_sketch_error_bound_and_determinism(ray_session,
                                                           tmp_path):
    """The coreset quantile summary must honor its rank-error bound
    (< eps*n per type, + one coreset step of slack) on a high-
    cardinality continuous corpus the exact histograms couldn't
    afford, and be invariant to batching (bucketed by row-id hash)."""
    import numpy as np

    import pdf_oxide_ray.queries_relational as QR
    from pdf_oxide_ray.queries import QUERIES

    rs = np.random.RandomState(17)
    n = 60_000
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": np.int64(1),
        "event_type": np.where(np.arange(n) % 3 == 0, "view", "click"),
        # continuous: ~every value distinct
        "value": rs.lognormal(0.0, 2.0, n),
        "props": "{}"})
    d = tmp_path / "qsk"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)

    out = QUERIES["value_quantile_sketch"](str(d))
    eps = QR._QSK_EPS
    for etype, g in ev.groupby("event_type"):
        v = np.sort(g["value"].to_numpy())
        nn = v.size
        got = out[out["event_type"] == etype]
        assert len(got) == len(QR._QSK_PS)
        for _, row in got.iterrows():
            r_target = max(int(np.ceil(nn * row["p"])), 1)
            true_rank = np.searchsorted(v, row["value"], side="right")
            slack = int(np.floor(eps * nn)) + QR._QSK_BUCKETS
            assert abs(true_rank - r_target) <= eps * nn + slack, \
                (etype, row["p"], true_rank, r_target)
    # determinism across session parallelism is covered by the pin at
    # sf0.001; here: a second run in the same session is identical
    out2 = QUERIES["value_quantile_sketch"](str(d))
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out2.reset_index(drop=True))


def test_cluster_family_distributed_paths_agree(ray_session,
                                                monkeypatch):
    """cluster_topics / cluster_purity must match their local fast
    paths when forced through the distributed assignment."""
    import pdf_oxide_ray.queries as Q

    sf = "/root/testdata/sf0.001"
    local_t = Q.QUERIES["cluster_topics"](sf)
    local_p = Q.QUERIES["cluster_purity"](sf)
    monkeypatch.setattr(Q, "_KMEANS_LOCAL_MAX", 0)
    dist_t = Q.QUERIES["cluster_topics"](sf)
    dist_p = Q.QUERIES["cluster_purity"](sf)
    pd.testing.assert_frame_equal(local_t.reset_index(drop=True),
                                  dist_t.reset_index(drop=True))
    pd.testing.assert_frame_equal(local_p.reset_index(drop=True),
                                  dist_p.reset_index(drop=True))
