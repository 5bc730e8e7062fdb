"""Round-4t family checks (`source_fp_overlap`, `user_activity_gini`,
`embedding_pca_evr`): seeded random inputs — cross-source content
mirroring, a power-user activity skew, float32 embeddings — must
match the DuckDB oracles bit-for-bit (PCA: a driver-side brute-force
recompute under the identical quantization, since eigh has no SQL
twin); plus invariants and empty-input parity."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _write_docs(tmp_path, seed: int, n_docs: int) -> str:
    """4 sources; source s1 mirrors many of s0's texts (containment),
    s3 is disjoint vocabulary (near-zero overlap)."""
    rs = np.random.RandomState(seed)
    w_common = np.array([f"w{i:03d}" for i in range(40)], dtype=object)
    w_alt = np.array([f"z{i:03d}" for i in range(40)], dtype=object)
    texts: list = []
    srcs: list = []
    for i in range(n_docs):
        src = f"s{i % 4}"
        words = w_alt if src == "s3" else w_common
        k = rs.randint(30, 80)
        texts.append(" ".join(words[rs.randint(0, 40, k)]))
        srcs.append(src)
    for i in range(0, n_docs - 1, 8):  # s1 mirrors s0 content
        if srcs[i] == "s0":
            texts[i + 1] = texts[i]    # i+1 is s1
    d = tmp_path / f"cur19d-{seed}-{n_docs}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en",
        "source": pd.Series(srcs, dtype=object),
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


def _write_events(tmp_path, seed: int, n_users: int) -> str:
    rs = np.random.RandomState(seed)
    # heavy-tailed per-user activity incl. ties and a mega-user
    counts = np.maximum(1, (rs.pareto(1.5, n_users) * 3)
                        .astype(np.int64))
    counts[0] = 500
    uid = np.repeat(np.arange(n_users, dtype=np.int64), counts)
    n_ev = len(uid)
    base = pd.Timestamp("2024-03-01").value // 1000
    ev = pd.DataFrame({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "user_id": uid,
        "event_type": "view",
        "value": 1.0,
        "props": "{}",
        "ts": pd.to_datetime(
            base + rs.randint(0, 30 * 86_400_000_000, n_ev)
            .astype(np.int64), unit="us")})
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    d = tmp_path / f"cur19e-{seed}"
    os.makedirs(d, exist_ok=True)
    ev.to_parquet(d / "events.parquet", index=False)
    return str(d)


def _write_embeddings(tmp_path, seed: int, n: int, dim: int) -> str:
    rs = np.random.RandomState(seed)
    # anisotropic: first directions carry most variance
    scales = np.linspace(3.0, 0.1, dim)
    arr = (rs.randn(n, dim) * scales).astype(np.float32)
    d = tmp_path / f"cur19m-{seed}-{n}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": pd.Series(list(arr), dtype=object),
        "label": np.int32(0)}).to_parquet(d / "embeddings.parquet",
                                          index=False)
    return str(d)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "events"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("seed", [0, 6])
def test_fp_overlap_matches_oracle(ray_session, tmp_path, seed):
    d = _write_docs(tmp_path, seed, 120)
    mine = QUERIES["source_fp_overlap"](d)
    gold = _oracle(d, ORACLE_SQL["source_fp_overlap"])
    assert_frames_equal(mine, gold, "source_fp_overlap")
    m = mine.set_index(["source_a", "source_b"])
    assert ("s0", "s1") in m.index  # the injected mirroring
    assert m.loc[("s0", "s1"), "jaccard"] > 0
    assert (mine["n_shared"] <= np.minimum(mine["n_a"],
                                           mine["n_b"])).all()
    assert ((mine["jaccard"] > 0) & (mine["jaccard"] <= 1)).all()


@pytest.mark.parametrize("seed", [1, 7])
def test_activity_gini_matches_oracle(ray_session, tmp_path, seed):
    d = _write_events(tmp_path, seed, 120)
    mine = QUERIES["user_activity_gini"](d)
    gold = _oracle(d, ORACLE_SQL["user_activity_gini"])
    assert_frames_equal(mine, gold, "user_activity_gini")
    g = mine["gini"].iloc[0]
    assert 0.0 < g < 1.0  # mega-user guarantees inequality
    assert int(mine["n_users"].iloc[0]) == 120


@pytest.mark.parametrize("seed,dim", [(2, 16), (9, 48)])
def test_pca_evr_matches_bruteforce(ray_session, tmp_path, seed, dim):
    d = _write_embeddings(tmp_path, seed, 300, dim)
    mine = QUERIES["embedding_pca_evr"](d)
    # brute force under the IDENTICAL quantization
    arr = np.stack(pd.read_parquet(
        os.path.join(d, "embeddings.parquet"))["embedding"]
        .to_numpy()).astype(np.float64)
    n = len(arr)

    def q6(x):
        v = x * 1e6
        return np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)

    g = np.zeros((dim, dim), dtype=np.int64)
    for row in arr:  # exact per-element quantized outer products
        g += q6(row[:, None] * row[None, :])
    s1 = q6(arr).sum(axis=0)
    mean = s1.astype(np.float64) / 1e6 / n
    cov = g.astype(np.float64) / 1e6 / n - np.outer(mean, mean)
    ev = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)
    evr = ev[:8] / ev.sum()
    assert np.array_equal(mine["eigenvalue"].to_numpy(), ev[:8])
    assert np.array_equal(mine["evr"].to_numpy(), evr)
    # anisotropic input: the top direction well above uniform 1/dim
    assert mine["evr"].iloc[0] > 2.0 / dim
    assert (np.diff(mine["eigenvalue"].to_numpy()) <= 0).all()
    assert mine["cum_evr"].iloc[-1] <= 1.0 + 1e-12


def test_empty_input_parity_curation_r4t(ray_session, tmp_path):
    d = tmp_path / "empty19"
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
    pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                  "embedding": pd.Series([], dtype=object),
                  "label": pd.Series([], dtype="int32")}) \
        .to_parquet(d / "embeddings.parquet", index=False)
    assert len(QUERIES["source_fp_overlap"](str(d))) == 0
    assert len(QUERIES["embedding_pca_evr"](str(d))) == 0
    g = QUERIES["user_activity_gini"](str(d))
    gold = _oracle(str(d), ORACLE_SQL["user_activity_gini"])
    assert_frames_equal(g, gold, "user_activity_gini-empty")
    assert int(g["n_users"].iloc[0]) == 0
    assert np.isnan(g["gini"].iloc[0])
