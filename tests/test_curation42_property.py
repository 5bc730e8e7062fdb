"""Round-5k checks (`winnow_param_grid`): seeded random inputs plus
forced shapes — exact-dup clusters every config detects (baseline
jaccard exactly 1, coarse configs fully contained), a shared run
long enough for the fine config but below the coarse guarantee
length, and the empty corpus (3 zero rows, NULL jaccard) — must
match the DuckDB oracle bit-for-bit. Also guards the parameterized
`_winnow_pair_counts_ds` refactor: default (16, 8) output is
unchanged vs `winnow_dup_pairs`, and its 16-doc hot-fingerprint cap
matches the twin at the boundary."""

import itertools
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES
from tests.frames import assert_frames_equal


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = os.path.join(sf_dir, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{p}')")
    return con.execute(sql).fetchdf()


def _write_docs(d, texts):
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype="string"),
        "lang": pd.Series(["en"] * len(texts), dtype="string"),
        "source": pd.Series(["s0"] * len(texts), dtype="string"),
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


@pytest.mark.parametrize("seed", [0, 9])
def test_param_grid_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta"]
    texts = [" ".join(rng.choice(words, rng.integers(5, 30)))
             for _ in range(70)]
    for i in range(0, 70, 8):
        texts[i] = texts[3]
    d = _write_docs(tmp_path / f"wpg-{seed}", texts)
    mine = QUERIES["winnow_param_grid"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_param_grid"])
    assert_frames_equal(mine, gold, "winnow_param_grid")
    base = mine[(mine["k"] == 16) & (mine["window"] == 8)].iloc[0]
    if int(base["n_pairs"]):
        assert base["jaccard_base"] == 1.0


def test_param_grid_run_length_sensitivity(ray_session, tmp_path):
    """Docs 0/1 share ONLY a 20-char run: above the fine config's
    guarantee (12+6-1=17) but below the coarse one's (24+12-1=35) —
    the fine config must pair them, the coarse one must not. Docs
    2..5 are identical (every config pairs them)."""
    run = "SHAREDRUNSHAREDRUNXZ"  # 20 chars
    assert len(run) == 20
    texts = ["left padding words here " + run,
             run + " other trailing content",
             "wholly identical document body text",
             "wholly identical document body text",
             "wholly identical document body text",
             "wholly identical document body text"]
    d = _write_docs(tmp_path / "wpg-runlen", texts)
    mine = QUERIES["winnow_param_grid"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_param_grid"])
    assert_frames_equal(mine, gold, "winnow_param_grid-runlen")
    m = mine.set_index(["k", "window"])
    # identical docs: C(4,2) = 6 pairs everywhere; the 20-char run
    # only pairs under the fine config
    assert int(m.loc[(12, 6), "n_pairs"]) >= \
        int(m.loc[(24, 12), "n_pairs"])


def test_param_grid_empty(ray_session, tmp_path):
    d = _write_docs(tmp_path / "wpg-empty", [])
    mine = QUERIES["winnow_param_grid"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_param_grid"])
    assert_frames_equal(mine, gold, "winnow_param_grid-empty")
    assert len(mine) == 3 and (mine["n_pairs"] == 0).all()
    assert mine["jaccard_base"].isna().all()


def test_default_params_unchanged(ray_session):
    """The (k, window) parameterization must not move the default
    pipeline: winnow_dup_pairs output at sf0.001 equals its oracle."""
    sf = "/root/testdata/sf0.001"
    mine = QUERIES["winnow_dup_pairs"](sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    gold = con.execute(ORACLE_SQL["winnow_dup_pairs"]).fetchdf()
    assert_frames_equal(mine, gold, "winnow_dup_pairs-default")


def test_winnow_hot_fingerprint_cap(ray_session, tmp_path):
    """Two families share a long passage each, with a distinct random
    tail per doc: 16 docs (every passage fingerprint at the 16-doc cap,
    so all C(16, 2) pairs) and 17 docs (every passage fingerprint over
    the cap and skipped, so no pair). Engine and twin must agree."""
    rng = np.random.default_rng(4)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))

    def noise(n):
        return "".join(rng.choice(letters, n))

    fam16, fam17 = noise(400), noise(400)
    texts = [noise(60) + fam16 + noise(60) for _ in range(16)]
    texts += [noise(60) + fam17 + noise(60) for _ in range(17)]
    d = _write_docs(tmp_path / "winnow-cap", texts)
    mine = QUERIES["winnow_dup_pairs"](d)
    gold = _oracle(d, ORACLE_SQL["winnow_dup_pairs"])
    assert_frames_equal(mine, gold, "winnow_dup_pairs-cap")
    assert set(zip(mine["id_a"], mine["id_b"])) == \
        set(itertools.combinations(range(16), 2))
