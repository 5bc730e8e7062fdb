"""Round-4ae family checks (`casefold_dup_gain`, `bow_dup_census`):
forced shapes — case-only duplicate pairs, whitespace-only duplicate
pairs (tabs/doubles/leading-trailing), token-order-only duplicate
pairs, multiset multiplicity (repeated tokens must NOT collapse), an
exact-dup cluster of 3, and the above-gate distributed census branch
— must match the DuckDB oracles bit-for-bit."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from pdf_oxide_ray.ops import exchange
from pdf_oxide_ray.queries import ORACLE_SQL, QUERIES


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    return con.execute(sql).fetchdf()


def _assert_equal(a: pd.DataFrame, b: pd.DataFrame, name: str):
    cols = sorted(a.columns)
    a = a[cols].reset_index(drop=True)
    b = b[sorted(b.columns)].reset_index(drop=True)
    assert list(a.columns) == list(b.columns), name
    assert len(a) == len(b), name
    for c in a.columns:
        assert a[c].tolist() == b[c].tolist(), f"{name}.{c}"


def _write_docs(tmp_path, tag, texts):
    d = tmp_path / f"cur30-{tag}"
    os.makedirs(d, exist_ok=True)
    pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": pd.Series(texts, dtype=object),
        "lang": "en", "source": "s0",
        "n_chars": pd.Series([len(t or "") for t in texts],
                             dtype="int64"),
    }).to_parquet(d / "documents.parquet", index=False)
    return str(d)


_FORCED = [
    "Hello World",          # }
    "hello   world",        # } casefold+ws dups (not exact, not bow)
    "  hello\tworld ",      # }
    "alpha beta gamma",     # }
    "gamma beta alpha",     # } bow dups (not exact, not casefold)
    "x x y",                # multiset multiplicity:
    "x y",                  #   NOT a bow dup of the line above
    "same text", "same text", "same text",  # exact cluster of 3
    "unique one", "unique two",
]


def test_casefold_dup_gain_forced(ray_session, tmp_path):
    d = _write_docs(tmp_path, "cf", _FORCED)
    mine = QUERIES["casefold_dup_gain"](d)
    gold = _oracle(d, ORACLE_SQL["casefold_dup_gain"])
    _assert_equal(mine, gold, "casefold_dup_gain")
    r = mine.iloc[0]
    assert int(r["n_docs"]) == 12
    assert int(r["exact_dup_docs"]) == 2      # the same-text triple
    assert int(r["exact_clusters"]) == 1
    # normalization merges the 3 hello-world variants (+2 dup docs)
    assert int(r["norm_dup_docs"]) == 4
    assert int(r["norm_clusters"]) == 2
    assert int(r["dup_gain"]) == 2


def test_bow_dup_census_forced(ray_session, tmp_path):
    d = _write_docs(tmp_path, "bow", _FORCED)
    mine = QUERIES["bow_dup_census"](d)
    gold = _oracle(d, ORACLE_SQL["bow_dup_census"])
    _assert_equal(mine, gold, "bow_dup_census")
    r = mine.iloc[0]
    # bow merges the alpha/gamma pair (+1) AND the two lowercase
    # whitespace variants of "hello world" (+1 — splitting normalizes
    # whitespace) on top of the exact triple; "x x y" vs "x y" must
    # NOT merge (multiset, not set); "Hello World" stays apart (case)
    assert int(r["bow_dup_docs"]) == 4
    assert int(r["bow_clusters"]) == 3
    assert int(r["gain_over_exact"]) == 2


@pytest.mark.parametrize("seed", [0, 37])
def test_dup_audits_random(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    vocab = ["Apple", "banana", "Cherry", "date"]
    texts = [" ".join(rng.choice(vocab, rng.integers(1, 5)))
             for _ in range(200)]
    d = _write_docs(tmp_path, f"r{seed}", texts)
    for name in ("casefold_dup_gain", "bow_dup_census"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        _assert_equal(mine, gold, name)


def test_dup_audits_above_gate_branch(ray_session, tmp_path,
                                      monkeypatch):
    """Force the distributed per-key census (bucket partials, driver
    sums)."""
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    d = _write_docs(tmp_path, "gate", _FORCED)
    for name in ("casefold_dup_gain", "bow_dup_census"):
        mine = QUERIES[name](d)
        gold = _oracle(d, ORACLE_SQL[name])
        _assert_equal(mine, gold, f"{name}-gate")
