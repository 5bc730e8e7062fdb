"""The query-plan kit (`pdf_oxide_ray/ops/`): both percentile_disc rank
rules against a brute-force sorted array, the sorted-batch pass
against a direct pandas computation, and the gated keyed combine's
bucketed path against its driver path."""

import math
from fractions import Fraction

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.ops import exchange
from pdf_oxide_ray.ops.exchange import _key_buckets, combine_by_key, n_buckets
from pdf_oxide_ray.ops.ordered import ordered_pass
from pdf_oxide_ray.ops.quantile import (disc_by_group, disc_pick, disc_rank,
                                        disc_rank_exact)


@st.composite
def _case(draw):
    """(values, num, den). Half the time n is a multiple of den, so
    n*num/den is integral: float64 can land just above it, which is
    where the two rank rules part."""
    den = draw(st.integers(1, 200))
    num = draw(st.integers(1, den))
    n = den * draw(st.integers(1, 3)) if draw(st.booleans()) \
        else draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, draw(st.integers(1, 4 * n)), n), num, den


def _hist(values):
    vals, cnt = np.unique(values, return_counts=True)
    return vals, np.cumsum(cnt)


@settings(max_examples=300, deadline=None)
@given(_case())
def test_float_rank_matches_sorted_array(case):
    values, num, den = case
    s = sorted(values)
    want = s[math.ceil(float(len(s)) * (num / den)) - 1]
    vals, cum = _hist(values)
    assert disc_pick(vals, cum, disc_rank(len(s), num / den)) == want


@settings(max_examples=300, deadline=None)
@given(_case())
def test_exact_rank_matches_sorted_array(case):
    values, num, den = case
    s = sorted(values)
    want = s[math.ceil(len(s) * Fraction(num, den)) - 1]
    vals, cum = _hist(values)
    assert disc_pick(vals, cum, disc_rank_exact(len(s), num, den)) == want


def test_the_two_rank_rules_disagree_where_duckdb_does():
    # 100 * 0.07 is 7.000000000000001 in float64
    assert disc_rank(100, 0.07) == 8
    assert disc_rank_exact(100, 7, 100) == 7
    assert disc_rank(5, 0.0) == 1  # p=0 reads the minimum
    assert list(disc_rank_exact(np.array([1, 2, 3, 4]), 1, 2)) == [1, 1, 2, 2]


def test_grouped_form_matches_per_group_sort():
    rng = np.random.default_rng(3)
    raw = pd.DataFrame({"g": rng.choice(list("xyz"), 400),
                        "v": rng.integers(0, 30, 400)})
    hist = raw.groupby(["g", "v"], as_index=False).size() \
        .rename(columns={"size": "cnt"})
    ps = (0.1, 0.5, 0.99)
    for g, n, *qs in disc_by_group(hist, "g", "v", ps):
        s = sorted(raw.loc[raw["g"] == g, "v"])
        assert n == len(s)
        assert qs == [s[math.ceil(float(n) * p) - 1] for p in ps]


def _runs_per_group(ds, batch_size):
    """Rows and sum of consecutive gaps per group: in-batch gaps in the
    fold, cross-batch gaps from the seams."""

    def fold(b):
        g, v = b["g"].to_numpy(object), b["v"].to_numpy(np.int64)
        same = g[1:] == g[:-1]
        gaps = pd.DataFrame({"g": g[1:][same], "n": 0,
                             "gap": (v[1:] - v[:-1])[same]})
        rows = pd.DataFrame({"g": g, "n": 1, "gap": 0})
        return pd.concat([gaps, rows]).groupby("g", as_index=False).sum()

    def edge(b):
        return ({"g": b["g"].iloc[0], "v": int(b["v"].iloc[0])},
                {"g": b["g"].iloc[-1], "v": int(b["v"].iloc[-1])})

    folds, first, last = ordered_pass(ds, ["g", "v"], fold, edge,
                                      batch_size=batch_size)
    if folds.empty:
        return {}, first, last
    out = {g: [int(n), int(gap)] for g, n, gap
           in folds.groupby("g", as_index=False).sum()
           .itertuples(index=False)}
    for la, f in zip(last.iloc[:-1].itertuples(),
                     first.iloc[1:].itertuples()):
        if la.g == f.g:
            out[f.g][1] += f.v - la.v
    return out, first, last


@pytest.mark.parametrize("batch_size", [1, 3, 4096])
def test_ordered_pass_stitches_seams_in_global_order(ray_session,
                                                     batch_size):
    import ray.data as rd

    rng = np.random.default_rng(batch_size)
    df = pd.DataFrame({
        "g": ["a"] + ["b"] * 9 + ["c"] * 2 + ["d"] * 5,
        "v": np.concatenate([[4], rng.choice(1000, 9, replace=False),
                             [7, 9], rng.choice(50, 5, replace=False)])})
    ds = rd.from_pandas(df.sample(frac=1, random_state=1)) \
        .repartition(3).sort(["g", "v"])
    got, first, last = _runs_per_group(ds, batch_size)
    want = {g: [len(x), int(x.max() - x.min())]
            for g, x in df.groupby("g")["v"]}
    assert got == want
    # batches come back in global order and tile it
    n_batches = len(first)
    assert n_batches >= (len(df) + batch_size - 1) // batch_size
    keys = list(zip(first["g"], first["v"]))
    assert keys == sorted(keys)
    ends = list(zip(last["g"], last["v"]))
    assert all(ends[i] < keys[i + 1] for i in range(n_batches - 1))
    if batch_size == 1:  # every batch a single row; "b" spans 9 batches
        assert keys == ends and n_batches == len(df)


def test_ordered_pass_on_empty_input(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(pd.DataFrame({"g": ["a"], "v": [1]})) \
        .filter(lambda r: False).sort(["g", "v"])
    got, first, last = _runs_per_group(ds, 4)
    assert got == {} and first.empty and last.empty


def _per_key(d: pd.DataFrame) -> pd.DataFrame:
    """Key-local and not decomposable: a key split over two calls
    would come back as two rows with partial distinct counts."""
    out = d.groupby(["a", "b"], as_index=False) \
        .agg(total=("v", "sum"), n_distinct=("v", "nunique"))
    out["set_keys"] = len(out)
    return out


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["a", "b"]).reset_index(drop=True)


@st.composite
def _partial_blocks(draw):
    """2-5 blocks of (a, b, v) rows; ``a`` mixes integral and
    fractional floats, so one key's rows can sit in an all-integral
    block and in a mixed one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(2, 5))):
        n = int(rng.integers(1, 30))
        a = rng.choice([0.0, 1.0, 2.0, 2.5, -3.0], n)
        if rng.random() < 0.5:
            a = np.floor(a)
        blocks.append(pd.DataFrame({
            "a": a, "b": rng.choice(["x", "y", "zz"], n),
            "v": rng.integers(0, 6, n)}))
    return blocks


@settings(max_examples=12, deadline=None)
@given(_partial_blocks())
def test_combine_above_gate_matches_driver(ray_session, blocks):
    import ray.data as rd

    want = _sorted(combine_by_key(rd.from_pandas(blocks), ["a", "b"],
                                  _per_key)).drop(columns="set_keys")
    old = exchange.GATE_ROWS
    exchange.GATE_ROWS = 1
    try:
        got = combine_by_key(rd.from_pandas(blocks), ["a", "b"], _per_key)
    finally:
        exchange.GATE_ROWS = old
    pd.testing.assert_frame_equal(_sorted(got).drop(columns="set_keys"),
                                  want, check_dtype=False)
    assert want.equals(_sorted(_per_key(pd.concat(blocks)))
                       .drop(columns="set_keys"))


def test_combine_spreads_a_constant_first_key_column(ray_session,
                                                     monkeypatch):
    import ray.data as rd

    df = pd.DataFrame({"a": np.int64(7), "b": [f"k{i}" for i in range(40)],
                       "v": np.arange(40)})
    assert len(np.unique(_key_buckets(df, ["a", "b"], 64))) > 1
    monkeypatch.setattr(exchange, "GATE_ROWS", 1)
    got = combine_by_key(rd.from_pandas([df[:20], df[20:]]), ["a", "b"],
                         _per_key)
    assert len(got) == 40 and got["set_keys"].max() < 40
    pd.testing.assert_frame_equal(
        _sorted(got).drop(columns="set_keys"),
        _sorted(_per_key(df)).drop(columns="set_keys"), check_dtype=False)


@pytest.mark.parametrize("gate", [None, 1])
def test_combine_on_zero_rows_never_calls_fn(ray_session, monkeypatch,
                                             gate):
    import ray.data as rd

    if gate is not None:
        monkeypatch.setattr(exchange, "GATE_ROWS", gate)

    def boom(d):
        raise AssertionError("fn called on zero rows")

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2]})) \
        .filter(lambda r: False)
    out = combine_by_key(ds, ["k"], boom)
    assert out.empty and len(out.columns) == 0


def test_bucket_count_keeps_every_bucket_under_the_gate():
    g = exchange.GATE_ROWS
    assert n_buckets(1) == 64
    assert n_buckets(64 * g) == 64
    assert n_buckets(64 * g + 1) == 65
    assert n_buckets(1000 * g) == 1000
