"""The query-plan kit (`pdf_oxide_ray/ops/`): both percentile_disc rank
rules against a brute-force sorted array, and the sorted-batch pass
against a direct pandas computation."""

import math
from fractions import Fraction

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
