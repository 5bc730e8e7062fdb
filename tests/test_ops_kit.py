"""The query-plan kit (`pdf_oxide_ray/ops/`): both percentile_disc rank
rules against a brute-force sorted array, the sorted-batch pass
against a direct pandas computation, the keyed exchange against its
key-local fn run per key on the driver, the gated keyed combine's
bucketed path against its driver path, the grouped sum against a
whole-frame pandas groupby, the within-key pair kernel against
``itertools.combinations`` per key, the split rule against its DuckDB
twin, and a guard that keeps every hash-bucketed exchange inside
`ops/exchange.py`."""

import itertools
import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.ops import exchange
from pdf_oxide_ray.functions.textops import nibble_split, split_sql
from pdf_oxide_ray.ops.exchange import (_key_buckets, combine_by_key,
                                        exchange_by_key, n_buckets, sum_by)
from pdf_oxide_ray.ops.ordered import ordered_pass
from pdf_oxide_ray.ops.pairs import key_runs, run_pairs
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


@st.composite
def _sum_case(draw):
    """A frame of int64, object-string (with None) and datetime (with
    NaT) keys cut into 1-5 blocks at random rows (empty blocks
    included), a key tuple, and whether the gate is forced to 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    t = pd.Series(pd.to_datetime(rng.integers(0, 3, n), unit="D"))
    t[rng.random(n) < 0.1] = pd.NaT
    df = pd.DataFrame({
        "k": rng.integers(-2, 3, n).astype(np.int64),
        "s": rng.choice(np.array(["x", "y", "zz", None], dtype=object), n),
        "t": t.astype("datetime64[us]"),
        "v": rng.integers(-5, 6, n).astype(np.int64),
        "w": rng.integers(0, 2**40, n).astype(np.int64)})
    cuts = sorted(int(c) for c in rng.integers(0, n + 1,
                                                draw(st.integers(0, 4))))
    blocks = [df.iloc[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    by = draw(st.sampled_from([["k"], ["k", "s"], ["t"], ["s", "t", "k"]]))
    return df, blocks, by, draw(st.booleans())


def _by_key(df: pd.DataFrame, by: list) -> pd.DataFrame:
    out = df.sort_values(by).reset_index(drop=True)
    for c in by:
        if out[c].dtype.kind == "M":
            out[c] = out[c].astype("datetime64[us]")
    return out


@settings(max_examples=15, deadline=None)
@given(_sum_case())
def test_sum_by_matches_a_whole_frame_groupby(ray_session, case):
    import ray.data as rd

    df, blocks, by, force_gate = case
    old = exchange.GATE_ROWS
    exchange.GATE_ROWS = 1 if force_gate else old
    try:
        got = sum_by(rd.from_pandas(blocks), by, ["v", "w"])
    finally:
        exchange.GATE_ROWS = old
    want = df.groupby(by, as_index=False)[["v", "w"]].sum()
    assert list(got.columns) == by + ["v", "w"]
    if not force_gate:  # the driver path keeps pandas' sorted order
        assert got[by].astype(str).equals(want[by].astype(str))
    pd.testing.assert_frame_equal(_by_key(got, by), _by_key(want, by),
                                  check_dtype=False)
    assert got["v"].dtype == got["w"].dtype == np.int64


@pytest.mark.parametrize("gate", [None, 1])
def test_sum_by_on_zero_rows(ray_session, monkeypatch, gate):
    import ray.data as rd

    if gate is not None:
        monkeypatch.setattr(exchange, "GATE_ROWS", gate)
    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2], "s": ["a", "b"],
                                      "v": [3, 4]})) \
        .filter(lambda r: False)
    pd.testing.assert_frame_equal(
        sum_by(ds, ["k", "s"], ["v"]),
        pd.DataFrame({"k": [], "s": [], "v": []}))


def test_split_rule_matches_its_sql_twin():
    import duckdb

    ids = pd.DataFrame({"doc_id": np.arange(-50, 2000, dtype=np.int64)})
    con = duckdb.connect()
    con.register("ids", ids)
    sql = con.execute(f"SELECT {split_sql('doc_id')} AS split FROM ids "
                      "ORDER BY doc_id").df()["split"].to_numpy(object)
    py = nibble_split(ids["doc_id"])
    assert (py == sql).all()
    assert set(py) == {"train", "val", "test"}
    assert len(nibble_split([])) == 0


def test_bucket_count_keeps_every_bucket_under_the_gate():
    g = exchange.GATE_ROWS
    assert n_buckets(1) == 64
    assert n_buckets(64 * g) == 64
    assert n_buckets(64 * g + 1) == 65
    assert n_buckets(1000 * g) == 1000


def _per_key_of(key):
    """A key-local fn over ``key``: a key split over two calls would
    come back as two rows with partial sums and distinct counts."""
    def fn(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby(key, as_index=False) \
            .agg(n=("v", "size"), total=("v", "sum"),
                 n_distinct=("v", "nunique"))
    return fn


def _joined_per_key(d: pd.DataFrame) -> pd.DataFrame:
    """Key-local over a union of two tagged sides: per key, the left
    row count times the right value sum (an inner join's aggregate)."""
    left = d[d["side"] == "l"].groupby("k", as_index=False) \
        .agg(n_l=("v", "size"))
    right = d[d["side"] == "r"].groupby("k", as_index=False) \
        .agg(s_r=("v", "sum"))
    out = left.merge(right, on="k")
    out["prod"] = out["n_l"] * out["s_r"]
    return out


def _per_key_on_driver(df, key, fn):
    if not len(df):
        return pd.DataFrame()
    return pd.concat([fn(g) for _, g in df.groupby(key, sort=False)],
                     ignore_index=True)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort") \
        .reset_index(drop=True).astype("float64", errors="ignore")


@st.composite
def _exchange_blocks(draw):
    """1-5 blocks of (a, b, v) rows: ``a`` mixes integral and
    fractional floats, ``b`` is text, so one key's rows can sit in an
    all-integral block and in a mixed one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        n = int(rng.integers(1, 30))
        a = rng.choice([0.0, 1.0, 2.0, 2.5, -3.0, 7.25], n)
        if rng.random() < 0.5:
            a = np.floor(a)
        blocks.append(pd.DataFrame({
            "a": a, "b": rng.choice(["x", "y", "zz"], n),
            "v": rng.integers(0, 6, n)}))
    return blocks


@settings(max_examples=12, deadline=None)
@given(_exchange_blocks(), st.sampled_from([["a"], ["a", "b"]]))
def test_exchange_matches_fn_per_key_on_driver(ray_session, blocks, key):
    import ray.data as rd

    fn = _per_key_of(key)
    got = exchange_by_key(rd.from_pandas(blocks), key, fn).to_pandas()
    want = _per_key_on_driver(pd.concat(blocks, ignore_index=True),
                              key, fn)
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_exchange_over_a_union_of_tagged_sides(ray_session, seed, n_blocks):
    import ray.data as rd

    rng = np.random.default_rng(seed)

    def side(tag):
        return [pd.DataFrame({"k": rng.integers(0, 9, m).astype(np.int64),
                              "v": rng.integers(0, 50, m), "side": tag})
                for m in rng.integers(1, 25, n_blocks)]

    left, right = side("l"), side("r")
    got = exchange_by_key([rd.from_pandas(left), rd.from_pandas(right)],
                          ["k"], _joined_per_key).to_pandas()
    want = _per_key_on_driver(pd.concat(left + right, ignore_index=True),
                              ["k"], _joined_per_key)
    if want.empty:
        assert got.empty
        return
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_exchange_on_zero_rows_gives_zero_rows(ray_session):
    import ray.data as rd

    def boom(d):
        raise AssertionError("fn called on zero rows")

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [3, 4]})) \
        .filter(lambda r: False)
    assert len(exchange_by_key(ds, ["k"], boom).to_pandas()) == 0


def test_a_query_leaves_the_session_context_as_it_was(ray_session,
                                                      monkeypatch):
    """An exchange query must not change session-wide DataContext
    fields: the read-parallelism autodetect copies a non-default
    ``min_parallelism`` into ``read_op_min_num_blocks`` for good, which
    changes the block count of every later read in the session."""
    from ray.data import DataContext
    from ray.data.context import DEFAULT_READ_OP_MIN_NUM_BLOCKS

    from pdf_oxide_ray.queries import QUERIES

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "read_op_min_num_blocks",
                        DEFAULT_READ_OP_MIN_NUM_BLOCKS)
    before = (ctx.read_op_min_num_blocks, ctx.min_parallelism)
    assert len(QUERIES["user_sessions"]("/root/testdata/sf0.001"))
    assert (ctx.read_op_min_num_blocks, ctx.min_parallelism) == before


# composite keys: an int64 column, object strings, and uint64 values
# above 2**63 (which a float or int64 cast would merge or reorder)
_BIG = [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]


@st.composite
def _sorted_keys(draw):
    """(columns, key tuples): rows sorted by a key made of a non-empty
    subset of the three columns; zero rows included."""
    n = draw(st.integers(0, 40))
    row = st.tuples(st.integers(-2, 2), st.sampled_from(["", "a", "ab", "b"]),
                    st.sampled_from(_BIG))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    use = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1,
                        max_size=3, unique=True))
    keys = sorted(tuple(r[i] for i in use) for r in rows)
    dtypes = {0: np.int64, 1: object, 2: np.uint64}
    cols = [np.array([k[j] for k in keys], dtype=dtypes[i])
            for j, i in enumerate(use)]
    return cols, keys


@settings(max_examples=300, deadline=None)
@given(_sorted_keys(), st.data())
def test_run_pairs_match_combinations_per_key(case, data):
    cols, keys = case
    starts, counts = key_runs(*cols)
    runs = []
    pos = 0
    for _, grp in itertools.groupby(keys):
        c = len(list(grp))
        runs.append((pos, c))
        pos += c
    assert list(zip(starts.tolist(), counts.tolist())) == runs
    sizes = sorted({c for _, c in runs})
    max_size = data.draw(st.sampled_from(
        [None, 2] + sizes + [c - 1 for c in sizes]))
    a, b = run_pairs(starts, counts, max_size)
    assert a.dtype == b.dtype == np.int64
    got = list(zip(a.tolist(), b.tolist()))
    want = {p for s, c in runs if max_size is None or c <= max_size
            for p in itertools.combinations(range(s, s + c), 2)}
    assert len(got) == len(want) and set(got) == want


def test_pair_kernel_on_zero_rows():
    starts, counts = key_runs(np.zeros(0, np.uint64),
                              np.zeros(0, dtype=object))
    assert len(starts) == len(counts) == 0
    for max_size in (None, 2):
        a, b = run_pairs(starts, counts, max_size)
        assert len(a) == len(b) == 0
        assert a.dtype == b.dtype == np.int64


_PKG = pathlib.Path(__file__).resolve().parent.parent / "pdf_oxide_ray"
_OUTSIDE_THE_KIT = [
    (re.compile(r"""["']__bucket["']|\b__bucket\s*="""),
     "assigns a __bucket column"),
    (re.compile(r"\b(_bucket_of|_key_buckets)\b"),
     "uses the kit's bucket hash"),
    (re.compile(r"\bmin_parallelism\b"), "mentions min_parallelism"),
    (re.compile(r"\b_reduce_partials\b"),
     "names the removed _reduce_partials (a grouped sum is sum_by)"),
    (re.compile(r"""\.groupby\(\s*["'](bucket|shard)["']\s*\)"""
                r"""[\s\\]*\.map_groups\("""),
     "groups a Dataset by a hand-made bucket column"),
]


def test_hash_bucket_exchanges_live_only_in_the_kit():
    kit = _PKG / "ops" / "exchange.py"
    bad = []
    for path in sorted(_PKG.rglob("*.py")):
        if path == kit:
            continue
        text = path.read_text()
        for pat, what in _OUTSIDE_THE_KIT:
            for m in pat.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{path.relative_to(_PKG)}:{line} {what}")
    assert not bad, "route these through the kit:\n" + "\n".join(bad)
