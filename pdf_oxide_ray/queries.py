"""Driver-contract queries: one entry per operator family (SURVEY.md §2),
each with a DuckDB oracle twin in ``ORACLE_SQL`` where SQL-expressible.

Column names match the oracle SQL exactly (the driver's compare sorts
columns by name before hashing). Float aggregate outputs are rounded to 6
decimals on BOTH sides so binary summation-order noise cannot flip the
value hash.

Shuffle discipline per query is noted in each docstring: pre-aggregated
partials before every groupby, broadcast for small sides, bucketed hash join
for large-large.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from .functions import dedup as fdedup
from .functions import similarity as fsim
from .functions import textops as ftext
from .ops import exchange as _xc
from .ops.exchange import _bucket_of, _scoped_parallelism, combine_by_key
from .ops.quantile import disc_pick, disc_rank
from .stages.joins import _get_broadcast, broadcast_join, bucketed_hash_join


def _pq(sf_dir: str, table: str, columns: list[str] | None = None):
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                           columns=columns)


def _round6(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    # half-AWAY like the twins' ROUND(x, 6) = round(x*1e6)/1e6 — the
    # shared convention for every round()-twinned value (np.round's
    # half-even diverges on exact .5e-6 ties)
    for c in cols:
        v = df[c].astype(np.float64) * 1e6
        df[c] = np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6
    return df


def _cents(s: pd.Series) -> pd.Series:
    """Exact integer cents for a 2-decimal money column.

    Float64 sums of ~1e8-magnitude money columns diverge between DuckDB
    and pandas by more than the 1e-6 rounding grid (measured 2.8e-6 at
    sf0.01), so every money rollup aggregates int64 cents and divides by
    100.0 at the end; the oracle SQL mirrors the identical chain
    (round(x*100) -> BIGINT -> SUM -> DOUBLE -> /100.0), making both
    sides bit-identical doubles. NULLs become 0 (matching SQL SUM's
    skip-NULL semantics for totals) via nan_to_num, and np.rint matches
    DuckDB's round-half-even double->int cast."""
    return pd.Series(np.rint(np.nan_to_num(s.to_numpy(np.float64)) * 100.0)
                     .astype(np.int64), index=s.index)


def _empty_typed(**schema: str) -> pd.DataFrame:
    """Typed zero-row frame. A fully-empty input yields zero blocks, and
    ``Dataset.to_pandas()`` then returns a COLUMN-LESS frame — any astype/
    sort_values on it raises. Every query guards with this so empty input
    mirrors the SQL twin's empty result instead of crashing (the 100 TB
    story: an all-filtered corpus slice must flow through, not fail)."""
    return pd.DataFrame({c: pd.Series([], dtype=t)
                         for c, t in schema.items()})


def _reduce_partials(partials, by: list[str],
                     sum_cols: list[str]) -> pd.DataFrame:
    """Final reduce over per-batch PARTIAL aggregates: sum ``sum_cols``
    per ``by`` key through the gated keyed combine (driver below the
    gate, bucketed above)."""
    out = combine_by_key(
        partials, by,
        lambda d: d.groupby(by, as_index=False)[sum_cols].sum())
    if not len(out.columns):  # zero rows: groupby would raise
        return pd.DataFrame({c: [] for c in by + sum_cols})
    return out


# ---------------------------------------------------------------------------
# grouped aggregates (partial-agg pattern: combine per batch, then a SMALL
# groupby over partials — the wide shuffle carries one row per key per batch)
# ---------------------------------------------------------------------------

def q_turn_counts(sf_dir: str) -> pd.DataFrame:
    """events: count per user (groupby over per-batch partial counts)."""
    ds = _pq(sf_dir, "events", ["user_id"])
    partial = ds.map_batches(
        lambda b: b.groupby("user_id", as_index=False).agg(n=("user_id", "size")),
        batch_format="pandas")
    out = _reduce_partials(partial, ["user_id"], ["n"])
    out["n"] = out["n"].astype("int64")
    return out


def q_category_stats(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped rollup over lineitem (mirrors the reference's
    per-category stats fold, validate_dataset.rs:31-141). All money/qty
    sums run over exact int64 (cents) partials — see ``_cents``."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity",
              "l_extendedprice", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # np.rint == DuckDB's half-even double->BIGINT cast (astype would
        # truncate a fractional quantity where the oracle rounds)
        b = b.assign(qty_i=np.rint(np.nan_to_num(
                         b["l_quantity"].to_numpy(np.float64)))
                     .astype(np.int64),
                     price_c=_cents(b["l_extendedprice"]),
                     disc_c=_cents(b["l_discount"]))
        return b.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_i=("qty_i", "sum"),
            price_c=("price_c", "sum"),
            disc_c=("disc_c", "sum"),
            n=("qty_i", "size"))

    agg = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["l_returnflag", "l_linestatus"],
                           ["qty_i", "price_c", "disc_c", "n"])
    agg["sum_qty"] = agg["qty_i"].astype(np.float64)
    agg["sum_price"] = agg["price_c"].astype(np.float64) / 100.0
    agg["avg_disc"] = (agg["disc_c"].astype(np.float64) / 100.0) / agg["n"]
    agg["n"] = agg["n"].astype("int64")
    return agg.drop(columns=["qty_i", "price_c", "disc_c"])


def q_revenue_by_flag(sf_dir: str) -> pd.DataFrame:
    """Filter + project + grouped sum; predicate applied vectorized."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_extendedprice", "l_discount", "l_shipdate"])
    cutoff = pd.Timestamp("1996-01-01")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] < cutoff]
        # exact integer 1/10000ths: cents(price) * (100 - cents(discount))
        rev_i = _cents(b["l_extendedprice"]).to_numpy() \
            * (100 - _cents(b["l_discount"]).to_numpy())
        return pd.DataFrame({"l_returnflag": b["l_returnflag"],
                             "rev_i": rev_i}) \
            .groupby("l_returnflag", as_index=False).sum()

    out = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["l_returnflag"], ["rev_i"])
    out["revenue"] = out["rev_i"].astype(np.float64) / 10000.0
    return out.drop(columns=["rev_i"])


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h window: groupby(event_type, hour) count + avg."""
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # sum exact integer micro-units (round(value*1e6)) so the grouped
        # average is order-independent; the oracle mirrors the same chain
        b = b.assign(hour=b["ts"].dt.floor("h"),
                     value_u=pd.Series(
                         np.round(b["value"].to_numpy(np.float64) * 1e6)
                         .astype(np.int64), index=b.index))
        return b.groupby(["event_type", "hour"], as_index=False).agg(
            n=("value_u", "size"), value_u=("value_u", "sum"))

    agg = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["event_type", "hour"], ["n", "value_u"])
    agg["avg_value"] = (agg["value_u"].astype(np.float64) / 1e6) / agg["n"]
    agg["n"] = agg["n"].astype("int64")
    return agg.drop(columns=["value_u"])


def q_events_sliding(sf_dir: str) -> pd.DataFrame:
    """Hopping/sliding window (size 1h, hop 15min): each event lands in 4
    windows; the explode is vectorized per batch and only partial counts
    cross the shuffle."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    hop_us = 15 * 60 * 1_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # pre-aggregate per (type, 15-min bucket) FIRST, then 4-way-explode
        # only the aggregated partials — the explode and the shuffle shrink
        # by the per-batch dedup factor (raw events >> distinct buckets)
        pre = pd.DataFrame({
            "event_type": b["event_type"],
            "bucket": b["ts"].dt.floor("15min"),
        }).groupby(["event_type", "bucket"], as_index=False) \
            .agg(n=("bucket", "size"))
        m = len(pre)
        offsets = np.repeat(np.arange(4, dtype="timedelta64[us]")
                            * hop_us, m)
        exploded = pd.DataFrame({
            "event_type": np.tile(pre["event_type"].to_numpy(), 4),
            "window_start": np.tile(pre["bucket"].to_numpy(), 4) - offsets,
            "n": np.tile(pre["n"].to_numpy(), 4),
        })
        return exploded.groupby(
            ["event_type", "window_start"], as_index=False).agg(
            n=("n", "sum"))

    out = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["event_type", "window_start"], ["n"])
    out["n"] = out["n"].astype("int64")
    return out


def q_quantity_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact grouped INTERPOLATED quantiles (quantile_cont p50/p90 of
    l_quantity per returnflag) via the bounded value histogram — the
    same plan as ``q_length_deciles``, upgraded from percentile_disc to
    linear interpolation: per-batch (flag, qty-cents) value_counts
    reduce to one row per distinct value per flag (quantity is a
    2-decimal bounded domain, so the histogram is corpus-size-free),
    and the driver reads sorted[floor(h)] / sorted[ceil(h)] off
    cumulative counts and lerps with h = (n-1)*p — the identical
    double chain as np.percentile / DuckDB quantile_cont
    (cents/100.0 is bit-identical to the stored double because the
    generator's np.round(x, 2) IS rint(x*100)/100). Replaces the
    round-1 map_groups version that materialized each group's full
    value set in one worker — this plan never co-locates a group."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        vc = pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "q_c": _cents(b["l_quantity"])}) \
            .value_counts(sort=False).rename("cnt").reset_index()
        vc["cnt"] = vc["cnt"].astype(np.int64)
        return vc

    h = _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                         ["l_returnflag", "q_c"], ["cnt"])
    if h.empty:
        return _empty_typed(l_returnflag=object, p50="float64",
                            p90="float64")

    def lerp_quantile(vals: np.ndarray, cum: np.ndarray, p: float) -> float:
        n = int(cum[-1])
        hpos = (n - 1) * np.float64(p)
        lo = int(np.floor(hpos))
        hi = min(lo + 1, n - 1)
        v_lo = vals[np.searchsorted(cum, lo + 1)]
        v_hi = vals[np.searchsorted(cum, hi + 1)]
        return float(v_lo + (v_hi - v_lo) * (hpos - lo))

    rows = []
    for flag, g in h.sort_values("q_c").groupby("l_returnflag"):
        vals = g["q_c"].to_numpy(np.float64) / 100.0
        cum = g["cnt"].to_numpy(np.int64).cumsum()
        rows.append((flag, lerp_quantile(vals, cum, 0.5),
                     lerp_quantile(vals, cum, 0.9)))
    out = pd.DataFrame(rows, columns=["l_returnflag", "p50", "p90"])
    return _round6(out, ["p50", "p90"])


def q_distinct_event_types(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "events", ["event_type"])
    # zero-block dataset: unique() yields None (a NULL value in the
    # column must NOT be swallowed here — only the all-empty case)
    u = ds.unique("event_type")
    vals = sorted(u, key=lambda v: (v is None, v)) if u is not None else []
    return pd.DataFrame({"event_type": pd.Series(vals, dtype=object)})


# ---------------------------------------------------------------------------
# sorts / top-k
# ---------------------------------------------------------------------------

def q_top_events(sf_dir: str) -> pd.DataFrame:
    """Global top-10 by value (mirrors benchmark_all_pdfs.rs:209-227 top-10
    slowest). Deterministic tiebreak on event_id."""
    ds = _pq(sf_dir, "events", ["event_id", "event_type", "value"])
    out = ds.sort(["value", "event_id"], descending=[True, False]) \
        .limit(10).to_pandas()
    if out.empty:
        return _empty_typed(event_id="int64", event_type=object,
                            value="float64")
    return _round6(out, ["value"])


def q_top_customers(sf_dir: str) -> pd.DataFrame:
    """Grouped sum then top-10: the per-batch (custkey, cents) partials
    meet in the gated keyed combine, where each key set's sums yield
    their local top-10; the global top-10 is among those rows."""
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    partial = ds.map_batches(
        lambda b: b.assign(spent_c=_cents(b["o_totalprice"]))
        .groupby("o_custkey", as_index=False).agg(spent_c=("spent_c", "sum")),
        batch_format="pandas")

    def top10(d: pd.DataFrame) -> pd.DataFrame:
        agg = d.groupby("o_custkey", as_index=False)["spent_c"].sum()
        return agg.sort_values(["spent_c", "o_custkey"],
                               ascending=[False, True],
                               kind="mergesort").head(10)

    agg = combine_by_key(partial, ["o_custkey"], top10)
    if agg.empty:
        return _empty_typed(o_custkey="int64", total_spent="float64")
    agg = top10(agg).reset_index(drop=True)
    agg["total_spent"] = agg["spent_c"].astype(np.float64) / 100.0
    return agg.drop(columns=["spent_c"])


# ---------------------------------------------------------------------------
# ordered within-group assembly (the flagship shuffle shape on testdata)
# ---------------------------------------------------------------------------

def q_ordered_assembly(sf_dir: str) -> pd.DataFrame:
    """Per-user event-type concat ordered by (ts, event_id) — same
    groupby+in-group-sort shape as conversation assembly."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]],
                             "events_concat": [",".join(g["event_type"])]})

    return ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas").to_pandas()


def q_user_sessions(sf_dir: str) -> pd.DataFrame:
    """Session windows: per-user session count with a 30-minute
    inactivity gap — the streaming-window shape on a keyed, ordered
    log. Shuffle: ONE groupby over ``user_id % 64`` buckets (per-user
    map_groups paid pandas overhead per tiny group); inside a bucket
    the gap scan is a single vectorized diff over the (user, ts)-sorted
    rows with user-boundary masking."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = 30 * 60 * 1_000_000

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = (b["user_id"] % 64).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        if not len(u):
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "brk": pd.Series([], dtype="int64")})
        same = np.concatenate([[False], u[1:] == u[:-1]])
        brk = same & (np.concatenate([[0], np.diff(ts)]) > gap_us)
        return pd.DataFrame({"user_id": u, "brk": brk.astype(np.int64)}) \
            .groupby("user_id", as_index=False)["brk"].sum()

    with _scoped_parallelism(64):
        out = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(user_id="int64", n_sessions="int64")
    out["n_sessions"] = out.pop("brk") + 1
    return out.astype({"user_id": "int64", "n_sessions": "int64"}) \
        .sort_values("user_id").reset_index(drop=True)


def q_session_intervals(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands MATERIALIZATION: the merged session intervals
    themselves — (user, session_idx, start, end, n_events) with a
    30-minute inactivity gap — where ``user_sessions`` reports only
    counts. The canonical islands shape (LAG -> break flag -> running
    SUM island id -> per-island rollup) runs VECTORIZED inside the
    same ``user_id % 64`` bucket exchange: one sorted diff marks
    breaks, one cumsum numbers islands, one groupby((user, island))
    rolls up — no per-user group calls. Output cardinality is
    #sessions; at corpus scale the consumer is a sink, exactly like
    the other per-row feature ops. Tie order (ts, event_id) matches
    the twin's window ORDER BY."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = 30 * 60 * 1_000_000

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = (b["user_id"] % 64).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "session_idx": pd.Series([], dtype="int64"),
            "session_start": pd.Series([], dtype="datetime64[us]"),
            "session_end": pd.Series([], dtype="datetime64[us]"),
            "n_events": pd.Series([], dtype="int64")})
        if not len(u):
            return empty
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = np.concatenate([[False], u[1:] == u[:-1]])
        brk = same & (np.concatenate([[0], np.diff(ts)]) > gap_us)
        new_user = ~same
        sid = np.cumsum(brk | new_user)  # global island id in bucket
        isl = pd.DataFrame({"user_id": u, "sid": sid, "ts": ts}) \
            .groupby(["user_id", "sid"], as_index=False) \
            .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                 n_events=("ts", "size"))
        isl = isl.sort_values(["user_id", "sid"])
        isl["session_idx"] = isl.groupby("user_id").cumcount() + 1
        return pd.DataFrame({
            "user_id": isl["user_id"].to_numpy(np.int64),
            "session_idx": isl["session_idx"].to_numpy(np.int64),
            "session_start": isl["session_start"].to_numpy(np.int64)
            .view("datetime64[us]"),
            "session_end": isl["session_end"].to_numpy(np.int64)
            .view("datetime64[us]"),
            "n_events": isl["n_events"].to_numpy(np.int64)})

    with _scoped_parallelism(64):
        out = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(user_id="int64", session_idx="int64",
                            session_start="datetime64[us]",
                            session_end="datetime64[us]",
                            n_events="int64")
    out["session_start"] = out["session_start"].astype("datetime64[us]")
    out["session_end"] = out["session_end"].astype("datetime64[us]")
    return out.astype({"user_id": "int64", "session_idx": "int64",
                       "n_events": "int64"}) \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def q_join_customer_orders(sf_dir: str) -> pd.DataFrame:
    """Broadcast join (customer is the small side) -> grouped rollup."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"]).to_pandas()
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, on="o_custkey", right_on="c_custkey")
    partial = joined.map_batches(
        lambda b: b.assign(price_c=_cents(b["o_totalprice"]))
        .groupby("c_mktsegment", as_index=False).agg(
            n_orders=("price_c", "size"),
            price_c=("price_c", "sum")),
        batch_format="pandas")
    out = _reduce_partials(partial, ["c_mktsegment"],
                           ["n_orders", "price_c"])
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_price"] = out["price_c"].astype(np.float64) / 100.0
    return out.drop(columns=["price_c"])


def q_join_lineitem_orders(sf_dir: str) -> pd.DataFrame:
    """Large-large join (lineitem x orders) -> revenue per order
    priority, via AQE-style strategy selection: the skinny orders
    key-map broadcasts below the 5M-row stats gate (zero shuffle at
    test scale), and the partitioned bucketed hash join takes over
    above it (num_buckets=32 is the skew knob)."""
    from .stages.joins import adaptive_join

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = adaptive_join(li, orders, "l_orderkey", "o_orderkey",
                           num_buckets=32)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rev_i = _cents(b["l_extendedprice"]).to_numpy() \
            * (100 - _cents(b["l_discount"]).to_numpy())
        return pd.DataFrame({"o_orderpriority": b["o_orderpriority"],
                             "rev_i": rev_i, "n": 1}) \
            .groupby("o_orderpriority", as_index=False).sum()

    out = _reduce_partials(
        joined.map_batches(partial, batch_format="pandas"),
        ["o_orderpriority"], ["rev_i", "n"])
    out["n"] = out["n"].astype("int64")
    out["revenue"] = out["rev_i"].astype(np.float64) / 10000.0
    return out.drop(columns=["rev_i"])


def q_supplier_nation_region(sf_dir: str) -> pd.DataFrame:
    """3-way broadcast star join: supplier -> nation -> region rollup."""
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")[["n_nationkey", "r_name"]]
    sup = _pq(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
    joined = broadcast_join(sup, dim, on="s_nationkey", right_on="n_nationkey")
    partial = joined.map_batches(
        lambda b: b.assign(bal_c=_cents(b["s_acctbal"]))
        .groupby("r_name", as_index=False).agg(
            n_suppliers=("bal_c", "size"),
            bal_c=("bal_c", "sum")),
        batch_format="pandas")
    out = _reduce_partials(partial, ["r_name"], ["n_suppliers", "bal_c"])
    out["n_suppliers"] = out["n_suppliers"].astype("int64")
    out["total_acctbal"] = out["bal_c"].astype(np.float64) / 100.0
    return out.drop(columns=["bal_c"])


def q_promo_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14-shaped promo revenue share: part x lineitem with the part
    side broadcast (dimension table: one ray.put, read per worker — no
    shuffle at all; the rollup is a single global pair of int64 sums)."""
    import pyarrow.parquet as pq

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"]).to_pandas()
    part["is_promo"] = part["p_type"].str.startswith("PROMO")
    part = part[["p_partkey", "is_promo"]]
    li = _pq(sf_dir, "lineitem",
             ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
    lo, hi = pd.Timestamp("1995-09-01"), pd.Timestamp("1995-12-01")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        rev_i = _cents(b["l_extendedprice"]).to_numpy() \
            * (100 - _cents(b["l_discount"]).to_numpy())
        return pd.DataFrame({
            "promo_i": [int(rev_i[b["is_promo"].to_numpy()].sum())],
            "total_i": [int(rev_i.sum())]})

    joined = broadcast_join(li, part, on="l_partkey", right_on="p_partkey")
    agg = joined.map_batches(partial, batch_format="pandas").sum(
        ["promo_i", "total_i"])
    if not agg or agg.get("sum(total_i)") in (None, 0):
        # empty window: SQL SUM is NULL and the share divides to NULL
        return pd.DataFrame({"promo_revenue": [np.nan]})
    promo = 100.0 * float(agg["sum(promo_i)"]) / float(agg["sum(total_i)"])
    return pd.DataFrame({"promo_revenue": [promo]})


# ---------------------------------------------------------------------------
# text ops over documents
# ---------------------------------------------------------------------------

def q_customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """ANTI-join: customers with no orders. The distinct key set of the
    fact side is collected via a small aggregate and broadcast ONCE as
    a sorted int64 array (``ray.put`` + per-worker ``_get_broadcast``
    cache + ``isin_sorted`` — no per-batch set deserialization; key
    sets are tiny relative to fact rows; for billions of DISTINCT keys
    use the bucketed join with an anti flag instead)."""
    import ray

    from .stages.joins import _get_broadcast, isin_sorted

    try:
        keys = _pq(sf_dir, "orders", ["o_custkey"]).unique("o_custkey")
    except TypeError:  # zero-block dataset: unique() yields None
        keys = None
    keys_ref = ray.put(np.sort(np.asarray(list(keys or []),
                                          dtype=np.int64)))

    def anti(b: pd.DataFrame) -> pd.DataFrame:
        have = _get_broadcast(keys_ref)
        hit = isin_sorted(b["c_custkey"].to_numpy(), have)
        return b[~hit][["c_custkey", "c_name"]]

    out = _pq(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(anti, batch_format="pandas").to_pandas()
    if out.empty:  # every customer ordered: empty frame keeps the schema
        return pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                             "c_name": pd.Series(dtype="object")})
    return out.astype({"c_custkey": "int64"})


def q_customers_with_orders(sf_dir: str) -> pd.DataFrame:
    """SEMI-join: count customers that placed at least one order per
    market segment (sorted-int64-array broadcast membership via
    ``_get_broadcast`` + ``isin_sorted`` — fetched once per worker, not
    per batch; one partial-agg row per segment per batch crosses the
    shuffle)."""
    import ray

    from .stages.joins import _get_broadcast, isin_sorted

    try:
        keys = _pq(sf_dir, "orders", ["o_custkey"]).unique("o_custkey")
    except TypeError:  # zero-block dataset: unique() yields None
        keys = None
    keys_ref = ray.put(np.sort(np.asarray(list(keys or []),
                                          dtype=np.int64)))

    def semi(b: pd.DataFrame) -> pd.DataFrame:
        have = _get_broadcast(keys_ref)
        hit = b[isin_sorted(b["c_custkey"].to_numpy(), have)]
        return hit.groupby("c_mktsegment", as_index=False).agg(
            n=("c_custkey", "size"))

    out = _reduce_partials(
        _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .map_batches(semi, batch_format="pandas"), ["c_mktsegment"], ["n"])
    out["n"] = out["n"].astype("int64")
    return out


def q_artifact_strip(sf_dir: str) -> pd.DataFrame:
    """Reference R5 artifact removal applied per doc; returns cleaned length
    (whitespace.rs:91-114 regex chain, same order)."""
    from .core.cleanup import remove_page_artifacts

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_clean": b["text"].fillna("").map(
                lambda t: len(remove_page_artifacts(t))).astype("int64")}),
        batch_format="pandas").to_pandas()


def q_token_counts(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_tokens": ftext.token_count_ws(b["text"])}),
        batch_format="pandas").to_pandas()


def q_token_counts_bpe(sf_dir: str) -> pd.DataFrame:
    """BPE-ish regex tokenization (lookahead regex — no SQL twin)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_tokens_bpe": ftext.token_count_bpe(b["text"])}),
        batch_format="pandas").to_pandas()


def q_doc_stats(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    partial = ds.map_batches(
        lambda b: b.groupby("lang", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")),
        batch_format="pandas")
    out = _reduce_partials(partial, ["lang"], ["n_docs", "sum_chars"])
    out["avg_chars"] = out["sum_chars"].astype(np.float64) / out["n_docs"]
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    return out


def q_fingerprint_md5(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"],
                                "fp": ftext.fingerprint_md5(b["text"])}),
        batch_format="pandas").to_pandas()


_WINNOW_PAIR_THRESHOLD = 20  # min shared fingerprints for a dup pair


def _winnow_pair_counts_ds(sf_dir: str, k: int = 16,
                           window: int = 8):
    """Lazy Dataset of winnowing co-occurrence counts (id_a, id_b,
    sum(n)) — the shared upstream of q_winnow_dup_pairs (driver-side
    report), q_dup_components (distributed clustering) and the
    (k, window) sensitivity grid. Only (fp, doc_id) int pairs cross
    the shuffle, never text."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    num_buckets = 64

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for doc_id, text in zip(b["doc_id"], b["text"].fillna("")):
            f = ftext.winnow_fingerprints(text, k=k, window=window)
            ids.extend([doc_id] * len(f))
            fps.extend(f.tolist())
        fp_arr = pd.Series(fps, dtype="uint64")
        return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                             "fp": fp_arr,
                             "bucket": (fp_arr % num_buckets)
                             .astype("int64")})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # per-fingerprint pair generation, vectorized by GROUP-SIZE
        # CLASS inside one bucket: sort the distinct (fp, doc) rows
        # once, then for each co-occurrence size s in 2..16 reshape
        # that size-class's members to (groups, s) and emit all pairs
        # with one fancy-index — no per-fingerprint Python iteration
        # (a loop over ~6k fp groups per bucket measured ~2 min of
        # pure pandas group overhead at sf0.1)
        f = g[["fp", "doc_id"]].drop_duplicates() \
            .sort_values(["fp", "doc_id"], kind="mergesort")
        fp = f["fp"].to_numpy()
        ids = f["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        counts = np.diff(np.r_[starts, len(fp)])
        out_a: list = []
        out_b: list = []
        for s in range(2, 17):  # hot fingerprint guard: skip > 16
            sel = starts[counts == s]
            if not sel.size:
                continue
            mat = ids[sel[:, None] + np.arange(s)]
            ia, ib = np.triu_indices(s, k=1)
            out_a.append(mat[:, ia].ravel())
            out_b.append(mat[:, ib].ravel())
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)}) \
            .groupby(["id_a", "id_b"], as_index=False).size() \
            .rename(columns={"size": "n"})

    per_bucket = ds.map_batches(explode, batch_format="pandas") \
        .groupby("bucket").map_groups(pairs_in_bucket,
                                      batch_format="pandas") \
        .materialize()
    # final cross-bucket pair-count reduce, gated like _reduce_partials:
    # the per-bucket outputs are already reduced, so below the gate the
    # driver combine replaces a whole Ray exchange (returned as a
    # one-block Dataset so both consumers keep their Dataset flow)
    n = per_bucket.count()
    if n <= _xc.GATE_ROWS:
        df = (per_bucket.to_pandas()
              .groupby(["id_a", "id_b"], as_index=False)["n"].sum()
              .rename(columns={"n": "sum(n)"})
              if n else pd.DataFrame({"id_a": [], "id_b": [],
                                      "sum(n)": []}))
        import ray

        return ray.data.from_pandas(df)
    return per_bucket.groupby(["id_a", "id_b"]).sum("n")


def q_winnow_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Rolling-hash document fingerprinting (winnowing): explode each doc
    into its fingerprint set, groupby(fingerprint) to find co-occurring
    docs, then count shared fingerprints per pair and keep pairs sharing
    >= _WINNOW_PAIR_THRESHOLD (MOSS-style plagiarism/dup detection; only
    (fp, doc_id) pairs cross the shuffle, never text)."""
    pair_counts = _winnow_pair_counts_ds(sf_dir).to_pandas()
    if pair_counts.empty:
        return _empty_typed(id_a="int64", id_b="int64")
    out = pair_counts[pair_counts["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
    return out[["id_a", "id_b"]].astype("int64") \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)


_CC_MAX_ITERS = 64


def q_dup_components(sf_dir: str) -> pd.DataFrame:
    """Connected components of the winnowing near-dup graph by
    DISTRIBUTED min-label propagation — the scale path for dedup
    clustering when the verified edge list outgrows the driver (the
    driver union-find in q_minhash_dedup assumes a tiny edge list; this
    operator does not). Returns (doc_id, component) where component is
    the smallest doc_id reachable from doc_id; only docs in a dup pair
    appear (cluster size > 1 by construction).

    Shuffle budget per iteration: TWO int-only exchanges — a bucketed
    groupby over the tagged union of symmetric edges and current labels
    (each bucket attaches its nodes' labels to their out-edges with one
    vectorized merge and pre-reduces the (neighbor, label) messages),
    then a groupby(node).min(lab) reduce. Iterations = graph diameter
    (near-dup families are dense, so small); labels decrease
    monotonically, so convergence = sum(lab) unchanged — a cheap global
    check, no join against the previous state. The corpus-sized
    documents table never enters the loop: edges and labels are
    O(dup nodes), the skinny tail of the corpus."""
    def edges_of(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
        return pd.DataFrame({"a": b["id_a"].astype("int64"),
                             "b": b["id_b"].astype("int64")})

    with _scoped_parallelism(16):
        edges = _winnow_pair_counts_ds(sf_dir) \
            .map_batches(edges_of, batch_format="pandas").materialize()
    return _connected_components(edges)


def _connected_components(edges) -> pd.DataFrame:
    """Distributed min-label propagation over a Dataset of int64 edges
    (a, b). Returns (doc_id, component) sorted by doc_id — see
    q_dup_components for the per-iteration shuffle budget."""
    _CC_BUCKETS = 64

    n_edges = edges.count()
    if n_edges == 0:
        return _empty_typed(doc_id="int64", component="int64")
    if n_edges <= _xc.GATE_ROWS:
        # Below the reduce gate the edge list is driver-sized (the same
        # philosophy as _reduce_partials): per-iteration Ray exchanges
        # cost seconds each and a CHAIN-shaped component needs diameter
        # iterations — measured 164s at sf0.1 for a graph whose driver
        # CC takes milliseconds. Vectorized hook + shortcut (pointer
        # jumping) converges in O(log n) numpy passes.
        e = edges.to_pandas()
        a = e["a"].to_numpy(np.int64)
        b = e["b"].to_numpy(np.int64)
        nodes, inv = np.unique(np.concatenate([a, b]),
                               return_inverse=True)
        ia, ib = inv[: len(a)], inv[len(a):]
        lab = nodes.copy()
        for _ in range(_CC_MAX_ITERS):
            old = lab.copy()
            m = np.minimum(lab[ia], lab[ib])  # hook: edge min, both ways
            np.minimum.at(lab, ia, m)
            np.minimum.at(lab, ib, m)
            # shortcut: labels are node ids, so one pointer jump per
            # pass (lab <- lab[lab]) halves chain depth
            lab = np.minimum(lab, lab[np.searchsorted(nodes, lab)])
            if np.array_equal(lab, old):
                break
        else:
            raise RuntimeError("dup_components did not converge")
        return pd.DataFrame({"doc_id": nodes, "component": lab}) \
            .astype("int64").sort_values("doc_id").reset_index(drop=True)

    def sym_msgs(b: pd.DataFrame) -> pd.DataFrame:
        # both directions: key owns an out-neighbor list, bucketed by key
        key = np.concatenate([b["a"].to_numpy(np.int64),
                              b["b"].to_numpy(np.int64)])
        dst = np.concatenate([b["b"].to_numpy(np.int64),
                              b["a"].to_numpy(np.int64)])
        return pd.DataFrame({
            "key": key, "dst": dst, "lab": np.int64(-1),
            "is_lab": np.int64(0),
            "__bucket": _bucket_of(pd.Series(key), _CC_BUCKETS)})

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        nodes = np.unique(np.concatenate([b["a"].to_numpy(np.int64),
                                          b["b"].to_numpy(np.int64)]))
        return pd.DataFrame({"node": nodes, "lab": nodes})

    def as_label_rows(b: pd.DataFrame) -> pd.DataFrame:
        key = b["node"].astype("int64") if "node" in b.columns \
            else b["key"].astype("int64")
        lab = b["min(lab)"].astype("int64") if "min(lab)" in b.columns \
            else b["lab"].astype("int64")
        return pd.DataFrame({
            "key": key.to_numpy(np.int64), "dst": np.int64(-1),
            "lab": lab.to_numpy(np.int64), "is_lab": np.int64(1),
            "__bucket": _bucket_of(key, _CC_BUCKETS)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        """One bucket: merge labels onto out-edges, emit pre-reduced
        (node, lab) messages (neighbors + self)."""
        labs = g.loc[g["is_lab"] == 1, ["key", "lab"]]
        outs = g.loc[g["is_lab"] == 0, ["key", "dst"]] \
            .merge(labs, on="key")
        node = np.concatenate([outs["dst"].to_numpy(np.int64),
                               labs["key"].to_numpy(np.int64)])
        lab = np.concatenate([outs["lab"].to_numpy(np.int64),
                              labs["lab"].to_numpy(np.int64)])
        return pd.DataFrame({"node": node, "lab": lab}) \
            .groupby("node", as_index=False).min()

    sym = edges.map_batches(sym_msgs, batch_format="pandas").materialize()

    with _scoped_parallelism(16):
        labels = edges.map_batches(init_labels, batch_format="pandas") \
            .groupby("node").min("lab") \
            .map_batches(as_label_rows, batch_format="pandas") \
            .materialize()
        prev_sum = None
        for _ in range(_CC_MAX_ITERS):
            nxt = sym.union(labels) \
                .groupby("__bucket").map_groups(propagate,
                                                batch_format="pandas") \
                .groupby("node").min("lab") \
                .map_batches(as_label_rows, batch_format="pandas") \
                .materialize()
            tot = nxt.sum("lab")
            labels = nxt
            if tot == prev_sum:  # monotone ↓: fixpoint reached
                break
            prev_sum = tot
        else:
            raise RuntimeError("dup_components did not converge")

    out = labels.to_pandas()
    return pd.DataFrame({"doc_id": out["key"].astype("int64"),
                         "component": out["lab"].astype("int64")}) \
        .sort_values("doc_id").reset_index(drop=True)


def q_normalize_text(sf_dir: str) -> pd.DataFrame:
    """Text normalization (training-data prep): lowercase + whitespace
    collapse + trim, emitted as per-doc md5 so the oracle compares exact
    content without shipping text through the hash report."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("").str.lower() \
            .str.replace(r"\s+", " ", regex=True).str.strip()
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "norm_md5": t.map(
                lambda s: __import__("hashlib").md5(
                    s.encode("utf-8")).hexdigest()),
            "norm_len": t.str.len().astype("int64"),
        })

    return ds.map_batches(norm, batch_format="pandas").to_pandas()


def q_redact_pii(sf_dir: str) -> pd.DataFrame:
    """PII-style redaction: replace emails and URLs with placeholder
    tokens; per-doc redaction counts + md5 of the redacted text (both
    regexes are RE2/PCRE-portable so DuckDB reproduces them exactly)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    email_re = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    url_re = r"https?://[^\s]+"

    def redact(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        n_email = t.str.count(email_re).astype("int64")
        n_url = t.str.count(url_re).astype("int64")
        red = t.str.replace(email_re, "<EMAIL>", regex=True) \
            .str.replace(url_re, "<URL>", regex=True)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_emails": n_email,
            "n_urls": n_url,
            "redacted_md5": red.map(
                lambda s: __import__("hashlib").md5(
                    s.encode("utf-8")).hexdigest()),
        })

    return ds.map_batches(redact, batch_format="pandas").to_pandas()


def q_quality_features(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        f = ftext.quality_features(b["text"])
        return pd.DataFrame({"doc_id": b["doc_id"],
                             "n_tokens": f["n_tokens"],
                             "n_punct": f["n_punct"],
                             "n_digits": f["n_digits"]})

    return ds.map_batches(feats, batch_format="pandas").to_pandas()


def q_quality_score(sf_dir: str) -> pd.DataFrame:
    """Composite heuristic score. The banded-ratio chain is mirrored
    term-for-term in the DuckDB oracle (same operand order), so both sides
    produce bit-identical doubles — no rounding needed."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"],
            "quality": ftext.quality_score(b["text"]).to_numpy()}),
        batch_format="pandas").to_pandas()


def q_compression_ratio(sf_dir: str) -> pd.DataFrame:
    """Compressibility quality signal (the Gopher-family heuristic:
    text that zlib crushes far below ~0.4x is boilerplate/template —
    a dedup/repetition target BEFORE expensive near-dup passes).
    Rows-only: zlib is not SQL-expressible, so the canonical hash is
    pinned in tests/test_pinned_rows_only.py (zlib level 6 is
    deterministic; confirmed identical across num_cpus in fresh
    sessions before pinning). Per-batch C-speed ``zlib.compress`` per
    DOC (same granularity as content hashing — a per-document codec
    call, not a per-row hot loop over records); ONE streamed pass, no
    exchange. Ratio quantizes to the shared half-away 1e-6 grid;
    empty docs -> NaN ratio."""
    import zlib

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def comp(b: pd.DataFrame) -> pd.DataFrame:
        enc = [t.encode("utf-8") for t in b["text"].fillna("")]
        raw = np.array([len(e) for e in enc], np.int64)
        cz = np.array([len(zlib.compress(e, 6)) for e in enc], np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(raw > 0,
                         cz.astype(np.float64)
                         / np.maximum(raw, 1).astype(np.float64),
                         np.nan) * 1e6
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "raw_bytes": raw, "comp_bytes": cz,
            "ratio": np.copysign(np.floor(np.abs(r) + 0.5), r) / 1e6})

    out = ds.map_batches(comp, batch_format="pandas").to_pandas()
    if out.empty:  # zero-block column-less frame on an empty corpus
        return _empty_typed(doc_id="int64", raw_bytes="int64",
                            comp_bytes="int64", ratio="float64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_lang_id(sf_dir: str) -> pd.DataFrame:
    """Heuristic language ID (stopword profiles). The SQL twin mirrors the
    stopword-hit argmax with first-max-wins tie-breaking; the CJK charset
    shortcut has no SQL mirror, so the oracle only holds on ASCII corpora
    (the testdata is pure ASCII — verified max codepoint 0x79)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"],
                                "lang_pred": ftext.detect_language(b["text"])}),
        batch_format="pandas").to_pandas()


def q_props_rollup(sf_dir: str) -> pd.DataFrame:
    """Semi-structured payload column: parse the JSON ``props`` per event
    (vectorized str.extract — compiled once per batch) and roll up the
    extracted metric per event type. Covers the one events column no other
    query touches."""
    ds = _pq(sf_dir, "events", ["event_type", "props"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        k = b["props"].fillna("").str.extract(r"(\d+)", expand=False) \
            .fillna("0").astype(np.int64)
        return pd.DataFrame({"event_type": b["event_type"], "k_sum": k,
                             "n": 1}) \
            .groupby("event_type", as_index=False).sum()

    out = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["event_type"], ["k_sum", "n"])
    out["avg_k"] = (out["k_sum"].astype(np.float64)) / out["n"]
    out["k_sum"] = out["k_sum"].astype("int64")
    return out.drop(columns=["n"])


def q_split_assign(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split assignment (training-data prep):
    first hex nibble of md5(doc_id) routes 1/16 to test, 1/16 to val,
    rest to train — stable under any partitioning/reordering because the
    hash depends only on the row key. Pure map, no shuffle."""
    import hashlib

    ds = _pq(sf_dir, "documents", ["doc_id"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        nib = b["doc_id"].map(
            lambda d: hashlib.md5(str(d).encode()).hexdigest()[0])
        split = np.where(nib == "0", "test",
                         np.where(nib == "1", "val", "train"))
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "split": split})

    return ds.map_batches(assign, batch_format="pandas").to_pandas()


def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sample: per-language doc counts of an
    exact 2/16 hash sample (md5 nibble in {0,1}) — the reproducible
    corpus-sampling op (no RNG, no shuffle; partial counts only)."""
    import hashlib

    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        nib = b["doc_id"].map(
            lambda d: hashlib.md5(str(d).encode()).hexdigest()[0])
        hit = b[(nib == "0") | (nib == "1")]
        return hit.groupby("lang", as_index=False).agg(
            n_sampled=("doc_id", "size"))

    out = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["lang"], ["n_sampled"])
    out["n_sampled"] = out["n_sampled"].astype("int64")
    return out


_DECONTAM_K = 8  # benchmark-overlap shingle width (public decontamination
# practice uses 8-13-gram overlap against eval sets)
_BENCH_DOC_IDS = 10  # doc_id < 10 plays the role of the benchmark set


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: flag corpus docs sharing any word 8-gram
    with the (small) benchmark set. The benchmark grams are built once,
    broadcast via ray.put and fetched through the per-worker
    ``_get_broadcast`` cache (one deserialize per worker, not per
    batch); the scan is a pure map — no shuffle. At 100 TB the
    benchmark side stays small by definition (eval sets)."""
    import ray

    from .stages.joins import _get_broadcast

    token_re = fdedup._TOKEN_RE

    def grams_of(text: str) -> set:
        toks = token_re.findall((text or "").lower())
        return {" ".join(toks[i : i + _DECONTAM_K])
                for i in range(len(toks) - _DECONTAM_K + 1)}

    bench_df = _pq(sf_dir, "documents", ["doc_id", "text"]) \
        .filter(expr=f"doc_id < {_BENCH_DOC_IDS}").to_pandas()
    bench: set = set()
    if "text" in bench_df.columns:  # zero-block frame has no columns
        for t in bench_df["text"]:
            bench |= grams_of(t)
    bench_ref = ray.put(frozenset(bench))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        bset = _get_broadcast(bench_ref)
        contaminated = [not bset.isdisjoint(grams_of(t))
                        for t in b["text"]]
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "contaminated": contaminated})

    return _pq(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(flag, batch_format="pandas").to_pandas()


_REPETITION_MAX_DUP = 0.3  # keep docs whose duplicate-2gram fraction <= 0.3


def q_repetition_filter(sf_dir: str) -> pd.DataFrame:
    """C4/Gopher-style repetition quality rule: fraction of duplicate word
    2-grams per doc; keep = dup_frac <= 0.3. Pure map; the fraction is an
    exact int ratio so the oracle hash is deterministic."""
    token_re = fdedup._TOKEN_RE

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        fracs = []
        for t in b["text"]:
            toks = token_re.findall((t or "").lower())
            n2 = len(toks) - 1
            if n2 <= 0:
                fracs.append(0.0)
                continue
            grams = {(toks[i], toks[i + 1]) for i in range(n2)}
            fracs.append(1.0 - len(grams) / n2)
        fr = np.asarray(fracs, dtype=np.float64)
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "dup_frac": fr,
                             "keep": fr <= _REPETITION_MAX_DUP})

    return _pq(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(stats, batch_format="pandas").to_pandas()


def q_token_histogram(sf_dir: str) -> pd.DataFrame:
    """Corpus token-length histogram (10-token buckets): per-batch partial
    counts, tiny groupby — the length-distribution op a filtering pipeline
    reads before picking cutoffs."""
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n = ftext.token_count_ws(b["text"])
        return pd.DataFrame({"bucket": (n // 10) * 10}) \
            .groupby("bucket", as_index=False).agg(n_docs=("bucket", "size"))

    out = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["bucket"], ["n_docs"])
    return out.astype({"bucket": "int64", "n_docs": "int64"})


def q_ngram_topk(sf_dir: str) -> pd.DataFrame:
    """Corpus-level top-20 word bigrams — the LM-stats op (vocabulary /
    n-gram frequency tables) run before building filters. Combiner
    discipline: each batch counts its own bigrams (vectorized
    explode + in-doc shift, no Python per-token loop), so the shuffle
    carries one row per DISTINCT gram per batch, not one per token; the
    final reduce is the gated keyed combine over those partials, each
    key set summed and cut to its local top-20 — bigram cardinality
    grows with corpus size, so above the gate only those constant-size
    cuts reach the driver, never the vocabulary."""
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("").str.split().explode().dropna()
        nxt = s.groupby(level=0).shift(-1)
        grams = (s + " " + nxt).dropna()
        vc = grams.value_counts()
        return pd.DataFrame({"gram": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy()})

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "gram"], ascending=[False, True],
                             kind="mergesort").head(20)

    out = combine_by_key(
        ds.map_batches(partial, batch_format="pandas"), ["gram"],
        lambda d: topk(d.groupby("gram", as_index=False)["n"].sum()))
    if out.empty:
        return _empty_typed(gram=object, n="int64")
    out = topk(out).reset_index(drop=True)
    return out.astype({"n": "int64"})


def q_tfidf_keywords(sf_dir: str) -> pd.DataFrame:
    """Per-doc top-3 TF-IDF keywords — the keyword-extraction op,
    shaped as the canonical two-pass broadcast
    pattern: pass 1 computes document frequencies with per-batch
    distinct-(doc, term) partials (one row per distinct term per batch
    crosses the shuffle); the df table (vocabulary-sized, sublinear in
    corpus bytes) is `ray.put` ONCE and read per worker via the cached
    `_get_broadcast`; pass 2 scores and top-k's entirely inside
    `map_batches` (a doc's terms never leave its batch — no second
    shuffle). Determinism: idf is quantized to an int (round(ln(N/df)
    * 1e6)) on BOTH sides so the ranking key tf*idf6 is integer — no
    float-order ambiguity in the top-3 cut."""
    import ray

    # one physical read for all three consumers (count, df pass, score
    # pass) — without this the parquet is re-read per consumer
    ds = _pq(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        lens = toks.str.len().to_numpy()
        if lens.sum() == 0:
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "df": pd.Series([], dtype="int64")})
        flat = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks.to_numpy() if len(t)])
        pairs = pd.DataFrame({
            "doc_id": np.repeat(b["doc_id"].to_numpy(), lens),
            "term": flat}).drop_duplicates()
        out = pairs.groupby("term", as_index=False).size()
        return out.rename(columns={"size": "df"})

    n_docs = ds.count()
    df_tbl = _reduce_partials(ds.map_batches(df_partial,
                                             batch_format="pandas"),
                              ["term"], ["df"])
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"])))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        df_map = _get_broadcast(df_ref)
        toks = b["text"].fillna("").str.split()
        lens = toks.str.len().to_numpy()
        if len(b) == 0 or lens.sum() == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "term": pd.Series([], dtype=object),
                                 "score": pd.Series([], dtype="float64")})
        flat = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks.to_numpy() if len(t)])
        tf = pd.DataFrame({
            "doc_id": np.repeat(b["doc_id"].to_numpy(), lens),
            "term": flat}).groupby(["doc_id", "term"], as_index=False).size()
        dfv = tf["term"].map(df_map).to_numpy(np.float64)
        idf6 = np.rint(np.log(float(n_docs) / dfv) * 1e6).astype(np.int64)
        tf["key"] = tf["size"].to_numpy(np.int64) * idf6
        tf = tf.sort_values(["doc_id", "key", "term"],
                            ascending=[True, False, True], kind="mergesort")
        top = tf.groupby("doc_id", as_index=False).head(3)
        return pd.DataFrame({
            "doc_id": top["doc_id"].to_numpy(),
            "term": top["term"].to_numpy(dtype=object),
            "score": np.round(top["key"].to_numpy(np.float64) / 1e6, 6)})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64", term=object, score="float64")
    return out.astype({"doc_id": "int64", "score": "float64"}) \
        .sort_values(["doc_id", "term"]).reset_index(drop=True)


_DECILE_PS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def q_length_deciles(sf_dir: str) -> pd.DataFrame:
    """EXACT corpus deciles of doc length via a distributed value
    histogram: per-batch value counts shuffle one row per distinct
    n_chars per batch (the length domain is bounded — kilobytes of keys
    at any corpus size), the reduced (value, count) table is tiny on the
    driver, and the quantile is read off the cumulative counts. This is
    the scale-safe exact-quantile plan (no global sort, no sampling
    error — contrast approximate t-digest). Index rule matches DuckDB
    `quantile_disc` (= SQL percentile_disc): sorted[ceil(n*p) - 1],
    verified against random corpora in tests/test_new_ops_property.py
    (the floor((n-1)*p) rule coincides only when n*p is integral)."""
    ds = _pq(sf_dir, "documents", ["n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["n_chars"].value_counts()
        return pd.DataFrame({"v": vc.index.to_numpy(),
                             "cnt": vc.to_numpy()})

    hist = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                            ["v"], ["cnt"]).sort_values("v")
    cum = hist["cnt"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:  # empty corpus: NULL per decile, matching the SQL twin
        return pd.DataFrame({"p": np.float64(_DECILE_PS),
                             "n_chars": np.full(len(_DECILE_PS), np.nan)})
    vals = hist["v"].to_numpy()
    rows = []
    for p in _DECILE_PS:
        rows.append((p, int(disc_pick(vals, cum, disc_rank(n, p)))))
    return pd.DataFrame(rows, columns=["p", "n_chars"]) \
        .astype({"p": "float64", "n_chars": "int64"})


def q_running_revenue(sf_dir: str) -> pd.DataFrame:
    """Per-customer running order total — the analytic window function
    (SUM OVER PARTITION ... ORDER BY) Ray Data lacks natively, expressed
    as a BUCKETED window: shuffle on bucket = custkey % 64 (every row
    of a customer lands in one bucket), then one vectorized pandas
    sort + groupby(custkey).cumsum per bucket — 64 group calls instead
    of one per customer (measured 3.1s -> sub-second at sf0.1; a
    per-customer map_groups pays ~0.3ms of per-group overhead x 10k
    customers). Money sums ride int64 cents (see `_cents`) so the
    cumulative chain is exact in any execution order. Skew note: group
    size = orders per customer (bounded); a pathological hot key would
    salt by time range and stitch prefix sums."""
    ds = _pq(sf_dir, "orders",
             ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = (b["o_custkey"] % 64).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        cents = _cents(g["o_totalprice"])
        run = cents.groupby(g["o_custkey"].to_numpy()).cumsum() \
            .to_numpy(np.float64) / 100.0
        return pd.DataFrame({"o_orderkey": g["o_orderkey"].to_numpy(),
                             "o_custkey": g["o_custkey"].to_numpy(),
                             "running_total": run})

    with _scoped_parallelism(32):
        out = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(o_orderkey="int64", o_custkey="int64",
                            running_total="float64")
    return out.astype({"o_orderkey": "int64", "o_custkey": "int64",
                       "running_total": "float64"})


_PACK_BLOCK_TOKENS = 512  # LM context budget per packed block
_PACK_RANGE = 128  # doc_ids per prefix-sum range (the parallelism knob)


def q_pack_blocks(sf_dir: str) -> pd.DataFrame:
    """Sequence packing for LM training: concatenate docs in doc_id
    order into fixed 512-token blocks — each doc gets (block_id,
    offset_in_block) from the GLOBAL running token count before it.
    The global prefix sum is distributed: (1) per-batch token counts
    shuffle as a skinny (doc_id, n_tokens) table; (2) per-range sums
    (range = doc_id // 128) reduce to one row per range — the only
    thing the driver holds — and prefix-sum there; (3) range bases
    broadcast back, and each range's docs colocate once
    (groupby(range).map_groups) for the in-range sort + cumsum. Two
    skinny shuffles, no global sort, driver state = O(#ranges). The
    flagship's conversation offsets (state/offset_index.py) are the same
    prefix sum keyed by conversation, computed on the driver."""
    import ray

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "n_tokens": ftext.token_count_ws(b["text"]).to_numpy(np.int64)})

    skinny = ds.map_batches(counts, batch_format="pandas")

    def range_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"rng": b["doc_id"] // _PACK_RANGE,
                          "sum_tokens": b["n_tokens"]})
        return g.groupby("rng", as_index=False).agg(
            sum_tokens=("sum_tokens", "sum"))

    skinny = skinny.materialize()  # two consumers (range sums + packing)
    ranges = _reduce_partials(skinny.map_batches(range_partial,
                                                 batch_format="pandas"),
                              ["rng"], ["sum_tokens"]).sort_values("rng")
    bases = dict(zip(ranges["rng"].to_numpy(np.int64),
                     np.concatenate([[0], ranges["sum_tokens"]
                                     .cumsum().to_numpy(np.int64)[:-1]])))
    base_ref = ray.put(bases)

    def add_rng(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rng"] = (b["doc_id"] // _PACK_RANGE).astype(np.int64)
        return b

    def pack_range(g: pd.DataFrame) -> pd.DataFrame:
        base = _get_broadcast(base_ref)[int(g["rng"].iloc[0])]
        g = g.sort_values("doc_id", kind="mergesort")
        tok = g["n_tokens"].to_numpy(np.int64)
        before = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": tok,
            "block_id": before // _PACK_BLOCK_TOKENS,
            "offset_in_block": before % _PACK_BLOCK_TOKENS})

    with _scoped_parallelism(32):
        out = skinny.map_batches(add_rng, batch_format="pandas") \
            .groupby("rng").map_groups(pack_range, batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64", n_tokens="int64",
                            block_id="int64", offset_in_block="int64")
    return out.astype({"doc_id": "int64", "n_tokens": "int64",
                       "block_id": "int64", "offset_in_block": "int64"})


def q_latest_order_per_customer(sf_dir: str) -> pd.DataFrame:
    """Group-wise arg-max (latest order per customer) as a pure
    combiner: each batch keeps one best row per customer
    (vectorized sort + drop_duplicates), partials re-reduce with the
    same rule — no wide shuffle at all; the exchanged rows are bounded
    by (#customers x #batches) partials, and associativity of the
    arg-max makes the two-level reduce exact. Tie-break: latest
    o_orderdate, then highest o_orderkey."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate",
                                "o_totalprice"])

    def best(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          ascending=[True, False, False], kind="mergesort")
        return b.drop_duplicates("o_custkey", keep="first")

    out = combine_by_key(ds.map_batches(best, batch_format="pandas"),
                         ["o_custkey"], best)
    if out.empty:
        return _empty_typed(o_custkey="int64", o_orderkey="int64",
                            o_orderdate="datetime64[us]",
                            last_price="float64")
    out = out.rename(columns={"o_totalprice": "last_price"})
    out["last_price"] = np.round(out["last_price"].astype(np.float64), 6)
    return out[["o_custkey", "o_orderkey", "o_orderdate", "last_price"]] \
        .astype({"o_custkey": "int64", "o_orderkey": "int64"}) \
        .reset_index(drop=True)


def q_distinct_users_per_type(sf_dir: str) -> pd.DataFrame:
    """Grouped EXACT count-distinct: per-batch drop_duplicates
    (type, user) is the combiner (shuffle carries distinct pairs per
    batch, not raw events), a second distinct over the combined
    partials, then a tiny count per type. The approximate path at
    extreme cardinality would swap the exact set for HLL sketches
    merged in the same two-level shape."""
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates()

    def per_type(d: pd.DataFrame) -> pd.DataFrame:
        return d.drop_duplicates().groupby("event_type", as_index=False) \
            .agg(n_users=("user_id", "size"))

    # a (type, user) pair lands in one key set, so per-set counts sum
    out = combine_by_key(ds.map_batches(pairs, batch_format="pandas"),
                         ["event_type", "user_id"], per_type)
    if out.empty:
        return _empty_typed(event_type=object, n_users="int64")
    out = out.groupby("event_type", as_index=False)["n_users"].sum()
    return out.astype({"n_users": "int64"})


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: survivor = min doc_id per distinct text. Shuffle carries
    only (content_hash, doc_id)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(
        lambda b: pd.DataFrame({
            "content_hash": fdedup.content_hash(b["text"]),
            "doc_id": b["doc_id"]}),
        batch_format="pandas")
    from ray.data.aggregate import Min

    with _scoped_parallelism(32):  # skinny (hash, id) exchange; 200
        # partitions drown a kilorow groupby in per-partition overhead
        out = hashed.groupby("content_hash").aggregate(
            Min("doc_id", alias_name="doc_id")).to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64")
    return out[["doc_id"]].astype({"doc_id": "int64"})


_MINHASH_HOT_BAND = 64  # degenerate band-bucket guard (O(n^2) pair bound)
_MINHASH_BROADCAST_MAX = 200_000  # candidate-text broadcast size gate


def q_minhash_dedup(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup clusters: signature per batch -> explode band
    rows -> groupby band -> candidate pairs (hot-band guarded) -> Jaccard
    verify >= 0.8 INSIDE map_batches against texts joined in by doc_id ->
    min-label components over the (tiny) verified edge list. Returns
    (doc_id, cluster_root) for docs in clusters of size > 1.

    Scale plan: the full documents table never reaches the driver — only
    the int candidate-pair list and (below the broadcast gate) the
    candidate-id texts do. Above the gate, candidate texts flow through
    two bucketed hash joins of pairs x filtered docs instead.
    """
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    num_band_buckets = 64

    def bands(b: pd.DataFrame) -> pd.DataFrame:
        br = fdedup.batch_minhash_band_rows(b["text"])
        bh_arr = br["band_hash"]
        # grouping by the raw (band_id, band_hash) would mean one
        # map_groups group per band hash — nearly all singletons, measured
        # pathological (same finding as the winnowing query); bucket the
        # hash space and do the per-hash split vectorized inside a bucket
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64)[br["row"]],
            "band_id": br["band_id"],
            "band_hash": bh_arr,
            "bucket": bh_arr % num_band_buckets})

    band_rows = ds.map_batches(bands, batch_format="pandas")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # only hashes that repeat can produce pairs — cheap C-level prefilter
        dup = g[g.duplicated(["band_id", "band_hash"], keep=False)]
        out_a: list = []
        out_b: list = []
        for _, sub in dup.groupby(["band_id", "band_hash"], sort=False):
            ids = np.sort(sub["doc_id"].unique())
            if len(ids) < 2:
                continue
            if len(ids) > _MINHASH_HOT_BAND:
                # hot band (a 65+-doc near-dup family): emit a STAR
                # (min-id, other) instead of all pairs — O(n) edges that
                # preserve union-find connectivity after verification, so
                # the cluster output matches the all-pairs oracle while
                # bounding the blow-up
                out_a.extend([int(ids[0])] * (len(ids) - 1))
                out_b.extend(ids[1:].tolist())
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            out_a.extend(ids[ia].tolist())
            out_b.extend(ids[ib].tolist())
        return pd.DataFrame({"id_a": pd.Series(out_a, dtype="int64"),
                             "id_b": pd.Series(out_b, dtype="int64")})

    import ray

    with _scoped_parallelism(32):
        # candidate pairs: ONE shuffle (bucket groupby); the pair list is
        # ints only and bounded by 16x the true near-dup pair count, so
        # pulling it to the driver for dedup is safe at any corpus size
        # where the output itself is consumable
        pair_df = band_rows.groupby("bucket").map_groups(
            pairs_in_bucket, batch_format="pandas").to_pandas() \
            .drop_duplicates()
    if pair_df.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "cluster_root": pd.Series(dtype="int64")})
    cand_ids = frozenset(pair_df["id_a"]) | frozenset(pair_df["id_b"])
    ids_ref = ray.put(np.fromiter(cand_ids, dtype=np.int64,
                                  count=len(cand_ids)))

    def keep_candidates(t: pa.Table) -> pa.Table:
        # pyarrow filter: zero-copy, and empty results are Arrow blocks
        # (the pandas size-estimator warns on zero-row object columns)
        import pyarrow.compute as pc

        vs = pa.array(_get_broadcast(ids_ref), type=pa.int64())
        return t.filter(pc.is_in(t.column("doc_id"), value_set=vs))

    # candidate texts: the near-dup subset of the corpus, never the
    # full table
    cdocs = ds.map_batches(keep_candidates, batch_format="pyarrow")
    cand_ds = rd.from_pandas(pair_df)

    if len(cand_ids) <= _MINHASH_BROADCAST_MAX:
        # common case: candidate texts fit the object store comfortably —
        # broadcast them once and verify in a single no-shuffle stage
        tdf = cdocs.to_pandas()
        tref = ray.put(dict(zip(tdf["doc_id"], tdf["text"])))

        def verify_broadcast(b: pd.DataFrame) -> pd.DataFrame:
            tmap = _get_broadcast(tref)
            keep = [fdedup.jaccard(tmap[a], tmap[bb]) >= 0.8
                    for a, bb in zip(b["id_a"], b["id_b"])]
            return b.loc[keep, ["id_a", "id_b"]]

        edges = cand_ds.map_batches(verify_broadcast,
                                    batch_format="pandas").to_pandas()
    else:
        # scale fallback: join texts onto the pairs with bucketed hash
        # joins — no driver materialization of any text set
        with _scoped_parallelism(32):
            cdocs = cdocs.materialize()  # consumed twice below
            docs_a = cdocs.map_batches(
                lambda b: b.rename(columns={"text": "text_a"}),
                batch_format="pandas")
            with_a = bucketed_hash_join(cand_ds, docs_a, "id_a", "doc_id",
                                        num_buckets=32) \
                .map_batches(lambda b: b[["id_a", "id_b", "text_a"]]
                             .astype({"id_b": "int64"}),
                             batch_format="pandas")
            docs_b = cdocs.map_batches(
                lambda b: b.rename(columns={"text": "text_b"}),
                batch_format="pandas")
            with_b = bucketed_hash_join(with_a, docs_b, "id_b", "doc_id",
                                        num_buckets=32)

            def verify(b: pd.DataFrame) -> pd.DataFrame:
                keep = [fdedup.jaccard(ta, tb) >= 0.8
                        for ta, tb in zip(b["text_a"], b["text_b"])]
                return b.loc[keep, ["id_a", "id_b"]]

            edges = with_b.map_batches(
                verify, batch_format="pandas").to_pandas()
    comp = fdedup.connected_components(
        list(zip(edges["id_a"].tolist(), edges["id_b"].tolist())))
    if not comp:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "cluster_root": pd.Series(dtype="int64")})
    return pd.DataFrame(sorted(comp.items()),
                        columns=["doc_id", "cluster_root"]).astype("int64")


def q_simhash_buckets(sf_dir: str) -> pd.DataFrame:
    """SimHash signatures: doc_id -> 64-bit simhash (md5 token hash, so
    the DuckDB oracle reconstructs the signature bit-for-bit)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(fdedup.add_simhash, batch_format="pandas").to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64", simhash="int64")
    return out[["doc_id", "simhash"]]


def _ngram_dup_pairs_ds(sf_dir: str):
    """Lazy Dataset of char-3-gram Jaccard >= 0.9 pairs (id_a, id_b,
    sim) — the shared upstream of q_ngram_dup_pairs (driver-side
    report) and q_dedup_method_agreement (distributed pair-set
    intersection). Pairs are distinct by construction: each doc has
    ONE simhash prefix, so a pair can only form in one bucket."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    sh = ds.map_batches(fdedup.add_simhash, batch_format="pandas")

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["text"] = b["text"].fillna("")  # keep jaccard total on nulls
        b["bucket"] = np.right_shift(b["simhash"].to_numpy(np.uint64),
                                     np.uint64(48)).astype(np.int64)
        return b[["doc_id", "text", "bucket"]]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].tolist()
        txt = g["text"].tolist()
        out = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                sim = fdedup.ngram_jaccard(txt[i], txt[j])
                if sim >= 0.9:
                    # raw |A∩B|/|A∪B| double: the oracle computes the same
                    # integer division, so no rounding lottery (cf. the
                    # integer-cents pattern in the money rollups)
                    out.append((min(ids[i], ids[j]), max(ids[i], ids[j]),
                                sim))
        return pd.DataFrame(out, columns=["id_a", "id_b", "sim"]) if out else \
            pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                          "id_b": pd.Series(dtype="int64"),
                          "sim": pd.Series(dtype="float64")})

    return sh.map_batches(bucket, batch_format="pandas") \
        .groupby("bucket").map_groups(pairs, batch_format="pandas")


def q_ngram_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Character-3-gram Jaccard >= 0.9 pairs among same-simhash-prefix
    buckets (cheap near-dup verify; exact DuckDB twin via the md5-based
    simhash reconstruction + substr 3-gram sets)."""
    return _ngram_dup_pairs_ds(sf_dir).to_pandas()


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

_KNN_K = 5
_KNN_QUERIES = 5


def _query_matrix(sf_dir: str) -> np.ndarray | None:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"]).to_pandas()
    t = t[t["vec_id"] < _KNN_QUERIES].sort_values("vec_id")
    if t.empty:  # empty corpus: no query vectors -> callers emit 0 rows
        return None
    return np.stack(t["embedding"].to_numpy())


def _empty_knn() -> pd.DataFrame:
    return _empty_typed(query_id="int64", vec_id="int64", score="float64")


def q_embedding_knn(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k: broadcast query matrix, per-batch matmul,
    small final reduce. query_id = vec_id < 5; k=5."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qm = _query_matrix(sf_dir)
    if qm is None:
        return _empty_knn()
    out = fsim.brute_force_topk(ds, qm, k=_KNN_K)
    out["score"] = np.round(out["score"].astype(np.float64), 4)
    out = out.drop(columns=["rank"])
    return out.astype({"query_id": "int64", "vec_id": "int64"})


def _ivf_query(sf_dir: str, n_probe: int) -> pd.DataFrame:
    """Shared IVF body (quantizer sample, train, probe, rounding) so the
    approximate and exhaustive registrations can never drift apart."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qm = _query_matrix(sf_dir)
    if qm is None:
        return _empty_knn()
    sample = np.stack(ds.limit(2000).to_pandas()["embedding"].to_numpy())
    centroids = fsim.train_ivf_centroids(sample, n_lists=16)
    out = fsim.ivf_topk(ds, qm, centroids, k=_KNN_K, n_probe=n_probe)
    out["score"] = np.round(out["score"].astype(np.float64), 4)
    out = out.drop(columns=["rank"])
    return out.astype({"query_id": "int64", "vec_id": "int64"})


def q_embedding_ivf_knn(sf_dir: str) -> pd.DataFrame:
    """IVF ANN top-k (the similarity-search scale path): spherical
    k-means coarse quantizer trained on a driver-side sample, inverted
    lists assigned per batch, only the n_probe nearest lists scored per
    query — touches n_probe/n_lists of the corpus instead of all of it."""
    return _ivf_query(sf_dir, n_probe=6)


def q_embedding_ivf_exhaustive(sf_dir: str) -> pd.DataFrame:
    """IVF with n_probe == n_lists: probing every inverted list must
    reproduce brute-force cosine top-k exactly, so this pins the whole
    IVF machinery (quantizer training, list assignment, probe, partial
    top-k merge) against the same DuckDB oracle as embedding_knn.
    The approximate configuration (n_probe < n_lists) stays registered
    as embedding_ivf_knn and is recall-tested in pytest."""
    return _ivf_query(sf_dir, n_probe=16)


def q_embedding_near_dups(sf_dir: str) -> pd.DataFrame:
    """Multi-table LSH cosine near-dup pairs (scale path). 48 tables of
    12 hyperplanes give ~1.5e-18 miss probability at tau=0.99, so the
    exact all-pairs DuckDB oracle matches by construction on any corpus
    — not just when the pair set happens to be empty (pinned on planted
    duplicates in pytest)."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return fsim.lsh_near_dup_pairs(ds, tau=0.99)


def q_embedding_sim_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact all-pairs cosine similarity above tau — the brute-force
    baseline for similarity search: the full (small) embedding matrix is
    normalized once and broadcast via ray.put; each batch does one
    float64 matmul against it. No shuffle; exact, so it carries a DuckDB
    list_cosine_similarity oracle. PRODUCTION NOTE: O(N^2) brute force —
    size-gated below; route real corpora through q_embedding_ivf_knn /
    q_embedding_near_dups (the sub-quadratic scale paths)."""
    import ray

    tau = 0.3
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    n_rows = ds.count()
    if n_rows > 2_000_000:  # the broadcast matrix would exceed worker heaps
        raise ValueError(
            f"embedding_sim_pairs is the exact O(N^2) baseline; {n_rows} "
            "rows is past the gate — use embedding_ivf_knn or "
            "embedding_near_dups at this scale")
    full = ds.to_pandas()
    if full.empty:
        return _empty_typed(id_a="int64", id_b="int64")
    ids = full["vec_id"].to_numpy()
    mat = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ref = ray.put((ids, mat))

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        from .stages.joins import _get_broadcast

        all_ids, all_mat = _get_broadcast(ref)
        bm = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
        sims = bm @ all_mat.T
        bi = b["vec_id"].to_numpy()
        rows_i, cols_j = np.nonzero(sims >= tau)
        ia, ib = bi[rows_i], all_ids[cols_j]
        keep = ia < ib  # dedupe + drop self pairs
        return pd.DataFrame({"id_a": ia[keep].astype("int64"),
                             "id_b": ib[keep].astype("int64")})

    out = ds.map_batches(pairs, batch_format="pandas").to_pandas()
    return out.drop_duplicates().reset_index(drop=True)


def q_doc_embed_knn(sf_dir: str) -> pd.DataFrame:
    """End-to-end text -> embed -> ANN over the documents table: an
    actor-pool embedding stage (HashingEmbedder: model state once per
    actor, the batched-inference shape) feeds brute-force cosine top-k.
    Self-validating invariant (also pinned in pytest): each query doc's
    own vector is its top hit at score 1. The hashing embedder (md5
    token hash, float64 accumulation) is reconstructed BIT-identically
    by the DuckDB oracle: per-dim sums are integer-valued (exact in any
    summation order), norms are sqrts of exact integer sums, and only
    the final dot products differ at ~1e-16 — far below the 1e-4
    rounding grid."""
    import ray

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    # pool strictly below session CPUs: an actor pool equal to num_cpus
    # starves the read stage (observed deadlock in 4-cpu test sessions)
    pool = max(1, min(4, int(ray.cluster_resources().get("CPU", 2)) - 2))
    emb = ds.map_batches(fsim.HashingEmbedder, batch_format="pandas",
                         batch_size=256, concurrency=pool,
                         fn_constructor_kwargs={"dim": 64}).materialize()
    qdf = emb.filter(expr="vec_id < 5").to_pandas()
    if qdf.empty:
        return _empty_knn()
    qdf = qdf.sort_values("vec_id")
    qmat = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    out = fsim.brute_force_topk(emb, qmat, k=5)
    out["score"] = np.round(out["score"].astype(np.float64), 4)
    return out.drop(columns=["rank"]).astype({"query_id": "int64",
                                              "vec_id": "int64"})


# ---------------------------------------------------------------------------
# multimodal (stubbed codecs, real Ray plumbing) + metrics rollups
# ---------------------------------------------------------------------------

def q_media_features(sf_dir: str) -> pd.DataFrame:
    """Binary media -> features via the actor-pool stage (fake decoder;
    the codec slot is stubbed — no SQL twin). Deterministic synthetic media
    table; small batches for large binary rows."""
    import ray.data as rd_

    from .stages.multimodal import MediaFeatures, synthesize_media_table

    media = rd_.from_arrow(synthesize_media_table(200)).repartition(8)
    out = media.map_batches(MediaFeatures, batch_format="pyarrow",
                            batch_size=16, concurrency=2,
                            fn_constructor_kwargs={"use_fake_decoder": True}) \
        .to_pandas()
    return pd.DataFrame({
        "media_id": out["media_id"].astype("int64"),
        "status": out["status"],
        "decoded_h": out["decoded_h"].astype("int64"),
        "decoded_w": out["decoded_w"].astype("int64"),
        "feat_mean": np.round([float(np.mean(f)) for f in out["feature"]], 6),
    })


def q_frame_sampling(sf_dir: str) -> pd.DataFrame:
    """Video frame-sampling plumbing (1 row per sampled frame)."""
    import ray.data as rd_

    from .stages.multimodal import FrameSampler, synthesize_media_table

    media = rd_.from_arrow(synthesize_media_table(100)).repartition(8)
    out = media.map_batches(FrameSampler, batch_format="pyarrow",
                            batch_size=16, concurrency=2).to_pandas()
    return out.astype({"media_id": "int64", "frame_idx": "int64",
                       "ts_ms": "int64"})


# ---------------------------------------------------------------------------
# layout / output-converter operators over the synthetic corpus (spans are
# only produced by positioned payloads; rows-only oracles — not SQL shapes)
# ---------------------------------------------------------------------------

def _extracted_spans_ds(sf_dir: str):
    """Flagship extract (spans kept) over the matching synthetic corpus."""
    from .gen.cache import tag_for_sf_dir, transcripts_path
    from .pipelines.flagship import extract_dataset, read_transcripts

    path = transcripts_path(tag_for_sf_dir(sf_dir), with_golden=False)
    ds = read_transcripts(path)
    return extract_dataset(ds, want_markdown=False, keep_spans=True)


def _blocks_from_recs(recs):
    """Span records (the SPAN_TYPE struct rows) -> layout Blocks; shared
    by the layout/heading rollups so a span-schema change can't silently
    diverge them."""
    from .core.layout import Block

    return [Block(x=r["x"], y=r["y"], width=r["w"], height=r["h"],
                  text=r["text"], font_size=r["size"], bold=r["bold"])
            for r in (recs or [])]


def q_layout_stats(sf_dir: str) -> pd.DataFrame:
    """Per-kind layout rollup: XY-Cut column regions, graph reading-order
    length, detected tables — L3/L5/L7 run inside a map_batches over each
    turn's spans (within-payload ops, no shuffle; one aggregate row per
    kind crosses the exchange)."""
    from .core.layout import (detect_tables, determine_reading_order,
                              graph_based_reading_order, xy_cut)

    ds = _extracted_spans_ds(sf_dir)

    def per_batch(b: pa.Table) -> pd.DataFrame:
        kinds = b.column("kind").to_pylist()
        spans_col = b.column("spans").to_pylist()
        rows = []
        for kind, recs in zip(kinds, spans_col):
            blocks = _blocks_from_recs(recs)
            if not blocks:
                continue
            tree = xy_cut((0.0, 0.0, 612.0, 792.0), blocks)
            order = determine_reading_order(tree)
            graph_order = graph_based_reading_order(blocks)
            tables = detect_tables(blocks)
            rows.append((kind, len(blocks), len(order) == len(blocks)
                         and len(graph_order) == len(blocks), len(tables)))
        df = pd.DataFrame(rows, columns=["kind", "n_blocks", "order_ok",
                                         "n_tables"])
        return df.groupby("kind", as_index=False).agg(
            n_turns=("kind", "size"), n_blocks=("n_blocks", "sum"),
            order_ok=("order_ok", "sum"), n_tables=("n_tables", "sum"))

    out = ds.select_columns(["kind", "spans"]) \
        .map_batches(per_batch, batch_format="pyarrow") \
        .groupby("kind").aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_blocks", alias_name="n_blocks"),
            Sum("order_ok", alias_name="order_ok"),
            Sum("n_tables", alias_name="n_tables")).to_pandas()
    return out.astype({"n_turns": "int64", "n_blocks": "int64",
                       "order_ok": "int64", "n_tables": "int64"})


def q_heading_stats(sf_dir: str) -> pd.DataFrame:
    """L11 in the Dataset surface: HeadingClassifier + LayoutReader
    confidence over each turn's layout blocks. Partial counts per
    (kind, level) inside map_batches; only the tiny (kind, level, n,
    low_conf) partials cross the exchange (rows-only check — the inputs
    are engine-extracted spans, not SQL-reachable)."""
    from .core.ml import HeadingClassifier, LayoutReader

    ds = _extracted_spans_ds(sf_dir)
    clf = HeadingClassifier.load()
    reader = LayoutReader.load()

    def per_batch(b: pa.Table) -> pd.DataFrame:
        kinds = b.column("kind").to_pylist()
        spans_col = b.column("spans").to_pylist()
        rows = []
        for kind, recs in zip(kinds, spans_col):
            blocks = _blocks_from_recs(recs)
            if not blocks:
                continue
            low_conf = reader.estimate_confidence(blocks) < 0.75
            for level in clf.classify(blocks):
                rows.append((kind, level, int(low_conf)))
        df = pd.DataFrame(rows, columns=["kind", "level", "low_conf"])
        return df.groupby(["kind", "level"], as_index=False).agg(
            n=("level", "size"), low_conf=("low_conf", "sum"))

    partials = ds.select_columns(["kind", "spans"]) \
        .map_batches(per_batch, batch_format="pyarrow")
    out = _reduce_partials(partials, ["kind", "level"], ["n", "low_conf"])
    return out.astype({"n": "int64", "low_conf": "int64"}) \
        .sort_values(["kind", "level"]).reset_index(drop=True)


def q_structured_elements(sf_dir: str) -> pd.DataFrame:
    """R7 structured extraction as a Ray stage: per-kind counts of
    headers/paragraphs/lists over each turn's spans."""
    from .core.interpret import TextSpan
    from .core.structured import extract_structured

    ds = _extracted_spans_ds(sf_dir)

    def per_batch(b: pa.Table) -> pd.DataFrame:
        kinds = b.column("kind").to_pylist()
        spans_col = b.column("spans").to_pylist()
        rows = []
        for kind, recs in zip(kinds, spans_col):
            spans = [TextSpan(text=r["text"], x=r["x"], y=r["y"],
                              width=r["w"], height=r["h"],
                              font_name=r["font"], font_size=r["size"],
                              bold=r["bold"], mcid=None, sequence=r["seq"])
                     for r in (recs or [])]
            if not spans:
                continue
            meta = extract_structured(spans)["metadata"]
            rows.append((kind, meta["header_count"],
                         meta["paragraph_count"], meta["list_count"]))
        df = pd.DataFrame(rows, columns=["kind", "headers", "paragraphs",
                                         "lists"])
        return df.groupby("kind", as_index=False).agg(
            n_turns=("kind", "size"), headers=("headers", "sum"),
            paragraphs=("paragraphs", "sum"), lists=("lists", "sum"))

    out = ds.select_columns(["kind", "spans"]) \
        .map_batches(per_batch, batch_format="pyarrow") \
        .groupby("kind").aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("headers", alias_name="headers"),
            Sum("paragraphs", alias_name="paragraphs"),
            Sum("lists", alias_name="lists")).to_pandas()
    return out.astype({"n_turns": "int64", "headers": "int64",
                       "paragraphs": "int64", "lists": "int64"})


def q_html_output(sf_dir: str) -> pd.DataFrame:
    """R6 semantic-HTML render as a Ray stage: per-kind output volume and
    tag counts (h1/p) over each turn's spans."""
    from .core.html_out import convert_page_semantic
    from .core.interpret import TextSpan

    ds = _extracted_spans_ds(sf_dir)

    def per_batch(b: pa.Table) -> pd.DataFrame:
        kinds = b.column("kind").to_pylist()
        spans_col = b.column("spans").to_pylist()
        rows = []
        for kind, recs in zip(kinds, spans_col):
            spans = [TextSpan(text=r["text"], x=r["x"], y=r["y"],
                              width=r["w"], height=r["h"],
                              font_name=r["font"], font_size=r["size"],
                              bold=r["bold"], mcid=None, sequence=r["seq"])
                     for r in (recs or [])]
            if not spans:
                continue
            html = convert_page_semantic(spans)
            rows.append((kind, len(html), html.count("<h1>"),
                         html.count("<p>")))
        df = pd.DataFrame(rows, columns=["kind", "chars", "h1", "p"])
        return df.groupby("kind", as_index=False).agg(
            n_turns=("kind", "size"), chars=("chars", "sum"),
            h1=("h1", "sum"), p=("p", "sum"))

    out = ds.select_columns(["kind", "spans"]) \
        .map_batches(per_batch, batch_format="pyarrow") \
        .groupby("kind").aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("chars", alias_name="chars"),
            Sum("h1", alias_name="h1"),
            Sum("p", alias_name="p")).to_pandas()
    return out.astype({"n_turns": "int64", "chars": "int64",
                       "h1": "int64", "p": "int64"})


def q_asof_purchase_click(sf_dir: str) -> pd.DataFrame:
    """As-of join (custom temporal operator): for each purchase event, the
    most recent preceding-or-simultaneous click by the same user. One
    groupby(user) shuffle of skinny projections; per-group vectorized
    searchsorted (stages/joins.py asof_join)."""
    from .stages.joins import asof_join

    # materialize the pruned read ONCE: both filter branches otherwise
    # re-execute the parquet scan (two full decodes of the events table)
    ev = _pq(sf_dir, "events",
             ["event_id", "ts", "user_id", "event_type"]).materialize()
    purchases = ev.filter(expr="event_type == 'purchase'")
    clicks = ev.filter(expr="event_type == 'click'")
    with _scoped_parallelism(32):  # skinny exchange; 200 partitions is
        # pure overhead at this group cardinality
        out = asof_join(purchases, clicks, on="user_id", left_ts="ts",
                        right_ts="ts", left_cols=["event_id"],
                        right_cols=["event_id"]).to_pandas()
    out = out.rename(columns={"ts": "purchase_ts", "ts_right": "click_ts",
                              "event_id": "purchase_id",
                              "event_id_right": "click_id"})
    if out.empty:
        return _empty_typed(user_id="int64", purchase_id="int64",
                            purchase_ts="datetime64[us]", click_id="int64",
                            click_ts="datetime64[us]")
    return out.astype({"purchase_id": "int64", "click_id": "int64"})


def q_range_purchase_views(sf_dir: str) -> pd.DataFrame:
    """Range/band join: views by the same user within the hour before each
    purchase (two searchsorted cuts per group; no row explosion)."""
    from .stages.joins import range_count_join

    ev = _pq(sf_dir, "events",
             ["event_id", "ts", "user_id", "event_type"]).materialize()
    purchases = ev.filter(expr="event_type == 'purchase'")
    views = ev.filter(expr="event_type == 'view'")
    with _scoped_parallelism(32):
        out = range_count_join(
            purchases, views, on="user_id", left_ts="ts", right_ts="ts",
            left_id="event_id", lower=-pd.Timedelta(hours=1),
            upper=pd.Timedelta(0), count_name="n_views_1h").to_pandas()
    out = out.rename(columns={"event_id": "purchase_id"})
    if out.empty:
        return _empty_typed(purchase_id="int64", n_views_1h="int64")
    return out[["purchase_id", "n_views_1h"]].astype(
        {"purchase_id": "int64", "n_views_1h": "int64"})


def _pdf_media_dataset(sf_dir: str):
    """Corpus PDFs -> multimodal media table (Image XObjects as opaque
    binary + typed metadata), shared by q_pdf_images and
    q_image_thumbnails."""
    from .gen.cache import tag_for_sf_dir, transcripts_path
    from .pipelines.flagship import read_transcripts
    from .stages.multimodal import MEDIA_SCHEMA

    path = transcripts_path(tag_for_sf_dir(sf_dir), with_golden=False)

    def pull_images(b: pa.Table) -> pa.Table:
        import zlib

        from .core.document import PdfDocument
        from .core.images import extract_images_all

        rows = []
        for conv, tidx, text in zip(b.column("conv_id").to_pylist(),
                                    b.column("turn_idx").to_pylist(),
                                    b.column("text").to_pylist()):
            if not (text or "").lstrip().startswith("%PDF"):
                continue
            try:
                imgs = extract_images_all(PdfDocument(
                    text.encode("latin-1", errors="replace")))
            except Exception:  # noqa: BLE001
                continue
            for k, im in enumerate(imgs):
                rows.append({
                    "media_id": (zlib.crc32(f"{conv}:{tidx}:{k}".encode())
                                 & 0x7FFFFFFF),
                    "payload": im.data,
                    "meta": {"media_type": "image", "format": im.format,
                             "width": im.width, "height": im.height,
                             "duration_ms": 0,
                             "color_space": im.color_space,
                             "bits": im.bits_per_component},
                })
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    ds = read_transcripts(path, columns=["conv_id", "turn_idx", "text"])
    return ds.map_batches(pull_images, batch_format="pyarrow")


def q_pdf_images(sf_dir: str) -> pd.DataFrame:
    """S8 image extraction bridged into the multimodal actor stage:
    map_batches pulls Image XObjects out of corpus PDFs as opaque binary +
    typed metadata rows, then the MediaFeatures actor pool decodes the raw
    samples to RGB pixels for real (pure numpy — bit expansion, gray/CMYK
    conversion; only DCT/JPX would need a codec lib) and featurizes."""
    from .stages.multimodal import MediaFeatures

    media = _pdf_media_dataset(sf_dir)
    # REAL decoder: the generator's XObjects are Flate raw-RGB, decoded
    # to pixels in pure numpy (codec-less); jpeg would yield error rows
    feats = media.map_batches(
        MediaFeatures, batch_format="pyarrow", batch_size=16, concurrency=2,
        fn_constructor_kwargs={"use_fake_decoder": False}).to_pandas()
    if feats.empty:
        return pd.DataFrame({"n_images": [0], "n_ok": [0]})
    return pd.DataFrame({
        "n_images": [len(feats)],
        "n_ok": [int((feats["status"] == "ok").sum())],
    })


def q_image_thumbnails(sf_dir: str) -> pd.DataFrame:
    """Multimodal RESIZE stage end-to-end for real: corpus PDF images
    decode to RGB in pure numpy and bilinear-resize to 32x32 thumbnails
    in the ImageResize actor pool. Output is one row per image with a
    deterministic luma scalar (pure per-row map, so the result is
    parallelism-invariant and pinned in tests); the thumbnail bytes
    themselves stay distributed — only (id, status, luma) reach the
    driver."""
    from .stages.multimodal import ImageResize

    media = _pdf_media_dataset(sf_dir)
    out = media.map_batches(
        ImageResize, batch_format="pyarrow", batch_size=16, concurrency=2,
        fn_constructor_kwargs={"use_fake_decoder": False}) \
        .select_columns(["media_id", "status", "thumb_h", "thumb_w",
                         "mean_luma_q6"]).to_pandas()
    if out.empty:
        return _empty_typed(media_id="int64", status=object,
                            thumb_h="int32", thumb_w="int32",
                            mean_luma_q6="int64")
    return out.sort_values("media_id").reset_index(drop=True)


def q_feature_census(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide PDF feature census (reference
    ``src/bin/analyze_pdf_features.rs``, distributed): per-payload feature
    booleans/counts fold to ONE partial row per batch inside map_batches;
    a single sum crosses the exchange. The reference walks a directory on
    one core; here the census streams over the corpus and the shuffle
    carries #batches rows of 19 ints."""
    from .gen.cache import tag_for_sf_dir, transcripts_path

    path = transcripts_path(tag_for_sf_dir(sf_dir), with_golden=False)
    return feature_census_over(path)


def feature_census_over(path: str) -> pd.DataFrame:
    """Census plan over any transcripts path (shared by the query and the
    ``analyze`` CLI subcommand)."""
    from .core.docmeta import FEATURE_KEYS
    from .pipelines.flagship import read_transcripts

    def per_batch(b: pa.Table) -> pd.DataFrame:
        from .core.docmeta import analyze_features
        from .core.document import PdfDocument

        tot = dict.fromkeys(FEATURE_KEYS, 0)
        for text in b.column("text").to_pylist():
            if not (text or "").lstrip().startswith("%PDF"):
                continue
            try:
                doc = PdfDocument(text.encode("latin-1", errors="replace"))
                stats = analyze_features(doc)
            except Exception:  # noqa: BLE001 - poison rows never fail a task
                stats = dict.fromkeys(FEATURE_KEYS, 0)
                stats["n_docs"] = stats["n_parse_fail"] = 1
            for k, v in stats.items():
                tot[k] += v
        return pd.DataFrame({k: [v] for k, v in tot.items()})

    ds = read_transcripts(path, columns=["text"])
    out = ds.map_batches(per_batch, batch_format="pyarrow") \
        .sum(list(FEATURE_KEYS))
    if not out:  # zero-block input: Dataset.sum yields None
        return pd.DataFrame([dict.fromkeys(FEATURE_KEYS, 0)])
    return pd.DataFrame([{k.replace("sum(", "").replace(")", ""):
                          int(v) if v is not None else 0
                          for k, v in out.items()}])


def q_doc_metadata(sf_dir: str) -> pd.DataFrame:
    """R8 rollup: outline items / annotations / form fields counted per
    payload kind across the corpus (metadata parse inside map_batches; one
    partial row per batch crosses the exchange)."""
    from .gen.cache import tag_for_sf_dir, transcripts_path
    from .pipelines.flagship import read_transcripts

    path = transcripts_path(tag_for_sf_dir(sf_dir), with_golden=False)

    def per_batch(b: pa.Table) -> pd.DataFrame:
        from .core.docmeta import (extract_form_fields, get_annotations,
                                   get_outline)
        from .core.document import PdfDocument

        n_docs = n_outlined = n_outline_items = 0
        n_annots = n_links = n_fields = 0
        for text in b.column("text").to_pylist():
            if not (text or "").lstrip().startswith("%PDF"):
                continue
            try:
                doc = PdfDocument(text.encode("latin-1", errors="replace"))
                pages = doc.pages()
            except Exception:  # noqa: BLE001 - poison rows never fail a task
                continue
            n_docs += 1
            outline = get_outline(doc)
            if outline:
                n_outlined += 1
                stack = list(outline)
                while stack:
                    item = stack.pop()
                    n_outline_items += 1
                    stack.extend(item.children)
            for page in pages:
                anns = get_annotations(doc, page)
                n_annots += len(anns)
                n_links += sum(1 for a in anns if a.subtype == "Link")
            n_fields += len(extract_form_fields(doc))
        return pd.DataFrame({
            "n_docs": [n_docs], "n_outlined": [n_outlined],
            "n_outline_items": [n_outline_items], "n_annots": [n_annots],
            "n_links": [n_links], "n_form_fields": [n_fields]})

    ds = read_transcripts(path, columns=["text"])
    out = ds.map_batches(per_batch, batch_format="pyarrow").sum(
        ["n_docs", "n_outlined", "n_outline_items", "n_annots", "n_links",
         "n_form_fields"])
    return pd.DataFrame([{k.replace("sum(", "").replace(")", ""): int(v)
                          for k, v in out.items()}])


_CHUNK_W = 3     # words per non-overlapping dedup chunk
_CHUNK_HOT = 4   # corpus-wide occurrence threshold => boilerplate


def _word_chunks(texts: pd.Series):
    """(row_idx, chunk_id, chunk_text) for non-overlapping ``_CHUNK_W``-word
    chunks, fully vectorized: one flat word array per batch (same shape as
    the tfidf kernel), chunk ids from integer position math, chunk text via
    a single grouped join — no per-row Python loop."""
    words = texts.fillna("").str.split()
    lens = words.str.len().to_numpy(np.int64)
    total = int(lens.sum())
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                pd.Series([], dtype=object))
    flat = np.concatenate([np.asarray(w, dtype=object)
                           for w in words.to_numpy() if len(w)])
    row = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    cid = (np.arange(total, dtype=np.int64) - starts) // _CHUNK_W
    g = pd.DataFrame({"row": row, "cid": cid, "w": flat}) \
        .groupby(["row", "cid"], sort=True)["w"].agg(" ".join)
    idx = g.index
    return (idx.get_level_values(0).to_numpy(np.int64),
            idx.get_level_values(1).to_numpy(np.int64),
            g.reset_index(drop=True))


def q_chunk_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact-substring corpus dedup at word-chunk granularity (the
    chunk-level variant of Lee et al. 2022, "Deduplicating Training Data
    Makes Language Models Better"): each doc splits into non-overlapping
    ``_CHUNK_W``-word chunks; any chunk occurring >= ``_CHUNK_HOT`` times
    corpus-wide is boilerplate and removed from EVERY doc; survivors
    re-join with single spaces. Two streamed passes: (1) per-batch partial
    chunk counts -> one distributed reduce -> hot set (small by
    construction — only chunks repeated >= K times survive the HAVING)
    broadcast once via ray.put; (2) a pure map rebuilds clean_text. The
    only shuffle is the (chunk, count) reduce; at 100 TB the chunk key
    would ride a 16-byte hash instead of the text (kept as text here for
    the bit-exact SQL twin)."""
    import ray

    # materialized once: both the count pass and the strip pass consume
    # it (lazy lineage would re-decode the parquet text column twice)
    ds = _pq(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        _, _, chunks = _word_chunks(b["text"])
        vc = chunks.value_counts()
        return pd.DataFrame({"chunk": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(np.int64)})

    counts = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                              ["chunk"], ["cnt"])
    hot = frozenset(counts.loc[counts["cnt"] >= _CHUNK_HOT, "chunk"])
    hot_ref = ray.put(hot)

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        hset = _get_broadcast(hot_ref)
        rows, _, chunks = _word_chunks(b["text"])
        keep = ~chunks.isin(hset).to_numpy()
        joined = pd.Series(chunks.to_numpy()[keep]) \
            .groupby(rows[keep]).agg(" ".join) \
            .reindex(np.arange(len(b)), fill_value="")
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "clean_text": joined.to_numpy(dtype=object)})

    out = ds.map_batches(strip, batch_format="pandas").to_pandas()
    if out.empty:  # zero blocks -> column-less frame, matching the SQL twin
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "clean_text": pd.Series([], dtype=object)})
    return out.sort_values("doc_id").reset_index(drop=True)


def q_embedding_quantize(sf_dir: str) -> pd.DataFrame:
    """Int8 symmetric quantization of the embedding column — the
    compress-before-ANN step of a vector pipeline. Pure map (zero
    shuffle): per-vector scale = 127/max|v|, components round to int8.
    Output is LONG format (vec_id, i, q) so the value hash needs no
    list-serialization convention. Both sides compute in float64 from the
    exact float32 inputs with the SAME operand order ((x*127)/ma) and the
    SAME rounding (half-away-from-zero, matching DuckDB round()), so the
    twin is exact even on representable .5 ties."""
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        n, d = mat.shape
        ma = np.abs(mat).max(axis=1)
        safe = np.where(ma == 0, 1.0, ma)
        x = (mat * 127.0) / safe[:, None]
        q = np.copysign(np.floor(np.abs(x) + 0.5), x)  # half-away, like SQL
        q[ma == 0] = 0.0
        return pd.DataFrame({
            "vec_id": np.repeat(b["vec_id"].to_numpy(np.int64), d),
            "i": np.tile(np.arange(1, d + 1, dtype=np.int64), n),
            "q": q.reshape(-1).astype(np.int64)})

    out = ds.map_batches(quant, batch_format="pandas").to_pandas()
    if out.empty:
        return _empty_typed(vec_id="int64", i="int64", q="int64")
    return out.sort_values(["vec_id", "i"]).reset_index(drop=True)


def q_label_centroid_sim(sf_dir: str) -> pd.DataFrame:
    """Cluster-separability diagnostic: pairwise cosine similarity of
    the GROUND-TRUTH label centroids in embedding space (near-1 pairs
    mean the labeling won't be recoverable by any clustering — run
    this before judging kmeans purity). Cosine is scale-invariant, so
    centroid cosine == cosine of the per-label SUM vectors and the n's
    cancel: each batch emits per-(label, dim) quantized int64
    component sums (ONE bounded reduce, #labels x 64 cells), and the
    driver closes every pair with exact Python-int dot/norms + ONE
    IEEE divide/sqrt chain, half-away 1e-6 — the twin's HUGEINT chain
    is operand-identical."""
    ds = _pq(sf_dir, "embeddings", ["label", "embedding"])

    def sums(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64) * 1e6
        q = np.copysign(np.floor(np.abs(mat) + 0.5), mat) \
            .astype(np.int64)
        lab = b["label"].to_numpy(np.int64)
        d = q.shape[1]
        g = pd.DataFrame({"label": np.repeat(lab, d),
                          "dim": np.tile(np.arange(1, d + 1,
                                                   dtype=np.int64),
                                         len(lab)),
                          "s": q.reshape(-1)})
        return g.groupby(["label", "dim"], as_index=False).sum()

    agg = _reduce_partials(ds.map_batches(sums, batch_format="pandas"),
                           ["label", "dim"], ["s"])
    if agg.empty:
        return _empty_typed(label_a="int64", label_b="int64",
                            cos_sim="float64")
    vecs = {int(lab): g.sort_values("dim")["s"].astype("int64").tolist()
            for lab, g in agg.groupby("label")}
    labels = sorted(vecs)
    rows = []
    for i, a in enumerate(labels):
        va = [int(x) for x in vecs[a]]
        na2 = sum(x * x for x in va)
        for b_ in labels[i + 1:]:
            vb = [int(x) for x in vecs[b_]]
            nb2 = sum(x * x for x in vb)
            dot = sum(x * y for x, y in zip(va, vb))
            if na2 == 0 or nb2 == 0:
                rows.append((a, b_, np.nan))
                continue
            v = float(dot) / np.sqrt(float(na2) * float(nb2)) * 1e6
            rows.append((a, b_,
                         np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6))
    return pd.DataFrame(rows, columns=["label_a", "label_b", "cos_sim"]) \
        .astype({"label_a": "int64", "label_b": "int64",
                 "cos_sim": "float64"}) \
        .sort_values(["label_a", "label_b"]).reset_index(drop=True)


_KMEANS_K = 8
_KMEANS_ITERS = 5
_KMEANS_SCALE = float(1 << 20)  # dyadic quantization grid for exact sums


def q_kmeans_assign(sf_dir: str) -> pd.DataFrame:
    """Full-corpus distributed Lloyd's k-means (the iterative-algorithm
    shape: broadcast model -> streamed partial stats -> driver update,
    repeated). Per iteration ONE pass: each batch emits K partial rows
    (cluster, n, 64 int64 component sums) — exact integer arithmetic on a
    2^-20 dyadic grid, so the reduce is associative and the result is
    IDENTICAL under any batch/block order (float partial sums would hash
    differently per run). Init = the K lowest-vec_id vectors (pushed-down
    row filter, partition-order independent). The model (K x 64 floats)
    broadcasts via ray.put; corpus vectors are never materialized on the
    driver. SQL twin: the iterations UNROLL into chained CTEs
    (``_kmeans_twin_sql``) — centroids are bit-identical on both sides
    because updates ride exact BIGINT component sums divided in the same
    float64 order, and the 2^-20 dyadic grid (round_even = np.rint)
    makes the quantization itself exact; also pinned in
    tests/test_pinned_rows_only.py. Below ``_KMEANS_LOCAL_MAX`` rows
    (parquet metadata) the identical math runs driver-local — 6
    streamed passes of scheduling fixed cost dominate a kilorow table;
    outputs are bit-identical (order-invariant int64 sums)."""
    local = _embeddings_local(sf_dir)
    if local is not None:
        cent = _kmeans_centroids_from_df(local)
        if cent is None:
            return _empty_typed(vec_id="int64", cluster="int64")
        return pd.DataFrame({
            "vec_id": local["vec_id"].to_numpy(np.int64),
            "cluster": _kmeans_argmin(_kmeans_quant(local), cent)
            .astype(np.int64)}).sort_values("vec_id") \
            .reset_index(drop=True)
    cent = _kmeans_centroids(sf_dir)
    if cent is None:  # empty corpus: nothing to cluster
        return _empty_typed(vec_id="int64", cluster="int64")
    import ray

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    final_ref = ray.put(cent)

    def label(b: pd.DataFrame) -> pd.DataFrame:
        c = _get_broadcast(final_ref)
        return pd.DataFrame({"vec_id": b["vec_id"].to_numpy(np.int64),
                             "cluster": _kmeans_argmin(_kmeans_quant(b), c)
                             .astype(np.int64)})

    return ds.map_batches(label, batch_format="pandas").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)


_KMEANS_LOCAL_MAX = 200_000  # rows; ~100 MB of float64 at dim 64


def _embeddings_local(sf_dir: str) -> pd.DataFrame | None:
    """The (vec_id, embedding) table when it is driver-sized (parquet
    METADATA row count vs the gate — no data read above it), else None.
    Below the gate the k-means family runs its identical integer-exact
    math locally: at sf scales the table is a few thousand rows and the
    distributed path's ~1 s/pass of scheduling fixed cost dominates 6+
    passes; above the gate the streamed path takes over. Outputs are
    bit-identical either way (order-invariant int64 component sums —
    the same argument that makes the distributed reduce CI-pinnable)."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    if pq.ParquetFile(path).metadata.num_rows > _KMEANS_LOCAL_MAX:
        return None
    return pq.read_table(path, columns=["vec_id", "embedding"]) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)


def _kmeans_centroids_from_df(df: pd.DataFrame) -> np.ndarray | None:
    """Local twin of the distributed trainer: same quantize / assign /
    int64-sum / update chain over the whole matrix at once."""
    seed = df[df["vec_id"] < _KMEANS_K]
    if seed.empty:
        return None
    cent = np.rint(np.stack(seed.sort_values("vec_id")["embedding"]
                            .to_numpy())
                   .astype(np.float64) * _KMEANS_SCALE) / _KMEANS_SCALE
    mat = _kmeans_quant(df)
    ints = np.rint(mat * _KMEANS_SCALE).astype(np.int64)
    for _ in range(_KMEANS_ITERS):
        a = _kmeans_argmin(mat, cent)
        n = np.bincount(a, minlength=len(cent)).astype(np.int64)
        sums = np.zeros((len(cent), mat.shape[1]), dtype=np.int64)
        np.add.at(sums, a, ints)
        nz = n > 0
        upd = cent.copy()
        upd[nz] = (sums[nz] / n[nz, None]) / _KMEANS_SCALE
        cent = upd
    return cent


def _kmeans_quant(b: pd.DataFrame) -> np.ndarray:
    return np.rint(np.stack(b["embedding"].to_numpy())
                   .astype(np.float64) * _KMEANS_SCALE) / _KMEANS_SCALE


def _kmeans_argmin(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
    d2 = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T) \
        + (c * c).sum(1)[None, :]
    return np.argmin(d2, axis=1)


def _kmeans_centroids(sf_dir: str) -> np.ndarray | None:
    """Train the shared Lloyd's model (see q_kmeans_assign docstring for
    the exactness contract); None on an empty corpus. Shared by
    q_kmeans_assign and q_semantic_dedup so the twins' unrolled CTE
    chain mirrors exactly one training path."""
    import ray

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    seed_df = ds.filter(expr=f"vec_id < {_KMEANS_K}").to_pandas()
    if seed_df.empty:
        return None
    seed_df = seed_df.sort_values("vec_id")
    cent = np.rint(np.stack(seed_df["embedding"].to_numpy())
                   .astype(np.float64) * _KMEANS_SCALE) / _KMEANS_SCALE
    dim = cent.shape[1]
    _quant, _assign = _kmeans_quant, _kmeans_argmin

    for _ in range(_KMEANS_ITERS):
        ref = ray.put(cent)

        def stats(b: pd.DataFrame) -> pd.DataFrame:
            c = _get_broadcast(ref)
            mat = _quant(b)
            a = _assign(mat, c)
            ints = np.rint(mat * _KMEANS_SCALE).astype(np.int64)
            out = {"cluster": np.arange(len(c), dtype=np.int64),
                   "n": np.bincount(a, minlength=len(c)).astype(np.int64)}
            sums = np.zeros((len(c), mat.shape[1]), dtype=np.int64)
            np.add.at(sums, a, ints)
            for j in range(mat.shape[1]):
                out[f"s{j}"] = sums[:, j]
            return pd.DataFrame(out)

        agg = _reduce_partials(ds.map_batches(stats, batch_format="pandas"),
                               ["cluster"], ["n"] + [f"s{j}"
                                                     for j in range(dim)]) \
            .sort_values("cluster")
        n = agg["n"].to_numpy(np.int64)
        sums = agg[[f"s{j}" for j in range(dim)]].to_numpy(np.int64)
        upd = cent.copy()
        nz = n > 0
        upd[agg["cluster"].to_numpy(np.int64)[nz]] = (
            sums[nz] / n[nz, None]) / _KMEANS_SCALE
        cent = upd

    return cent


def _kmeans_cte_chain(iters: int = _KMEANS_ITERS, k: int = _KMEANS_K,
                      dim: int = 64,
                      scale: float = _KMEANS_SCALE) -> str:
    """WITH-chain for the kmeans twins: Lloyd's iterations UNROLLED into
    chained CTEs ending in ``af(vec_id, cluster)`` — the final
    assignment. Exactness chain: round_even == np.rint on the dyadic
    grid; centroid updates are BIGINT component sums divided as
    (DOUBLE/n)/scale in the engine's operand order, so centroids are
    bit-identical each iteration; the assignment argmin breaks exact
    ties toward the lower cluster id on both sides (ORDER BY d2,
    cluster vs np.argmin first-min)."""
    S = repr(scale)
    parts = [f"""
dims AS (SELECT unnest(range(0, {dim})) AS j),
q AS (SELECT vec_id, j,
             round_even(embedding[j + 1] * {S}, 0) / {S} AS x
      FROM embeddings, dims),
c0 AS (SELECT vec_id AS cluster, j, x AS c FROM q WHERE vec_id < {k})"""]
    for t in range(1, iters + 1):
        p = t - 1
        parts.append(f"""
d{t} AS (SELECT q.vec_id, c.cluster,
              SUM(q.x * q.x) - 2 * SUM(q.x * c.c) + SUM(c.c * c.c) AS d2
       FROM q JOIN c{p} c USING (j) GROUP BY q.vec_id, c.cluster),
a{t} AS (SELECT vec_id, cluster FROM (
         SELECT vec_id, cluster,
                row_number() OVER (PARTITION BY vec_id
                                   ORDER BY d2, cluster) AS rn
         FROM d{t}) WHERE rn = 1),
u{t} AS (SELECT a{t}.cluster, q.j,
              (CAST(SUM(CAST(round_even(q.x * {S}, 0) AS BIGINT))
                    AS DOUBLE) / COUNT(*)) / {S} AS c
       FROM q JOIN a{t} USING (vec_id) GROUP BY a{t}.cluster, q.j),
c{t} AS (SELECT c{p}.cluster, c{p}.j, COALESCE(u{t}.c, c{p}.c) AS c
       FROM c{p} LEFT JOIN u{t} ON u{t}.cluster = c{p}.cluster
                               AND u{t}.j = c{p}.j)""")
    f = iters + 1
    parts.append(f"""
d{f} AS (SELECT q.vec_id, c.cluster,
              SUM(q.x * q.x) - 2 * SUM(q.x * c.c) + SUM(c.c * c.c) AS d2
       FROM q JOIN c{iters} c USING (j) GROUP BY q.vec_id, c.cluster),
af AS (SELECT vec_id, cluster FROM (
  SELECT vec_id, cluster,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY d2, cluster) AS rn
  FROM d{f}) WHERE rn = 1)""")
    return "WITH " + ",".join(parts)


def _kmeans_twin_sql(iters: int = _KMEANS_ITERS, k: int = _KMEANS_K,
                     dim: int = 64, scale: float = _KMEANS_SCALE) -> str:
    return _kmeans_cte_chain(iters, k, dim, scale) + """
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster
FROM af ORDER BY vec_id"""


_SEMDEDUP_TAU = 0.9


def _semantic_dedup_twin_sql() -> str:
    """SemDeDup twin: the kmeans CTE chain provides the cluster map
    (``af``); a within-cluster NOT EXISTS drops every vector with a
    LOWER-id cosine-neighbor at or above tau. Cosine rides DOUBLE on
    both sides (list elements cast up; the engine normalizes in
    float64)."""
    return _kmeans_cte_chain() + f""",
emb AS (SELECT e.vec_id, af.cluster,
               list_transform(e.embedding,
                              x -> CAST(x AS DOUBLE)) AS v
        FROM embeddings e JOIN af USING (vec_id))
SELECT a.vec_id FROM emb a WHERE NOT EXISTS (
  SELECT 1 FROM emb b
  WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
    AND list_cosine_similarity(b.v, a.v) >= {_SEMDEDUP_TAU!r})
ORDER BY a.vec_id"""


def q_semantic_dedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-style embedding-cluster dedup (Abbas et al. 2023,
    arXiv:2303.09540): cluster the corpus with the shared distributed
    k-means, then inside each cluster drop every vector that has a
    LOWER-id cosine-neighbor at or above tau — pairwise cost is paid
    only within clusters, never across the corpus (the whole point of
    clustering first). Scale shape: the trained model broadcasts
    (ray.put); vectors ride ONE groupby(cluster) exchange as compact
    float32 byte strings (no object-dtype lists through the shuffle);
    each cluster group runs one normalized matmul; at corpus scale K
    grows with N so per-cluster cost stays bounded (and a cluster could
    time-sub-bucket like the salted joins if one collapses). Survivor
    rule is pairwise ("exists ANY lower-id neighbor"), not greedy, so
    the SQL NOT EXISTS twin states the same relation directly. Below
    ``_KMEANS_LOCAL_MAX`` rows the whole chain runs driver-local (same
    gate + same bit-exactness argument as q_kmeans_assign)."""
    local = _embeddings_local(sf_dir)
    if local is not None:
        cent = _kmeans_centroids_from_df(local)
        if cent is None:
            return _empty_typed(vec_id="int64")
        a = _kmeans_argmin(_kmeans_quant(local), cent)
        mat = np.stack(local["embedding"].to_numpy()).astype(np.float64)
        nrm = np.linalg.norm(mat, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        mat = mat / nrm
        ids = local["vec_id"].to_numpy(np.int64)
        keep_ids = []
        for c in range(len(cent)):
            sel = np.flatnonzero(a == c)
            if not sel.size:
                continue
            order = np.argsort(ids[sel], kind="stable")
            sel = sel[order]
            sim = mat[sel] @ mat[sel].T
            dup = (np.tril(sim, k=-1) >= _SEMDEDUP_TAU).any(axis=1)
            keep_ids.append(ids[sel][~dup])
        out = np.sort(np.concatenate(keep_ids)) if keep_ids else \
            np.empty(0, np.int64)
        return pd.DataFrame({"vec_id": out.astype(np.int64)})
    cent = _kmeans_centroids(sf_dir)
    if cent is None:
        return _empty_typed(vec_id="int64")
    import ray

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    ref = ray.put(cent)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        c = _get_broadcast(ref)
        a = _kmeans_argmin(_kmeans_quant(b), c).astype(np.int64)
        raw = np.stack(b["embedding"].to_numpy()).astype(np.float32)
        return pd.DataFrame({
            "vec_id": b["vec_id"].to_numpy(np.int64),
            "cluster": a,
            "vbytes": [r.tobytes() for r in raw]})

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id", kind="mergesort")
        mat = np.frombuffer(b"".join(g["vbytes"]), dtype=np.float32) \
            .reshape(len(g), -1).astype(np.float64)
        nrm = np.linalg.norm(mat, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        mat = mat / nrm
        sim = mat @ mat.T
        # drop v if ANY u < v (strictly lower triangle) has cos >= tau
        has_earlier_dup = (np.tril(sim, k=-1)
                           >= _SEMDEDUP_TAU).any(axis=1)
        return pd.DataFrame(
            {"vec_id": g["vec_id"].to_numpy(np.int64)[~has_earlier_dup]})

    with _scoped_parallelism(32):
        out = ds.map_batches(tag, batch_format="pandas") \
            .groupby("cluster").map_groups(per_cluster,
                                           batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(vec_id="int64")
    return out.astype({"vec_id": "int64"}) \
        .sort_values("vec_id").reset_index(drop=True)


_CLUSTER_TOPICS_K = 5


def q_cluster_topics(sf_dir: str) -> pd.DataFrame:
    """Embedding-cluster topic report: the top-5 tokens (by count, ties
    to the lexicographically smaller token) of the documents in each
    k-means cluster — the corpus-exploration readout a curator runs
    after clustering ("what IS cluster 3?"). Scale shape: the cluster
    LABEL array (one small int per vector, dense vec_id index)
    broadcasts once — ~1 byte/vector, fine at 10^8 vectors; per-batch
    (cluster, token, n) partials ride the one vocab-bounded reduce
    (the tfidf_keywords df-table shape); top-k per cluster folds on the
    driver over #clusters x vocab rows. Twin: the kmeans CTE chain +
    whitespace tokenization + a windowed top-k."""
    cent = None
    local = _embeddings_local(sf_dir)
    if local is not None:
        cent = _kmeans_centroids_from_df(local)
        if cent is None:
            return _empty_typed(cluster="int64", token=object, n="int64")
        labels = np.full(int(local["vec_id"].max()) + 1, -1, np.int64)
        labels[local["vec_id"].to_numpy(np.int64)] = \
            _kmeans_argmin(_kmeans_quant(local), cent)
    else:
        cent = _kmeans_centroids(sf_dir)
        if cent is None:
            return _empty_typed(cluster="int64", token=object, n="int64")
        assign = q_kmeans_assign(sf_dir)
        labels = np.full(int(assign["vec_id"].max()) + 1, -1, np.int64)
        labels[assign["vec_id"].to_numpy(np.int64)] = \
            assign["cluster"].to_numpy(np.int64)
    import ray

    lab_ref = ray.put(labels)

    def tok_counts(b: pd.DataFrame) -> pd.DataFrame:
        lab = _get_broadcast(lab_ref)
        ids = b["doc_id"].to_numpy(np.int64)
        in_range = ids < lab.size
        cl = np.full(len(ids), -1, np.int64)
        cl[in_range] = lab[ids[in_range]]
        b = b[cl >= 0]
        cl = cl[cl >= 0]
        toks = b["text"].fillna("").str.split()
        pairs = pd.DataFrame({
            "cluster": np.repeat(cl, toks.str.len().to_numpy(np.int64)),
            "token": [t for row in toks for t in row]})
        return pairs.groupby(["cluster", "token"], as_index=False) \
            .size().rename(columns={"size": "n"})

    counts = _reduce_partials(
        _pq(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tok_counts, batch_format="pandas"),
        ["cluster", "token"], ["n"])
    if counts.empty:
        return _empty_typed(cluster="int64", token=object, n="int64")
    top = counts.sort_values(["cluster", "n", "token"],
                             ascending=[True, False, True],
                             kind="mergesort") \
        .groupby("cluster", as_index=False).head(_CLUSTER_TOPICS_K)
    return top.astype({"cluster": "int64", "n": "int64"}) \
        .sort_values(["cluster", "n", "token"],
                     ascending=[True, False, True]) \
        .reset_index(drop=True)


def q_cluster_purity(sf_dir: str) -> pd.DataFrame:
    """Clustering-quality readout: per-cluster purity of the k-means
    assignment against the corpus's ground-truth ``label`` column —
    the evaluation loop a curator runs on the clustering that drives
    semantic_dedup / cluster_topics. Per-batch (cluster, label, n)
    partials ride one reduce bounded by #clusters x #labels; purity =
    majority/total divides the identical ints on both sides (identical
    doubles). Twin reuses the kmeans CTE chain."""
    local = _embeddings_local(sf_dir)
    if local is not None:
        cent = _kmeans_centroids_from_df(local)
        if cent is None:
            return _empty_typed(cluster="int64", n="int64",
                                n_majority="int64", purity="float64")
        cl = pd.DataFrame({
            "cluster": _kmeans_argmin(_kmeans_quant(local), cent),
            "label": _pq_labels_local(sf_dir)})
        counts = cl.groupby(["cluster", "label"], as_index=False) \
            .size().rename(columns={"size": "n"})
    else:
        cent = _kmeans_centroids(sf_dir)
        if cent is None:
            return _empty_typed(cluster="int64", n="int64",
                                n_majority="int64", purity="float64")
        import ray

        ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
        ref = ray.put(cent)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            c = _get_broadcast(ref)
            return pd.DataFrame({
                "cluster": _kmeans_argmin(_kmeans_quant(b), c),
                "label": b["label"].to_numpy()}) \
                .groupby(["cluster", "label"], as_index=False) \
                .size().rename(columns={"size": "n"})

        counts = _reduce_partials(
            ds.map_batches(partial, batch_format="pandas"),
            ["cluster", "label"], ["n"])
    agg = counts.groupby("cluster", as_index=False).agg(
        n=("n", "sum"), n_majority=("n", "max"))
    agg["purity"] = agg["n_majority"].astype(np.float64) \
        / agg["n"].astype(np.int64)
    return agg.astype({"cluster": "int64", "n": "int64",
                       "n_majority": "int64"}) \
        .sort_values("cluster").reset_index(drop=True)


def _pq_labels_local(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "label"]).to_pandas() \
        .sort_values("vec_id")
    return t["label"].to_numpy()


def _cluster_purity_twin_sql() -> str:
    return _kmeans_cte_chain() + """,
j AS (SELECT af.cluster, e.label
      FROM embeddings e JOIN af USING (vec_id)),
cl AS (SELECT cluster, label, COUNT(*) AS n
       FROM j GROUP BY cluster, label),
t AS (SELECT cluster, CAST(SUM(n) AS BIGINT) AS n,
             CAST(MAX(n) AS BIGINT) AS n_majority
      FROM cl GROUP BY cluster)
SELECT CAST(cluster AS BIGINT) AS cluster, n, n_majority,
       CAST(n_majority AS DOUBLE) / n AS purity
FROM t ORDER BY cluster"""


def _cluster_topics_twin_sql() -> str:
    return _kmeans_cte_chain() + rf""",
toks AS (
  SELECT af.cluster,
         unnest(list_filter(regexp_split_to_array(
             coalesce(d.text, ''), '\s+'), x -> x <> '')) AS token
  FROM documents d JOIN af ON af.vec_id = d.doc_id),
tc AS (SELECT cluster, token, CAST(COUNT(*) AS BIGINT) AS n
       FROM toks GROUP BY cluster, token)
SELECT CAST(cluster AS BIGINT) AS cluster, token, n FROM (
  SELECT *, row_number() OVER (PARTITION BY cluster
                               ORDER BY n DESC, token) AS rn
  FROM tc) WHERE rn <= {_CLUSTER_TOPICS_K}
ORDER BY cluster, n DESC, token"""


_QUALITY_FILTER_P = 0.75  # keep docs at/above the corpus P75 quality


def _quality_threshold(ds, p: float) -> float | None:
    """Exact corpus percentile of the heuristic quality score via the
    bounded value histogram (same plan as ``q_length_deciles``):
    per-batch score value_counts reduce to one row per distinct score —
    far smaller than the corpus (scores are low-cardinality rationals of
    doc stats) — and the threshold is read off cumulative counts with
    the percentile_disc index rule sorted[ceil(n*p)-1]. Shared by
    q_quality_filter (P75) and q_curate_corpus (median) so the subtle
    index rule can never drift between them. None on an empty corpus."""

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        vc = ftext.quality_score(b["text"]).value_counts()
        return pd.DataFrame({"q": vc.index.to_numpy(np.float64),
                             "cnt": vc.to_numpy(np.int64)})

    h = _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                         ["q"], ["cnt"]).sort_values("q")
    cum = h["cnt"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        return None
    return float(disc_pick(h["q"].to_numpy(), cum, disc_rank(n, p)))


def q_quality_filter(sf_dir: str) -> pd.DataFrame:
    """Top-quartile quality selection: keep docs whose heuristic quality
    score >= the corpus P75 — the select-the-best-slice op every
    training-data pipeline runs after scoring. EXACT percentile via the
    bounded value histogram (same plan as ``q_length_deciles``): per-batch
    score value_counts reduce to one row per distinct score — far smaller
    than the corpus (scores are low-cardinality rationals of doc stats) —
    and the threshold is read off cumulative counts with the
    percentile_disc index rule sorted[ceil(n*p)-1]. Scores are
    bit-identical doubles on both sides (the quality_score chain is
    mirrored term-for-term in SQL), so the >= cut is deterministic with no
    rounding. Two streamed passes (score+histogram, then score+filter):
    recomputing the cheap score beats materializing a per-doc table."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    thr = _quality_threshold(ds, _QUALITY_FILTER_P)
    if thr is None:
        return _empty_typed(doc_id="int64", quality="float64")

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        q = ftext.quality_score(b["text"]).to_numpy(np.float64)
        m = q >= thr
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy()[m],
                             "quality": q[m]})

    return ds.map_batches(keep, batch_format="pandas").to_pandas() \
        .astype({"doc_id": "int64", "quality": "float64"}) \
        .sort_values("doc_id").reset_index(drop=True)


def q_curate_corpus(sf_dir: str) -> pd.DataFrame:
    """End-to-end curation composition — the shape of a real training-data
    prep job chained as ONE plan: (1) heuristic quality score (bit-exact
    SQL chain), (2) keep docs at/above the corpus MEDIAN via the exact
    value-histogram percentile (no global sort), (3) exact-dedup the
    survivors (min doc_id per sha-256; shuffle carries only
    (hash, id, n_tokens, quality) — never the text), (4) per-survivor
    whitespace token counts. Reuses the engine's primitives; the only
    exchanges are the score-histogram reduce and the skinny dedup
    groupby."""
    from ray.data.aggregate import Min

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    thr = _quality_threshold(ds, 0.5)
    if thr is None:
        return _empty_typed(doc_id="int64", n_tokens="int64",
                            quality="float64")

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        q = ftext.quality_score(b["text"]).to_numpy(np.float64)
        m = q >= thr
        texts = b["text"][m]
        return pd.DataFrame({
            "content_hash": fdedup.content_hash(texts),
            "doc_id": b["doc_id"].to_numpy(np.int64)[m],
            "n_tokens": ftext.token_count_ws(texts).to_numpy(np.int64),
            "quality": q[m]})

    kept = ds.map_batches(keep, batch_format="pandas")
    with _scoped_parallelism(32):
        # identical texts carry identical n_tokens/quality, so Min works
        # as "any" for the non-key columns
        out = kept.groupby("content_hash").aggregate(
            Min("doc_id", alias_name="doc_id"),
            Min("n_tokens", alias_name="n_tokens"),
            Min("quality", alias_name="quality")).to_pandas()
    return out[["doc_id", "n_tokens", "quality"]] \
        .astype({"doc_id": "int64", "n_tokens": "int64",
                 "quality": "float64"}) \
        .sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    "turn_counts": q_turn_counts,
    "category_stats": q_category_stats,
    "revenue_by_flag": q_revenue_by_flag,
    "events_hourly": q_events_hourly,
    "events_sliding": q_events_sliding,
    "quantity_quantiles": q_quantity_quantiles,
    "distinct_event_types": q_distinct_event_types,
    "top_events": q_top_events,
    "top_customers": q_top_customers,
    "ordered_assembly": q_ordered_assembly,
    "user_sessions": q_user_sessions,
    "session_intervals": q_session_intervals,
    "join_customer_orders": q_join_customer_orders,
    "join_lineitem_orders": q_join_lineitem_orders,
    "supplier_nation_region": q_supplier_nation_region,
    "promo_revenue": q_promo_revenue,
    "customers_without_orders": q_customers_without_orders,
    "customers_with_orders": q_customers_with_orders,
    "artifact_strip": q_artifact_strip,
    "token_counts": q_token_counts,
    "token_counts_bpe": q_token_counts_bpe,
    "doc_stats": q_doc_stats,
    "fingerprint_md5": q_fingerprint_md5,
    "winnow_dup_pairs": q_winnow_dup_pairs,
    "dup_components": q_dup_components,
    "normalize_text": q_normalize_text,
    "redact_pii": q_redact_pii,
    "quality_features": q_quality_features,
    "quality_score": q_quality_score,
    "compression_ratio": q_compression_ratio,
    "lang_id": q_lang_id,
    "props_rollup": q_props_rollup,
    "split_assign": q_split_assign,
    "stratified_sample": q_stratified_sample,
    "token_histogram": q_token_histogram,
    "ngram_topk": q_ngram_topk,
    "tfidf_keywords": q_tfidf_keywords,
    "length_deciles": q_length_deciles,
    "running_revenue": q_running_revenue,
    "latest_order_per_customer": q_latest_order_per_customer,
    "distinct_users_per_type": q_distinct_users_per_type,
    "pack_blocks": q_pack_blocks,
    "decontaminate": q_decontaminate,
    "repetition_filter": q_repetition_filter,
    "chunk_dedup": q_chunk_dedup,
    "quality_filter": q_quality_filter,
    "curate_corpus": q_curate_corpus,
    "dedup_exact": q_dedup_exact,
    "minhash_dedup": q_minhash_dedup,
    "simhash_buckets": q_simhash_buckets,
    "ngram_dup_pairs": q_ngram_dup_pairs,
    "embedding_knn": q_embedding_knn,
    "embedding_ivf_knn": q_embedding_ivf_knn,
    "embedding_ivf_exhaustive": q_embedding_ivf_exhaustive,
    "embedding_near_dups": q_embedding_near_dups,
    "doc_embed_knn": q_doc_embed_knn,
    "embedding_sim_pairs": q_embedding_sim_pairs,
    "embedding_quantize": q_embedding_quantize,
    "label_centroid_sim": q_label_centroid_sim,
    "kmeans_assign": q_kmeans_assign,
    "media_features": q_media_features,
    "frame_sampling": q_frame_sampling,
    "layout_stats": q_layout_stats,
    "heading_stats": q_heading_stats,
    "structured_elements": q_structured_elements,
    "html_output": q_html_output,
    "doc_metadata": q_doc_metadata,
    "feature_census": q_feature_census,
    "pdf_images": q_pdf_images,
    "image_thumbnails": q_image_thumbnails,
    "asof_purchase_click": q_asof_purchase_click,
    "range_purchase_views": q_range_purchase_views,
}

# SimHash reconstruction CTEs (toks -> md5 hex -> 64 bits -> +/-1
# accumulation -> packed sign bits), shared by the simhash_buckets and
# ngram_dup_pairs oracles. Tokenization is the ASCII word class on BOTH
# sides (functions/dedup.py::_TOKEN_RE is compiled with re.ASCII
# precisely so this SQL is equivalent on any corpus, not just ASCII).
_SIMHASH_SQL_CTES = """toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '[0-9A-Za-z_]+'))
                 AS tok
          FROM documents),
        h AS (SELECT doc_id, md5(tok) AS hx FROM toks),
        bits AS (
          SELECT doc_id, i.i AS i,
            ((strpos('0123456789abcdef', substr(hx, 1 + i.i // 4, 1)) - 1)
              // (1 << (3 - i.i % 4))) % 2 AS bit
          FROM h CROSS JOIN (SELECT unnest(range(0, 64)) AS i) i),
        acc AS (SELECT doc_id, i, SUM(2*bit - 1) AS a
                FROM bits GROUP BY doc_id, i),
        sig AS (
          SELECT doc_id,
            SUM(CASE WHEN a > 0 AND i < 63
                THEN (1::BIGINT << CAST(62 - i AS INT)) ELSE 0 END)
            AS simhash
          FROM acc GROUP BY doc_id)"""


def _winnow_fps_ctes(k: int = 16, window: int = 8) -> str:
    """CTE chain ``d/kh/wm/fps`` ending in ``fps(doc_id, fp)`` — the
    DISTINCT winnow fingerprints per doc, reconstructing the uint64
    polynomial rolling hash of functions/textops.py::winnow_fingerprints
    exactly (P^j mod 2^64 coefficient constants, HUGEINT sums, explicit
    mod 2^64) with per-doc window minima via MIN() OVER. Shared by the
    winnow_dup_pairs / dup_components / dup_coverage oracles."""
    m = 1 << 64
    p = 1000003
    c = [pow(p, j, m) for j in range(k)]
    kterms = " + ".join(
        f"ord(substr(text, CAST(gi + {j} AS INT), 1))::HUGEINT"
        f" * {c[k - 1 - j]}::HUGEINT" for j in range(k))
    powers = "[" + ", ".join(f"{v}::HUGEINT" for v in c) + "]"
    return f"""d AS (SELECT doc_id, text, length(text) AS L FROM documents
                   WHERE length(text) > 0),
        kh AS (
          SELECT doc_id, gi, L - {k - 1} AS n,
            CAST(({kterms}) % {m}::HUGEINT AS UBIGINT) AS h
          FROM (SELECT doc_id, text, L, unnest(range(1, L - {k - 2})) AS gi
                FROM d WHERE L >= {k})),
        wm AS (
          SELECT doc_id, gi, n,
            MIN(h) OVER (PARTITION BY doc_id ORDER BY gi
                         ROWS BETWEEN CURRENT ROW
                         AND {window - 1} FOLLOWING) AS fp
          FROM kh),
        fps AS (
          SELECT DISTINCT doc_id, fp FROM wm
          WHERE gi <= greatest(n - {window - 1}, 1)
          UNION
          SELECT doc_id,
            CAST(SUM(ord(substr(text, CAST(i AS INT), 1))::HUGEINT
                     * {powers}[CAST(L - i + 1 AS INT)])
                 % {m}::HUGEINT AS UBIGINT) AS fp
          FROM (SELECT doc_id, text, L, unnest(range(1, L + 1)) AS i
                FROM d WHERE L < {k})
          GROUP BY doc_id)"""


def _winnow_oracle_sql(k: int = 16, window: int = 8) -> str:
    """DuckDB twin of q_winnow_dup_pairs: the shared fps CTE chain plus
    the same 2..16 docs-per-fingerprint guard and pair threshold."""
    return f"""
        WITH {_winnow_fps_ctes(k, window)},
        fpc AS (SELECT fp, count(*) AS c FROM fps GROUP BY fp),
        pairs AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n
          FROM fps a JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
          JOIN fpc ON fpc.fp = a.fp AND fpc.c BETWEEN 2 AND 16
          GROUP BY 1, 2)
        SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b
        FROM pairs WHERE n >= {_WINNOW_PAIR_THRESHOLD}"""


ORACLE_SQL = {
    "turn_counts":
        "SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id",
    "category_stats": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS DOUBLE) AS sum_qty,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS sum_price,
               CAST(SUM(CAST(round(l_discount * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 / COUNT(*) AS avg_disc,
               COUNT(*) AS n
        FROM lineitem GROUP BY l_returnflag, l_linestatus""",
    "revenue_by_flag": """
        SELECT l_returnflag,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue
        FROM lineitem WHERE l_shipdate < TIMESTAMP '1996-01-01'
        GROUP BY l_returnflag""",
    "events_sliding": """
        WITH w AS (
          SELECT event_type,
                 time_bucket(INTERVAL 15 MINUTE, ts)
                   - to_minutes(15 * k.k) AS window_start
          FROM events, (SELECT unnest([0, 1, 2, 3]) AS k) k)
        SELECT event_type, window_start, CAST(count(*) AS BIGINT) AS n
        FROM w GROUP BY event_type, window_start""",
    "events_hourly": """
        SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n,
               CAST(SUM(CAST(round(value * 1000000) AS BIGINT)) AS DOUBLE)
                   / 1000000.0 / COUNT(*) AS avg_value
        FROM events GROUP BY event_type, date_trunc('hour', ts)""",
    "distinct_event_types":
        "SELECT DISTINCT event_type FROM events",
    "top_events": """
        SELECT event_id, event_type, ROUND(value, 6) AS value FROM events
        ORDER BY value DESC, event_id LIMIT 10""",
    "top_customers": """
        SELECT o_custkey,
               CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS total_spent
        FROM orders GROUP BY o_custkey
        ORDER BY total_spent DESC, o_custkey LIMIT 10""",
    "embedding_sim_pairs": """
        SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3""",
    "embedding_near_dups": """
        SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99""",
    "customers_without_orders": """
        SELECT c_custkey, c_name FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)""",
    "customers_with_orders": """
        SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
        FROM customer
        WHERE c_custkey IN (SELECT o_custkey FROM orders)
        GROUP BY c_mktsegment""",
    "quantity_quantiles": """
        SELECT l_returnflag,
               ROUND(quantile_cont(l_quantity, 0.5), 6) AS p50,
               ROUND(quantile_cont(l_quantity, 0.9), 6) AS p90
        FROM lineitem GROUP BY l_returnflag""",
    "normalize_text": """
        SELECT doc_id,
               md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g')))
                 AS norm_md5,
               CAST(length(trim(regexp_replace(lower(text), '\s+', ' ',
                                               'g'))) AS BIGINT) AS norm_len
        FROM documents""",
    "redact_pii": """
        WITH r AS (
          SELECT doc_id,
                 CAST(length(text) - length(regexp_replace(text,
                      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                      '', 'g')) AS BIGINT) AS email_chars,
                 regexp_replace(regexp_replace(text,
                      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                      '<EMAIL>', 'g'),
                      'https?://[^\s]+', '<URL>', 'g') AS red,
                 text
          FROM documents)
        SELECT doc_id,
               CAST(length(regexp_split_to_array(text,
                    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                    - 1 AS BIGINT) AS n_emails,
               CAST(length(regexp_split_to_array(text,
                    'https?://[^\s]+')) - 1 AS BIGINT) AS n_urls,
               md5(red) AS redacted_md5
        FROM r""",
    "asof_purchase_click": """
        SELECT p.user_id,
               p.event_id AS purchase_id, p.ts AS purchase_ts,
               c.event_id AS click_id, c.ts AS click_ts
        FROM (SELECT * FROM events WHERE event_type = 'purchase') p
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
          ON p.user_id = c.user_id AND p.ts >= c.ts""",
    "range_purchase_views": """
        SELECT p.event_id AS purchase_id,
               CAST(count(v.event_id) AS BIGINT) AS n_views_1h
        FROM (SELECT * FROM events WHERE event_type = 'purchase') p
        LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v
          ON p.user_id = v.user_id
         AND v.ts >= p.ts - INTERVAL 1 HOUR AND v.ts < p.ts
        GROUP BY p.event_id""",
    "user_sessions": """
        WITH g AS (
          SELECT user_id,
                 CASE WHEN ts - lag(ts) OVER (
                          PARTITION BY user_id ORDER BY ts, event_id)
                      > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
          FROM events)
        SELECT user_id, CAST(1 + SUM(new_s) AS BIGINT) AS n_sessions
        FROM g GROUP BY user_id""",
    # canonical gaps-and-islands: LAG -> break -> running SUM island id
    "session_intervals": """
        WITH o AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        s AS (
          SELECT user_id, ts,
                 SUM(brk) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS sid
          FROM o)
        SELECT user_id, CAST(sid + 1 AS BIGINT) AS session_idx,
               MIN(ts) AS session_start, MAX(ts) AS session_end,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM s GROUP BY user_id, sid""",
    "ordered_assembly": """
        SELECT user_id,
               string_agg(event_type, ',' ORDER BY ts, event_id)
                   AS events_concat
        FROM events GROUP BY user_id""",
    "join_customer_orders": """
        SELECT c_mktsegment, COUNT(*) AS n_orders,
               CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment""",
    "join_lineitem_orders": """
        SELECT o_orderpriority,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue,
               COUNT(*) AS n
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY o_orderpriority""",
    "supplier_nation_region": """
        SELECT r_name, COUNT(*) AS n_suppliers,
               CAST(SUM(CAST(round(s_acctbal * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS total_acctbal
        FROM supplier
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY r_name""",
    "artifact_strip": r"""
        SELECT doc_id, CAST(length(
          regexp_replace(regexp_replace(regexp_replace(regexp_replace(
          regexp_replace(regexp_replace(text,
            '(?m)^Page\s+\d+\s*$', '', 'g'),
            '(?m)^\s*-\s*\d+\s*-\s*$', '', 'g'),
            '(?m)^\s*[\[\(]\d+[\]\)]\s*$', '', 'g'),
            '(?m)^\s*\d{1,3}\s*$', '', 'g'),
            '(?m)^[\s\-]{5,}$', '', 'g'),
            '(?m)^[\s=]{5,}$', '', 'g')) AS BIGINT) AS n_clean
        FROM documents""",
    "token_counts": r"""
        SELECT doc_id, CAST(length(list_filter(
            regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT)
            AS n_tokens
        FROM documents""",
    "doc_stats": """
        SELECT lang, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
               CAST(SUM(n_chars) AS DOUBLE) / COUNT(*) AS avg_chars
        FROM documents GROUP BY lang""",
    "fingerprint_md5":
        "SELECT doc_id, md5(text) AS fp FROM documents",
    "props_rollup": r"""
        SELECT event_type,
               CAST(SUM(CAST(COALESCE(NULLIF(
                        regexp_extract(props, '\d+'), ''), '0') AS BIGINT))
                    AS BIGINT) AS k_sum,
               CAST(SUM(CAST(COALESCE(NULLIF(
                        regexp_extract(props, '\d+'), ''), '0') AS BIGINT))
                    AS DOUBLE) / COUNT(*) AS avg_k
        FROM events GROUP BY event_type""",
    "split_assign": """
        SELECT doc_id,
               CASE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)
                    WHEN '0' THEN 'test' WHEN '1' THEN 'val'
                    ELSE 'train' END AS split
        FROM documents""",
    "stratified_sample": """
        SELECT lang, COUNT(*) AS n_sampled FROM documents
        WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')
        GROUP BY lang""",
    "token_histogram": r"""
        SELECT CAST(length(list_filter(regexp_split_to_array(text, '\s+'),
                    x -> x <> '')) // 10 * 10 AS BIGINT) AS bucket,
               COUNT(*) AS n_docs
        FROM documents GROUP BY 1""",
    "decontaminate": f"""
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(lower(text), '[0-9A-Za-z_]+')
                 AS t
          FROM documents),
        sh AS (
          SELECT doc_id,
                 CASE WHEN len(t) < {_DECONTAM_K} THEN []
                      ELSE list_distinct(list_transform(
                          range(1, len(t) - {_DECONTAM_K - 2}),
                          i -> array_to_string(
                              t[i:i+{_DECONTAM_K - 1}], ' ')))
                 END AS grams
          FROM toks),
        bench AS (
          SELECT DISTINCT unnest(grams) AS g FROM sh
          WHERE doc_id < {_BENCH_DOC_IDS})
        SELECT s.doc_id,
               EXISTS (SELECT 1 FROM bench b
                       WHERE list_contains(s.grams, b.g)) AS contaminated
        FROM sh s""",
    "repetition_filter": """
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(lower(text), '[0-9A-Za-z_]+')
                 AS t
          FROM documents),
        g AS (
          SELECT doc_id, len(t) - 1 AS n2,
                 CASE WHEN len(t) < 2 THEN []
                      ELSE list_distinct(list_transform(
                          range(1, len(t)),
                          i -> t[i] || ' ' || t[i+1]))
                 END AS grams
          FROM toks)
        SELECT doc_id,
               CASE WHEN n2 <= 0 THEN 0.0
                    ELSE 1.0 - CAST(len(grams) AS DOUBLE) / n2 END
                   AS dup_frac,
               CASE WHEN n2 <= 0 THEN TRUE
                    ELSE 1.0 - CAST(len(grams) AS DOUBLE) / n2 <= 0.3 END
                   AS keep
        FROM g""",
    "promo_revenue": """
        SELECT 100.0 * CAST(SUM(CASE WHEN p_type LIKE 'PROMO%' THEN
                   CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
               ELSE 0 END) AS DOUBLE)
             / CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS DOUBLE) AS promo_revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= TIMESTAMP '1995-09-01'
          AND l_shipdate < TIMESTAMP '1995-12-01'""",
    "token_counts_bpe": r"""
        SELECT doc_id, CAST(length(regexp_extract_all(text,
            ' ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+')) AS BIGINT)
            AS n_tokens_bpe
        FROM documents""",
    "quality_score": r"""
        WITH w AS (
          SELECT doc_id,
                 length(list_filter(regexp_split_to_array(text, '\s+'),
                        x -> x <> '')) AS n_tokens,
                 length(text) - length(regexp_replace(text, '[.!?,;:]',
                        '', 'g')) AS n_punct,
                 list_filter(regexp_split_to_array(lower(text), '\s+'),
                        x -> x <> '') AS words
          FROM documents),
        f AS (
          SELECT doc_id, n_tokens, n_punct,
                 CASE WHEN len(words) = 0 THEN 0.0 ELSE
                   CAST(len(list_filter(words, x -> list_contains(
                     ['the','and','of','to','a','in','is','that','for','it'],
                     x))) AS DOUBLE) / len(words) END AS stop_ratio,
                 CASE WHEN len(words) = 0 THEN 0.0 ELSE
                   CAST(list_sum(list_transform(words, x -> length(x)))
                        AS DOUBLE) / len(words) END AS mean_word_len
          FROM w)
        SELECT doc_id,
               0.3 * least(greatest(n_tokens / 50.0, 0.0), 1.0)
               + 0.2 * least(greatest(
                   n_punct / greatest(n_tokens / 10.0, 1.0), 0.0), 1.0)
               + 0.25 * least(greatest(
                   1.0 - abs(stop_ratio - 0.35) / 0.35, 0.0), 1.0)
               + 0.25 * least(greatest(
                   1.0 - abs(mean_word_len - 4.5) / 4.5, 0.0), 1.0)
               AS quality
        FROM f""",
    "lang_id": r"""
        WITH w AS (
          SELECT doc_id, list_distinct(regexp_split_to_array(
                     substr(lower(text), 1, 2000), '\s+')) AS words
          FROM documents),
        h AS (
          SELECT doc_id,
            len(list_intersect(words,
              ['the','and','of','to','a','in','is','that','for','it']))
              AS h_en,
            len(list_intersect(words,
              ['der','die','das','und','ist','nicht','ein','zu','mit']))
              AS h_de,
            len(list_intersect(words,
              ['le','la','les','et','est','un','une','pour','dans','que']))
              AS h_fr,
            len(list_intersect(words,
              ['el','la','los','las','es','un','una','para','que','con']))
              AS h_es
          FROM w)
        SELECT doc_id,
               CASE WHEN greatest(h_en, h_de, h_fr, h_es) = 0 THEN 'unknown'
                    WHEN h_en >= h_de AND h_en >= h_fr AND h_en >= h_es
                         THEN 'en'
                    WHEN h_de >= h_fr AND h_de >= h_es THEN 'de'
                    WHEN h_fr >= h_es THEN 'fr'
                    ELSE 'es' END AS lang_pred
        FROM h""",
    "minhash_dedup": """
        WITH RECURSIVE toks AS (
          SELECT doc_id, regexp_extract_all(lower(text), '[0-9A-Za-z_]+')
                 AS t
          FROM documents),
        sh AS (
          SELECT doc_id,
                 CASE WHEN len(t) = 0 THEN ['']
                      WHEN len(t) < 5 THEN [array_to_string(t, ' ')]
                      ELSE list_distinct(list_transform(
                          range(1, len(t) - 3),
                          i -> array_to_string(t[i:i+4], ' ')))
                 END AS grams
          FROM toks),
        ex AS (SELECT doc_id, unnest(grams) AS g FROM sh),
        cnt AS (SELECT doc_id, count(*) AS c FROM ex GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
          FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
        edges AS (
          SELECT id_a, id_b FROM inter
          JOIN cnt ca ON ca.doc_id = id_a
          JOIN cnt cb ON cb.doc_id = id_b
          WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.8),
        sym AS (SELECT id_a AS a, id_b AS b FROM edges
                UNION SELECT id_b, id_a FROM edges),
        reach(a, b) AS (
          SELECT a, b FROM sym
          UNION
          SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
          WHERE s.b <> r.a)
        SELECT a AS doc_id, least(a, min(b)) AS cluster_root
        FROM reach GROUP BY a""",
    "quality_features": r"""
        SELECT doc_id,
            CAST(length(list_filter(regexp_split_to_array(text, '\s+'),
                 x -> x <> '')) AS BIGINT) AS n_tokens,
            CAST(length(regexp_replace(text, '[^.!?,;:]', '', 'g'))
                 AS BIGINT) AS n_punct,
            CAST(length(regexp_replace(text, '[^0-9]', '', 'g'))
                 AS BIGINT) AS n_digits
        FROM documents""",
    "dedup_exact": """
        SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id
        FROM documents GROUP BY text""",
    # Bit-exact winnowing reconstruction: the polynomial rolling hash
    # h = sum(byte * P^j) mod 2^64 is computed with HUGEINT intermediates
    # and P^j mod 2^64 constants; window minima via MIN() OVER ROWS;
    # identical pair-count + hot-fingerprint guard as the Ray query.
    # Corpus is pure ASCII (verified), so ord(substr) == utf-8 byte.
    "winnow_dup_pairs": _winnow_oracle_sql(),
    # connected components of the winnow dup graph: min reachable id per
    # node via a recursive CTE (terminates because (node, lab) pairs are
    # finite and UNION deduplicates)
    "dup_components": f"""
        WITH RECURSIVE e AS ({_winnow_oracle_sql()}),
        sym AS (SELECT id_a AS u, id_b AS v FROM e
                UNION ALL SELECT id_b, id_a FROM e),
        reach(node, lab) AS (
            SELECT u, u FROM sym
            UNION
            SELECT s.u, r.lab FROM sym s JOIN reach r ON r.node = s.v
        )
        SELECT CAST(node AS BIGINT) AS doc_id,
               CAST(MIN(lab) AS BIGINT) AS component
        FROM reach GROUP BY node""",
    # Bit-exact SimHash reconstruction: md5(tok) hex -> 64 bit values ->
    # +1/-1 accumulation -> sign bits packed big-endian >> 1 (the same
    # arithmetic as functions/dedup.py::simhash64, verified bit-for-bit
    # on sf0.01). CTE chain shared with ngram_dup_pairs below.
    "simhash_buckets": f"""
        WITH {_SIMHASH_SQL_CTES}
        SELECT d.doc_id, COALESCE(CAST(s.simhash AS BIGINT), 0) AS simhash
        FROM documents d LEFT JOIN sig s USING(doc_id)""",
    # Same simhash CTEs for the bucket key, then exact char-3-gram Jaccard
    # over DISTINCT substr sets; raw double division (no rounding) matches
    # the Python kernel bit-for-bit.
    "ngram_dup_pairs": f"""
        WITH {_SIMHASH_SQL_CTES},
        buck AS (
          SELECT d.doc_id,
                 COALESCE(CAST(s.simhash AS BIGINT), 0) >> 48 AS bucket
          FROM documents d LEFT JOIN sig s USING(doc_id)),
        grams AS (
          -- coalesce keeps NULL-text docs as the {''} gram set, matching
          -- the Python kernel's fillna('')
          SELECT DISTINCT doc_id, substr(t, CAST(gi AS INT), 3) AS g
          FROM (SELECT doc_id, coalesce(text, '') AS t,
                       unnest(range(1, greatest(length(coalesce(text, ''))
                                                - 2, 1) + 1)) AS gi
                FROM documents)),
        gcnt AS (SELECT doc_id, count(*) AS c FROM grams GROUP BY doc_id),
        cand AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b
          FROM buck a
          JOIN buck b ON a.bucket = b.bucket AND a.doc_id < b.doc_id),
        inter AS (
          SELECT c.id_a, c.id_b, count(*) AS ni
          FROM cand c JOIN grams ga ON ga.doc_id = c.id_a
                      JOIN grams gb ON gb.doc_id = c.id_b AND gb.g = ga.g
          GROUP BY 1, 2),
        sims AS (
          SELECT c.id_a, c.id_b,
            CAST(COALESCE(ni, 0) AS DOUBLE)
              / greatest(ca.c + cb.c - COALESCE(ni, 0), 1) AS sim
          FROM cand c
          LEFT JOIN inter USING (id_a, id_b)
          JOIN gcnt ca ON ca.doc_id = c.id_a
          JOIN gcnt cb ON cb.doc_id = c.id_b)
        SELECT id_a, id_b, sim FROM sims WHERE sim >= 0.9""",
    "embedding_knn": f"""
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM embeddings WHERE vec_id < {_KNN_QUERIES}),
        scored AS (
            SELECT q.query_id, e.vec_id,
                   ROUND(CAST(list_cosine_similarity(e.embedding, q.qe)
                              AS DOUBLE), 4) AS score,
                   row_number() OVER (
                       PARTITION BY q.query_id
                       ORDER BY list_cosine_similarity(e.embedding, q.qe)
                                DESC, e.vec_id) AS rn
            FROM embeddings e CROSS JOIN q)
        SELECT query_id, vec_id, score FROM scored WHERE rn <= {_KNN_K}""",
}


def register(name: str, fn, oracle_sql: str | None = None) -> None:
    """Add query ``name`` (and its DuckDB twin, if SQL-expressible) to
    the registry. Every query family calls this on import; a name that
    is already registered raises instead of silently replacing an
    (often driver-certified) query."""
    if name in QUERIES:
        raise ValueError(f"query {name!r} is already registered")
    QUERIES[name] = fn
    if oracle_sql is not None:
        ORACLE_SQL[name] = oracle_sql

# Probing every IVF list is brute force by construction, so the exhaustive
# IVF configuration shares the cosine-top-k oracle verbatim.
ORACLE_SQL["embedding_ivf_exhaustive"] = ORACLE_SQL["embedding_knn"]

# End-to-end text -> embed -> ANN twin: reconstructs the hashing
# embedder bit-identically (md5 low-6-bit dim, top-bit sign, exact
# integer-valued sums, float64 norm/divide) then scores cosine top-5.
ORACLE_SQL["doc_embed_knn"] = """
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9A-Za-z_]+'))
             AS tok
      FROM documents),
    h AS (SELECT doc_id, md5(tok) AS hx FROM toks),
    tv AS (
      SELECT doc_id,
        ((strpos('0123456789abcdef', substr(hx, 15, 1)) - 1) % 4) * 16
          + (strpos('0123456789abcdef', substr(hx, 16, 1)) - 1) AS dim,
        CASE WHEN strpos('0123456789abcdef', substr(hx, 1, 1)) - 1 >= 8
             THEN 1.0 ELSE -1.0 END AS val
      FROM h),
    vec AS (SELECT doc_id, dim, SUM(val) AS v FROM tv
            GROUP BY doc_id, dim),
    nrm AS (SELECT doc_id, sqrt(SUM(v*v)) AS n FROM vec GROUP BY doc_id),
    qv AS (SELECT v.doc_id AS qid, dim, v.v / n.n AS x
           FROM vec v JOIN nrm n USING(doc_id) WHERE v.doc_id < 5),
    dv AS (SELECT v.doc_id AS did, dim, v.v / n.n AS y
           FROM vec v JOIN nrm n USING(doc_id)),
    dots AS (SELECT qid, did, SUM(x*y) AS s
             FROM qv JOIN dv USING(dim) GROUP BY qid, did),
    allp AS (SELECT q.qid, d.did
             FROM (SELECT DISTINCT qid FROM qv) q
             CROSS JOIN (SELECT DISTINCT did FROM dv) d),
    scored AS (
      SELECT a.qid AS query_id, a.did AS vec_id,
             ROUND(COALESCE(s, 0.0), 4) AS score,
             row_number() OVER (PARTITION BY a.qid
                                ORDER BY COALESCE(s, 0.0) DESC, a.did)
             AS rn
      FROM allp a LEFT JOIN dots ON dots.qid = a.qid AND dots.did = a.did)
    SELECT query_id, vec_id, score FROM scored WHERE rn <= 5"""

# Corpus bigram top-k: whitespace tokenization matching pandas
# str.split() (regexp split + empty filter), bigrams via 1-indexed list
# positions, deterministic (n DESC, gram ASC) tie-break.
ORACLE_SQL["ngram_topk"] = r"""
    WITH arr AS (
      SELECT list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS a
      FROM documents),
    g AS (
      SELECT unnest(list_transform(range(1, len(a)),
                                   i -> a[i] || ' ' || a[i + 1])) AS gram
      FROM arr)
    SELECT gram, CAST(COUNT(*) AS BIGINT) AS n FROM g
    GROUP BY gram ORDER BY n DESC, gram LIMIT 20"""

# TF-IDF top-3 keywords per doc: idf quantized to an integer
# (round(ln(N/df)*1e6) -> BIGINT) on both sides so the ranking key
# tf*idf6 is exact; score = key/1e6 rounded to the shared 1e-6 grid.
ORACLE_SQL["tfidf_keywords"] = r"""
    WITH toks AS (
      SELECT doc_id,
             unnest(list_filter(regexp_split_to_array(coalesce(text, ''),
                                                      '\s+'),
                                x -> x <> '')) AS term
      FROM documents),
    tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks
           GROUP BY doc_id, term),
    df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM toks
           GROUP BY term),
    n AS (SELECT COUNT(*) AS n FROM documents),
    scored AS (
      SELECT doc_id, term,
             tf * CAST(round(ln(CAST(n.n AS DOUBLE) / df.df) * 1000000)
                       AS BIGINT) AS key
      FROM tf JOIN df USING (term) CROSS JOIN n),
    ranked AS (
      SELECT doc_id, term, key,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY key DESC, term) AS rn
      FROM scored)
    SELECT doc_id, term,
           ROUND(CAST(key AS DOUBLE) / 1000000.0, 6) AS score
    FROM ranked WHERE rn <= 3"""

# Exact deciles of n_chars (quantile_disc = sorted[ceil(n*p) - 1]).
ORACLE_SQL["length_deciles"] = """
    SELECT unnest([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) AS p,
           unnest(quantile_disc(n_chars, [0.1, 0.2, 0.3, 0.4, 0.5,
                                          0.6, 0.7, 0.8, 0.9])) AS n_chars
    FROM documents"""

# Running per-customer revenue: int-cents cumulative sum (exact in any
# order) over (o_orderdate, o_orderkey) within customer.
ORACLE_SQL["running_revenue"] = """
    SELECT o_orderkey, o_custkey,
           CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                    OVER (PARTITION BY o_custkey
                          ORDER BY o_orderdate, o_orderkey)
                AS DOUBLE) / 100.0 AS running_total
    FROM orders"""

# Group-wise arg-max: latest order per customer, ties to the highest
# orderkey; last_price rounded on the shared 1e-6 grid (a single stored
# value, not a sum — no float-order risk).
ORACLE_SQL["latest_order_per_customer"] = """
    SELECT o_custkey, o_orderkey, o_orderdate,
           ROUND(o_totalprice, 6) AS last_price
    FROM (SELECT *, row_number() OVER (PARTITION BY o_custkey
                                       ORDER BY o_orderdate DESC,
                                                o_orderkey DESC) AS rn
          FROM orders)
    WHERE rn = 1"""

# Grouped exact count-distinct.
ORACLE_SQL["distinct_users_per_type"] = """
    SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events GROUP BY event_type"""

# Sequence packing: global running token count before each doc (by
# doc_id order), block = 512 tokens; tokenization matches pandas
# str.split (regexp split + empty filter).
ORACLE_SQL["pack_blocks"] = r"""
    WITH tok AS (
      SELECT doc_id,
             CAST(len(list_filter(regexp_split_to_array(
                      coalesce(text, ''), '\s+'), x -> x <> ''))
                  AS BIGINT) AS n_tokens
      FROM documents),
    w AS (
      SELECT doc_id, n_tokens,
             COALESCE(SUM(n_tokens) OVER (
                 ORDER BY doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0) AS before
      FROM tok)
    SELECT doc_id, n_tokens,
           CAST(before // 512 AS BIGINT) AS block_id,
           CAST(before % 512 AS BIGINT) AS offset_in_block
    FROM w"""


# analytic/sketch operator families self-register into QUERIES/ORACLE_SQL
from . import queries_analytic  # noqa: E402,F401

# Exact-substring (chunk-level) corpus dedup: the SQL twin rebuilds the same
# non-overlapping word chunks with a parallel unnest + integer division.
ORACLE_SQL["chunk_dedup"] = r"""
    WITH w AS (
      SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS ws
      FROM documents),
    ex AS (
      SELECT doc_id, unnest(ws) AS word,
             unnest(range(1, len(ws)+1)) AS i FROM w),
    chunks AS (
      SELECT doc_id, (i-1)//3 AS chunk_id,
             string_agg(word, ' ' ORDER BY i) AS chunk_text
      FROM ex GROUP BY doc_id, (i-1)//3),
    hot AS (
      SELECT chunk_text FROM chunks GROUP BY chunk_text
      HAVING count(*) >= 4),
    kept AS (
      SELECT c.doc_id, c.chunk_id, c.chunk_text
      FROM chunks c LEFT JOIN hot h USING (chunk_text)
      WHERE h.chunk_text IS NULL),
    agg AS (
      SELECT doc_id, string_agg(chunk_text, ' ' ORDER BY chunk_id)
             AS clean_text
      FROM kept GROUP BY doc_id)
    SELECT d.doc_id, coalesce(a.clean_text, '') AS clean_text
    FROM documents d LEFT JOIN agg a USING (doc_id)"""

# Top-quartile quality selection: same score chain as quality_score (both
# sides bit-identical doubles), threshold = percentile_disc(0.75).
ORACLE_SQL["quality_filter"] = r"""
    WITH w AS (
      SELECT doc_id,
             length(list_filter(regexp_split_to_array(text, '\s+'),
                    x -> x <> '')) AS n_tokens,
             length(text) - length(regexp_replace(text, '[.!?,;:]',
                    '', 'g')) AS n_punct,
             list_filter(regexp_split_to_array(lower(text), '\s+'),
                    x -> x <> '') AS words
      FROM documents),
    f AS (
      SELECT doc_id, n_tokens, n_punct,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(len(list_filter(words, x -> list_contains(
                 ['the','and','of','to','a','in','is','that','for','it'],
                 x))) AS DOUBLE) / len(words) END AS stop_ratio,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(list_sum(list_transform(words, x -> length(x)))
                    AS DOUBLE) / len(words) END AS mean_word_len
      FROM w),
    s AS (
      SELECT doc_id,
             0.3 * least(greatest(n_tokens / 50.0, 0.0), 1.0)
             + 0.2 * least(greatest(
                 n_punct / greatest(n_tokens / 10.0, 1.0), 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(stop_ratio - 0.35) / 0.35, 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(mean_word_len - 4.5) / 4.5, 0.0), 1.0)
             AS quality
      FROM f)
    SELECT doc_id, quality FROM s
    WHERE quality >= (SELECT quantile_disc(quality, 0.75) FROM s)"""

# Int8 symmetric quantization in long format; float64 math from the exact
# float32 inputs on both sides (verified no representable .5 ties).
ORACLE_SQL["embedding_quantize"] = """
    WITH m AS (
      SELECT vec_id, embedding,
             list_max(list_transform(embedding,
                      x -> abs(CAST(x AS DOUBLE)))) AS ma
      FROM embeddings)
    SELECT vec_id,
           unnest(range(1, len(embedding)+1)) AS i,
           CASE WHEN ma = 0 THEN 0 ELSE
             CAST(round(CAST(unnest(embedding) AS DOUBLE) * 127.0 / ma)
                  AS BIGINT) END AS q
    FROM m"""

# Label-centroid cosine matrix: cosine is scale-invariant, so the n's
# cancel and both sides run the identical HUGEINT dot/norm chain over
# per-(label, dim) quantized component sums.
ORACLE_SQL["label_centroid_sim"] = """
    WITH q AS (
      SELECT CAST(label AS BIGINT) AS label, i.i AS dim,
             SUM(CAST(round(CAST(embedding[i.i] AS DOUBLE) * 1000000)
                      AS HUGEINT)) AS s
      FROM embeddings, (SELECT unnest(range(1, 65)) AS i) i
      GROUP BY 1, 2),
    n2 AS (SELECT label, SUM(s * s) AS nn FROM q GROUP BY 1),
    p AS (
      SELECT a.label AS label_a, b.label AS label_b,
             SUM(a.s * b.s) AS dot
      FROM q a JOIN q b ON a.dim = b.dim AND a.label < b.label
      GROUP BY 1, 2)
    SELECT p.label_a, p.label_b,
           CASE WHEN na.nn = 0 OR nb.nn = 0 THEN NULL
                ELSE ROUND(CAST(p.dot AS DOUBLE)
                           / sqrt(CAST(na.nn AS DOUBLE)
                                  * CAST(nb.nn AS DOUBLE))
                           * 1000000, 0) / 1000000.0
           END AS cos_sim
    FROM p
    JOIN n2 na ON na.label = p.label_a
    JOIN n2 nb ON nb.label = p.label_b"""

# Iterative distributed k-means: Lloyd's rounds unrolled into CTEs
# (exact by the integer-anchored centroid chain — see _kmeans_cte_chain).
ORACLE_SQL["kmeans_assign"] = _kmeans_twin_sql()
register("semantic_dedup", q_semantic_dedup, _semantic_dedup_twin_sql())
register("cluster_topics", q_cluster_topics, _cluster_topics_twin_sql())
register("cluster_purity", q_cluster_purity, _cluster_purity_twin_sql())

# End-to-end curation chain: score -> median filter -> exact dedup ->
# token count, mirrored stage-for-stage.
ORACLE_SQL["curate_corpus"] = r"""
    WITH w AS (
      SELECT doc_id, text,
             length(list_filter(regexp_split_to_array(text, '\s+'),
                    x -> x <> '')) AS n_tokens,
             length(text) - length(regexp_replace(text, '[.!?,;:]',
                    '', 'g')) AS n_punct,
             list_filter(regexp_split_to_array(lower(text), '\s+'),
                    x -> x <> '') AS words
      FROM documents),
    f AS (
      SELECT doc_id, text, n_tokens, n_punct,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(len(list_filter(words, x -> list_contains(
                 ['the','and','of','to','a','in','is','that','for','it'],
                 x))) AS DOUBLE) / len(words) END AS stop_ratio,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(list_sum(list_transform(words, x -> length(x)))
                    AS DOUBLE) / len(words) END AS mean_word_len
      FROM w),
    s AS (
      SELECT doc_id, text, n_tokens,
             0.3 * least(greatest(n_tokens / 50.0, 0.0), 1.0)
             + 0.2 * least(greatest(
                 n_punct / greatest(n_tokens / 10.0, 1.0), 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(stop_ratio - 0.35) / 0.35, 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(mean_word_len - 4.5) / 4.5, 0.0), 1.0)
             AS quality
      FROM f),
    kept AS (
      SELECT * FROM s
      WHERE quality >= (SELECT quantile_disc(quality, 0.5) FROM s)),
    dedup AS (
      SELECT doc_id, n_tokens, quality,
             row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
      FROM kept)
    SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens, quality
    FROM dedup WHERE rn = 1"""


def q_embedding_norm_stats(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding-norm profile over the int8 quantization grid
    (the ``embedding_quantize`` grid, so the twin is exact): n_vecs and
    min/max/sum/mean of the quantized squared L2 norm — the sanity
    table a vector pipeline reads before cosine ANN (a label whose
    norms collapse to 0 is a dead embedder; wildly mixed norms mean
    un-normalized inputs). Pure map + label-dimension partial reduce
    (#labels x #blocks rows driver-side, documented dimension-sized
    final) — no shuffle. norm2 <= dims * 127^2 so every sum is exact
    int64; mean divides the two exact int64s (one IEEE op, twin
    identical)."""
    ds = _pq(sf_dir, "embeddings", ["label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        ma = np.abs(mat).max(axis=1)
        safe = np.where(ma == 0, 1.0, ma)
        x = (mat * 127.0) / safe[:, None]
        q = np.copysign(np.floor(np.abs(x) + 0.5), x)  # half-away
        q[ma == 0] = 0.0
        norm2 = (q.astype(np.int64) ** 2).sum(axis=1)
        return pd.DataFrame({"label": b["label"].to_numpy(np.int64),
                             "norm2": norm2}) \
            .groupby("label", as_index=False) \
            .agg(n_vecs=("norm2", "size"), min_norm2=("norm2", "min"),
                 max_norm2=("norm2", "max"), sum_norm2=("norm2", "sum"))

    m = ds.map_batches(partial, batch_format="pandas").materialize()
    if m.count() == 0:
        return _empty_typed(label="int64", n_vecs="int64",
                            min_norm2="int64", max_norm2="int64",
                            sum_norm2="int64", mean_norm2="float64")
    p = m.to_pandas().groupby("label", as_index=False) \
        .agg(n_vecs=("n_vecs", "sum"), min_norm2=("min_norm2", "min"),
             max_norm2=("max_norm2", "max"),
             sum_norm2=("sum_norm2", "sum")) \
        .sort_values("label").reset_index(drop=True)
    return pd.DataFrame({
        "label": p["label"].to_numpy(np.int64),
        "n_vecs": p["n_vecs"].to_numpy(np.int64),
        "min_norm2": p["min_norm2"].to_numpy(np.int64),
        "max_norm2": p["max_norm2"].to_numpy(np.int64),
        "sum_norm2": p["sum_norm2"].to_numpy(np.int64),
        "mean_norm2": p["sum_norm2"].to_numpy(np.int64)
        .astype(np.float64)
        / p["n_vecs"].to_numpy(np.int64).astype(np.float64)})


def q_ivf_recall(sf_dir: str) -> pd.DataFrame:
    """ANN quality report: per-query recall@k of the approximate IVF
    configuration (n_probe=6 of 16 lists) against the exhaustive
    configuration (n_probe=16 == brute force, oracle-pinned) — the
    accuracy/cost trade-off table that justifies the IVF scale path.
    Both sides run the SAME deterministic machinery (sample-trained
    spherical k-means, streamed probes), so the report is
    deterministic; registered rows-only (k-means is not
    SQL-expressible) and hash-pinned in tests. Driver holds only
    2 x #queries x k rows — the documented small-result final."""
    exact = q_embedding_ivf_exhaustive(sf_dir)
    if exact.empty:
        return _empty_typed(query_id="int64", k="int64", n_hit="int64",
                            recall="float64")
    approx = q_embedding_ivf_knn(sf_dir)
    ex = exact.groupby("query_id")["vec_id"].apply(set)
    ap = approx.groupby("query_id")["vec_id"].apply(set)
    qids = sorted(ex.index)
    k = np.asarray([len(ex[q]) for q in qids], dtype=np.int64)
    hit = np.asarray([len(ex[q] & ap.get(q, set())) for q in qids],
                     dtype=np.int64)
    return pd.DataFrame({
        "query_id": np.asarray(qids, dtype=np.int64),
        "k": k, "n_hit": hit,
        "recall": hit.astype(np.float64) / k.astype(np.float64)})


register("embedding_norm_stats", q_embedding_norm_stats, """
    WITH m AS (
      SELECT vec_id, label, embedding,
             list_max(list_transform(embedding,
                      x -> abs(CAST(x AS DOUBLE)))) AS ma
      FROM embeddings),
    qq AS (
      SELECT vec_id, label,
             CASE WHEN ma = 0 THEN 0 ELSE
               CAST(round(CAST(unnest(embedding) AS DOUBLE) * 127.0 / ma)
                    AS BIGINT) END AS q
      FROM m),
    n2 AS (
      SELECT vec_id, label, CAST(SUM(q * q) AS BIGINT) AS norm2
      FROM qq GROUP BY 1, 2)
    SELECT CAST(label AS BIGINT) AS label,
           CAST(COUNT(*) AS BIGINT) AS n_vecs,
           CAST(MIN(norm2) AS BIGINT) AS min_norm2,
           CAST(MAX(norm2) AS BIGINT) AS max_norm2,
           CAST(SUM(norm2) AS BIGINT) AS sum_norm2,
           CAST(SUM(norm2) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
             AS mean_norm2
    FROM n2 GROUP BY label ORDER BY label""")
register("ivf_recall", q_ivf_recall)  # rows-only: k-means quantizer


# second relational/corpus family (Q13/Q15/Q18/Q22 shapes + retention
# cohorts) self-registers the same way
from . import queries_relational  # noqa: E402,F401
# third family (TPC-H tail shapes Q6/Q8/Q9/Q12/Q16/Q17/Q19/Q21 adapted
# to the star schema) self-registers the same way
from . import queries_relational2  # noqa: E402,F401
# corpus-diagnostics family (Zipf fit, per-source Gini, dup-rate
# report, df histogram, lang x source MI) self-registers the same way
from . import queries_corpus  # noqa: E402,F401
from . import queries_curation  # noqa: E402,F401
from . import queries_curation2  # noqa: E402,F401
from . import queries_curation3  # noqa: E402,F401
from . import queries_curation4  # noqa: E402,F401
from . import queries_curation5  # noqa: E402,F401
from . import queries_curation6  # noqa: E402,F401
from . import queries_curation7  # noqa: E402,F401
from . import queries_curation8  # noqa: E402,F401
from . import queries_curation9  # noqa: E402,F401
from . import queries_curation10  # noqa: E402,F401
from . import queries_curation11  # noqa: E402,F401
from . import queries_curation12  # noqa: E402,F401
from . import queries_curation13  # noqa: E402,F401
from . import queries_curation14  # noqa: E402,F401
from . import queries_curation15  # noqa: E402,F401
from . import queries_curation16  # noqa: E402,F401
from . import queries_curation17  # noqa: E402,F401
from . import queries_curation18  # noqa: E402,F401
from . import queries_curation19  # noqa: E402,F401
from . import queries_curation20  # noqa: E402,F401
from . import queries_curation21  # noqa: E402,F401
from . import queries_curation22  # noqa: E402,F401
from . import queries_curation23  # noqa: E402,F401
from . import queries_curation24  # noqa: E402,F401
from . import queries_curation25  # noqa: E402,F401
from . import queries_curation26  # noqa: E402,F401
from . import queries_curation27  # noqa: E402,F401
from . import queries_curation28  # noqa: E402,F401
from . import queries_curation29  # noqa: E402,F401
from . import queries_curation30  # noqa: E402,F401
from . import queries_curation31  # noqa: E402,F401
from . import queries_curation32  # noqa: E402,F401
from . import queries_curation33  # noqa: E402,F401
from . import queries_curation34  # noqa: E402,F401
from . import queries_curation35  # noqa: E402,F401
from . import queries_curation36  # noqa: E402,F401
from . import queries_curation37  # noqa: E402,F401
from . import queries_curation38  # noqa: E402,F401
from . import queries_curation39  # noqa: E402,F401
from . import queries_curation40  # noqa: E402,F401
from . import queries_curation41  # noqa: E402,F401
from . import queries_curation42  # noqa: E402,F401
from . import queries_curation43  # noqa: E402,F401
from . import queries_curation44  # noqa: E402,F401
from . import queries_curation45  # noqa: E402,F401
from . import queries_curation46  # noqa: E402,F401
from . import queries_curation47  # noqa: E402,F401
from . import queries_curation48  # noqa: E402,F401
