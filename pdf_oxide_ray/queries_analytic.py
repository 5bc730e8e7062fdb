"""Analytic / sketch operator families: windowed analytics (lag, rolling
frame, funnel), a multi-table TPC-H Q5-shaped join plan, grouped top-k and
quantiles, and three classic distributed sketches (HyperLogLog, Bloom
filter, Count-Min) built as deterministic, *bit-exactly oracle-checkable*
pipelines — every sketch hashes with md5 so the DuckDB twin reconstructs
the identical registers/bits/cells.

Shuffle discipline mirrors ``queries.py``: per-batch partial aggregates
before any groupby (a sketch IS a partial aggregate — registers/bit
arrays/cells merge associatively, which is why they exist), bucketed
windows for per-key ordered analytics, broadcast for small sides.

Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` at the
bottom (import either module and both registries are complete).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .ops.quantile import disc_by_group
from .ops.exchange import combine_by_key, exchange_by_key, sum_by
from .queries import ORACLE_SQL, _cents, _empty_typed, _pq, register
from .stages.joins import _get_broadcast


def _md5_u64(values) -> np.ndarray:
    """First 8 bytes of md5(str(v)) as uint64 (big-endian) — identical to
    DuckDB ``('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 16))::UBIGINT``."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(str(v).encode()).digest()[:8], "big")
         for v in values), dtype=np.uint64, count=len(values))


def _md5_words(values, starts: tuple[int, ...], mod: int) -> list[np.ndarray]:
    """4-byte md5 words (byte offsets ``starts``) mod ``mod`` — identical
    to DuckDB ``('0x'||substr(md5(v),1+2*s,8))::UBIGINT % mod``."""
    md5 = hashlib.md5
    digs = [md5(str(v).encode()).digest() for v in values]
    return [np.fromiter((int.from_bytes(d[s:s + 4], "big") % mod
                         for d in digs), dtype=np.int64, count=len(digs))
            for s in starts]


# ---------------------------------------------------------------------------
# windowed per-key analytics (bucketed-window pattern: one
# exchange_by_key on the key, vectorized pandas window inside each bucket)
# ---------------------------------------------------------------------------


def q_event_deltas(sf_dir: str) -> pd.DataFrame:
    """LAG analytic: per-user microsecond gap to the previous event
    (ordered by ts, event_id; first event = -1). Ray Data has no window
    functions; the bucketed window (``exchange_by_key`` on user_id ->
    one in-bucket vectorized pass) gives the same result with one
    skinny shuffle."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        user = g["user_id"].to_numpy(np.int64)
        delta = np.empty(len(g), np.int64)
        if len(g):
            delta[0] = -1
            same = user[1:] == user[:-1]
            delta[1:] = np.where(same, ts_us[1:] - ts_us[:-1], -1)
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(np.int64),
                             "delta_us": delta})

    out = exchange_by_key(ds, ["user_id"], per_bucket).to_pandas()
    if out.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(event_id="int64", delta_us="int64")
    return out.astype({"event_id": "int64", "delta_us": "int64"})


def q_rolling_value_sum(sf_dir: str) -> pd.DataFrame:
    """Rolling-frame analytic: per-user sum of ``value`` over the last 5
    events (ROWS BETWEEN 4 PRECEDING AND CURRENT ROW). Exact in any
    order: values ride integer micro-units and the frame sum is a cumsum
    difference (cs[i] - cs[i-5]) on int64."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v = np.round(g["value"].to_numpy(np.float64) * 1e6).astype(np.int64)
        user = g["user_id"].to_numpy()
        cs = pd.Series(v).groupby(user, sort=False).cumsum() \
            .to_numpy(np.int64)
        # pure-int lag: the float64 shift() round-trip would lose
        # exactness once a user's cumulative micro-units exceed 2^53
        pos = pd.Series(np.zeros(len(g))).groupby(user, sort=False) \
            .cumcount().to_numpy(np.int64)
        have = pos >= 5
        lag = np.zeros(len(g), np.int64)
        idx = np.arange(len(g), dtype=np.int64) - 5
        lag[have] = cs[idx[have]]
        roll = cs - lag
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "roll_value": roll.astype(np.float64) / 1e6})

    out = exchange_by_key(ds, ["user_id"], per_bucket).to_pandas()
    if out.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(event_id="int64", roll_value="float64")
    return out.astype({"event_id": "int64", "roll_value": "float64"})


def q_funnel_conversion(sf_dir: str) -> pd.DataFrame:
    """Funnel analytic over the event log: users reaching
    view -> click-after-view -> purchase-after-that-click, computed from
    per-user min-timestamps per stage (min is a pure partial aggregate, so
    the only shuffle carries one skinny row per (user, stage) per batch).
    Conversion uses the min-ts chain simplification: a user converts a
    step when its min ts is >= the previous step's min ts."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "ts"])
    stages = ("view", "click", "purchase")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(stages)]
        g = pd.DataFrame({
            "user_id": b["user_id"].to_numpy(np.int64),
            "event_type": b["event_type"].to_numpy(),
            "ts_us": b["ts"].to_numpy("datetime64[us]").astype(np.int64)})
        return g.groupby(["user_id", "event_type"], as_index=False).min()

    partials = ds.map_batches(partial, batch_format="pandas") \
        .materialize().to_pandas()
    if partials.empty:  # no qualifying events: all-zero funnel (SQL twin)
        return pd.DataFrame({"step": np.int64([1, 2, 3]),
                             "stage": list(stages),
                             "n_users": np.int64([0, 0, 0])})
    m = partials.groupby(["user_id", "event_type"], as_index=False).min() \
        .pivot(index="user_id", columns="event_type", values="ts_us")
    for s in stages:
        if s not in m.columns:
            m[s] = np.nan
    t_view = m["view"].to_numpy(np.float64)
    t_click = m["click"].to_numpy(np.float64)
    t_buy = m["purchase"].to_numpy(np.float64)
    n_view = int(np.count_nonzero(~np.isnan(t_view)))
    reach_click = (t_click >= t_view)  # NaN comparisons are False
    n_click = int(np.count_nonzero(reach_click))
    n_buy = int(np.count_nonzero(reach_click & (t_buy >= t_click)))
    return pd.DataFrame({
        "step": np.int64([1, 2, 3]),
        "stage": list(stages),
        "n_users": np.int64([n_view, n_click, n_buy])})


# ---------------------------------------------------------------------------
# multi-table join plan (TPC-H Q5 shape)
# ---------------------------------------------------------------------------

def q_region_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5-shaped 6-table plan: revenue per nation for one region,
    where the ordering customer and the line's supplier share the nation.
    Plan: region/nation/supplier/customer broadcast as key->nation maps
    (small sides; at 100 TB customer graduates to the bucketed join),
    lineitem x orders goes through the adaptive join (broadcast
    under the stats gate, ONE bucketed exchange above), and the
    revenue rollup rides exact integer cents partials."""
    import os

    import pyarrow.parquet as pq
    import ray

    from .stages.joins import adaptive_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    asia_keys = set(region[region["r_name"] == "ASIA"]["r_regionkey"])
    asia_nation = nation[nation["n_regionkey"].isin(asia_keys)]
    lookup = {
        "supp_nat": dict(zip(supp["s_suppkey"], supp["s_nationkey"])),
        "cust_nat": dict(zip(cust["c_custkey"], cust["c_nationkey"])),
        "nat_name": dict(zip(asia_nation["n_nationkey"],
                             asia_nation["n_name"])),
    }
    ref = ray.put(lookup)

    lineitem = _pq(sf_dir, "lineitem",
                   ["l_orderkey", "l_suppkey", "l_extendedprice",
                    "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = adaptive_join(lineitem, orders, left_on="l_orderkey",
                           right_on="o_orderkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lk = _get_broadcast(ref)
        s_nat = b["l_suppkey"].map(lk["supp_nat"])
        c_nat = b["o_custkey"].map(lk["cust_nat"])
        name = s_nat.map(lk["nat_name"])  # NaN for non-ASIA nations
        keep = (s_nat == c_nat) & name.notna()
        b = b[keep]
        rev_c = (_cents(b["l_extendedprice"]).to_numpy()
                 * (100 - _cents(b["l_discount"]).to_numpy()))
        return pd.DataFrame({"n_name": name[keep].to_numpy(),
                             "rev_c": rev_c})

    out = sum_by(joined.map_batches(partial, batch_format="pandas"),
                 ["n_name"], ["rev_c"])
    out["revenue"] = out["rev_c"].astype(np.float64) / 10000.0
    return out.drop(columns=["rev_c"]).astype({"revenue": "float64"})


def q_priority_semi_counts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4-shaped BIG-BIG semi-join: orders per priority having at
    least one high-quantity line. Unlike the broadcast semi
    (``customers_with_orders``), neither side's key set is collected:
    qualifying l_orderkeys are deduped per batch (skinny partial), both
    sides ride one bucketed exchange, membership is tested per bucket,
    and only per-priority partial counts leave the groups."""
    qual = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def probe_partial(b: pd.DataFrame) -> pd.DataFrame:
        k = np.unique(b.loc[b["l_quantity"] > 45, "l_orderkey"]
                      .to_numpy(np.int64))
        return pd.DataFrame({"k": k, "pri": None, "side": 0})

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def fact_tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b["o_orderkey"].to_numpy(np.int64),
                             "pri": b["o_orderpriority"].to_numpy(),
                             "side": 1})

    tagged = [qual.map_batches(probe_partial, batch_format="pandas"),
              orders.map_batches(fact_tag, batch_format="pandas")]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int64)
        have = np.unique(g.loc[side == 0, "k"].to_numpy(np.int64))
        fact = g[side == 1]
        hit = fact[np.isin(fact["k"].to_numpy(np.int64), have)]
        return pd.DataFrame({"o_orderpriority": hit["pri"].to_numpy(),
                             "n_orders": np.int64(1)})

    parts = exchange_by_key(tagged, ["k"], per_bucket)
    out = sum_by(parts, ["o_orderpriority"], ["n_orders"])
    return out.astype({"n_orders": "int64"})


def q_nation_trade_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7-shaped cross-nation volume: revenue per (supplier nation,
    customer nation, order year) for cross-border pairs. Nation maps for
    supplier/customer broadcast once; lineitem x orders is the one
    bucketed exchange; revenue rides exact integer cents."""
    import os

    import pyarrow.parquet as pq
    import ray

    from .stages.joins import adaptive_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nat_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    lookup = {
        "supp_nat": {k: nat_name[v] for k, v in
                     zip(supp["s_suppkey"], supp["s_nationkey"])},
        "cust_nat": {k: nat_name[v] for k, v in
                     zip(cust["c_custkey"], cust["c_nationkey"])},
    }
    ref = ray.put(lookup)

    lineitem = _pq(sf_dir, "lineitem",
                   ["l_orderkey", "l_suppkey", "l_extendedprice",
                    "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                    "o_orderdate"])
    joined = adaptive_join(lineitem, orders, left_on="l_orderkey",
                           right_on="o_orderkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lk = _get_broadcast(ref)
        s_nat = b["l_suppkey"].map(lk["supp_nat"])
        c_nat = b["o_custkey"].map(lk["cust_nat"])
        keep = (s_nat != c_nat).to_numpy()
        b = b[keep]
        rev_c = (_cents(b["l_extendedprice"]).to_numpy()
                 * (100 - _cents(b["l_discount"]).to_numpy()))
        year = pd.to_datetime(b["o_orderdate"]).dt.year \
            .to_numpy(np.int64)
        return pd.DataFrame({"supp_nation": s_nat[keep].to_numpy(),
                             "cust_nation": c_nat[keep].to_numpy(),
                             "o_year": year, "rev_c": rev_c})

    out = sum_by(joined.map_batches(partial, batch_format="pandas"),
                 ["supp_nation", "cust_nation", "o_year"],
                 ["rev_c"])
    out["volume"] = out["rev_c"].astype(np.float64) / 10000.0
    return out.drop(columns=["rev_c"]).astype(
        {"o_year": "int64", "volume": "float64"})


_Q3_CUTOFF = "1998-01-01"
_Q3_SEGMENT = "BUILDING"


def q_shipping_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3-shaped top-k join: the 10 highest-revenue unshipped
    orders for one market segment (o_orderdate < cutoff <= l_shipdate
    window, revenue = sum of discounted line prices per order).

    Scale shape: the BUILDING customer key set broadcasts once (small
    side; graduates to a bucketed semi at 100 TB); lineitem and orders
    ride ONE skinny tagged-union exchange on orderkey; because the
    GROUP BY key IS the join key, each order's revenue is exact inside
    its bucket, so every bucket emits only its local top-10 and the
    driver reduces 64 x 10 rows. No global sort, no driver
    materialization of per-order revenue."""
    import os

    import pyarrow.parquet as pq
    import ray

    cutoff = np.datetime64(_Q3_CUTOFF)
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"]).to_pandas()
    seg_keys = np.sort(
        cust.loc[cust["c_mktsegment"] == _Q3_SEGMENT, "c_custkey"]
        .to_numpy(np.int64))
    ref = ray.put(seg_keys)

    lineitem = _pq(sf_dir, "lineitem",
                   ["l_orderkey", "l_extendedprice", "l_discount",
                    "l_shipdate"])
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate"])

    def line_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"].to_numpy("datetime64[us]")
              > np.datetime64(cutoff, "us")]
        rev_c = (_cents(b["l_extendedprice"]).to_numpy()
                 * (100 - _cents(b["l_discount"]).to_numpy()))
        g = pd.DataFrame({"k": b["l_orderkey"].to_numpy(np.int64),
                          "rev_c": rev_c}) \
            .groupby("k", as_index=False).sum()
        g["o_date"] = None
        g["side"] = 0
        return g

    def order_tag(b: pd.DataFrame) -> pd.DataFrame:
        from .stages.joins import isin_sorted

        keys = _get_broadcast(ref)
        dt = b["o_orderdate"].to_numpy("datetime64[us]")
        keep = (dt < np.datetime64(cutoff, "us")) \
            & isin_sorted(b["o_custkey"].to_numpy(), keys)
        b = b[keep]
        return pd.DataFrame({
            "k": b["o_orderkey"].to_numpy(np.int64),
            "rev_c": np.int64(0),
            "o_date": pd.to_datetime(b["o_orderdate"]).dt
            .strftime("%Y-%m-%d").to_numpy(),
            "side": 1})

    tagged = [lineitem.map_batches(line_partial, batch_format="pandas"),
              orders.map_batches(order_tag, batch_format="pandas")]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int64)
        rev = g[side == 0].groupby("k", as_index=False)["rev_c"].sum()
        ords = g.loc[side == 1, ["k", "o_date"]]
        hit = rev.merge(ords, on="k")
        hit = hit.sort_values(["rev_c", "k"], ascending=[False, True],
                              kind="mergesort").head(10)
        return hit

    parts = exchange_by_key(tagged, ["k"], per_bucket).to_pandas()
    if parts.empty:  # zero-block column-less frame: twin returns 0 rows
        return _empty_typed(l_orderkey="int64", o_date=object,
                            revenue="float64")
    out = parts.sort_values(["rev_c", "k"], ascending=[False, True],
                            kind="mergesort").head(10)
    out = pd.DataFrame({
        "l_orderkey": out["k"].to_numpy(np.int64),
        "o_date": out["o_date"].to_numpy(),
        "revenue": out["rev_c"].to_numpy(np.float64) / 10000.0})
    return out.reset_index(drop=True).astype(
        {"l_orderkey": "int64", "revenue": "float64"})


_Q10_FROM = "1997-01-01"
_Q10_TO = "1997-04-01"


def q_returned_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10-shaped returned-item report: top-20 customers by
    revenue of returned ('R') lines for one order quarter, annotated
    with name/acctbal/nation.

    Scale shape: two skinny exchanges — (1) qualifying line revenue
    meets the order window on orderkey (tagged union, per-bucket
    custkey partials out), (2) per-customer rollup on custkey through
    the gated keyed combine, exact sums and a local top-20 per key set.
    Customer details attach at the END to just the 20 winners via a
    pushed-down parquet row filter — the big dimension table is never
    broadcast or shuffled."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo = np.datetime64(_Q10_FROM, "us")
    hi = np.datetime64(_Q10_TO, "us")

    lineitem = _pq(sf_dir, "lineitem",
                   ["l_orderkey", "l_extendedprice", "l_discount",
                    "l_returnflag"])
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate"])

    def line_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_returnflag"].to_numpy() == "R"]
        rev_c = (_cents(b["l_extendedprice"]).to_numpy()
                 * (100 - _cents(b["l_discount"]).to_numpy()))
        g = pd.DataFrame({"k": b["l_orderkey"].to_numpy(np.int64),
                          "rev_c": rev_c}) \
            .groupby("k", as_index=False).sum()
        g["cust"] = np.int64(-1)
        g["side"] = 0
        return g

    def order_tag(b: pd.DataFrame) -> pd.DataFrame:
        dt = b["o_orderdate"].to_numpy("datetime64[us]")
        b = b[(dt >= lo) & (dt < hi)]
        return pd.DataFrame({"k": b["o_orderkey"].to_numpy(np.int64),
                             "rev_c": np.int64(0),
                             "cust": b["o_custkey"].to_numpy(np.int64),
                             "side": 1})

    tagged = [lineitem.map_batches(line_partial, batch_format="pandas"),
              orders.map_batches(order_tag, batch_format="pandas")]

    def per_order_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int64)
        rev = g[side == 0].groupby("k", as_index=False)["rev_c"].sum()
        ords = g.loc[side == 1, ["k", "cust"]]
        hit = rev.merge(ords, on="k")
        # custkey partials out of the bucket (one row per cust per bucket)
        return hit.groupby("cust", as_index=False)["rev_c"].sum()

    def top20(g: pd.DataFrame) -> pd.DataFrame:
        rev = g.groupby("cust", as_index=False)["rev_c"].sum()
        return rev.sort_values(["rev_c", "cust"],
                               ascending=[False, True],
                               kind="mergesort").head(20)

    cust_parts = exchange_by_key(tagged, ["k"], per_order_bucket)
    # the per-cust partials meet in the gated keyed combine; each
    # key set keeps its local top-20
    parts = combine_by_key(cust_parts, ["cust"], top20)
    if parts.empty:  # zero-block column-less frame: twin returns 0 rows
        return _empty_typed(c_custkey="int64", c_name=object,
                            revenue="float64", c_acctbal="float64",
                            n_name=object)
    top = top20(parts)

    keys = top["cust"].astype(np.int64).tolist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=pc.field("c_custkey").isin(keys)).to_pandas()
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    nat_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    info = cust.set_index("c_custkey")
    out = pd.DataFrame({
        "c_custkey": top["cust"].to_numpy(np.int64),
        "c_name": info.loc[keys, "c_name"].to_numpy(),
        "revenue": top["rev_c"].to_numpy(np.float64) / 10000.0,
        "c_acctbal": info.loc[keys, "c_acctbal"].to_numpy(np.float64),
        "n_name": info.loc[keys, "c_nationkey"].map(nat_name).to_numpy()})
    return out.reset_index(drop=True).astype(
        {"c_custkey": "int64", "revenue": "float64",
         "c_acctbal": "float64"})


# ---------------------------------------------------------------------------
# grouped top-k / grouped quantiles
# ---------------------------------------------------------------------------

_TOPK_PER_GROUP = 3


def q_group_topk_docs(sf_dir: str) -> pd.DataFrame:
    """Top-3 documents per language by quality score — the grouped top-k
    pattern: each batch emits only its per-group top-3 partials (k rows
    per group per batch), the driver holds k x #groups rows. No global
    sort, no full shuffle."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "lang": b["lang"].to_numpy(),
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "quality": ftext.quality_score(b["text"]).to_numpy(np.float64)})
        g = g.sort_values(["lang", "quality", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
        return g.groupby("lang", as_index=False).head(_TOPK_PER_GROUP)

    parts = ds.map_batches(partial, batch_format="pandas") \
        .materialize().to_pandas()
    if parts.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(lang=object, doc_id="int64", quality="float64")
    parts = parts.sort_values(["lang", "quality", "doc_id"],
                              ascending=[True, False, True],
                              kind="mergesort")
    out = parts.groupby("lang", as_index=False).head(_TOPK_PER_GROUP)
    return out.reset_index(drop=True).astype(
        {"doc_id": "int64", "quality": "float64"})


_GROUP_QUANTILE_PS = (0.5, 0.9, 0.99)


def q_source_length_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT per-source p50/p90/p99 of doc length via the distributed
    value-histogram plan (see q_length_deciles): the shuffle carries one
    (source, n_chars) count row per batch; the driver reads quantiles off
    cumulative counts of the tiny reduced histogram. Index rule =
    SQL percentile_disc: sorted[ceil(n*p) - 1]."""
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"source": b["source"].to_numpy(),
                             "v": b["n_chars"].to_numpy(np.int64),
                             "cnt": np.int64(1)})

    hist = sum_by(ds.map_batches(partial, batch_format="pandas"),
                  ["source", "v"], ["cnt"])
    rows = [(source, *qs) for source, _, *qs
            in disc_by_group(hist, "source", "v", _GROUP_QUANTILE_PS)]
    return pd.DataFrame(rows, columns=["source", "p50_chars", "p90_chars",
                                       "p99_chars"]) \
        .astype({"p50_chars": "int64", "p90_chars": "int64",
                 "p99_chars": "int64"})


# ---------------------------------------------------------------------------
# training-data organization: deterministic global shuffle, domain mixture
# sampling, per-group deterministic reservoir sampling. All keys/thresholds
# are md5-derived so the DuckDB twins are bit-exact.
# ---------------------------------------------------------------------------

_SHUFFLE_RANGES = 256  # md5-prefix range partitions of the key space


def q_deterministic_shuffle(sf_dir: str) -> pd.DataFrame:
    """Deterministic GLOBAL shuffle for training-data ordering: every doc
    gets a stable position = its rank under md5(doc_id). No global sort
    materialization — md5 keys are uniform, so the key space range-
    partitions evenly by the first hex byte: per-range counts reduce to
    256 driver rows, prefix-sum there, broadcast bases back, and each
    range sorts only its own slice (the pack_blocks prefix-sum shape
    keyed by hash instead of id)."""
    import ray

    ds = _pq(sf_dir, "documents", ["doc_id"])

    def key_partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pd.DataFrame({
            "doc_id": ids, "key": keys,
            "rng": np.fromiter((int(k[:2], 16) for k in keys),
                               dtype=np.int64, count=len(keys))})

    skinny = ds.map_batches(key_partial, batch_format="pandas") \
        .materialize()  # two consumers: range counts + in-range rank

    def range_counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rng": b["rng"], "n": np.int64(1)})

    ranges = sum_by(skinny.map_batches(range_counts, batch_format="pandas"),
                    ["rng"], ["n"]).sort_values("rng")
    bases = dict(zip(ranges["rng"].to_numpy(np.int64),
                     np.concatenate([[0], ranges["n"].cumsum()
                                     .to_numpy(np.int64)[:-1]])))
    base_ref = ray.put(bases)

    def rank_range(g: pd.DataFrame) -> pd.DataFrame:
        base = _get_broadcast(base_ref)[int(g["rng"].iloc[0])]
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "shuffle_pos": base + np.arange(len(g), dtype=np.int64)})

    out = skinny.groupby("rng").map_groups(rank_range,
                                           batch_format="pandas") \
        .to_pandas()
    if out.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(doc_id="int64", shuffle_pos="int64")
    return out.astype({"doc_id": "int64", "shuffle_pos": "int64"})


def q_mixture_sample(sf_dir: str) -> pd.DataFrame:
    """Domain mixture sampling — THE re-weighting op of LLM data prep:
    each source keeps a deterministic Bernoulli fraction of its docs
    (rate = (src_index % 4 + 1)/4 here; production passes a real weight
    map). The coin is the top-2 bits of md5('mix:'+doc_id) — u < k*2^62
    iff (u >> 62) < k — so it is exact in uint64 and in SQL, and fully
    per-batch: no shuffle at all, the cheapest possible scale shape."""
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        u_top = _md5_u64([f"mix:{i}" for i in ids]) >> np.uint64(62)
        # TRY_CAST semantics like the SQL twin: a source name without a
        # numeric tail yields NULL and the row drops (never a crash).
        # Domain assumption (shared with the twin): numeric tails are
        # non-negative integers.
        vals = pd.to_numeric(b["source"].str.slice(3), errors="coerce") \
            .to_numpy(np.float64)
        ok = np.isfinite(vals)
        k = np.zeros(len(vals))
        # DuckDB TRY_CAST('x.5' AS BIGINT) rounds half AWAY from zero
        # (verified: '0.5'->1, '2.5'->3, '-0.5'->-1) — np.rint's
        # half-to-even would diverge on every half-integer tail
        rounded = np.copysign(np.floor(np.abs(vals[ok]) + 0.5), vals[ok])
        k[ok] = np.fmod(rounded, 4) + 1
        m = ok & (u_top.astype(np.float64) < k)
        return pd.DataFrame({"doc_id": ids[m],
                             "source": b["source"].to_numpy()[m]})

    out = ds.map_batches(keep, batch_format="pandas").to_pandas()
    if out.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(doc_id="int64", source=object)
    return out.astype({"doc_id": "int64"})


_RESERVOIR_K = 20


def q_group_reservoir(sf_dir: str) -> pd.DataFrame:
    """Per-group deterministic reservoir sample: k=20 docs per language,
    chosen as the k smallest md5 keys (equivalent to a uniform sample
    without replacement, but associative: per-batch smallest-k partials
    re-reduce under the same rule, so the driver folds k x #groups x
    #batches skinny rows and no full shuffle happens)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        g = pd.DataFrame({
            "lang": b["lang"].to_numpy(), "doc_id": ids,
            "key": [hashlib.md5(str(i).encode()).hexdigest()
                    for i in ids]})
        g = g.sort_values(["lang", "key", "doc_id"], kind="mergesort")
        return g.groupby("lang", as_index=False).head(_RESERVOIR_K)

    parts = ds.map_batches(partial, batch_format="pandas") \
        .materialize().to_pandas()
    if parts.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(lang=object, doc_id="int64")
    parts = parts.sort_values(["lang", "key", "doc_id"], kind="mergesort")
    out = parts.groupby("lang", as_index=False).head(_RESERVOIR_K)
    return out[["lang", "doc_id"]].reset_index(drop=True) \
        .astype({"doc_id": "int64"})


# ---------------------------------------------------------------------------
# sketches (HLL / Bloom / Count-Min) — registers, bits and cells are all
# md5-derived, so the DuckDB oracle reconstructs them bit-for-bit
# ---------------------------------------------------------------------------

_HLL_P = 9
_HLL_M = 1 << _HLL_P  # 512 registers
_HLL_WBITS = 64 - _HLL_P  # 55
_HLL_RMAX = _HLL_WBITS + 1  # 56


def _hll_rho(w: np.ndarray) -> np.ndarray:
    """Position of the first set bit in the low 55 bits (1-based);
    rho = 56 for w == 0."""
    out = np.full(len(w), _HLL_RMAX, np.int64)
    nz = w != 0
    # bit_length via float log2 is unsafe near 2^53; use a loop on the
    # (few) distinct python ints — corpora have <= |batch| values
    out[nz] = [_HLL_WBITS + 1 - int(x).bit_length() for x in w[nz]]
    return out


def q_hll_distinct_users(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog distinct users per event type (p=9, 512 registers,
    md5 hash). Registers are a pure partial aggregate — each batch emits
    its (event_type, register, max rho) rows, max-reduce gives the global
    registers, the driver folds 512 x #types rows. The register sum rides
    exact integers (sum of 2^(56-rho) at 2^56 scale) so the raw estimate
    is a single float division on both sides; ``register_checksum`` pins
    every register value exactly. Small-range (linear counting)
    correction per the HLL paper."""
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = _md5_u64(b["user_id"].to_numpy(np.int64))
        idx = (h >> np.uint64(_HLL_WBITS)).astype(np.int64)
        w = h & np.uint64((1 << _HLL_WBITS) - 1)
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(),
                          "idx": idx, "rho": _hll_rho(w)})
        return g.groupby(["event_type", "idx"], as_index=False).max()

    regs = ds.map_batches(partial, batch_format="pandas") \
        .materialize().to_pandas()
    if regs.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(event_type=object, est_distinct="float64",
                            n_zero_registers="int64",
                            register_checksum="int64")
    regs = regs.groupby(["event_type", "idx"], as_index=False).max()

    alpha = 0.7213 / (1 + 1.079 / _HLL_M)
    rows = []
    for etype, g in regs.groupby("event_type"):
        rho = g["rho"].to_numpy(np.int64)
        idx = g["idx"].to_numpy(np.int64)
        n_present = len(g)
        v = _HLL_M - n_present  # zero registers
        s = int(sum(1 << (_HLL_RMAX - int(r)) for r in rho)) \
            + (v << _HLL_RMAX)
        est = alpha * _HLL_M * _HLL_M * float(1 << _HLL_RMAX) / float(s)
        if est <= 2.5 * _HLL_M and v > 0:
            est = _HLL_M * np.log(_HLL_M / float(v))
        checksum = int(((idx + 1) * rho).sum())
        rows.append((etype, round(float(est), 6), v, checksum))
    return pd.DataFrame(rows, columns=[
        "event_type", "est_distinct", "n_zero_registers",
        "register_checksum"]) \
        .astype({"est_distinct": "float64", "n_zero_registers": "int64",
                 "register_checksum": "int64"})


_BLOOM_BITS = 4096
_BLOOM_ACCTBAL = 9000.0


def q_bloom_filter_orders(sf_dir: str) -> pd.DataFrame:
    """Distributed Bloom-filter semi-filter: build a 4096-bit, 3-hash
    Bloom filter over high-balance customers (per-batch partial bit
    sets, OR-reduced — a Bloom filter is an associative partial
    aggregate), broadcast it once, and count the orders whose custkey
    passes, per order status. False positives are part of the answer and
    are deterministic (md5 bit positions), so the DuckDB twin reproduces
    them exactly. This is the classic shuffle-avoiding join pre-filter."""
    import ray

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def build_partial(b: pd.DataFrame) -> pd.DataFrame:
        keys = b.loc[b["c_acctbal"] > _BLOOM_ACCTBAL, "c_custkey"] \
            .to_numpy(np.int64)
        w0, w1, w2 = _md5_words(keys, (0, 4, 8), _BLOOM_BITS)
        pos = np.unique(np.concatenate([w0, w1, w2])) \
            if len(keys) else np.empty(0, np.int64)
        return pd.DataFrame({"pos": pos, "one": 1})

    bits_df = sum_by(cust.map_batches(build_partial, batch_format="pandas"),
                     ["pos"], ["one"])
    bloom = np.zeros(_BLOOM_BITS, np.bool_)
    bloom[bits_df["pos"].to_numpy(np.int64)] = True
    ref = ray.put(bloom)

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        bl = _get_broadcast(ref)
        w0, w1, w2 = _md5_words(b["o_custkey"].to_numpy(np.int64),
                                (0, 4, 8), _BLOOM_BITS)
        ok = bl[w0] & bl[w1] & bl[w2]
        return pd.DataFrame({"o_orderstatus":
                             b["o_orderstatus"].to_numpy()[ok],
                             "n_pass": np.int64(1)})

    out = sum_by(orders.map_batches(probe, batch_format="pandas"),
                 ["o_orderstatus"], ["n_pass"])
    return out.astype({"n_pass": "int64"})


_CMS_D = 4
_CMS_W = 64
_CMS_TOPK = 10


def q_cms_topk_props(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch top-10 of the ``props`` payload metric: 4 x 64
    md5-salted cells count every event (cells are a pure partial
    aggregate), the estimate for a value is the min over its 4 cells
    (overcounts only — CMS guarantee), and the top-10 by estimate is read
    off the tiny (distinct-values x 1) table. Sub-linear state: the
    sketch is 256 cells regardless of corpus size; the distinct-value
    probe set is the only data-dependent state (bounded domain here; at
    an unbounded domain you'd probe a sampled candidate set)."""
    ds = _pq(sf_dir, "events", ["props"])

    def extract_k(b: pd.DataFrame) -> pd.Series:
        return b["props"].fillna("").str.extract(r"(\d+)", expand=False) \
            .fillna("0").astype(np.int64)

    def cells_partial(b: pd.DataFrame) -> pd.DataFrame:
        k = extract_k(b)
        frames = []
        for i in range(_CMS_D):
            pos = np.fromiter(
                (int.from_bytes(hashlib.md5(f"{i}:{v}".encode())
                                .digest()[:4], "big") % _CMS_W
                 for v in k),
                dtype=np.int64, count=len(k))
            frames.append(pd.DataFrame({"row": i, "pos": pos,
                                        "cnt": np.int64(1)}))
        return pd.concat(frames)

    def distinct_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k_val": np.unique(extract_k(b)), "one": 1})

    ds = ds.materialize()  # two consumers: cells + distinct probe set
    cells = sum_by(ds.map_batches(cells_partial, batch_format="pandas"),
                   ["row", "pos"], ["cnt"])
    probes = sum_by(ds.map_batches(distinct_partial, batch_format="pandas"),
                    ["k_val"], ["one"])["k_val"] \
        .to_numpy(np.int64)

    cell = np.zeros((_CMS_D, _CMS_W), np.int64)
    cell[cells["row"].to_numpy(np.int64),
         cells["pos"].to_numpy(np.int64)] = cells["cnt"].to_numpy(np.int64)
    est = np.full(len(probes), np.iinfo(np.int64).max, np.int64)
    for i in range(_CMS_D):
        pos = np.fromiter(
            (int.from_bytes(hashlib.md5(f"{i}:{v}".encode())
                            .digest()[:4], "big") % _CMS_W
             for v in probes),
            dtype=np.int64, count=len(probes))
        est = np.minimum(est, cell[i, pos])
    out = pd.DataFrame({"k_val": probes, "est_n": est})
    out = out.sort_values(["est_n", "k_val"], ascending=[False, True],
                          kind="mergesort").head(_CMS_TOPK)
    return out.reset_index(drop=True).astype(
        {"k_val": "int64", "est_n": "int64"})


# ---------------------------------------------------------------------------
# oracle SQL twins
# ---------------------------------------------------------------------------

def _hll_rho_case_sql(wcol: str) -> str:
    """Machine-generated CASE computing rho (first-set-bit position in the
    low 55 bits, 1-based; 56 for zero) without float log2."""
    whens = "\n".join(
        f"WHEN {wcol} >= (1::UBIGINT << {_HLL_WBITS - r}) THEN {r}"
        for r in range(1, _HLL_WBITS + 1))
    return f"CASE {whens} ELSE {_HLL_RMAX} END"


def _hll_oracle_sql() -> str:
    alpha = "0.7213 / (1 + 1.079 / 512)"
    pow56 = "((1::HUGEINT << 56)::DOUBLE)"
    raw = (f"{alpha} * 512 * 512 * {pow56} / "
           "((s_present + ((512 - n_present)::HUGEINT << 56))::DOUBLE)")
    return f"""
        WITH h AS (
          SELECT event_type,
                 ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
                   ::UBIGINT AS h
          FROM events),
        r AS (
          SELECT event_type,
                 CAST(h >> {_HLL_WBITS} AS BIGINT) AS idx,
                 h & ((1::UBIGINT << {_HLL_WBITS}) - 1) AS w
          FROM h),
        rho AS (
          SELECT event_type, idx, {_hll_rho_case_sql('w')} AS rho FROM r),
        reg AS (
          SELECT event_type, idx, MAX(rho) AS mrho
          FROM rho GROUP BY event_type, idx),
        agg AS (
          SELECT event_type,
                 SUM((1::HUGEINT) << ({_HLL_RMAX} - mrho)) AS s_present,
                 COUNT(*) AS n_present,
                 SUM((idx + 1) * mrho) AS register_checksum
          FROM reg GROUP BY event_type)
        SELECT event_type,
               round(CASE WHEN {raw} <= 2.5 * 512 AND n_present < 512
                     THEN 512 * ln(512 / ((512 - n_present)::DOUBLE))
                     ELSE {raw} END, 6) AS est_distinct,
               CAST(512 - n_present AS BIGINT) AS n_zero_registers,
               CAST(register_checksum AS BIGINT) AS register_checksum
        FROM agg"""


def _bloom_pos_sql(col: str, start_hex: int) -> str:
    return (f"('0x' || substr(md5(CAST({col} AS VARCHAR)), {start_hex}, 8))"
            f"::UBIGINT % {_BLOOM_BITS}")


def _bloom_oracle_sql() -> str:
    b1 = _bloom_pos_sql("c_custkey", 1)
    b2 = _bloom_pos_sql("c_custkey", 9)
    b3 = _bloom_pos_sql("c_custkey", 17)
    p1 = _bloom_pos_sql("o_custkey", 1)
    p2 = _bloom_pos_sql("o_custkey", 9)
    p3 = _bloom_pos_sql("o_custkey", 17)
    return f"""
        WITH build AS (
          SELECT c_custkey FROM customer WHERE c_acctbal > {_BLOOM_ACCTBAL}),
        bits AS (
          SELECT DISTINCT pos FROM (
            SELECT {b1} AS pos FROM build
            UNION ALL SELECT {b2} FROM build
            UNION ALL SELECT {b3} FROM build))
        SELECT o_orderstatus, COUNT(*) AS n_pass
        FROM orders
        WHERE {p1} IN (SELECT pos FROM bits)
          AND {p2} IN (SELECT pos FROM bits)
          AND {p3} IN (SELECT pos FROM bits)
        GROUP BY o_orderstatus"""


def _cms_oracle_sql() -> str:
    def pos(i: str, v: str) -> str:
        return (f"('0x' || substr(md5({i} || ':' || CAST({v} AS VARCHAR))"
                f", 1, 8))::UBIGINT % {_CMS_W}")

    return f"""
        WITH k AS (
          SELECT COALESCE(TRY_CAST(regexp_extract(props, '(\\d+)', 1)
                                   AS BIGINT), 0) AS k_val
          FROM events),
        salted AS (
          SELECT k_val, i.i AS row, {pos('i.i', 'k_val')} AS pos
          FROM k, (SELECT unnest([0, 1, 2, 3]) AS i) i),
        cells AS (
          SELECT row, pos, COUNT(*) AS cnt FROM salted
          GROUP BY row, pos),
        probes AS (SELECT DISTINCT k_val FROM k),
        probe_pos AS (
          SELECT p.k_val, i.i AS row, {pos('i.i', 'p.k_val')} AS pos
          FROM probes p, (SELECT unnest([0, 1, 2, 3]) AS i) i),
        est AS (
          SELECT pp.k_val, MIN(COALESCE(c.cnt, 0)) AS est_n
          FROM probe_pos pp LEFT JOIN cells c
            ON pp.row = c.row AND pp.pos = c.pos
          GROUP BY pp.k_val)
        SELECT k_val, CAST(est_n AS BIGINT) AS est_n FROM est
        ORDER BY est_n DESC, k_val LIMIT {_CMS_TOPK}"""


def q_revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP subtotal lattice (region, nation) over order
    revenue. Plan: the dimension chain customer->nation->region broadcasts
    once (small sides); ONE partial-cents reduce runs at the FINEST grain
    only — (region, nation), bounded by dim cardinality at any corpus
    size — and the coarser rollup levels (per-region, grand total) derive
    from that reduced table on the driver (rows = #nations, never
    corpus-sized). Money rides exact int64 cents so every level is
    bit-identical to SQL ROLLUP regardless of combine order."""
    import os

    import pyarrow.parquet as pq
    import ray

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nat_region = dict(zip(nation["n_nationkey"],
                          nation["n_regionkey"].map(
                              dict(zip(region["r_regionkey"],
                                       region["r_name"])))))
    ref = ray.put({"cust_nat": dict(zip(cust["c_custkey"],
                                        cust["c_nationkey"])),
                   "nat_name": dict(zip(nation["n_nationkey"],
                                        nation["n_name"])),
                   "nat_region": nat_region})

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lk = _get_broadcast(ref)
        nat = b["o_custkey"].map(lk["cust_nat"])
        return pd.DataFrame({
            "r_name": nat.map(lk["nat_region"]),
            "n_name": nat.map(lk["nat_name"]),
            "cents": _cents(b["o_totalprice"])})

    fine = sum_by(orders.map_batches(partial, batch_format="pandas"),
                  ["r_name", "n_name"], ["cents"])
    if fine.empty:  # SQL ROLLUP on an empty table: one all-NULL row
        return pd.DataFrame({"r_name": [None], "n_name": [None],
                             "revenue": [np.nan]})
    lvl_region = fine.groupby("r_name", as_index=False)["cents"].sum()
    lvl_region["n_name"] = None
    total = pd.DataFrame({"r_name": [None], "n_name": [None],
                          "cents": [fine["cents"].sum()]})
    out = pd.concat([fine, lvl_region, total], ignore_index=True)
    out["revenue"] = out["cents"].to_numpy(np.float64) / 100.0
    return out[["r_name", "n_name", "revenue"]] \
        .sort_values(["r_name", "n_name"], na_position="last") \
        .reset_index(drop=True)


_PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_event_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot (long -> wide): one count column per event type per user —
    conditional aggregation, the shape Ray Data has no native operator
    for. One 0/1 column per type (columns fixed by the known type domain)
    summed per user in one grouped sum; no row-explosion, no second
    pass. An unknown type domain would first run
    the distinct_event_types plan to fix the columns."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])
    cols = [f"n_{t}" for t in _PIVOT_TYPES]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].notna()]
        return b[["user_id"]].assign(**{
            c: (b["event_type"] == t).to_numpy(np.int64)
            for c, t in zip(cols, _PIVOT_TYPES)})

    out = sum_by(ds.map_batches(partial, batch_format="pandas"),
                 ["user_id"], cols)
    return out.astype({"user_id": "int64", **{c: "int64" for c in cols}}) \
        .sort_values("user_id").reset_index(drop=True)


def q_length_cdf(sf_dir: str) -> pd.DataFrame:
    """Global cume_dist window WITHOUT a global sort: the bounded value
    histogram (one row per distinct n_chars) reduces once; cumulative
    counts give cd(v) = rows_at_or_below / n; the tiny value->cd map
    broadcasts via ray.put and a pure map annotates every doc.
    cume_dist is tie-stable (unlike ntile/row_number), so the result is
    deterministic and the doubles are bit-identical: both sides divide
    the same int64 cumulative count by the same int64 n."""
    import ray

    # two consumers (histogram pass + annotate pass): materialize the
    # skinny projection once so the parquet read/decode doesn't run twice
    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"]).materialize()

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": b["n_chars"].dropna().to_numpy(np.int64),
                             "cnt": np.int64(1)})

    h = sum_by(ds.map_batches(hist, batch_format="pandas"),
               ["v"], ["cnt"]).sort_values("v")
    vals = h["v"].to_numpy(np.int64)
    cd = h["cnt"].cumsum().to_numpy(np.int64)
    n = int(cd[-1]) if len(cd) else 0
    if n == 0:  # zero blocks -> column-less frame, matching the SQL twin
        return _empty_typed(doc_id="int64", n_chars="int64", cd="float64")
    ref = ray.put((vals, cd.astype(np.float64) / n))

    def annotate(b: pd.DataFrame) -> pd.DataFrame:
        v, c = _get_broadcast(ref)
        pos = np.searchsorted(v, b["n_chars"].to_numpy(np.int64))
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "n_chars": b["n_chars"].to_numpy(np.int64),
                             "cd": c[pos]})

    return ds.map_batches(annotate, batch_format="pandas").to_pandas() \
        .astype({"doc_id": "int64", "n_chars": "int64", "cd": "float64"}) \
        .sort_values("doc_id").reset_index(drop=True)


def q_user_reconcile(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER reconciliation of event activity vs the customer
    dimension — the one join mode no other query exercises. Plan: events
    pre-aggregate to per-batch (key, n) partials (skinny); both sides
    tag and move through ONE union + ``exchange_by_key`` shuffle on the
    key; inside a bucket the partials sum EXACTLY (co-partitioning
    puts every partial of a key in its bucket) before the outer merge
    with the customer rows, so the bucket output is final — no second
    reduce, no driver combine. Left-only keys (activity without a
    customer record) report is_customer=false; right-only keys report
    n_events=0."""
    ev = _pq(sf_dir, "events", ["user_id"])
    cust = _pq(sf_dir, "customer", ["c_custkey"])

    def ev_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["user_id"].value_counts()
        d = pd.DataFrame({"key": vc.index.to_numpy(np.int64),
                          "n": vc.to_numpy(np.int64)})
        d["side"] = "e"
        return d

    def cust_tag(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"key": b["c_custkey"].to_numpy(np.int64)})
        d["n"] = np.int64(0)
        d["side"] = "c"
        return d

    both = [ev.map_batches(ev_partial, batch_format="pandas"),
            cust.map_batches(cust_tag, batch_format="pandas")]

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["side"] == "e"].groupby("key", as_index=False)["n"].sum()
        c = g.loc[g["side"] == "c", ["key"]].assign(is_customer=True)
        m = e.merge(c, how="outer", on="key")
        m["n_events"] = m["n"].fillna(0).astype(np.int64)
        m["is_customer"] = m["is_customer"].fillna(False).astype(bool)
        return m[["key", "n_events", "is_customer"]]

    out = exchange_by_key(both, ["key"], combine).to_pandas()
    if out.empty:  # zero-block column-less frame: mirror the twin's 0 rows
        return _empty_typed(key="int64", n_events="int64", is_customer=bool)
    return out.astype({"key": "int64", "n_events": "int64"}) \
        .sort_values("key").reset_index(drop=True)


register("event_deltas", q_event_deltas, """
        SELECT event_id,
               COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id), -1)
                 AS delta_us
        FROM events""")

register("rolling_value_sum", q_rolling_value_sum, """
        SELECT event_id,
               CAST(SUM(CAST(round(value * 1000000) AS BIGINT)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE)
                 / 1000000.0 AS roll_value
        FROM events""")

register("funnel_conversion", q_funnel_conversion, """
        WITH m AS (
          SELECT user_id,
                 min(CASE WHEN event_type = 'view'
                     THEN epoch_us(ts) END) AS t_view,
                 min(CASE WHEN event_type = 'click'
                     THEN epoch_us(ts) END) AS t_click,
                 min(CASE WHEN event_type = 'purchase'
                     THEN epoch_us(ts) END) AS t_buy
          FROM events GROUP BY user_id)
        SELECT 1 AS step, 'view' AS stage, count(t_view) AS n_users FROM m
        UNION ALL
        SELECT 2, 'click', count(*) FROM m WHERE t_click >= t_view
        UNION ALL
        SELECT 3, 'purchase', count(*) FROM m
        WHERE t_click >= t_view AND t_buy >= t_click""")

register("region_revenue", q_region_revenue, """
        SELECT n_name,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
        GROUP BY n_name""")

register("priority_semi_counts", q_priority_semi_counts, """
        SELECT o_orderpriority, COUNT(*) AS n_orders
        FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey AND l_quantity > 45)
        GROUP BY o_orderpriority""")

register("nation_trade_volume", q_nation_trade_volume, """
        WITH sn AS (
          SELECT s_suppkey, n_name AS supp_nation
          FROM supplier JOIN nation ON s_nationkey = n_nationkey),
        cn AS (
          SELECT c_custkey, n_name AS cust_nation
          FROM customer JOIN nation ON c_nationkey = n_nationkey)
        SELECT supp_nation, cust_nation,
               CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS volume
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN sn ON l_suppkey = s_suppkey
        JOIN cn ON o_custkey = c_custkey
        WHERE supp_nation <> cust_nation
        GROUP BY supp_nation, cust_nation, o_year""")

register("shipping_priority", q_shipping_priority, f"""
        SELECT l_orderkey, strftime(o_orderdate, '%Y-%m-%d') AS o_date,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue
        FROM customer, orders, lineitem
        WHERE c_mktsegment = '{_Q3_SEGMENT}'
          AND c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '{_Q3_CUTOFF}'
          AND l_shipdate > TIMESTAMP '{_Q3_CUTOFF}'
        GROUP BY l_orderkey, o_orderdate
        ORDER BY SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                 DESC, l_orderkey
        LIMIT 10""")

register("returned_revenue", q_returned_revenue, f"""
        SELECT c_custkey, c_name,
               CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue,
               c_acctbal, n_name
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= TIMESTAMP '{_Q10_FROM}'
          AND o_orderdate < TIMESTAMP '{_Q10_TO}'
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, n_name
        ORDER BY SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                 DESC, c_custkey
        LIMIT 20""")

# group_topk_docs reuses quality_score's exact scoring SQL as a CTE so
# both stay bit-identical by construction
register("group_topk_docs", q_group_topk_docs, f"""
        WITH scored AS ({ORACLE_SQL['quality_score']}),
        ranked AS (
          SELECT d.lang, s.doc_id, s.quality,
                 row_number() OVER (PARTITION BY d.lang
                     ORDER BY s.quality DESC, s.doc_id) AS rn
          FROM scored s JOIN documents d ON s.doc_id = d.doc_id)
        SELECT lang, doc_id, quality FROM ranked
        WHERE rn <= {_TOPK_PER_GROUP}""")

register("source_length_quantiles", q_source_length_quantiles, """
        SELECT source,
               quantile_disc(n_chars, 0.5) AS p50_chars,
               quantile_disc(n_chars, 0.9) AS p90_chars,
               quantile_disc(n_chars, 0.99) AS p99_chars
        FROM documents GROUP BY source""")

register("deterministic_shuffle", q_deterministic_shuffle, """
        SELECT doc_id,
               ROW_NUMBER() OVER (
                   ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) - 1
                 AS shuffle_pos
        FROM documents""")

register("mixture_sample", q_mixture_sample, """
        SELECT doc_id, source
        FROM documents
        WHERE (('0x' || substr(md5('mix:' || CAST(doc_id AS VARCHAR)),
                               1, 16))::UBIGINT >> 62)
              < (TRY_CAST(substr(source, 4) AS BIGINT) % 4 + 1)::UBIGINT""")

register("group_reservoir", q_group_reservoir, f"""
        WITH ranked AS (
          SELECT lang, doc_id,
                 ROW_NUMBER() OVER (PARTITION BY lang
                     ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
          FROM documents)
        SELECT lang, doc_id FROM ranked WHERE rn <= {_RESERVOIR_K}""")

register("hll_distinct_users", q_hll_distinct_users, _hll_oracle_sql())

register("bloom_filter_orders", q_bloom_filter_orders, _bloom_oracle_sql())

register("cms_topk_props", q_cms_topk_props, _cms_oracle_sql())

register("revenue_rollup", q_revenue_rollup, """
        SELECT r_name, n_name,
               CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS revenue
        FROM orders
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY ROLLUP (r_name, n_name)""")

register("event_type_pivot", q_event_type_pivot, """
        SELECT user_id,
               count(*) FILTER (event_type = 'click') AS n_click,
               count(*) FILTER (event_type = 'error') AS n_error,
               count(*) FILTER (event_type = 'purchase') AS n_purchase,
               count(*) FILTER (event_type = 'signup') AS n_signup,
               count(*) FILTER (event_type = 'view') AS n_view
        FROM events GROUP BY user_id""")

register("length_cdf", q_length_cdf, """
        SELECT doc_id, n_chars,
               cume_dist() OVER (ORDER BY n_chars) AS cd
        FROM documents""")

register("user_reconcile", q_user_reconcile, """
        WITH ev AS (
          SELECT user_id AS key, count(*) AS n
          FROM events GROUP BY user_id)
        SELECT coalesce(ev.key, c.c_custkey) AS key,
               coalesce(ev.n, 0) AS n_events,
               c.c_custkey IS NOT NULL AS is_customer
        FROM ev FULL OUTER JOIN customer c ON ev.key = c.c_custkey""")
