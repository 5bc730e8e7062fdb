"""Second relational/corpus operator family (session-3 additions):

* TPC-H Q13-shaped order-count distribution (two-level distributed
  count + zero-group completion from table counts)
* TPC-H Q15-shaped arg-max-over-aggregate (top supplier by windowed
  revenue, ties kept)
* TPC-H Q18-shaped HAVING-filtered big-big semi-join (large-volume
  orders: per-order quantity rollup -> hot-set broadcast back into
  orders/customer)
* TPC-H Q22-shaped scalar-subquery anti-join (idle rich customers)
* retention cohort matrix over events (per-user first-day reduce ->
  cohort join-back -> grouped exact count-distinct)

Every query has a bit-exact DuckDB twin (money/quantity rollups ride
int64 cents; comparisons against a global average are integer
cross-multiplies so neither side ever divides). Shuffle discipline
matches ``queries.py``: per-batch partial aggregates before any wide
groupby, broadcast hot/dimension sides, the gated keyed combine
(`ops/exchange.py`) keeps driver finals bounded to dimension-sized or
hot-set-sized frames (documented per query). Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import, like
``queries_analytic``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .ops import exchange as _xc
from .ops.exchange import _scoped_parallelism, combine_by_key
from .ops.quantile import disc_by_group, disc_pick, disc_rank
from .queries import _cents, _empty_typed, _pq, _reduce_partials, register
from .stages.joins import _get_broadcast


# ---------------------------------------------------------------------------
# TPC-H Q13: distribution of orders-per-customer (including the zero group)
# ---------------------------------------------------------------------------

def q_order_count_distribution(sf_dir: str) -> pd.DataFrame:
    """How many customers placed exactly N orders, for every N (TPC-H
    Q13 shape, cf. reference bench corpus rollups). Two-level exact
    count: per-batch partial counts per custkey (skinny (key, n)
    exchange), a keyed reduce to per-customer totals, then the tiny
    N-histogram. The zero-order group needs NO join: it is
    ``count(customer) - count(distinct o_custkey)``, two metadata-cheap
    counts — the 100 TB version never ships the customer table at all.
    Driver final = histogram rows (bounded by max orders/customer)."""
    orders = _pq(sf_dir, "orders", ["o_custkey"])
    n_customers = _pq(sf_dir, "customer", ["c_custkey"]).count()

    part = orders.map_batches(
        lambda b: b.groupby("o_custkey", as_index=False)
        .agg(n=("o_custkey", "size")), batch_format="pandas")

    def order_hist(d: pd.DataFrame) -> pd.DataFrame:
        per = d.groupby("o_custkey")["n"].sum()
        return per.value_counts(sort=False).rename_axis("c_orders") \
            .reset_index(name="n_cust")

    # each customer set folds its totals to a histogram partial
    # (<= #distinct-N rows), so above the gate only those reach the driver
    hist = combine_by_key(part, ["o_custkey"], order_hist)
    if hist.empty:
        if n_customers == 0:
            return _empty_typed(c_orders="int64", n_cust="int64")
        return pd.DataFrame({"c_orders": [0], "n_cust": [n_customers]},
                            dtype="int64")
    hist = hist.groupby("c_orders", as_index=False)["n_cust"].sum()
    n_with_orders = int(hist["n_cust"].sum())
    n_zero = int(n_customers) - n_with_orders
    if n_zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"c_orders": [0], "n_cust": [n_zero]})],
            ignore_index=True)
    return hist.astype({"c_orders": "int64", "n_cust": "int64"}) \
        .sort_values("c_orders").reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q15: top supplier(s) by windowed revenue (arg-max over aggregate)
# ---------------------------------------------------------------------------

_Q15_LO, _Q15_HI = "1996-01-01", "1996-04-01"


def q_top_supplier_revenue(sf_dir: str) -> pd.DataFrame:
    """Suppliers achieving the maximum lineitem revenue in 1996Q1, ties
    kept (TPC-H Q15 shape). Revenue rides int64
    ``cents(price) * (100 - cents(discount))`` so the arg-max compares
    integers — no float-order ambiguity in who wins. Per-supplier
    totals are supplier-dimension-sized (fine on the driver; the
    shuffle carries one (suppkey, rev) row per batch), and the name
    lookup is a driver-side merge with the supplier dimension."""
    import pyarrow.parquet as pq

    li = _pq(sf_dir, "lineitem",
             ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    lo, hi = pd.Timestamp(_Q15_LO), pd.Timestamp(_Q15_HI)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        if b.empty:
            return pd.DataFrame({
                "l_suppkey": pd.Series([], dtype="int64"),
                "rev_i": pd.Series([], dtype="int64")})
        rev = _cents(b["l_extendedprice"]).to_numpy() \
            * (100 - _cents(b["l_discount"]).to_numpy())
        return pd.DataFrame({"l_suppkey": b["l_suppkey"].to_numpy(np.int64),
                             "rev_i": rev}) \
            .groupby("l_suppkey", as_index=False).sum()

    per = _reduce_partials(li.map_batches(partial, batch_format="pandas"),
                           ["l_suppkey"], ["rev_i"])
    if per.empty:
        return _empty_typed(s_suppkey="int64", s_name=object,
                            total_revenue="float64")
    best = per[per["rev_i"] == per["rev_i"].max()]
    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey", "s_name"]).to_pandas()
    out = best.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out["total_revenue"] = out["rev_i"].astype(np.float64) / 10000.0
    return out[["s_suppkey", "s_name", "total_revenue"]] \
        .astype({"s_suppkey": "int64"}) \
        .sort_values("s_suppkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q18: large-volume orders (HAVING filter -> hot-set broadcast)
# ---------------------------------------------------------------------------

_Q18_MIN_QTY = 300  # total-quantity HAVING threshold (TPC-H Q18 uses 300)


def q_large_orders(sf_dir: str) -> pd.DataFrame:
    """Orders whose total lineitem quantity exceeds 300 (TPC-H Q18
    shape): per-order quantity rollup with a HAVING filter, then the
    surviving HOT SET (top ~0.1% of orders by construction) broadcasts
    back into orders as a semi-join filter and merges with the customer
    dimension on the driver. The per-order totals and the filter run
    in the gated keyed combine, so above the gate ONLY filtered
    survivors reach the driver — never one row per order. Quantity
    rides int64 cents."""
    import pyarrow.parquet as pq
    import ray

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    part = li.map_batches(
        lambda b: pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "qty_c": _cents(b["l_quantity"]).to_numpy()})
        .groupby("l_orderkey", as_index=False).sum(),
        batch_format="pandas")
    empty = _empty_typed(c_name=object, c_custkey="int64",
                         o_orderkey="int64",
                         o_orderdate="datetime64[us]",
                         o_totalprice="float64", total_qty="float64")
    thr = _Q18_MIN_QTY * 100

    def over_thr(d: pd.DataFrame) -> pd.DataFrame:
        per = d.groupby("l_orderkey", as_index=False)["qty_c"].sum()
        return per[per["qty_c"] > thr]

    hot = combine_by_key(part, ["l_orderkey"], over_thr)
    if hot.empty:
        return empty
    from .stages.joins import isin_sorted

    hot_ref = ray.put(np.sort(hot["l_orderkey"].to_numpy(np.int64)))

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        return b[isin_sorted(b["o_orderkey"].to_numpy(),
                             _get_broadcast(hot_ref))]

    ords = _pq(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]) \
        .map_batches(pick, batch_format="pandas").to_pandas()
    if ords.empty:  # orderkeys with no parent order row
        return empty
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name"]).to_pandas()
    out = ords.merge(cust, left_on="o_custkey", right_on="c_custkey") \
        .merge(hot, left_on="o_orderkey", right_on="l_orderkey")
    out["total_qty"] = out["qty_c"].astype(np.float64) / 100.0
    tp6 = out["o_totalprice"].astype(np.float64) * 1e6
    out["o_totalprice"] = np.copysign(  # half-away, like DuckDB ROUND(x,6)
        np.floor(np.abs(tp6) + 0.5), tp6) / 1e6
    return out[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                "o_totalprice", "total_qty"]] \
        .astype({"c_custkey": "int64", "o_orderkey": "int64"}) \
        .sort_values("o_orderkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q22: idle rich customers (scalar subquery + date-filtered anti-join)
# ---------------------------------------------------------------------------

_Q22_CUTOFF = "1998-01-01"  # "idle" = no orders on/after this date


def q_idle_rich_customers(sf_dir: str) -> pd.DataFrame:
    """Per-segment count + balance of customers with above-average
    positive balance and NO orders since 1998 (TPC-H Q22 shape). The
    global average is ONE (sum_cents, n) pair reduced from per-batch
    partials; the above-average test is the integer cross-multiply
    ``bal_c * n > sum_c`` so neither engine ever divides (bit-exact by
    construction). The anti-join side is the distinct custkey set of
    date-filtered orders, broadcast once (recent-actives are a hot set;
    for billions of distinct actives use the bucketed join with an anti
    flag — cf. q_customers_without_orders)."""
    import ray

    cust = _pq(sf_dir, "customer",
               ["c_custkey", "c_mktsegment", "c_acctbal"])
    stat = cust.map_batches(
        lambda b: pd.DataFrame({
            "s": [int(_cents(b["c_acctbal"][b["c_acctbal"] > 0]).sum())],
            "n": [int((b["c_acctbal"] > 0).sum())]}),
        batch_format="pandas").sum(["s", "n"])
    empty = _empty_typed(c_mktsegment=object, n_cust="int64",
                         total_acctbal="float64")
    if not stat or not stat.get("sum(n)"):
        return empty  # no positive balances: SQL's NULL avg matches no one
    sum_c, n_pos = int(stat["sum(s)"]), int(stat["sum(n)"])

    cutoff = pd.Timestamp(_Q22_CUTOFF)
    recent = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(
            lambda b: b[b["o_orderdate"] >= cutoff][["o_custkey"]]
            .drop_duplicates(), batch_format="pandas")
    try:
        active = set(recent.unique("o_custkey"))
    except TypeError:  # zero-block dataset: unique() yields None
        active = set()
    active_ref = ray.put(active)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bal_c = _cents(b["c_acctbal"])
        keep = (bal_c.to_numpy(np.int64) * n_pos > sum_c) \
            & ~b["c_custkey"].isin(_get_broadcast(active_ref)).to_numpy()
        hit = b[keep].assign(bal_c=bal_c[keep])
        return hit.groupby("c_mktsegment", as_index=False).agg(
            n_cust=("bal_c", "size"), bal_c=("bal_c", "sum"))

    out = _reduce_partials(cust.map_batches(partial, batch_format="pandas"),
                           ["c_mktsegment"], ["n_cust", "bal_c"])
    if out.empty:
        return empty
    out["n_cust"] = out["n_cust"].astype("int64")
    out["total_acctbal"] = out["bal_c"].astype(np.float64) / 100.0
    return out.drop(columns=["bal_c"]) \
        .sort_values("c_mktsegment").reset_index(drop=True)


# ---------------------------------------------------------------------------
# retention cohorts over events
# ---------------------------------------------------------------------------

_COHORT_BROADCAST_MAX = 5_000_000  # per-user first-day broadcast gate


def q_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Classic retention matrix: users cohorted by their FIRST event
    day; each cell (cohort_day, day_offset) counts distinct users
    active that many days after joining. Three exact stages, all
    two-level: (1) per-user first day — per-batch min combiner then a
    keyed min reduce; (2) cohort join-back — the (user, first_day) map
    broadcasts below `_COHORT_BROADCAST_MAX` users, else a bucketed
    exchange on user_id (same knob as `bucketed_hash_join`); (3) exact
    count-distinct per cell — per-batch distinct (cohort, offset, user)
    triples as the combiner, second distinct over partials, tiny cell
    count (cells are bounded by #cohort-days x #offsets, not by users).
    Days ride int32 days-since-epoch; cohort_day is emitted as an ISO
    string so both engines hash identically."""
    ev = _pq(sf_dir, "events", ["user_id", "ts"])

    def day_min(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(np.int64),
            "day": b["ts"].to_numpy("datetime64[D]").astype(np.int64)}) \
            .groupby("user_id", as_index=False).min()

    m = ev.map_batches(day_min, batch_format="pandas").materialize()
    n = m.count()
    if n == 0:
        return _empty_typed(cohort_day=object, day_offset="int64",
                            n_users="int64")
    if n <= min(_xc.GATE_ROWS, _COHORT_BROADCAST_MAX):
        # per-user first-day table is driver-bounded: combine + broadcast
        import ray

        first = m.to_pandas().groupby("user_id", as_index=False)["day"].min()
        first_ref = ray.put(dict(zip(first["user_id"].to_numpy(np.int64),
                                     first["day"].to_numpy(np.int64))))

        def triples(b: pd.DataFrame) -> pd.DataFrame:
            lut = _get_broadcast(first_ref)
            day = b["ts"].to_numpy("datetime64[D]").astype(np.int64)
            user = b["user_id"].to_numpy(np.int64)
            cohort = np.fromiter((lut[u] for u in user), dtype=np.int64,
                                 count=len(user))
            return pd.DataFrame({"cohort": cohort, "off": day - cohort,
                                 "user_id": user}).drop_duplicates()

        # a user's triples land in one key set, so per-set cell
        # counts sum (the q_distinct_users_per_type plan)
        out = combine_by_key(
            ev.map_batches(triples, batch_format="pandas"), ["user_id"],
            lambda d: d.drop_duplicates()
            .groupby(["cohort", "off"], as_index=False)
            .agg(n_users=("user_id", "size"))) \
            .groupby(["cohort", "off"], as_index=False)["n_users"].sum()
    else:
        # bucketed user_id exchange: first-day partials and raw events
        # co-locate per user bucket; the per-user first day, the
        # distinct (cohort, offset, user) triples, AND the per-cell
        # user counts all resolve inside the bucket (a user lives in
        # exactly ONE bucket, so per-bucket cell counts sum without
        # double-counting). The driver only ever sees cell partials.
        from .ops.exchange import _bucket_of

        nb = 64

        def tag_first(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["side"] = np.int64(0)
            return b

        def tag_ev(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "user_id": b["user_id"].to_numpy(np.int64),
                "day": b["ts"].to_numpy("datetime64[D]")
                .astype(np.int64),
                "side": np.int64(1)})

        def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
            b["__bucket"] = _bucket_of(b["user_id"], nb)
            return b

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            side = g["side"].to_numpy(np.int64)
            first = g[side == 0].groupby("user_id")["day"].min()
            evb = g[side == 1]
            cohort = first.reindex(
                evb["user_id"].to_numpy(np.int64)).to_numpy(np.int64)
            cells = pd.DataFrame({
                "cohort": cohort,
                "off": evb["day"].to_numpy(np.int64) - cohort,
                "user_id": evb["user_id"].to_numpy(np.int64)}) \
                .drop_duplicates()
            return cells.groupby(["cohort", "off"], as_index=False) \
                .agg(n_users=("user_id", "size"))

        with _scoped_parallelism(nb):
            cells = m.map_batches(tag_first, batch_format="pandas") \
                .union(ev.map_batches(tag_ev, batch_format="pandas")) \
                .map_batches(add_bucket, batch_format="pandas") \
                .groupby("__bucket").map_groups(per_bucket,
                                                batch_format="pandas")
            out = _reduce_partials(cells, ["cohort", "off"], ["n_users"])
    out["cohort_day"] = np.datetime_as_string(
        out["cohort"].to_numpy(np.int64).astype("datetime64[D]"), unit="D")
    return out.rename(columns={"off": "day_offset"}) \
        [["cohort_day", "day_offset", "n_users"]] \
        .astype({"day_offset": "int64", "n_users": "int64"}) \
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# corpus unigram log-probability (KenLM-style quality signal)
# ---------------------------------------------------------------------------

def q_unigram_logprob(sf_dir: str) -> pd.DataFrame:
    """Per-document mean unigram log-probability under the corpus's own
    unigram LM — the classic cheap fluency/quality signal for training
    -data curation. Two streamed passes: (1) vocab counts via per-batch
    ``value_counts`` partials (the reduce is vocab-bounded, Heaps-law
    small relative to the corpus; the same shape as ``tfidf_keywords``'
    df table), (2) broadcast the token->logprob map once and score each
    doc in a pure map. Exactness: ln(count/total) is quantized to an
    integer 1e-6 grid on BOTH sides (the ``tfidf_keywords`` technique),
    so each doc's score is an int64 sum divided by its token count —
    bit-identical doubles in any summation order."""
    import ray

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def tok_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        c = pd.Series([t for row in toks for t in row],
                      dtype=object).value_counts()
        return pd.DataFrame({"token": c.index.astype(object),
                             "n": c.to_numpy(np.int64)})

    vocab = _reduce_partials(ds.map_batches(tok_counts,
                                            batch_format="pandas"),
                             ["token"], ["n"])
    empty = _empty_typed(doc_id="int64", n_tokens="int64",
                         logprob="float64")
    if vocab.empty:
        # corpus has rows but zero tokens: every doc scores NULL
        ids = _pq(sf_dir, "documents", ["doc_id"]).to_pandas()
        if ids.empty:
            return empty
        return pd.DataFrame({"doc_id": ids["doc_id"].astype("int64"),
                             "n_tokens": np.int64(0),
                             "logprob": np.nan}) \
            .sort_values("doc_id").reset_index(drop=True)
    total = float(vocab["n"].sum())
    raw = np.log(vocab["n"].to_numpy(np.float64) / total) * 1e6
    # half-AWAY (DuckDB round()) like every round()-twinned quantization
    lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    lut_ref = ray.put(dict(zip(vocab["token"], lp6)))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lut = _get_broadcast(lut_ref)
        toks = b["text"].fillna("").str.split()
        n = toks.str.len().to_numpy(np.int64)
        s = np.fromiter((sum(lut[t] for t in row) for row in toks),
                        dtype=np.int64, count=len(toks))
        # v = mean lp6 (exact int/int division on identical doubles both
        # sides); round half-away like DuckDB ROUND, THEN divide by 1e6
        v = s.astype(np.float64) / np.maximum(n, 1)
        lp = np.where(n > 0,
                      np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6,
                      np.nan)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "n_tokens": n, "logprob": lp})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    if out.empty:
        return empty
    return out.astype({"doc_id": "int64", "n_tokens": "int64"}) \
        .sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# event-type transition matrix (per-user Markov counts)
# ---------------------------------------------------------------------------

_TRANSITION_BUCKETS = 64


def q_event_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition counts over each user's event
    stream ordered by (ts, event_id) — the bucketed-window pattern
    (user_id % 64 -> one vectorized in-bucket pass, cf.
    ``q_event_deltas``), then a tiny (prev, next) count reduce: the
    wide exchange carries events once; the second shuffle carries one
    row per (type-pair, bucket), bounded by #types² x buckets."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = (b["user_id"] % _TRANSITION_BUCKETS) \
            .astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"].to_numpy(np.int64)
        typ = g["event_type"].to_numpy(object)
        if len(g) < 2:
            return pd.DataFrame({"prev_type": pd.Series([], dtype=object),
                                 "next_type": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        same = user[1:] == user[:-1]
        return pd.DataFrame({"prev_type": typ[:-1][same],
                             "next_type": typ[1:][same]}) \
            .groupby(["prev_type", "next_type"], as_index=False) \
            .size().rename(columns={"size": "n"})

    with _scoped_parallelism(32):
        part = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas")
        out = _reduce_partials(part, ["prev_type", "next_type"], ["n"])
    if out.empty:
        return _empty_typed(prev_type=object, next_type=object, n="int64")
    return out.astype({"n": "int64"}) \
        .sort_values(["prev_type", "next_type"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# RANGE-interval time window (the time-based sibling of rolling_value_sum)
# ---------------------------------------------------------------------------

_RANGE_WINDOW_US = 3_600_000_000  # 1 hour in microseconds


def q_rolling_time_window(sf_dir: str) -> pd.DataFrame:
    """Per-user sum of ``value`` over the trailing ONE HOUR of events —
    a RANGE-interval window (vs ``rolling_value_sum``'s ROWS frame).
    Bucketed-window pattern (user_id % 64 → one vectorized in-bucket
    pass); the frame sum is a cumsum difference between two
    ``searchsorted`` boundaries on int64 microseconds. SQL RANGE frames
    include ALL ts-peer rows of the current row (not just preceding
    ones), so the upper boundary is ``searchsorted(ts, ts_i, 'right')``
    — exact tie parity with the DuckDB window. Values ride int64
    micro-units so the difference is order-exact."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = (b["user_id"] % _TRANSITION_BUCKETS) \
            .astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        user = g["user_id"].to_numpy(np.int64)
        raw = g["value"].to_numpy(np.float64) * 1e6
        # fail loudly on NULL values: SQL window SUM skips them, the
        # int64 cast would turn them into garbage — the corpus contract
        # guarantees non-null `value` (see q_table_profile docstring)
        assert not np.isnan(raw).any(), \
            "rolling_time_window: NULL value column unsupported"
        v = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        if not len(g):
            return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                                 "hour_value": pd.Series([],
                                                         dtype="float64")})
        # offset each user's ts into a disjoint band so ONE global
        # searchsorted respects user boundaries (no per-user loop).
        # GUARD: with span ~= the corpus time range in microseconds, the
        # banded key overflows int64 silently once n_users x span
        # crosses 2^63 (~1e5 users on a 3-year corpus) — exactly the
        # scale the doctrine targets — so fall back to per-user-segment
        # searchsorted (still vectorized inside each segment).
        uid_dense = pd.factorize(user)[0].astype(np.int64)
        span = int(ts.max() - ts.min()) + 2 * _RANGE_WINDOW_US + 2
        n_users = int(uid_dense[-1]) + 1
        cs = np.concatenate([[0], np.cumsum(v)])
        if n_users * span < (1 << 62):
            key = (ts - ts.min()) + uid_dense * span
            lo = np.searchsorted(key, key - _RANGE_WINDOW_US,
                                 side="left")
            hi = np.searchsorted(key, key, side="right")
        else:
            bounds = np.concatenate(
                [[0], np.flatnonzero(np.diff(uid_dense)) + 1,
                 [len(ts)]])
            lo = np.empty(len(ts), np.int64)
            hi = np.empty(len(ts), np.int64)
            for s, e in zip(bounds[:-1], bounds[1:]):
                seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(
                    seg, seg - _RANGE_WINDOW_US, side="left")
                hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        roll = cs[hi] - cs[lo]
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "hour_value": roll.astype(np.float64) / 1e6})

    with _scoped_parallelism(32):
        out = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(event_id="int64", hour_value="float64")
    return out.astype({"event_id": "int64", "hour_value": "float64"}) \
        .sort_values("event_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# per-source token entropy (corpus diversity metric)
# ---------------------------------------------------------------------------

def q_source_token_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy of each source's unigram distribution — the
    standard corpus-diversity signal for mixture design. One reduce
    over (source, token) partial counts (vocab x sources bounded, the
    ``tfidf_keywords`` df-table shape), then exact per-source entropy:
    H = -(Σ n·lp6)/T/1e6 where lp6 = round(ln(n/T)·1e6) is the shared
    integer quantization — both engines sum only int64s, so the result
    is bit-identical in any order."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def tok_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        src = b["source"].to_numpy(object)
        pairs = pd.DataFrame({
            "source": np.repeat(src, toks.str.len().to_numpy(np.int64)),
            "token": [t for row in toks for t in row]})
        return pairs.groupby(["source", "token"], as_index=False) \
            .size().rename(columns={"size": "n"})

    st = _reduce_partials(ds.map_batches(tok_counts,
                                         batch_format="pandas"),
                          ["source", "token"], ["n"])
    if st.empty:
        return _empty_typed(source=object, n_tokens="int64",
                            n_types="int64", entropy="float64")
    totals = st.groupby("source")["n"].transform("sum") \
        .to_numpy(np.float64)
    n = st["n"].to_numpy(np.int64)
    raw = np.log(n.astype(np.float64) / totals) * 1e6
    # half-AWAY (DuckDB round()) like every round()-twinned quantization
    lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    st = st.assign(h=n * lp6)
    agg = st.groupby("source", as_index=False).agg(
        n_tokens=("n", "sum"), n_types=("n", "size"), h=("h", "sum"))
    v = agg["h"].to_numpy(np.float64) / agg["n_tokens"].to_numpy(np.float64)
    agg["entropy"] = -np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6
    return agg.drop(columns=["h"]) \
        .astype({"n_tokens": "int64", "n_types": "int64"}) \
        .sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# grouped robust statistics: exact median + MAD, exact mode
# ---------------------------------------------------------------------------

def _typed_hist(sf_dir: str) -> pd.DataFrame:
    """(event_type, v6) count histogram over events.value micro-units
    — the bounded-value-histogram plan shared by MAD / mode / outliers
    (one skinny reduce, rows bounded by #types x #distinct values,
    never by #events)."""

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        # NULL values are excluded like SQL round(NULL) (a NaN cast to
        # int64 would silently histogram as INT64_MIN garbage)
        b = b.dropna(subset=["value"])
        raw = b["value"].to_numpy(np.float64) * 1e6
        v6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(object),
                          "v6": v6})
        return g.groupby(["event_type", "v6"], as_index=False) \
            .size().rename(columns={"size": "cnt"})

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                            ["event_type", "v6"], ["cnt"])


def q_value_mad_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped robust statistics: exact median and median-absolute-
    deviation of ``value`` per event type — outlier-robust telemetry
    at corpus scale WITHOUT a global sort. Two histogram passes: (1)
    value histogram -> per-type median by the percentile_disc index
    rule, (2) the |v - median| histogram derived ON THE DRIVER from the
    value histogram itself (identical counts under the deviation map —
    a pure re-key of bounded histogram rows, so the second corpus scan
    the naive plan would make simply disappears) -> per-type MAD by the
    same rule. The one distributed reduce is bounded by #types x
    #distinct values; micro-unit int64 values make both stages exact."""
    h1 = _typed_hist(sf_dir)
    if h1.empty:
        return _empty_typed(event_type=object, median="float64",
                            mad="float64")
    med = {t: int(q) for t, _, q
           in disc_by_group(h1, "event_type", "v6", [0.5])}
    h2 = pd.DataFrame({
        "event_type": h1["event_type"].to_numpy(object),
        "v6": np.abs(h1["v6"].to_numpy(np.int64)
                     - h1["event_type"].map(med).to_numpy(np.int64)),
        "cnt": h1["cnt"].to_numpy(np.int64)}) \
        .groupby(["event_type", "v6"], as_index=False)["cnt"].sum()
    mad = {t: int(q) for t, _, q
           in disc_by_group(h2, "event_type", "v6", [0.5])}
    types = sorted(med)
    return pd.DataFrame({
        "event_type": types,
        "median": [med[t] / 1e6 for t in types],
        "mad": [mad[t] / 1e6 for t in types]})


def q_value_outliers_by_type(sf_dir: str) -> pd.DataFrame:
    """Tukey-fence outlier counts per event type: events outside
    [p25 − 1.5·IQR, p75 + 1.5·IQR] — the classic telemetry screen.
    Pass 1: the shared bounded value histogram -> exact p25/p75 by the
    percentile_disc index rule; the fences stay on a 0.25-micro-unit
    integer grid (4·fence = 4·q1 − 6·(q3−q1) is int), so the
    containment test ``4·v < 4·lo`` is pure int64 — no float compare
    anywhere. Pass 2 re-reads ONLY the histogram (no second corpus
    pass): outlier counts sum straight off the (value, count) rows."""
    h = _typed_hist(sf_dir)
    if h.empty:
        return _empty_typed(event_type=object, n_low="int64",
                            n_high="int64", n_total="int64")
    quart = {t: (int(a), int(b)) for t, _, a, b
             in disc_by_group(h, "event_type", "v6", (0.25, 0.75))}
    rows = []
    for typ, g in h.groupby("event_type"):
        q1, q3 = quart[typ]
        lo4 = 4 * q1 - 6 * (q3 - q1)
        hi4 = 4 * q3 + 6 * (q3 - q1)
        v4 = 4 * g["v6"].to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        rows.append((typ, int(cnt[v4 < lo4].sum()),
                     int(cnt[v4 > hi4].sum()), int(cnt.sum())))
    return pd.DataFrame(rows, columns=["event_type", "n_low", "n_high",
                                       "n_total"]) \
        .astype({"n_low": "int64", "n_high": "int64",
                 "n_total": "int64"}) \
        .sort_values("event_type").reset_index(drop=True)


def q_value_mode_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped exact MODE: most frequent value per event type, ties to
    the smallest value — read directly off the same bounded value
    histogram (one skinny reduce, no sort of the raw events)."""
    h = _typed_hist(sf_dir)
    if h.empty:
        return _empty_typed(event_type=object, mode_value="float64",
                            n="int64")
    best = h.sort_values(["event_type", "cnt", "v6"],
                         ascending=[True, False, True], kind="mergesort") \
        .drop_duplicates("event_type", keep="first")
    return pd.DataFrame({
        "event_type": best["event_type"].to_numpy(object),
        "mode_value": best["v6"].to_numpy(np.int64) / 1e6,
        "n": best["cnt"].to_numpy(np.int64)}) \
        .sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# mergeable eps-approximate quantile summary (unbounded value domains)
# ---------------------------------------------------------------------------

_QSK_EPS = 0.01
_QSK_BUCKETS = 64
_QSK_PS = (0.5, 0.9, 0.99)


def q_value_quantile_sketch(sf_dir: str) -> pd.DataFrame:
    """Mergeable deterministic eps-approximate quantiles of ``value``
    per event type — the UNBOUNDED-domain scale path that the exact
    bounded-value histograms (q_value_mad_by_type et al.) cannot take
    (cf. the retrieved "Relative Error Streaming Quantiles", PODS
    2021: sublinear summaries when the value domain is too wide to
    histogram). Plan: skinny (type, bucket = hash(event_id) % 64,
    value) rows ride ONE groupby exchange; each (type, bucket) group
    sorts and keeps every floor(eps*n_b)-th element WITH its exact
    in-bucket rank (a Munro–Paterson-style sorted coreset — no
    sampling, no randomness); the driver folds #types x #buckets x
    ~1/eps rows. For the answer v returned at target rank r, the true
    rank lies in [cum_g(v), cum_g(v) + sum_b(s_b - 1)] with
    sum_b(s_b - 1) < eps*N — the bound the property test asserts.
    Bucketing by a hash of the ROW ID makes each bucket's multiset —
    hence the whole summary — invariant to batching/parallelism, so
    the result is pinnable AND SQL-twinnable: the Fibonacci bucket
    hash ((id * 0x9E3779B97F4A7C15) mod 2^64 >> 32) is HUGEINT math
    in DuckDB (exact for ids >= -2.9e18 — beyond that the 128-bit
    product overflows; synthetic ids are nonnegative), and the
    coreset keep-rule/fold is window functions, so the twin
    reproduces the sketch bit-for-bit. Also pinned in
    tests/test_pinned_rows_only.py plus the error-bound property
    test in tests/test_queries.py."""
    from .ops.exchange import _bucket_of

    ds = _pq(sf_dir, "events", ["event_id", "event_type", "value"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["value"])
        return pd.DataFrame({
            "event_type": b["event_type"].to_numpy(object),
            "bucket": _bucket_of(b["event_id"], _QSK_BUCKETS),
            "value": b["value"].to_numpy(np.float64)})

    def coreset(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["value"].to_numpy(np.float64))
        n_b = v.size
        s = max(1, int(np.floor(_QSK_EPS * n_b)))
        idx = np.arange(s - 1, n_b, s, dtype=np.int64)
        if idx.size == 0 or idx[-1] != n_b - 1:
            idx = np.concatenate([idx, [np.int64(n_b - 1)]])
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]] * idx.size,
            "bucket": np.int64(g["bucket"].iloc[0]),
            "value": v[idx],
            "rank_in_bucket": idx + 1,
            "prev_rank": np.concatenate([[np.int64(0)], idx[:-1] + 1]),
            "n_b": np.int64(n_b)})

    with _scoped_parallelism(_QSK_BUCKETS):
        summ = ds.map_batches(tag, batch_format="pandas") \
            .groupby(["event_type", "bucket"]) \
            .map_groups(coreset, batch_format="pandas").to_pandas()
    empty = _empty_typed(event_type=object, p="float64",
                         value="float64")
    if summ.empty:
        return empty
    rows = []
    for etype, g in summ.groupby("event_type", sort=True):
        n = int(g.groupby("bucket")["n_b"].first().sum())
        g = g.sort_values(["value", "bucket", "rank_in_bucket"],
                          kind="mergesort")
        w = (g["rank_in_bucket"] - g["prev_rank"]).to_numpy(np.int64)
        cum = np.cumsum(w)
        vals = g["value"].to_numpy(np.float64)
        for p in _QSK_PS:  # cum[-1] == n: the weights telescope per bucket
            rows.append((etype, p, disc_pick(vals, cum, disc_rank(n, p))))
    return pd.DataFrame(rows, columns=["event_type", "p", "value"]) \
        .astype({"p": "float64", "value": "float64"}) \
        .sort_values(["event_type", "p"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# grouped linear trend (exact least-squares slope from combiner partials)
# ---------------------------------------------------------------------------

_TREND_EPOCH = "2024-01-01"  # events' day 0 (generator-bounded x range)


def q_value_trend_by_type(sf_dir: str) -> pd.DataFrame:
    """Least-squares slope of ``value`` against event DAY per event
    type — trend detection over telemetry. The regression is a PURE
    COMBINER: each batch emits five int64 moment partials (n, Σx, Σy,
    Σxy, Σx²) per type (x = days since 2024-01-01, y = micro-units),
    ONE skinny reduce sums them, and the driver evaluates the closed
    form ``(nΣxy − ΣxΣy) / (nΣx² − (Σx)²)`` in arbitrary-precision
    Python ints — the SQL twin's BIGINT sums promote to HUGEINT, so
    both sides divide the identical integers (then identical doubles).
    Groups with a degenerate x spread (all one day) yield NULL slope
    on both sides. No shuffle carries raw events."""
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])
    epoch = np.datetime64(_TREND_EPOCH, "D")

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = (b["ts"].to_numpy("datetime64[D]") - epoch) \
            .astype(np.int64)
        vy = b["value"].to_numpy(np.float64) * 1e6
        y = np.copysign(np.floor(np.abs(vy) + 0.5), vy) \
            .astype(np.int64)  # half-away, matches DuckDB round()
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(object),
                          "n": np.int64(1), "sx": x, "sy": y,
                          "sxy": x * y, "sxx": x * x})
        return g.groupby("event_type", as_index=False).sum()

    agg = _reduce_partials(ds.map_batches(moments, batch_format="pandas"),
                           ["event_type"], ["n", "sx", "sy", "sxy", "sxx"])
    if agg.empty:
        return _empty_typed(event_type=object, n="int64",
                            slope="float64")
    slopes = []
    for _, r in agg.iterrows():
        n, sx, sy, sxy, sxx = (int(r["n"]), int(r["sx"]), int(r["sy"]),
                               int(r["sxy"]), int(r["sxx"]))
        den = n * sxx - sx * sx
        slopes.append(np.nan if den == 0
                      else float(n * sxy - sx * sy) / float(den))
    return pd.DataFrame({
        "event_type": agg["event_type"].to_numpy(object),
        "n": agg["n"].to_numpy(np.int64),
        # slope in micro-units/day -> value-units/day on the shared grid
        "slope": np.asarray(slopes, np.float64) / 1e6}) \
        .sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# incremental dedup: big-big ANTI join vs a corpus snapshot
# ---------------------------------------------------------------------------

_INCR_BUCKETS = 32


def q_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Incremental ingestion dedup: drop new documents (top half of
    doc_ids) whose exact text already exists in the snapshot (bottom
    half) — the day-2 problem of a continuously-ingesting corpus.
    BIG-BIG ANTI join: neither side's key set is collected; snapshot
    hashes dedup per batch (skinny partials), both sides ride ONE
    bucketed exchange on the content hash, membership is tested per
    bucket (cf. the Q4-shaped semi in ``q_priority_semi_counts`` —
    this is its anti dual). Collision-safe sha-256/128 keys; the SQL
    twin anti-joins on the raw text (same relation on any corpus
    without hash collisions, like ``dedup_exact``)."""
    from .functions import dedup as fdedup
    from .ops.exchange import _bucket_of

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    half = ds.count() // 2

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        h = fdedup.content_hash(b["text"])
        ids = b["doc_id"].to_numpy(np.int64)
        old = ids < half
        snap = pd.DataFrame({"h": h[old].unique()})
        snap["doc_id"] = np.int64(-1)
        snap["side"] = 0
        new = pd.DataFrame({"h": h[~old].to_numpy(object),
                            "doc_id": ids[~old], "side": 1})
        return pd.concat([snap, new], ignore_index=True)

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = _bucket_of(b["h"], _INCR_BUCKETS)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int64)
        seen = set(g.loc[side == 0, "h"])
        new = g[side == 1]
        keep = new[~new["h"].isin(seen)]
        return keep[["doc_id"]]

    with _scoped_parallelism(_INCR_BUCKETS):
        out = ds.map_batches(tag, batch_format="pandas") \
            .map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas") \
            .to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64")
    return out.astype({"doc_id": "int64"}) \
        .sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# grouped Pearson correlation (value vs hour-of-day)
# ---------------------------------------------------------------------------

def q_value_hour_correlation(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation of ``value`` against hour-of-day per event
    type — 'is this metric diurnal?'. Same pure-combiner shape as
    ``q_value_trend_by_type``: six int64 moment partials per (type,
    batch), one skinny reduce, closed form on the driver in
    arbitrary-precision ints; both engines compute
    num/sqrt(CAST(d1·d2 AS DOUBLE)) from the identical integers (SQL
    sums promote to HUGEINT; int64 batch partials stay in range far
    beyond the test scales), then the shared half-away 1e-6 rounding.
    Degenerate variance → NULL on both sides."""
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["ts"].dt.hour.to_numpy(np.int64)
        # CENTS, not micro-units: r is scale-invariant and y^2 partials
        # must stay far from int64 wrap (micro-units square to ~2.5e17
        # per row — a thousand-row batch already overflows). Half-AWAY
        # rounding: 3-decimal values put v*100 on exact .5 ties where
        # np.round's half-even diverges from DuckDB round()
        v = b["value"].to_numpy(np.float64) * 100
        y = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(object),
                          "n": np.int64(1), "sx": x, "sy": y,
                          "sxy": x * y, "sxx": x * x, "syy": y * y})
        return g.groupby("event_type", as_index=False).sum()

    agg = _reduce_partials(ds.map_batches(moments, batch_format="pandas"),
                           ["event_type"],
                           ["n", "sx", "sy", "sxy", "sxx", "syy"])
    if agg.empty:
        return _empty_typed(event_type=object, n="int64", r="float64")
    rs = []
    for _, row in agg.iterrows():
        n, sx, sy, sxy, sxx, syy = (int(row[c]) for c in
                                    ("n", "sx", "sy", "sxy", "sxx",
                                     "syy"))
        d1, d2 = n * sxx - sx * sx, n * syy - sy * sy
        if d1 == 0 or d2 == 0:
            rs.append(np.nan)
            continue
        v = float(n * sxy - sx * sy) / np.sqrt(float(d1 * d2)) * 1e6
        rs.append(np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6)
    return pd.DataFrame({"event_type": agg["event_type"].to_numpy(object),
                         "n": agg["n"].to_numpy(np.int64),
                         "r": np.asarray(rs, np.float64)}) \
        .sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# cross-source duplicate containment (corpus lineage)
# ---------------------------------------------------------------------------

def q_cross_source_dups(sf_dir: str) -> pd.DataFrame:
    """Which sources copy from which: count of document PAIRS with
    identical text across two different sources — the containment
    matrix that tells a corpus curator where mirrored/aggregator
    content lives. Per-batch (hash, source, n) partials ride ONE
    bucketed exchange on the hash; inside each bucket only hashes seen
    under ≥2 sources survive (the corpus-sized single-source tail dies
    distributed-side), pair counts are products of per-source
    multiplicities (pairs never materialize), and the driver reduce is
    #sources²-bounded partials. The SQL twin self-joins on text
    equality — same relation absent sha-256/128 collisions (the
    ``dedup_exact`` convention)."""
    from .functions import dedup as fdedup

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "h": fdedup.content_hash(b["text"]),
            "source": b["source"].to_numpy(object)}) \
            .groupby(["h", "source"], as_index=False) \
            .size().rename(columns={"size": "n"})

    from .ops.exchange import _bucket_of

    empty = _empty_typed(source_a=object, source_b=object,
                         n_pairs="int64")

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = _bucket_of(b["h"], 32)
        return b

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # combine batch partials, then ONLY hashes seen under >= 2
        # sources survive — the corpus-sized single-source tail dies
        # inside the bucket and never reaches the driver
        g = g.groupby(["h", "source"], as_index=False)["n"].sum()
        g = g[g.duplicated("h", keep=False)]
        rows: dict = {}
        for _, sub in g.groupby("h", sort=False):
            src = sub["source"].to_numpy(object)
            cnt = sub["n"].to_numpy(np.int64)
            order = np.argsort(src)
            src, cnt = src[order], cnt[order]
            for i in range(len(src)):
                for j in range(i + 1, len(src)):
                    k = (src[i], src[j])
                    rows[k] = rows.get(k, 0) + int(cnt[i]) * int(cnt[j])
        import pyarrow as pa

        # Arrow blocks always: an empty pandas frame with object/string
        # columns trips Ray's size estimator ("cannot call `vectorize`
        # on size 0 inputs") once per empty bucket — log spam at high
        # bucket counts; Arrow sizes are exact for zero rows too.
        return pa.table({
            "source_a": pa.array([a for (a, _b) in rows], pa.string()),
            "source_b": pa.array([b for (_a, b) in rows], pa.string()),
            "n_pairs": pa.array(list(rows.values()), pa.int64())})

    with _scoped_parallelism(32):
        parts = ds.map_batches(tag, batch_format="pandas") \
            .map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(pairs_in_bucket,
                                            batch_format="pandas")
        out = _reduce_partials(parts, ["source_a", "source_b"],
                               ["n_pairs"])
    if out.empty:
        return empty
    return out.astype({"n_pairs": "int64"}) \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# rolling weekly active users (windowed exact count-distinct)
# ---------------------------------------------------------------------------

_WAU_WINDOW_DAYS = 7


def q_weekly_active_users(sf_dir: str) -> pd.DataFrame:
    """Rolling 7-day active users per day — the WAU curve, an exact
    windowed COUNT DISTINCT. Each event explodes to the ≤7 window-end
    days it contributes to (the events_sliding explode pattern), with
    per-batch dedup of (window_day, user) as the combiner — the
    exchange carries distinct pairs per batch, never raw events — then
    the two-level distinct + tiny per-day count (the
    q_distinct_users_per_type shape). Output days are restricted to
    days with ≥1 event (both sides identically)."""
    ev = _pq(sf_dir, "events", ["user_id", "ts"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        # dedup (day, user) BEFORE the 7x explode — the explode and the
        # in-batch distinct then run over distinct pairs only. The
        # day-activity flag does NOT ride this exchange (see days below).
        pairs = pd.DataFrame({
            "day": b["ts"].to_numpy("datetime64[D]").astype(np.int64),
            "user_id": b["user_id"].to_numpy(np.int64)}).drop_duplicates()
        day = pairs["day"].to_numpy(np.int64)
        user = pairs["user_id"].to_numpy(np.int64)
        k = _WAU_WINDOW_DAYS
        return pd.DataFrame({
            "wday": np.repeat(day, k)
            + np.tile(np.arange(k, dtype=np.int64), len(day)),
            "user_id": np.repeat(user, k)}).drop_duplicates()

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        # the output-day filter ("days with >= 1 event") needs only the
        # DISTINCT event days — a calendar-bounded set, reduced apart
        # from the wide pair exchange
        d = np.unique(b["ts"].to_numpy("datetime64[D]").astype(np.int64))
        return pd.DataFrame({"day": d, "one": np.int64(1)})

    event_days = _reduce_partials(
        ev.map_batches(day_partial, batch_format="pandas"),
        ["day"], ["one"])
    # a user's pairs land in one key set, so per-set day counts sum
    out = combine_by_key(
        ev.map_batches(explode, batch_format="pandas"), ["user_id"],
        lambda d: d.drop_duplicates().groupby("wday", as_index=False)
        .agg(wau=("user_id", "size")))
    if out.empty:
        return _empty_typed(day=object, wau="int64")
    out = out.groupby("wday", as_index=False)["wau"].sum()
    out = out[out["wday"].isin(set(event_days["day"]))]
    out["day"] = np.datetime_as_string(
        out["wday"].to_numpy(np.int64).astype("datetime64[D]"), unit="D")
    return out[["day", "wau"]].astype({"wau": "int64"}) \
        .sort_values("day").reset_index(drop=True)


# ---------------------------------------------------------------------------
# per-column data profiling (schema-quality report)
# ---------------------------------------------------------------------------

_PROFILE_COLS = ("event_id", "ts", "user_id", "event_type", "value",
                 "props")


def q_table_profile(sf_dir: str) -> pd.DataFrame:
    """Per-column profile of the events table — row count, null count,
    exact distinct count — the schema-quality report every ingestion
    pipeline runs first. Each column streams independently with a
    PRUNED single-column read; nulls are one int partial per batch and
    distinct is the two-level distinct-partials pattern
    (cf. q_distinct_users_per_type): per-batch drop_duplicates is the
    combiner, so the exchange carries distinct values per batch, never
    rows. Values cross the exchange in their NATIVE type (no string
    round-trip), so the counts equal SQL COUNT(DISTINCT) exactly.
    (Stored float NaNs would count as SQL non-null but pandas-null;
    the corpus schema stores NULL, never NaN payloads.)"""
    full = _pq(sf_dir, "events", list(_PROFILE_COLS))
    n_rows = full.count()

    def null_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {c: [int(b[c].isna().sum())] for c in _PROFILE_COLS})

    agg = full.map_batches(null_part, batch_format="pandas") \
        .sum(list(_PROFILE_COLS))
    # a zero-block dataset yields no aggregate (or None per column):
    # every null count is 0 then, mirroring the twin's COUNT() = 0
    nulls = {c: int((agg or {}).get(f"sum({c})") or 0)
             for c in _PROFILE_COLS}

    rows = []
    for c in _PROFILE_COLS:
        n_null = nulls[c]

        def dedup(b: pd.DataFrame, c=c) -> pd.DataFrame:
            return b[[c]].dropna().drop_duplicates()

        parts = combine_by_key(
            _pq(sf_dir, "events", [c])
            .map_batches(dedup, batch_format="pandas"), [c],
            lambda d, c=c: pd.DataFrame({"n": [d[c].nunique()]}))
        n_distinct = int(parts["n"].sum()) if len(parts.columns) else 0
        rows.append((c, n_rows, n_null, n_distinct))
    return pd.DataFrame(rows, columns=["column_name", "n_rows", "n_null",
                                       "n_distinct"]) \
        .astype({"n_rows": "int64", "n_null": "int64",
                 "n_distinct": "int64"}) \
        .sort_values("column_name").reset_index(drop=True)


# ---------------------------------------------------------------------------
# referential-integrity audit (cross-table data-quality gate)
# ---------------------------------------------------------------------------

_FK_BUCKETS = 32


def _orphan_count(vals: np.ndarray, keys: np.ndarray) -> int:
    """Rows of ``vals`` absent from the SORTED UNIQUE int64 ``keys``
    (vectorized searchsorted — no per-call set re-hash)."""
    from .stages.joins import isin_sorted

    return int((~isin_sorted(vals, keys)).sum())


def q_fk_audit(sf_dir: str, *,
               fact_broadcast_max: int | None = None) -> pd.DataFrame:
    """Pipeline data-quality gate: orphan-row counts for every foreign
    key in the star schema (lineitem→orders, lineitem→part,
    lineitem→supplier, orders→customer, customer→nation,
    supplier→nation). Dimension key sets broadcast ONCE as sorted
    unique int64 numpy arrays (ray.put + per-worker cache; membership
    is a vectorized searchsorted, not a Python-set re-hash per batch);
    each fact table streams through ONE pass that tests its
    broadcastable FKs per batch and emits per-relation partial counts
    — the shuffle carries #relations rows per batch. The fact→fact
    edge (lineitem→orders) is gated on the orders ROW COUNT from
    parquet metadata (no data read): at or below the gate the key
    array broadcasts like a dimension; above it neither side touches
    the driver — per-batch (key, multiplicity) partials from lineitem
    and per-batch distinct keys from orders ride ONE bucketed
    exchange (cf. q_incremental_dedup) and each bucket emits a single
    orphan-count partial."""
    import pyarrow.parquet as pq
    import ray

    from .ops.exchange import _bucket_of

    gate = (_xc.GATE_ROWS if fact_broadcast_max is None
            else fact_broadcast_max)

    def sorted_keys(table: str, col: str):
        t = pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                          columns=[col])
        arr = t.column(col).to_numpy(zero_copy_only=False)
        return ray.put(np.unique(arr.astype(np.int64)))

    n_orders = pq.ParquetFile(
        os.path.join(sf_dir, "orders.parquet")).metadata.num_rows
    orders_bcast = n_orders <= gate
    orders_ref = sorted_keys("orders", "o_orderkey") if orders_bcast \
        else None
    part_ref = sorted_keys("part", "p_partkey")
    supp_ref = sorted_keys("supplier", "s_suppkey")
    cust_ref = sorted_keys("customer", "c_custkey")
    nation_ref = sorted_keys("nation", "n_nationkey")

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        rels = ["lineitem.l_partkey->part",
                "lineitem.l_suppkey->supplier"]
        counts = [
            _orphan_count(b["l_partkey"].to_numpy(),
                          _get_broadcast(part_ref)),
            _orphan_count(b["l_suppkey"].to_numpy(),
                          _get_broadcast(supp_ref))]
        if orders_bcast:
            rels.append("lineitem.l_orderkey->orders")
            counts.append(_orphan_count(b["l_orderkey"].to_numpy(),
                                        _get_broadcast(orders_ref)))
        return pd.DataFrame({"relation": rels, "n_orphans": counts})

    def ord_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "relation": ["orders.o_custkey->customer"],
            "n_orphans": [_orphan_count(b["o_custkey"].to_numpy(),
                                        _get_broadcast(cust_ref))]})

    def cust_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "relation": ["customer.c_nationkey->nation"],
            "n_orphans": [_orphan_count(b["c_nationkey"].to_numpy(),
                                        _get_broadcast(nation_ref))]})

    def supp_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "relation": ["supplier.s_nationkey->nation"],
            "n_orphans": [_orphan_count(b["s_nationkey"].to_numpy(),
                                        _get_broadcast(nation_ref))]})

    parts = _pq(sf_dir, "lineitem",
                ["l_orderkey", "l_partkey", "l_suppkey"]) \
        .map_batches(li_partial, batch_format="pandas") \
        .union(_pq(sf_dir, "orders", ["o_custkey"])
               .map_batches(ord_partial, batch_format="pandas")) \
        .union(_pq(sf_dir, "customer", ["c_nationkey"])
               .map_batches(cust_partial, batch_format="pandas")) \
        .union(_pq(sf_dir, "supplier", ["s_nationkey"])
               .map_batches(supp_partial, batch_format="pandas"))
    out = _reduce_partials(parts, ["relation"], ["n_orphans"])

    if not orders_bcast:
        # bucketed anti-join for lineitem.l_orderkey -> orders: skinny
        # (key, n) partials from lineitem, distinct keys from orders,
        # one hash exchange on the key, per-bucket searchsorted.
        def li_keys(b: pd.DataFrame) -> pd.DataFrame:
            vc = b["l_orderkey"].value_counts()
            return pd.DataFrame({"k": vc.index.to_numpy(np.int64),
                                 "n": vc.to_numpy(np.int64)})

        def ord_keys(b: pd.DataFrame) -> pd.DataFrame:
            u = np.unique(b["o_orderkey"].to_numpy(np.int64))
            return pd.DataFrame({"k": u,
                                 "n": np.full(u.size, -1, np.int64)})

        def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
            b["__bucket"] = _bucket_of(b["k"], _FK_BUCKETS)
            return b

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            n = g["n"].to_numpy(np.int64)
            keys = np.unique(g.loc[n < 0, "k"].to_numpy(np.int64))
            li = g[n > 0]
            vals = li["k"].to_numpy(np.int64)
            if keys.size == 0:
                orphans = int(li["n"].sum())
            else:
                pos = np.searchsorted(keys, vals)
                hit = (pos < keys.size) & \
                    (keys[np.minimum(pos, keys.size - 1)] == vals)
                orphans = int(li["n"].to_numpy(np.int64)[~hit].sum())
            return pd.DataFrame({"n_orphans": [orphans]})

        with _scoped_parallelism(_FK_BUCKETS):
            li = _pq(sf_dir, "lineitem", ["l_orderkey"]) \
                .map_batches(li_keys, batch_format="pandas")
            od = _pq(sf_dir, "orders", ["o_orderkey"]) \
                .map_batches(ord_keys, batch_format="pandas")
            bucketed = li.union(od) \
                .map_batches(add_bucket, batch_format="pandas") \
                .groupby("__bucket") \
                .map_groups(per_bucket, batch_format="pandas") \
                .to_pandas()
        n_orph = int(bucketed["n_orphans"].sum()) \
            if not bucketed.empty else 0
        out = pd.concat([out, pd.DataFrame(
            {"relation": ["lineitem.l_orderkey->orders"],
             "n_orphans": [n_orph]})], ignore_index=True)
    # a fully-empty fact table yields no partials for its relations:
    # complete with explicit zero rows so the audit always reports all
    # six relations (matching the SQL twin's UNION ALL of scalars)
    all_rel = ["customer.c_nationkey->nation",
               "lineitem.l_orderkey->orders",
               "lineitem.l_partkey->part",
               "lineitem.l_suppkey->supplier",
               "orders.o_custkey->customer",
               "supplier.s_nationkey->nation"]
    have = set(out["relation"]) if not out.empty else set()
    missing = [r for r in all_rel if r not in have]
    if missing:
        out = pd.concat([out, pd.DataFrame(
            {"relation": missing, "n_orphans": 0})], ignore_index=True)
    return out.astype({"n_orphans": "int64"}) \
        .sort_values("relation").reset_index(drop=True)


# ---------------------------------------------------------------------------
# hourly anomaly z-scores (exact integer moments, shared-sqrt doubles)
# ---------------------------------------------------------------------------

def q_event_anomaly_hours(sf_dir: str) -> pd.DataFrame:
    """Per-(type, hour-of-day) event-count z-score against the type's
    hourly distribution — the monitoring/anomaly-triage rollup. One
    skinny (type, hour) count reduce (cells bounded by #types x 24);
    the z-score uses the all-integer rearrangement
    ``(c·m − Σc) / sqrt(m·Σc² − (Σc)²)`` so both engines take sqrt of
    the SAME int64 and divide the SAME integer numerator — identical
    doubles, then the shared half-away 1e-6 rounding. Degenerate types
    (zero variance) yield NULL on both sides."""

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(object),
                          "hr": b["ts"].dt.hour.to_numpy(np.int64)})
        return g.groupby(["event_type", "hr"], as_index=False) \
            .size().rename(columns={"size": "n"})

    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    c = _reduce_partials(ds.map_batches(cells, batch_format="pandas"),
                         ["event_type", "hr"], ["n"])
    if c.empty:
        return _empty_typed(event_type=object, hr="int64",
                            n_events="int64", z="float64")
    s = c.groupby("event_type").agg(
        m=("n", "size"), sn=("n", "sum"),
        snn=("n", lambda x: int((x.astype(object) ** 2).sum())))
    zs = np.full(len(c), np.nan)
    for i, (typ, n) in enumerate(zip(c["event_type"], c["n"])):
        m, sn, snn = (int(s.loc[typ, "m"]), int(s.loc[typ, "sn"]),
                      int(s.loc[typ, "snn"]))
        nv = m * snn - sn * sn
        if nv:
            y = float(int(n) * m - sn) / np.sqrt(float(nv)) * 1e6
            zs[i] = np.copysign(np.floor(np.abs(y) + 0.5), y) / 1e6
    return pd.DataFrame({"event_type": c["event_type"].to_numpy(object),
                         "hr": c["hr"].to_numpy(np.int64),
                         "n_events": c["n"].to_numpy(np.int64),
                         "z": zs}) \
        .sort_values(["event_type", "hr"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# weighted sampling without replacement (A-ES exponential-jump keys)
# ---------------------------------------------------------------------------

_WRS_K = 25


def q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sample WITHOUT replacement (Efraimidis–Spirakis A-ES):
    25 documents drawn with probability proportional to length — the
    curriculum/upsampling primitive. Key = ln(u)/w with u derived from
    md5 (exact same uint64 -> double chain in SQL), maximized; the
    per-batch top-k partial is associative, so the only exchange is
    k rows per batch and the driver folds #batches x k rows. Zero-
    weight docs are excluded on both sides (their key is -inf/NaN)."""

    from .queries_analytic import _md5_u64

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_chars"] > 0]
        ids = b["doc_id"].to_numpy(np.int64)
        h = _md5_u64([f"wrs:{i}" for i in ids])
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = np.log(u) / b["n_chars"].to_numpy(np.float64)
        g = pd.DataFrame({"doc_id": ids,
                          "n_chars": b["n_chars"].to_numpy(np.int64),
                          "key": key})
        return g.sort_values(["key", "doc_id"],
                             ascending=[False, True],
                             kind="mergesort").head(_WRS_K)

    parts = _pq(sf_dir, "documents", ["doc_id", "n_chars"]) \
        .map_batches(topk, batch_format="pandas") \
        .materialize().to_pandas()
    if parts.empty:
        return _empty_typed(doc_id="int64", n_chars="int64")
    out = parts.sort_values(["key", "doc_id"],
                            ascending=[False, True],
                            kind="mergesort").head(_WRS_K)
    return out[["doc_id", "n_chars"]].astype("int64") \
        .reset_index(drop=True)


# ---------------------------------------------------------------------------
# PageRank over the near-dup graph (distributed integer power iteration)
# ---------------------------------------------------------------------------

_PR_Q = 10 ** 12  # total rank mass in integer units
_PR_ITERS = 8
_PR_BUCKETS = 16


def q_dup_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank centrality over the winnowing near-dup graph — ranks
    the 'template' documents whose text radiates through the most
    duplicate families (dedup triage: keep the hub, drop satellites).
    ALL arithmetic is int64 on a 1e-12 mass grid with floor division,
    so 8 damped power iterations are bit-identical in any execution
    order — the same quantization trick that makes kmeans_assign
    CI-pinnable, here applied to a graph algorithm with an unrolled
    8-CTE DuckDB twin (aggregation inside a recursive CTE is illegal,
    so the twin unrolls the fixed iterations instead).

    Shuffle budget per iteration: TWO int-only exchanges (the
    q_dup_components budget) — (1) bucketed by source node: each
    bucket joins its state rows (node, deg, rank) to its out-edges and
    pre-reduces contribution messages (85·r)//(100·d) per destination,
    plus one self-message carrying deg; (2) groupby(node) sum of
    messages -> new state. Nodes/edges are the skinny dup tail of the
    corpus, never the documents table."""
    from .queries import (_WINNOW_PAIR_THRESHOLD, _winnow_pair_counts_ds)
    from .ops.exchange import _bucket_of
    import ray.data as rd

    def edges_of(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
        a = b["id_a"].to_numpy(np.int64)
        c = b["id_b"].to_numpy(np.int64)
        return pd.DataFrame({"src": np.concatenate([a, c]),
                             "dst": np.concatenate([c, a])})

    with _scoped_parallelism(_PR_BUCKETS):
        sym = _winnow_pair_counts_ds(sf_dir) \
            .map_batches(edges_of, batch_format="pandas").materialize()
    empty = _empty_typed(doc_id="int64", rank_q="int64")
    if sym.count() == 0:
        return empty

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("src", as_index=False) \
            .agg(d=("dst", "size"))

    deg = _reduce_partials(sym.map_batches(deg_partial,
                                           batch_format="pandas"),
                           ["src"], ["d"])
    n_nodes = len(deg)
    base = (15 * _PR_Q) // (100 * n_nodes)

    if n_nodes <= _xc.GATE_ROWS:
        # the dup graph fits the driver (the common case — dup nodes
        # are the skinny tail of the corpus): identical int64 power
        # iteration in numpy, zero per-iteration exchanges
        ep = sym.to_pandas()
        nodes = np.sort(deg["src"].to_numpy(np.int64))
        d = deg.set_index("src").loc[nodes, "d"].to_numpy(np.int64)
        si = np.searchsorted(nodes, ep["src"].to_numpy(np.int64))
        di = np.searchsorted(nodes, ep["dst"].to_numpy(np.int64))
        r = np.full(n_nodes, _PR_Q // n_nodes, np.int64)
        for _ in range(_PR_ITERS):
            msg = (85 * r[si]) // (100 * d[si])
            acc = np.zeros(n_nodes, np.int64)
            np.add.at(acc, di, msg)
            r = base + acc
        return pd.DataFrame({"doc_id": nodes, "rank_q": r}) \
            .reset_index(drop=True)

    state = rd.from_pandas(pd.DataFrame({
        "k": deg["src"].to_numpy(np.int64),
        "deg": deg["d"].to_numpy(np.int64),
        "r": np.int64(_PR_Q // n_nodes)}))

    def tag_edges(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b["src"].to_numpy(np.int64),
                             "dst": b["dst"].to_numpy(np.int64),
                             "deg": np.int64(0), "r": np.int64(0),
                             "side": np.int64(1)})

    edges_tagged = sym.map_batches(tag_edges,
                                   batch_format="pandas").materialize()

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b["__bucket"] = _bucket_of(b["k"], _PR_BUCKETS)
        return b

    def messages(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int64)
        st = g[side == 0]
        ed = g[side == 1]
        j = ed.merge(st[["k", "deg", "r"]], on="k",
                     suffixes=("", "_s"))
        msg = pd.DataFrame({
            "node": j["dst"].to_numpy(np.int64),
            "c": (85 * j["r_s"].to_numpy(np.int64))
            // (100 * j["deg_s"].to_numpy(np.int64)),
            "deg": np.int64(0)})
        selfmsg = pd.DataFrame({
            "node": st["k"].to_numpy(np.int64),
            "c": np.int64(0),
            "deg": st["deg"].to_numpy(np.int64)})
        out = pd.concat([msg, selfmsg], ignore_index=True)
        return out.groupby("node", as_index=False).sum()

    from ray.data.aggregate import Sum

    with _scoped_parallelism(_PR_BUCKETS):
        for _ in range(_PR_ITERS):
            tagged = state.map_batches(
                lambda b: b.assign(dst=np.int64(0), side=np.int64(0)),
                batch_format="pandas").union(edges_tagged)
            summed = tagged \
                .map_batches(add_bucket, batch_format="pandas") \
                .groupby("__bucket").map_groups(messages,
                                                batch_format="pandas") \
                .groupby("node").aggregate(Sum("c", alias_name="c"),
                                           Sum("deg", alias_name="deg"))
            state = summed.map_batches(
                lambda b: pd.DataFrame({
                    "k": b["node"].to_numpy(np.int64),
                    "deg": b["deg"].to_numpy(np.int64),
                    "r": base + b["c"].to_numpy(np.int64)}),
                batch_format="pandas").materialize()
    out = state.to_pandas()
    if out.empty:
        return empty
    return pd.DataFrame({"doc_id": out["k"].to_numpy(np.int64),
                         "rank_q": out["r"].to_numpy(np.int64)}) \
        .sort_values("doc_id").reset_index(drop=True)


def _pagerank_oracle_sql() -> str:
    """Unrolled 8-iteration integer PageRank twin over the winnowing
    pair SQL (same floor-division arithmetic as q_dup_pagerank)."""
    from .queries import _winnow_oracle_sql

    base = f"(15 * {_PR_Q}) // (100 * (SELECT n FROM nn))"
    ctes = [f"wp AS ({_winnow_oracle_sql()})",
            "sym AS (SELECT id_a AS src, id_b AS dst FROM wp"
            " UNION ALL SELECT id_b, id_a FROM wp)",
            "deg AS (SELECT src, COUNT(*) AS d FROM sym GROUP BY src)",
            "nn AS (SELECT COUNT(*) AS n FROM deg)",
            f"r0 AS (SELECT src AS id, d, {_PR_Q} // (SELECT n FROM nn)"
            " AS r FROM deg)"]
    for t in range(_PR_ITERS):
        ctes.append(f"""r{t + 1} AS (
          SELECT g.id, deg.d, g.rn AS r
          FROM (SELECT e.dst AS id,
                       {base}
                       + SUM((85 * r{t}.r) // (100 * r{t}.d)) AS rn
                FROM r{t} JOIN sym e ON e.src = r{t}.id
                GROUP BY e.dst) g
          JOIN deg ON deg.src = g.id)""")
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT CAST(id AS BIGINT) AS doc_id,"
              f" CAST(r AS BIGINT) AS rank_q FROM r{_PR_ITERS}")


# ---------------------------------------------------------------------------
# grouped higher moments: skewness + excess kurtosis (exact int partials)
# ---------------------------------------------------------------------------

def q_value_skew_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-event-type skewness and excess kurtosis of ``value`` — the
    3rd/4th-moment distribution-shape diagnostics (drift monitors,
    heavy-tail detectors). Same pure-combiner doctrine as
    ``q_value_hour_correlation``, extended to 4th-order moments with a
    hi/lo int64 SPLIT so no per-batch product ever wraps:

    - values quantize to exact cents (half-away, matching round());
    - ``v**3``/``v**4`` per row exceed int64 (v <= ~5.6e4 -> v^4 ~
      1e19), so each batch carries s3 as (sum v*hi16(v^2), sum
      v*lo16(v^2)) and s4 as (sum hi16^2, sum hi16*lo16, sum lo16^2)
      — six int64-safe partial columns (row products <= ~4e9; int64
      reduce headroom ~1e9 rows/type x batch, and the cross-corpus
      sums stay below wrap past 1e9 rows/type — beyond that, sub-key
      the reduce by time bucket, cf. SCALE.md);
    - the driver recombines the splits in arbitrary-precision Python
      ints (s3 = (s3h << 16) + s3l; s4 = (s4a << 32) + (s4b << 17) +
      s4c) and evaluates the scale-free closed forms
      ``skew = num3 / num2 / sqrt(num2)`` and ``kurt = num4 / num2^2 -
      3`` where num2 = n*s2 - s1^2, num3 = n^2*s3 - 3n*s1*s2 + 2*s1^3,
      num4 = n^3*s4 - 4n^2*s1*s3 + 6n*s1^2*s2 - 3*s1^4 — every op
      after the exact ints is IEEE-exact (one divide + one sqrt), so
      the twin's identical HUGEINT chain lands bit-equal before the
      shared half-away 1e-6 quantization. Degenerate variance -> NULL
      on both sides. NULL values are dropped (SQL WHERE IS NOT NULL).
    The twin's HUGEINT bound (s1^4) holds to ~6e4 rows/type at this
    value domain — engine ints are unbounded; only the oracle is
    test-scale."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["value"])
        v100 = b["value"].to_numpy(np.float64) * 100
        v = np.copysign(np.floor(np.abs(v100) + 0.5), v100) \
            .astype(np.int64)
        v2 = v * v
        hi, lo = v2 >> 16, v2 & 0xFFFF
        g = pd.DataFrame({"event_type": b["event_type"].to_numpy(object),
                          "n": np.int64(1), "s1": v, "s2": v2,
                          "s3h": v * hi, "s3l": v * lo,
                          "s4a": hi * hi, "s4b": hi * lo,
                          "s4c": lo * lo})
        return g.groupby("event_type", as_index=False).sum()

    cols = ["n", "s1", "s2", "s3h", "s3l", "s4a", "s4b", "s4c"]
    agg = _reduce_partials(ds.map_batches(moments, batch_format="pandas"),
                           ["event_type"], cols)
    if agg.empty:
        return _empty_typed(event_type=object, n="int64",
                            skew="float64", kurt="float64")
    skews, kurts = [], []
    for _, row in agg.iterrows():
        n, s1, s2, s3h, s3l, s4a, s4b, s4c = (int(row[c]) for c in cols)
        s3 = (s3h << 16) + s3l
        s4 = (s4a << 32) + (s4b << 17) + s4c
        num2 = n * s2 - s1 * s1
        if num2 == 0:
            skews.append(np.nan)
            kurts.append(np.nan)
            continue
        num3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        num4 = (n ** 3 * s4 - 4 * n * n * s1 * s3
                + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        sk = float(num3) / float(num2) / np.sqrt(float(num2)) * 1e6
        ku = (float(num4) / (float(num2) * float(num2)) - 3.0) * 1e6
        skews.append(np.copysign(np.floor(np.abs(sk) + 0.5), sk) / 1e6)
        kurts.append(np.copysign(np.floor(np.abs(ku) + 0.5), ku) / 1e6)
    return pd.DataFrame({"event_type": agg["event_type"].to_numpy(object),
                         "n": agg["n"].to_numpy(np.int64),
                         "skew": np.asarray(skews, np.float64),
                         "kurt": np.asarray(kurts, np.float64)}) \
        .sort_values("event_type").reset_index(drop=True)


def q_value_winsor_mean(sf_dir: str) -> pd.DataFrame:
    """Grouped 5/95 WINSORIZED mean of ``value`` per event type — the
    robust-mean screen (clip the tails to the 5th/95th percentile,
    then average) that telemetry rollups use against sensor spikes.
    Same bounded-value-histogram plan as MAD/mode/outliers: ONE skinny
    (type, v6, cnt) reduce, lo/hi per type via the shared
    percentile_disc index rule (``sorted[ceil(n*p)-1]``), and the
    winsorized SUM is Σ cnt·clip(v6, lo, hi) accumulated in Python big
    ints over HISTOGRAM CELLS (a documented driver-side small final —
    cells are bounded by #types x #distinct values, never corpus
    rows), mirroring the twin's HUGEINT SUM exactly. The mean is the
    identical IEEE chain ``CAST(s AS DOUBLE) / n / 1e6`` on both
    sides. NULL values are excluded like SQL."""
    h = _typed_hist(sf_dir)
    if h.empty:
        return _empty_typed(event_type=object, winsor_mean="float64",
                            n="int64")
    clip = {t: (int(a), int(b)) for t, _, a, b
            in disc_by_group(h, "event_type", "v6", (0.05, 0.95))}
    rows = []
    for typ, g in h.groupby("event_type"):
        v = g["v6"].to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        cl = np.clip(v, *clip[typ])
        s = sum(int(x) * int(c) for x, c in zip(cl, cnt))
        n = int(cnt.sum())
        rows.append((typ, float(s) / float(n) / 1e6, n))
    return pd.DataFrame(rows, columns=["event_type", "winsor_mean", "n"]) \
        .astype({"winsor_mean": "float64", "n": "int64"}) \
        .sort_values("event_type").reset_index(drop=True)


def q_user_type_breadth(sf_dir: str) -> pd.DataFrame:
    """Engagement-breadth distribution: for each k, how many users
    touched exactly k distinct event types — the histogram
    generalization of ``q_loyal_users``' division (k = #types is the
    loyal bucket). Same bitmask machinery (``functions.bitmask``,
    multi-word so ANY #types works): per-batch (user, OR-mask)
    partials meet in the gated keyed combine, where each user set's
    folded masks become a POPCOUNT histogram (k is bounded by #types)
    — above the gate per-user rows never leave the cluster."""
    from .functions import bitmask as bm

    types_ds = _pq(sf_dir, "events", ["event_type"])
    tmap = _reduce_partials(
        types_ds.map_batches(
            lambda b: b.drop_duplicates(subset=["event_type"])
            .assign(n=np.int64(1)),
            batch_format="pandas"),
        ["event_type"], ["n"])
    if tmap.empty:
        return _empty_typed(n_types="int64", n_users="int64")
    types = sorted(tmap["event_type"].astype(str))
    nw = bm.n_words(len(types))
    code_of = {t: i for i, t in enumerate(types)}

    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def mask_partial(b: pd.DataFrame) -> pd.DataFrame:
        codes = b["event_type"].map(code_of).to_numpy(np.int64)
        return bm.or_by_key(b["user_id"].to_numpy(np.int64),
                            bm.encode_codes(codes, nw), "user_id")

    def popcount_hist(b: pd.DataFrame) -> pd.DataFrame:
        k = bm.popcount(b, nw, len(types))
        h = pd.Series(k).value_counts()
        return pd.DataFrame({"n_types": h.index.to_numpy(np.int64),
                             "n_users": h.to_numpy(np.int64)})

    out = combine_by_key(
        ds.map_batches(mask_partial, batch_format="pandas"), ["user_id"],
        lambda d: popcount_hist(bm.fold_or(d, "user_id", nw)))
    if out.empty:
        return _empty_typed(n_types="int64", n_users="int64")
    out = out.groupby("n_types", as_index=False)["n_users"].sum()
    return out.astype({"n_types": "int64", "n_users": "int64"}) \
        .sort_values("n_types").reset_index(drop=True)


def q_priority_month_chi2(sf_dir: str) -> pd.DataFrame:
    """Chi-square test of independence between order PRIORITY and order
    MONTH — the hypothesis-test shape (seasonality screen) no other
    query covers. ONE bounded reduce builds the (priority, month)
    contingency table (#priorities x 12 cells — dimension-scale
    regardless of corpus rows); the driver completes the grid with the
    ZERO cells chi-square requires (every observed-priority x
    observed-month combination), computes each cell's term
    ``(O*n - r*c)^2 / (n*r*c)`` as ONE IEEE chain from the exact
    integer marginals, and quantizes EVERY TERM to the half-away 1e-6
    grid BEFORE summing — integer summation is order-independent, so
    engine and twin agree bit-for-bit no matter their iteration
    orders. Output: chi2, Cramér's V, dof, n (single row; empty input
    -> empty frame like the twin)."""
    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "prio": b["o_orderpriority"].to_numpy(object),
            "month": b["o_orderdate"].dt.month.to_numpy(np.int64),
            "o": np.int64(1)}).groupby(["prio", "month"],
                                       as_index=False).sum()

    c = _reduce_partials(ds.map_batches(cells, batch_format="pandas"),
                         ["prio", "month"], ["o"])
    empty = _empty_typed(chi2="float64", cramers_v="float64",
                         dof="int64", n="int64")
    if c.empty:
        return empty
    pv = np.sort(c["prio"].unique())
    mv = np.sort(c["month"].unique())
    grid = c.set_index(["prio", "month"])["o"] \
        .reindex(pd.MultiIndex.from_product([pv, mv]), fill_value=0) \
        .to_numpy(np.int64).reshape(len(pv), len(mv))
    n = int(grid.sum())
    r = grid.sum(axis=1).astype(np.int64)
    col = grid.sum(axis=0).astype(np.int64)
    # exact int operands -> one IEEE chain per cell, then per-term
    # half-away 1e-6 quantization so the SUM is order-independent
    num = (grid.astype(np.float64) * float(n)
           - r[:, None].astype(np.float64) * col[None, :].astype(np.float64))
    den = float(n) * r[:, None].astype(np.float64) \
        * col[None, :].astype(np.float64)
    term = num * num / den * 1e6
    t6 = np.copysign(np.floor(np.abs(term) + 0.5), term).astype(np.int64)
    chi2 = float(int(t6.sum())) / 1e6
    dof = (len(pv) - 1) * (len(mv) - 1)
    if dof == 0 or n == 0:
        v = float("nan")
    else:
        vraw = np.sqrt(chi2 / (float(n) * min(len(pv) - 1,
                                              len(mv) - 1))) * 1e6
        v = float(np.copysign(np.floor(np.abs(vraw) + 0.5), vraw)) / 1e6
    return pd.DataFrame({"chi2": pd.Series([chi2], dtype="float64"),
                         "cramers_v": pd.Series([v], dtype="float64"),
                         "dof": pd.Series([dof], dtype="int64"),
                         "n": pd.Series([n], dtype="int64")})


def q_benford_screen(sf_dir: str) -> pd.DataFrame:
    """Benford's-law screen over order totals — the data-forensics /
    quality check (fabricated or truncated money columns drift from
    the log distribution of leading digits). The leading digit comes
    from the INTEGER CENTS' decimal string (exact on both engines —
    no float log10/pow anywhere near the digit; cents >= 100 for any
    total >= 1, so the cents leading digit IS the value's), counted
    per batch into a 9-cell reduce. share = n/total is one IEEE
    division of exact ints; the Benford expectation ``log10(1 + 1/d)``
    and the deviation both quantize to the shared half-away 1e-6 grid.
    Digits with zero observations are absent on both sides (SQL
    GROUP BY semantics)."""
    ds = _pq(sf_dir, "orders", ["o_totalprice"])

    def digits(b: pd.DataFrame) -> pd.DataFrame:
        c = _cents(b["o_totalprice"]).to_numpy()
        c = c[c > 0]
        d = pd.Series(c).astype(str).str[0].astype(np.int64)
        return pd.DataFrame({"digit": d, "n": np.int64(1)}) \
            .groupby("digit", as_index=False).sum()

    agg = _reduce_partials(ds.map_batches(digits, batch_format="pandas"),
                           ["digit"], ["n"])
    if agg.empty:
        return _empty_typed(digit="int64", n="int64", share="float64",
                            benford="float64", dev="float64")
    agg = agg.sort_values("digit").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64)
    total = int(n.sum())
    d = agg["digit"].to_numpy(np.int64)
    share_raw = (n.astype(np.float64) / float(total)) * 1e6
    share6 = np.copysign(np.floor(np.abs(share_raw) + 0.5), share_raw)
    ben_raw = np.log10(1.0 + 1.0 / d.astype(np.float64)) * 1e6
    ben6 = np.copysign(np.floor(np.abs(ben_raw) + 0.5), ben_raw)
    dev6 = share6 - ben6  # exact int difference of the quantized pair
    return pd.DataFrame({"digit": d, "n": n,
                         "share": share6 / 1e6,
                         "benford": ben6 / 1e6,
                         "dev": dev6 / 1e6})


# ---------------------------------------------------------------------------
# relational division: users who performed EVERY event type
# ---------------------------------------------------------------------------

def q_loyal_users(sf_dir: str) -> pd.DataFrame:
    """Relational DIVISION — count users whose event-type set covers
    ALL observed types (the ``HAVING COUNT(DISTINCT t) = (SELECT
    COUNT(DISTINCT t))`` shape no other query exercises). The type
    domain is dimension-small, so each user's coverage is a fixed-width
    BITMASK (``functions.bitmask``: ``ceil(#types/63)`` int64 words, so
    ANY domain size rides the same plan): per batch, (user,
    OR-of-type-bits) partials (vectorized ``np.bitwise_or.reduceat``
    over the batch sorted by user), then the gated keyed combine:
    each user set OR-folds its masks (``bm.fold_or``; bitwise-OR is
    associative + commutative) and counts its full masks, and the
    per-set counts sum to a driver-side scalar — above the gate the
    full corpus never leaves the cluster. Type->bit
    assignment is computed from a first pruned pass over the distinct
    types (broadcast)."""
    from .functions import bitmask as bm

    types_ds = _pq(sf_dir, "events", ["event_type"])
    tmap = _reduce_partials(
        types_ds.map_batches(
            lambda b: b.drop_duplicates(subset=["event_type"])
            .assign(n=np.int64(1)),
            batch_format="pandas"),
        ["event_type"], ["n"])
    if tmap.empty:
        return pd.DataFrame({"n_loyal": pd.Series([0], dtype="int64")})
    types = sorted(tmap["event_type"].astype(str))
    nw = bm.n_words(len(types))
    code_of = {t: i for i, t in enumerate(types)}
    full = bm.full_mask_values(nw, len(types))

    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def mask_partial(b: pd.DataFrame) -> pd.DataFrame:
        codes = b["event_type"].map(code_of).to_numpy(np.int64)
        return bm.or_by_key(b["user_id"].to_numpy(np.int64),
                            bm.encode_codes(codes, nw), "user_id")

    def full_count(b: pd.DataFrame) -> pd.DataFrame:
        ok = np.ones(len(b), bool)
        for w, f in enumerate(full):
            ok &= b[f"mask_{w}"].to_numpy(np.int64) == f
        return pd.DataFrame({"c": [int(ok.sum())]})

    parts = combine_by_key(
        ds.map_batches(mask_partial, batch_format="pandas"), ["user_id"],
        lambda d: full_count(bm.fold_or(d, "user_id", nw)))
    n = int(parts["c"].sum()) if len(parts.columns) else 0
    return pd.DataFrame({"n_loyal": pd.Series([n], dtype="int64")})


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


# Q13 twin mirrors the engine's zero-group completion exactly
# (groupby the fact side, zero group from two counts) — equivalent
# to the customer LEFT JOIN orders formulation under FK integrity.
register("order_count_distribution", q_order_count_distribution, """
        WITH pc AS (
          SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS c_orders
          FROM orders GROUP BY o_custkey),
        h AS (
          SELECT c_orders, CAST(COUNT(*) AS BIGINT) AS n_cust
          FROM pc GROUP BY c_orders),
        z AS (
          SELECT CAST(0 AS BIGINT) AS c_orders,
                 (SELECT COUNT(*) FROM customer)
                   - (SELECT COUNT(*) FROM pc) AS n_cust)
        SELECT c_orders, n_cust FROM h
        UNION ALL
        SELECT c_orders, n_cust FROM z WHERE n_cust > 0""")

register("top_supplier_revenue", q_top_supplier_revenue, f"""
        WITH rev AS (
          SELECT l_suppkey,
                 SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                 AS rev_i
          FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}'
            AND l_shipdate <  TIMESTAMP '{_Q15_HI}'
          GROUP BY l_suppkey)
        SELECT s.s_suppkey, s.s_name,
               CAST(r.rev_i AS DOUBLE) / 10000.0 AS total_revenue
        FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
        WHERE r.rev_i = (SELECT MAX(rev_i) FROM rev)""")

register("large_orders", q_large_orders, f"""
        WITH q AS (
          SELECT l_orderkey,
                 SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS qty_c
          FROM lineitem GROUP BY l_orderkey
          HAVING qty_c > {_Q18_MIN_QTY * 100})
        SELECT c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate,
               ROUND(o.o_totalprice, 6) AS o_totalprice,
               CAST(q.qty_c AS DOUBLE) / 100.0 AS total_qty
        FROM q
        JOIN orders o ON o.o_orderkey = q.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey""")

# above-average test is the integer cross-multiply on BOTH sides —
# neither engine divides, so the comparison is bit-exact.
register("idle_rich_customers", q_idle_rich_customers, f"""
        WITH st AS (
          SELECT SUM(CAST(round(c_acctbal * 100) AS BIGINT)) AS s,
                 COUNT(*) AS n
          FROM customer WHERE c_acctbal > 0),
        active AS (
          SELECT DISTINCT o_custkey FROM orders
          WHERE o_orderdate >= TIMESTAMP '{_Q22_CUTOFF}')
        SELECT c.c_mktsegment,
               CAST(COUNT(*) AS BIGINT) AS n_cust,
               CAST(SUM(CAST(round(c.c_acctbal * 100) AS BIGINT))
                    AS DOUBLE) / 100.0 AS total_acctbal
        FROM customer c, st
        WHERE CAST(round(c.c_acctbal * 100) AS BIGINT) * st.n > st.s
          AND c.c_custkey NOT IN (SELECT o_custkey FROM active)
        GROUP BY c.c_mktsegment""")

register("retention_cohorts", q_retention_cohorts, """
        WITH f AS (
          SELECT user_id, MIN(CAST(ts AS DATE)) AS cohort
          FROM events GROUP BY user_id)
        SELECT strftime(f.cohort, '%Y-%m-%d') AS cohort_day,
               CAST(datediff('day', f.cohort, CAST(e.ts AS DATE))
                    AS BIGINT) AS day_offset,
               CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS n_users
        FROM events e JOIN f USING (user_id)
        GROUP BY 1, 2""")

# ln(count/total) quantized to an int 1e-6 grid on both sides (the
# tfidf_keywords technique); per-doc score = int sum / n / 1e6.
register("unigram_logprob", q_unigram_logprob, r"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(
                     coalesce(text, ''), '\s+'), x -> x <> '')) AS token
          FROM documents),
        vocab AS (
          SELECT token, COUNT(*) AS n FROM toks GROUP BY token),
        tot AS (SELECT SUM(n) AS total FROM vocab),
        lp AS (
          SELECT token,
                 CAST(round(ln(CAST(n AS DOUBLE)
                               / (SELECT CAST(total AS DOUBLE) FROM tot))
                            * 1000000) AS BIGINT) AS lp6
          FROM vocab),
        per_doc AS (
          SELECT t.doc_id, COUNT(*) AS n_tokens, SUM(l.lp6) AS s
          FROM toks t JOIN lp l USING (token) GROUP BY t.doc_id)
        SELECT d.doc_id,
               CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
               ROUND(CAST(p.s AS DOUBLE) / p.n_tokens, 0) / 1000000.0
               AS logprob
        FROM documents d LEFT JOIN per_doc p USING (doc_id)""")

register("event_transitions", q_event_transitions, """
        WITH w AS (
          SELECT user_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events)
        SELECT prev AS prev_type, event_type AS next_type,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM w WHERE prev IS NOT NULL
        GROUP BY prev, event_type""")

register("rolling_time_window", q_rolling_time_window, """
        SELECT event_id,
               CAST(SUM(CAST(round(value * 1000000) AS BIGINT))
                        OVER (PARTITION BY user_id ORDER BY ts
                              RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                        AND CURRENT ROW)
                    AS DOUBLE) / 1000000.0 AS hour_value
        FROM events""")

register("source_token_entropy", q_source_token_entropy, r"""
        WITH toks AS (
          SELECT source,
                 unnest(list_filter(regexp_split_to_array(
                     coalesce(text, ''), '\s+'), x -> x <> '')) AS token
          FROM documents),
        c AS (
          SELECT source, token, COUNT(*) AS n FROM toks
          GROUP BY source, token),
        t AS (
          SELECT source, SUM(n) AS total, COUNT(*) AS n_types FROM c
          GROUP BY source),
        lp AS (
          SELECT c.source,
                 c.n * CAST(round(ln(CAST(c.n AS DOUBLE)
                                     / CAST(t.total AS DOUBLE))
                                  * 1000000) AS BIGINT) AS h
          FROM c JOIN t USING (source)),
        hh AS (SELECT source, SUM(h) AS s FROM lp GROUP BY source)
        SELECT t.source, CAST(t.total AS BIGINT) AS n_tokens,
               CAST(t.n_types AS BIGINT) AS n_types,
               - ROUND(CAST(hh.s AS DOUBLE) / t.total, 0) / 1000000.0
               AS entropy
        FROM t JOIN hh USING (source)""")

# quantile_disc == the shared index rule sorted[ceil(n*p)-1]
register("value_mad_by_type", q_value_mad_by_type, """
        WITH v AS (
          SELECT event_type,
                 CAST(round(value * 1000000) AS BIGINT) AS v6
          FROM events),
        med AS (
          SELECT event_type, quantile_disc(v6, 0.5) AS m FROM v
          GROUP BY event_type)
        SELECT v.event_type,
               CAST(MIN(med.m) AS DOUBLE) / 1000000.0 AS median,
               CAST(quantile_disc(abs(v.v6 - med.m), 0.5) AS DOUBLE)
                   / 1000000.0 AS mad
        FROM v JOIN med USING (event_type)
        GROUP BY v.event_type""")

register("value_mode_by_type", q_value_mode_by_type, """
        WITH c AS (
          SELECT event_type,
                 CAST(round(value * 1000000) AS BIGINT) AS v6,
                 COUNT(*) AS cnt
          FROM events GROUP BY event_type, v6),
        r AS (
          SELECT event_type, v6, cnt,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY cnt DESC, v6) AS rn
          FROM c)
        SELECT event_type, CAST(v6 AS DOUBLE) / 1000000.0 AS mode_value,
               CAST(cnt AS BIGINT) AS n
        FROM r WHERE rn = 1""")

# Bit-exact twin of the Munro-Paterson coreset sketch: the
# Fibonacci bucket hash rides HUGEINT (uint64 wrap via +2^64
# mod 2^64; exact for ids >= -2.9e18), the keep-rule is
# row_number/lag windows, the global fold a running SUM — see
# q_value_quantile_sketch's docstring.
register("value_quantile_sketch", q_value_quantile_sketch, """
        WITH v AS (
          SELECT event_type, value,
                 CAST((((CAST(event_id AS HUGEINT)
                         + 18446744073709551616)
                        % 18446744073709551616
                        * 11400714819323198485)
                       % 18446744073709551616) // 4294967296
                      AS BIGINT) % 64 AS bucket
          FROM events WHERE value IS NOT NULL),
        r AS (
          SELECT event_type, bucket, value,
                 row_number() OVER (PARTITION BY event_type, bucket
                                    ORDER BY value) AS rk,
                 count(*) OVER (PARTITION BY event_type, bucket)
                   AS n_b
          FROM v),
        k AS (
          SELECT *, GREATEST(1, CAST(FLOOR(0.01 * n_b) AS BIGINT))
                      AS s
          FROM r),
        kept AS (
          SELECT event_type, bucket, value, rk,
                 lag(rk, 1, 0) OVER (PARTITION BY event_type, bucket
                                     ORDER BY rk) AS prev_rk
          FROM k WHERE rk % s = 0 OR rk = n_b),
        ordered AS (
          SELECT event_type, value, bucket, rk,
                 SUM(rk - prev_rk) OVER (PARTITION BY event_type
                                         ORDER BY value, bucket, rk)
                   AS cum
          FROM kept),
        tot AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                FROM v GROUP BY 1),
        tgt AS (
          SELECT event_type, n, p,
                 GREATEST(CAST(CEIL(n * p) AS BIGINT), 1) AS r
          FROM tot, (VALUES (0.5), (0.9), (0.99)) t(p))
        SELECT t.event_type, CAST(t.p AS DOUBLE) AS p,
               (SELECT o.value FROM ordered o
                WHERE o.event_type = t.event_type AND o.cum >= t.r
                ORDER BY o.cum LIMIT 1) AS value
        FROM tgt t ORDER BY event_type, p""")

register("incremental_dedup", q_incremental_dedup, """
        WITH half AS (
          SELECT CAST(COUNT(*) // 2 AS BIGINT) AS h FROM documents)
        SELECT d.doc_id FROM documents d, half
        WHERE d.doc_id >= half.h
          AND coalesce(d.text, '') NOT IN (
              SELECT coalesce(text, '') FROM documents, half
              WHERE doc_id < half.h)""")

# BIGINT sums promote to HUGEINT, so the closed form divides the
# same exact integers the Python driver computes in big ints.
register("value_trend_by_type", q_value_trend_by_type, f"""
        WITH m AS (
          SELECT event_type, COUNT(*) AS n,
                 SUM(x) AS sx, SUM(y) AS sy,
                 SUM(x * y) AS sxy, SUM(x * x) AS sxx
          FROM (SELECT event_type,
                       CAST(datediff('day', DATE '{_TREND_EPOCH}',
                                     CAST(ts AS DATE)) AS BIGINT) AS x,
                       CAST(round(value * 1000000) AS BIGINT) AS y
                FROM events)
          GROUP BY event_type)
        SELECT event_type, CAST(n AS BIGINT) AS n,
               CASE WHEN n * sxx - sx * sx = 0 THEN NULL
                    ELSE (CAST(n * sxy - sx * sy AS DOUBLE)
                          / CAST(n * sxx - sx * sx AS DOUBLE)) / 1000000.0
               END AS slope
        FROM m""")

register("dup_pagerank", q_dup_pagerank, _pagerank_oracle_sql())

# z rearranged so sqrt and the division see identical int64s:
# (c*m - sn) / sqrt(m*snn - sn^2); half-away rounding on both sides
register("event_anomaly_hours", q_event_anomaly_hours, """
        WITH c AS (
          SELECT event_type, CAST(hour(ts) AS BIGINT) AS hr,
                 COUNT(*) AS n
          FROM events GROUP BY event_type, hr),
        s AS (
          SELECT event_type, COUNT(*) AS m, SUM(n) AS sn,
                 SUM(n * n) AS snn
          FROM c GROUP BY event_type)
        SELECT c.event_type, c.hr, CAST(c.n AS BIGINT) AS n_events,
               CASE WHEN s.m * s.snn - s.sn * s.sn = 0 THEN NULL
                    ELSE ROUND(CAST(c.n * s.m - s.sn AS DOUBLE)
                               / sqrt(CAST(s.m * s.snn - s.sn * s.sn
                                           AS DOUBLE)) * 1000000, 0)
                         / 1000000.0
               END AS z
        FROM c JOIN s USING (event_type)""")

# A-ES key ln(u)/w from the identical md5-uint64 -> double chain
register("weighted_sample", q_weighted_sample, f"""
        WITH keyed AS (
          SELECT doc_id, n_chars,
                 ln((CAST(('0x' || substr(md5('wrs:'
                          || CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
                          AS DOUBLE) + 1)
                    / 18446744073709551616.0) / n_chars AS key
          FROM documents WHERE n_chars > 0)
        SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars
        FROM keyed ORDER BY key DESC, doc_id LIMIT {_WRS_K}""")

register("fk_audit", q_fk_audit, """
        SELECT 'lineitem.l_orderkey->orders' AS relation,
               CAST(COUNT(*) AS BIGINT) AS n_orphans
        FROM lineitem l WHERE NOT EXISTS
            (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
        UNION ALL
        SELECT 'lineitem.l_partkey->part',
               CAST(COUNT(*) AS BIGINT)
        FROM lineitem l WHERE NOT EXISTS
            (SELECT 1 FROM part p WHERE p.p_partkey = l.l_partkey)
        UNION ALL
        SELECT 'lineitem.l_suppkey->supplier',
               CAST(COUNT(*) AS BIGINT)
        FROM lineitem l WHERE NOT EXISTS
            (SELECT 1 FROM supplier s WHERE s.s_suppkey = l.l_suppkey)
        UNION ALL
        SELECT 'orders.o_custkey->customer',
               CAST(COUNT(*) AS BIGINT)
        FROM orders o WHERE NOT EXISTS
            (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
        UNION ALL
        SELECT 'customer.c_nationkey->nation',
               CAST(COUNT(*) AS BIGINT)
        FROM customer c WHERE NOT EXISTS
            (SELECT 1 FROM nation n WHERE n.n_nationkey = c.c_nationkey)
        UNION ALL
        SELECT 'supplier.s_nationkey->nation',
               CAST(COUNT(*) AS BIGINT)
        FROM supplier s WHERE NOT EXISTS
            (SELECT 1 FROM nation n WHERE n.n_nationkey = s.s_nationkey)""")

register("table_profile", q_table_profile, "\nUNION ALL\n".join(
        f"""SELECT '{c}' AS column_name,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_null,
                   CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct
            FROM events""" for c in _PROFILE_COLS))

# fences on a 0.25-micro-unit int grid: 4*lo = 4*q1 - 6*IQR so the
# containment test is pure integer on both sides
register("value_outliers_by_type", q_value_outliers_by_type, """
        WITH v AS (
          SELECT event_type,
                 CAST(round(value * 1000000) AS BIGINT) AS v6
          FROM events),
        q AS (
          SELECT event_type,
                 quantile_disc(v6, 0.25) AS q1,
                 quantile_disc(v6, 0.75) AS q3
          FROM v GROUP BY event_type)
        SELECT v.event_type,
               CAST(SUM(CASE WHEN 4 * v.v6 <
                    4 * q.q1 - 6 * (q.q3 - q.q1) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_low,
               CAST(SUM(CASE WHEN 4 * v.v6 >
                    4 * q.q3 + 6 * (q.q3 - q.q1) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_high,
               CAST(COUNT(*) AS BIGINT) AS n_total
        FROM v JOIN q USING (event_type)
        GROUP BY v.event_type""")

register("weekly_active_users", q_weekly_active_users, f"""
        WITH ev AS (SELECT user_id, CAST(ts AS DATE) AS d FROM events),
        days AS (SELECT DISTINCT d FROM ev)
        SELECT strftime(days.d, '%Y-%m-%d') AS day,
               CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS wau
        FROM days JOIN ev e
          ON e.d <= days.d AND e.d > days.d - {_WAU_WINDOW_DAYS}
        GROUP BY days.d""")

register("cross_source_dups", q_cross_source_dups, """
        SELECT a.source AS source_a, b.source AS source_b,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM documents a JOIN documents b
          ON coalesce(a.text, '') = coalesce(b.text, '')
         AND a.source < b.source
        GROUP BY a.source, b.source""")

register("value_hour_correlation", q_value_hour_correlation, """
        WITH m AS (
          SELECT event_type, COUNT(*) AS n,
                 SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy,
                 SUM(x * x) AS sxx, SUM(y * y) AS syy
          FROM (SELECT event_type,
                       CAST(hour(ts) AS BIGINT) AS x,
                       CAST(round(value * 100) AS BIGINT) AS y
                FROM events)
          GROUP BY event_type)
        SELECT event_type, CAST(n AS BIGINT) AS n,
               CASE WHEN n * sxx - sx * sx = 0
                      OR n * syy - sy * sy = 0 THEN NULL
                    ELSE ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                               / sqrt(CAST((n * sxx - sx * sx)
                                           * (n * syy - sy * sy)
                                           AS DOUBLE)) * 1000000, 0)
                         / 1000000.0
               END AS r
        FROM m""")

# identical HUGEINT moment chain to the engine's Python-int one;
# skew/kurt close over IEEE-exact divide+sqrt, then half-away 1e-6
register("value_skew_by_type", q_value_skew_by_type, """
        WITH m AS (
          SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
                 SUM(CAST(v AS HUGEINT)) AS s1,
                 SUM(CAST(v AS HUGEINT) * v) AS s2,
                 SUM(CAST(v AS HUGEINT) * v * v) AS s3,
                 SUM(CAST(v AS HUGEINT) * v * v * v) AS s4
          FROM (SELECT event_type,
                       CAST(round(value * 100) AS BIGINT) AS v
                FROM events WHERE value IS NOT NULL)
          GROUP BY event_type),
        d AS (
          SELECT event_type, n,
                 n * s2 - s1 * s1 AS num2,
                 n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1 AS num3,
                 n * n * n * s4 - 4 * n * n * s1 * s3
                   + 6 * n * s1 * s1 * s2
                   - 3 * s1 * s1 * s1 * s1 AS num4
          FROM m)
        SELECT event_type, CAST(n AS BIGINT) AS n,
               CASE WHEN num2 = 0 THEN NULL
                    ELSE ROUND(CAST(num3 AS DOUBLE)
                               / CAST(num2 AS DOUBLE)
                               / sqrt(CAST(num2 AS DOUBLE))
                               * 1000000, 0) / 1000000.0
               END AS skew,
               CASE WHEN num2 = 0 THEN NULL
                    ELSE ROUND((CAST(num4 AS DOUBLE)
                                / (CAST(num2 AS DOUBLE)
                                   * CAST(num2 AS DOUBLE)) - 3)
                               * 1000000, 0) / 1000000.0
               END AS kurt
        FROM d""")

register("loyal_users", q_loyal_users, """
        SELECT CAST(COUNT(*) AS BIGINT) AS n_loyal
        FROM (SELECT user_id FROM events
              GROUP BY user_id
              HAVING COUNT(DISTINCT event_type) =
                     (SELECT COUNT(DISTINCT event_type) FROM events))""")

# clip bounds from quantile_disc (the shared index rule); HUGEINT
# SUM mirrored by the engine's Python-int cell accumulation
register("value_winsor_mean", q_value_winsor_mean, """
        WITH v AS (
          SELECT event_type,
                 CAST(round(value * 1000000) AS BIGINT) AS v6
          FROM events WHERE value IS NOT NULL),
        q AS (
          SELECT event_type, quantile_disc(v6, 0.05) AS lo,
                 quantile_disc(v6, 0.95) AS hi
          FROM v GROUP BY 1)
        SELECT v.event_type,
               CAST(SUM(CASE WHEN v6 < lo THEN lo
                             WHEN v6 > hi THEN hi ELSE v6 END)
                    AS DOUBLE) / COUNT(*) / 1000000.0 AS winsor_mean,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM v JOIN q USING (event_type)
        GROUP BY v.event_type""")

# per-cell terms quantized half-away at 1e-6 BEFORE the sum so the
# total is order-independent; the IEEE chain per cell matches the
# engine operand-for-operand. DuckDB's 0/0 -> NULL mirrors the
# engine's NaN on dof=0 (both serialize empty).
register("priority_month_chi2", q_priority_month_chi2, """
        WITH c AS (
          SELECT o_orderpriority AS prio,
                 CAST(month(o_orderdate) AS BIGINT) AS month,
                 CAST(COUNT(*) AS BIGINT) AS o
          FROM orders GROUP BY 1, 2),
        g AS (
          SELECT p.prio, m.month, COALESCE(c.o, 0) AS o
          FROM (SELECT DISTINCT prio FROM c) p
          CROSS JOIN (SELECT DISTINCT month FROM c) m
          LEFT JOIN c ON c.prio = p.prio AND c.month = m.month),
        marg AS (
          SELECT o,
                 SUM(o) OVER (PARTITION BY prio) AS r,
                 SUM(o) OVER (PARTITION BY month) AS col,
                 SUM(o) OVER () AS n
          FROM g),
        terms AS (
          SELECT n,
                 CAST(round((CAST(o AS DOUBLE) * CAST(n AS DOUBLE)
                             - CAST(r AS DOUBLE) * CAST(col AS DOUBLE))
                            * (CAST(o AS DOUBLE) * CAST(n AS DOUBLE)
                               - CAST(r AS DOUBLE) * CAST(col AS DOUBLE))
                            / (CAST(n AS DOUBLE) * CAST(r AS DOUBLE)
                               * CAST(col AS DOUBLE))
                            * 1000000) AS BIGINT) AS t6
          FROM marg),
        dims AS (SELECT CAST(COUNT(DISTINCT prio) AS BIGINT) AS np,
                        CAST(COUNT(DISTINCT month) AS BIGINT) AS nm
                 FROM c)
        SELECT CAST(SUM(t6) AS DOUBLE) / 1000000.0 AS chi2,
               round(sqrt((CAST(SUM(t6) AS DOUBLE) / 1000000.0)
                          / (CAST(MAX(terms.n) AS DOUBLE)
                             * LEAST(dims.np - 1, dims.nm - 1)))
                     * 1000000) / 1000000.0 AS cramers_v,
               (dims.np - 1) * (dims.nm - 1) AS dof,
               CAST(MAX(terms.n) AS BIGINT) AS n
        FROM terms, dims
        GROUP BY dims.np, dims.nm""")

# leading digit from the integer-cents decimal string (exact both
# sides); share and the Benford constant quantize half-away at 1e-6
register("benford_screen", q_benford_screen, """
        WITH c AS (
          SELECT CAST(substr(CAST(CAST(round(o_totalprice * 100)
                                        AS BIGINT) AS VARCHAR),
                             1, 1) AS BIGINT) AS digit
          FROM orders
          WHERE CAST(round(o_totalprice * 100) AS BIGINT) > 0),
        a AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n
              FROM c GROUP BY 1),
        t AS (SELECT CAST(SUM(n) AS DOUBLE) AS total FROM a),
        q AS (
          SELECT digit, n,
                 round(CAST(n AS DOUBLE) / t.total * 1000000) AS s6,
                 round(log10(1 + 1.0 / digit) * 1000000) AS b6
          FROM a, t)
        SELECT digit, n, s6 / 1000000.0 AS share,
               b6 / 1000000.0 AS benford,
               (s6 - b6) / 1000000.0 AS dev
        FROM q""")

register("user_type_breadth", q_user_type_breadth, """
        WITH k AS (
          SELECT user_id,
                 CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
          FROM events GROUP BY user_id)
        SELECT n_types, CAST(COUNT(*) AS BIGINT) AS n_users
        FROM k GROUP BY n_types""")
