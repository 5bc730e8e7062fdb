"""Round-4aa operator family — temporal structure + join-planning
audits:

* `dow_seasonality` — day-of-week seasonality of order flow: per-dow
  order count, mean price, and the multiplicative seasonal index
  (dow mean / grand mean, 1e-6 grid). The classic pre-forecast
  decomposition check (cf. `forecast_revenue`'s trend leg). Money
  rides int64 cents; the index mirrors the twin's float op order
  term-for-term.
* `lineitem_fanout_hist` — the join-fanout audit: how many orders
  have exactly N lineitems, for every N, INCLUDING the zero group
  (orders with no lineitems — computed from two metadata-cheap
  counts, never a join, cf. `order_count_distribution`'s Q13 plan).
  This histogram is what a join planner reads to bound per-key
  amplification before a big-big exchange.
* `event_markov_stationary` — the stationary distribution of the
  first-order event-type Markov chain (24 exact integer power-
  iteration steps on a 1e9 probability grid). Transition counts come
  from `q_event_transitions`' bucketed ordered plan; the iteration is
  driver math on a #types x #types matrix. Per-term integer floor
  division makes every step order-free and bit-exact against the
  DuckDB twin's unrolled MATERIALIZED-CTE iteration (a recursive
  aggregate would be re-inlined exponentially without
  MATERIALIZED). States with no outgoing edge get a self-loop.

Distributed plans (shuffle budgets — also in SCALE.md):

`dow_seasonality`: per-batch (dow, n, cents) partials -> one 7-row
reduce; driver finals only.

`lineitem_fanout_hist`: per-batch per-orderkey partial counts meet
in the gated keyed combine, where each orderkey set folds its
per-order totals to a histogram, so above the gate only bounded
histogram partials reach the driver; the
zero group is `count(orders) - count(distinct filled keys)` — the
100 TB version never ships the orders table.

`event_markov_stationary`: rides `q_event_transitions` (ONE bucketed
window exchange; the pair reduce is #types² x buckets); the power
iteration touches a constant-size matrix on the driver.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import combine_by_key
from .queries import _empty_typed, _pq, _reduce_partials, register


_MARKOV_PREC = 10 ** 9      # probability grid: 1e-9
_MARKOV_ITERS = 24


# ------------------------------------------------------ dow_seasonality

def q_dow_seasonality(sf_dir: str) -> pd.DataFrame:
    """Per-day-of-week order count, mean price, seasonal index —
    module docstring. dow follows DuckDB dayofweek(): 0=Sunday."""
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        days = b["o_orderdate"].to_numpy("datetime64[us]") \
            .astype("datetime64[D]").astype(np.int64)
        raw = b["o_totalprice"].to_numpy(np.float64) * 100.0
        cents = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        return pd.DataFrame({"dow": (days + 4) % 7, "cents": cents,
                             "n_orders": np.int64(1)}) \
            .groupby("dow", as_index=False).sum()

    g = _reduce_partials(ds.map_batches(part, batch_format="pandas"),
                         ["dow"], ["cents", "n_orders"])
    empty = _empty_typed(dow="int64", n_orders="int64",
                         avg_price="float64", season_idx="float64")
    if g.empty:
        return empty
    nt = float(int(g["n_orders"].sum()))
    st = float(int(g["cents"].sum()))
    g = g.sort_values("dow").reset_index(drop=True)
    sc = g["cents"].to_numpy(np.int64).astype(np.float64)
    n = g["n_orders"].to_numpy(np.int64).astype(np.float64)
    idx_raw = (sc * nt) / (n * st) * 1e6
    return pd.DataFrame({
        "dow": g["dow"].astype("int64"),
        "n_orders": g["n_orders"].astype("int64"),
        "avg_price": sc / n / 100.0,
        "season_idx": np.copysign(np.floor(np.abs(idx_raw) + 0.5),
                                  idx_raw) / 1e6,
    })


register("dow_seasonality", q_dow_seasonality, """
    WITH o AS (
      SELECT dayofweek(o_orderdate) AS dow,
             CAST(round(o_totalprice * 100) AS BIGINT) AS cents
      FROM orders),
    g AS (SELECT dow, count(*) AS n_orders,
                 CAST(SUM(cents) AS BIGINT) AS sc
          FROM o GROUP BY 1),
    t AS (SELECT CAST(SUM(n_orders) AS BIGINT) AS nt,
                 CAST(SUM(sc) AS BIGINT) AS st FROM g)
    SELECT dow, n_orders,
           CAST(sc AS DOUBLE) / n_orders / 100.0 AS avg_price,
           round((CAST(sc AS DOUBLE) * nt)
                 / (CAST(n_orders AS DOUBLE) * st) * 1000000)
             / 1000000.0 AS season_idx
    FROM g, t ORDER BY dow""")


# -------------------------------------------------- lineitem_fanout_hist

def q_lineitem_fanout_hist(sf_dir: str) -> pd.DataFrame:
    """Histogram of lineitems-per-order incl. the zero group — module
    docstring."""
    li = _pq(sf_dir, "lineitem", ["l_orderkey"])
    n_total_orders = _pq(sf_dir, "orders", ["o_orderkey"]).count()

    part = li.map_batches(
        lambda b: b.groupby("l_orderkey", as_index=False)
        .agg(n=("l_orderkey", "size")), batch_format="pandas")

    def fanout(d: pd.DataFrame) -> pd.DataFrame:
        per = d.groupby("l_orderkey")["n"].sum()
        return per.value_counts(sort=False).rename_axis("n_items") \
            .reset_index(name="n_orders")

    hist = combine_by_key(part, ["l_orderkey"], fanout)
    if hist.empty:
        if n_total_orders == 0:
            return _empty_typed(n_items="int64", n_orders="int64")
        return pd.DataFrame({"n_items": [0],
                             "n_orders": [n_total_orders]}, dtype="int64")
    hist = hist.groupby("n_items", as_index=False)["n_orders"].sum()
    n_zero = int(n_total_orders) - int(hist["n_orders"].sum())
    if n_zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"n_items": [0], "n_orders": [n_zero]})],
            ignore_index=True)
    return hist.astype({"n_items": "int64", "n_orders": "int64"}) \
        .sort_values("n_items").reset_index(drop=True)


register("lineitem_fanout_hist", q_lineitem_fanout_hist, """
    WITH per AS (SELECT l_orderkey, count(*) AS n_items
                 FROM lineitem GROUP BY 1),
    h AS (SELECT n_items, count(*) AS n_orders FROM per GROUP BY 1),
    z AS (SELECT CAST(0 AS BIGINT) AS n_items,
                 (SELECT count(*) FROM orders)
                   - (SELECT count(*) FROM per) AS n_orders)
    SELECT n_items, n_orders FROM (
      SELECT * FROM h UNION ALL SELECT * FROM z WHERE n_orders > 0)
    ORDER BY n_items""")


# ---------------------------------------------- event_markov_stationary

def q_event_markov_stationary(sf_dir: str) -> pd.DataFrame:
    """Stationary distribution of the event-type Markov chain — module
    docstring. Counts ride `q_event_transitions`' bucketed plan; the
    24-step integer power iteration is constant-size driver math."""
    from .queries_relational import q_event_transitions

    tr = q_event_transitions(sf_dir)
    empty = _empty_typed(event_type=object, stat_prob="float64")
    if tr.empty:
        return empty
    states = sorted(set(tr["prev_type"]) | set(tr["next_type"]))
    idx = {s: k for k, s in enumerate(states)}
    t_n = len(states)
    counts = np.zeros((t_n, t_n), dtype=np.int64)
    for i, j, n in tr.itertuples(index=False):
        counts[idx[i], idx[j]] = n
    for k in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[k, k] = 1  # absorbing state -> self-loop (twin mirrors)
    rowtot = counts.sum(axis=1)
    v = np.full(t_n, _MARKOV_PREC // t_n, dtype=np.int64)
    for _ in range(_MARKOV_ITERS):
        nv = np.zeros(t_n, dtype=np.int64)
        for i in range(t_n):  # per-term floor division: order-free
            nv += (v[i] * counts[i]) // rowtot[i]
        v = nv
    return pd.DataFrame({"event_type": np.asarray(states, dtype=object),
                         "stat_prob": v / _MARKOV_PREC})


def _markov_sql() -> str:
    from .functions.markov_sql import markov_chain_cte

    # LEFT JOIN the full state space onto the last iteration: a state
    # with no incoming transitions (a type that only opens streams)
    # carries stationary mass 0 but must still be emitted — the chain's
    # GROUP BY a.j drops it, while the engine keeps its v=0 row.
    return markov_chain_cte(_MARKOV_PREC, _MARKOV_ITERS) + f"""
    SELECT s.s AS event_type,
           CAST(COALESCE(p.v, 0) AS DOUBLE) / {_MARKOV_PREC}.0
               AS stat_prob
    FROM states s LEFT JOIN it{_MARKOV_ITERS} p ON p.j = s.s
    ORDER BY event_type"""


register("event_markov_stationary", q_event_markov_stationary, _markov_sql())
