"""Round-4ac operator family — nested quantiles, drawdown monitoring,
chain entropy:

* `median_user_value_by_type` — per event type, the median OVER USERS
  of each user's median event value (the nested / hierarchical
  quantile shape: per-entity robust center first, then the
  population's robust center — immune to heavy users dominating the
  naive median). Both levels use the exact percentile_disc index rule
  ``sorted[ceil(n*0.5)-1]`` on the int64-cent grid.
* `revenue_drawdown` — maximum drawdown of the cumulative daily
  revenue curve: running peak minus running total, the
  financial-style health monitor for revenue pipelines. One row:
  n_days, max_drawdown, peak_day, trough_day (earliest-day tie
  rule on both the trough and its peak, mirroring the twin's
  ORDER BY day LIMIT 1 / MIN(day)).
* `markov_entropy_rate` — the entropy rate H = -SUM_ij pi_i p_ij
  ln(p_ij) of the event-type Markov chain, using the stationary
  vector from the shared 24-step exact-integer power iteration
  (`functions/markov_sql.py`): joint probabilities ride the 1e9 int
  grid via per-term floor division, ln factors ride the shared lp6
  grid, so the sum is order-free int64 and the twin is bit-exact.
  One row: n_states, entropy_rate (nats/event).

Distributed plans (shuffle budgets — also in SCALE.md):

`median_user_value_by_type`: ONE bucketed exchange (user_id % 64);
each bucket computes its users' medians vectorized (sorted take at
the disc index) and emits (event_type, median-cents, n_users)
HISTOGRAM partials — bounded by types x cent-grid per bucket; the
outer median is driver math over that bounded histogram. Events and
users never reach the driver.

`revenue_drawdown`: per-batch (day, cents) partials -> ONE bounded
daily reduce (#days rows); the cumsum/cummax fold is driver math
over days.

`markov_entropy_rate`: rides `q_event_transitions`' ONE bucketed
exchange; stationary vector + entropy fold are constant-size driver
math (#types² terms).

Empty inputs return the twins' empty shapes (`markov_entropy_rate`
returns the aggregate's one (0, NULL) row like the twin). Self-
registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.markov_sql import markov_chain_cte
from .ops.quantile import disc_pick, disc_rank_exact
from .ops.exchange import _scoped_parallelism
from .queries import _empty_typed, _pq, _reduce_partials, register


_MM_BUCKETS = 64
_ER_PREC = 10 ** 9           # stationary grid (matches curation26)
_ER_ITERS = 24


# ----------------------------------------- median_user_value_by_type

def q_median_user_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Median over users of per-user median value, per event type —
    module docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "value"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        raw = b["value"].to_numpy(np.float64) * 100.0
        return pd.DataFrame({
            "__bucket": (b["user_id"] % _MM_BUCKETS).astype(np.int64),
            "user_id": b["user_id"].to_numpy(np.int64),
            "event_type": b["event_type"].to_numpy(object),
            "c": np.copysign(np.floor(np.abs(raw) + 0.5), raw)
            .astype(np.int64)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "user_id", "c"],
                          kind="mergesort")
        key = pd.MultiIndex.from_arrays(
            [g["event_type"], g["user_id"]])
        codes, _ = pd.factorize(key, sort=False)
        first = np.unique(codes, return_index=True)[1]
        cnt = np.diff(np.append(first, len(g)))
        target = first + disc_rank_exact(cnt, 1, 2) - 1
        med = g["c"].to_numpy(np.int64)[target]
        return pd.DataFrame({
            "event_type": g["event_type"].to_numpy(object)[first],
            "m": med, "n_users": np.int64(1)}) \
            .groupby(["event_type", "m"], as_index=False).sum()

    with _scoped_parallelism(32):
        part = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas")
        h = _reduce_partials(part, ["event_type", "m"], ["n_users"])
    empty = _empty_typed(event_type=object, n_users="int64",
                         median_of_medians="float64")
    if h.empty:
        return empty
    rows = []
    for et, g in h.groupby("event_type"):
        g = g.sort_values("m")
        n = int(g["n_users"].sum())
        cum = g["n_users"].cumsum().to_numpy(np.int64)
        m = int(disc_pick(g["m"].to_numpy(np.int64), cum,
                          disc_rank_exact(n, 1, 2)))
        rows.append((et, n, float(m) / 100.0))
    return pd.DataFrame(rows, columns=["event_type", "n_users",
                                       "median_of_medians"]) \
        .astype({"n_users": "int64", "median_of_medians": "float64"}) \
        .sort_values("event_type").reset_index(drop=True)


register("median_user_value_by_type", q_median_user_value_by_type, """
    WITH v AS (SELECT event_type, user_id,
                      CAST(round(value * 100) AS BIGINT) AS c
               FROM events),
    um AS (SELECT event_type, user_id, quantile_disc(c, 0.5) AS m
           FROM v GROUP BY 1, 2)
    SELECT event_type, count(*) AS n_users,
           CAST(quantile_disc(m, 0.5) AS DOUBLE) / 100.0
             AS median_of_medians
    FROM um GROUP BY event_type ORDER BY event_type""")


# ---------------------------------------------------- revenue_drawdown

def q_revenue_drawdown(sf_dir: str) -> pd.DataFrame:
    """Max drawdown of the cumulative daily revenue curve — module
    docstring."""
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        raw = b["o_totalprice"].to_numpy(np.float64) * 100.0
        return pd.DataFrame({
            "day": b["o_orderdate"].dt.floor("D").to_numpy(),
            "rev": np.copysign(np.floor(np.abs(raw) + 0.5), raw)
            .astype(np.int64)}) \
            .groupby("day", as_index=False).sum()

    d = _reduce_partials(ds.map_batches(part, batch_format="pandas"),
                         ["day"], ["rev"])
    empty = _empty_typed(n_days="int64", max_drawdown="float64",
                         peak_day="datetime64[us]",
                         trough_day="datetime64[us]")
    if d.empty:
        return empty
    d = d.sort_values("day").reset_index(drop=True)
    cum = d["rev"].cumsum().to_numpy(np.int64)
    peak = np.maximum.accumulate(cum)
    draw = peak - cum
    ti = int(np.argmax(draw))                 # first max = earliest day
    pi = int(np.flatnonzero(cum == peak[ti])[0])  # earliest peak day
    days = d["day"].to_numpy("datetime64[us]")
    return pd.DataFrame({
        "n_days": pd.Series([len(d)], dtype="int64"),
        "max_drawdown": [float(int(draw[ti])) / 100.0],
        "peak_day": pd.Series([days[pi]], dtype="datetime64[us]"),
        "trough_day": pd.Series([days[ti]], dtype="datetime64[us]")})


register("revenue_drawdown", q_revenue_drawdown, """
    WITH d AS (
      SELECT date_trunc('day', o_orderdate) AS day,
             CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                  AS BIGINT) AS rev
      FROM orders GROUP BY 1),
    c AS (SELECT day, CAST(SUM(rev) OVER (ORDER BY day) AS BIGINT)
                 AS cum FROM d),
    p AS (SELECT day, cum, MAX(cum) OVER (ORDER BY day) AS peak FROM c),
    mx AS (SELECT MAX(peak - cum) AS m FROM p),
    tr AS (SELECT day AS trough_day, peak, peak - cum AS draw
           FROM p, mx WHERE peak - cum = mx.m
           ORDER BY day LIMIT 1),
    pk AS (SELECT MIN(c.day) AS peak_day FROM c, tr
           WHERE c.cum = tr.peak)
    SELECT (SELECT count(*) FROM d) AS n_days,
           CAST(tr.draw AS DOUBLE) / 100.0 AS max_drawdown,
           pk.peak_day, tr.trough_day
    FROM tr, pk""")


# -------------------------------------------------- markov_entropy_rate

def q_markov_entropy_rate(sf_dir: str) -> pd.DataFrame:
    """Entropy rate of the event-type Markov chain — module docstring.
    Stationary vector = the same exact-integer power iteration as
    `event_markov_stationary`; the fold is (pi_i p_ij on the 1e9 int
    grid) x (lp6 of p_ij), summed as int64."""
    from .queries_relational import q_event_transitions

    tr = q_event_transitions(sf_dir)
    if tr.empty:  # aggregate twin returns one (0, NULL) row
        return pd.DataFrame({"n_states": pd.Series([0], dtype="int64"),
                             "entropy_rate": pd.Series([np.nan],
                                                       dtype="float64")})
    states = sorted(set(tr["prev_type"]) | set(tr["next_type"]))
    idx = {s: k for k, s in enumerate(states)}
    t_n = len(states)
    counts = np.zeros((t_n, t_n), dtype=np.int64)
    for i, j, n in tr.itertuples(index=False):
        counts[idx[i], idx[j]] = n
    for k in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[k, k] = 1
    rowtot = counts.sum(axis=1)
    v = np.full(t_n, _ER_PREC // t_n, dtype=np.int64)
    for _ in range(_ER_ITERS):
        nv = np.zeros(t_n, dtype=np.int64)
        for i in range(t_n):
            nv += (v[i] * counts[i]) // rowtot[i]
        v = nv
    total = 0
    for i in range(t_n):
        nz = np.flatnonzero(counts[i])
        raw = np.log(counts[i, nz].astype(np.float64)
                     / float(rowtot[i])) * 1e6
        lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        joint = (int(v[i]) * counts[i, nz]) // int(rowtot[i])
        total += int((joint * lp6).sum())
    return pd.DataFrame({
        "n_states": pd.Series([t_n], dtype="int64"),
        "entropy_rate": [-(float(total) / 1e15)]})


def _entropy_sql() -> str:
    return markov_chain_cte(_ER_PREC, _ER_ITERS) + f""",
    lp AS (SELECT a.i, a.j, a.n, rt.tot,
                  CAST(round(ln(CAST(a.n AS DOUBLE)
                                / CAST(rt.tot AS DOUBLE))
                             * 1000000) AS BIGINT) AS lp6
           FROM aug a JOIN rt ON rt.i = a.i),
    terms AS (SELECT ((p.v * lp.n) // lp.tot) * lp.lp6 AS t
              FROM it{_ER_ITERS} p JOIN lp ON lp.i = p.j)
    SELECT (SELECT count(*) FROM states) AS n_states,
           -(CAST(CAST(SUM(t) AS VARCHAR) AS DOUBLE)
             / 1000000000000000.0) AS entropy_rate
    FROM terms"""


register("markov_entropy_rate", q_markov_entropy_rate, _entropy_sql())
