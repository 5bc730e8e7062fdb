"""Round-5n operator — sessionization-timeout sensitivity:

* `session_gap_grid` — the session-gap tuning table: for timeout
  thresholds 10 / 30 / 60 minutes, the session count, mean events
  per session, and mean session duration, ALL THREE CONFIGS from ONE
  ordered pass (`user_sessions` fixes one timeout; this is the grid
  read before fixing it). A session is a maximal run of a user's
  events with consecutive gaps <= the threshold, so per threshold:
  n_sessions = n_users + #(gaps > thr) and total session duration =
  Σ gaps·[gap <= thr] — both pure folds over the SAME gap stream.

Distributed plan (shuffle budget — also in SCALE.md): the
`event_burstiness` sorted-batch + boundary-stitch ordered plan keyed
by (user_id, ts, event_id) — ONE sort; per-batch scalar partials
(per-threshold big-gap counts + small-gap sums) plus 2 edge rows per
batch; cross-batch gaps stitch on the driver once ``ops.ordered``
puts the batches back in order; distinct users ride a user-bounded
reduce.

Exactness: gaps are int64 microseconds, every fold an int sum; the
two final divisions mirror term-for-term. Empty inputs return the
twin's 3 threshold rows with zero sessions and NULL means.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .ops.ordered import ordered_pass
from .queries import _empty_typed, _pq, register


_SGG_THRS_US = (600_000_000, 1_800_000_000, 3_600_000_000)


def q_session_gap_grid(sf_dir: str) -> pd.DataFrame:
    """Session stats at 10/30/60-minute timeouts — module
    docstring."""
    key = ["user_id", "ts", "event_id"]
    ds = _pq(sf_dir, "events", key).sort(key)
    thr_cols = [f"nb{i}" for i in range(3)] \
        + [f"ss{i}" for i in range(3)]

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        uid = b["user_id"].to_numpy(np.int64)
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = uid[1:] == uid[:-1]
        gaps = (ts[1:] - ts[:-1])[same]
        vals = {}
        for i, thr in enumerate(_SGG_THRS_US):
            vals[f"nb{i}"] = [np.int64((gaps > thr).sum())]
            vals[f"ss{i}"] = [np.int64(gaps[gaps <= thr].sum())]
        return pd.DataFrame(vals)

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        uid = b["user_id"].to_numpy(np.int64)
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return {"u": uid[0], "ts": ts[0]}, {"u": uid[-1], "ts": ts[-1]}

    folds, first, last = ordered_pass(ds, key, fold, edge)
    empty = _empty_typed(gap_minutes="int64", n_sessions="int64",
                         events_per_session="float64",
                         mean_session_min="float64")
    # distinct users + event count (user-bounded reduce / metadata)
    uds = _pq(sf_dir, "events", ["user_id"])
    n_events = uds.count()
    if n_events:
        uu = sum_by(
            uds.map_batches(
                lambda b: pd.DataFrame(
                    {"user_id": b["user_id"].drop_duplicates()
                     .to_numpy(np.int64), "one": np.int64(1)}),
                batch_format="pandas"), ["user_id"], ["one"])
        n_users = int(len(uu))
    else:
        n_users = 0

    agg = {c: 0 for c in thr_cols}
    if len(first):
        for c in thr_cols:
            agg[c] = int(folds[c].sum())
        # cross-batch gaps: a batch's last row and the next batch's
        # first row of the same user
        hit = np.flatnonzero(last["u"].to_numpy(np.int64)[:-1]
                             == first["u"].to_numpy(np.int64)[1:])
        if hit.size:
            g = first["ts"].to_numpy(np.int64)[1:][hit] \
                - last["ts"].to_numpy(np.int64)[:-1][hit]
            for i, thr in enumerate(_SGG_THRS_US):
                agg[f"nb{i}"] += int((g > thr).sum())
                agg[f"ss{i}"] += int(g[g <= thr].sum())
    out = []
    for i, thr in enumerate(_SGG_THRS_US):
        ns = n_users + agg[f"nb{i}"]
        eps = float(n_events) / ns if ns else np.nan
        dur = (float(agg[f"ss{i}"]) / ns) / 60_000_000.0 if ns \
            else np.nan
        out.append((thr // 60_000_000, ns, eps, dur))
    return pd.DataFrame(out, columns=["gap_minutes", "n_sessions",
                                      "events_per_session",
                                      "mean_session_min"]) \
        .astype({"gap_minutes": "int64", "n_sessions": "int64"})


register("session_gap_grid", q_session_gap_grid, f"""
    WITH g AS (
      SELECT user_id,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS gap
      FROM events),
    u AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS nu
          FROM events),
    e AS (SELECT CAST(count(*) AS BIGINT) AS ne FROM events),
    t AS (SELECT CAST(unnest([{_SGG_THRS_US[0]},
                              {_SGG_THRS_US[1]},
                              {_SGG_THRS_US[2]}]) AS BIGINT)
               AS thr),
    m AS (
      SELECT t.thr,
             CAST(coalesce(SUM(CASE WHEN g.gap > t.thr
                               THEN 1 ELSE 0 END), 0) AS BIGINT)
               AS nbig,
             CAST(coalesce(SUM(CASE WHEN g.gap <= t.thr
                               THEN g.gap ELSE 0 END), 0) AS BIGINT)
               AS ssmall
      FROM t LEFT JOIN g ON g.gap IS NOT NULL
      GROUP BY t.thr)
    SELECT CAST(m.thr // 60000000 AS BIGINT) AS gap_minutes,
           u.nu + m.nbig AS n_sessions,
           CASE WHEN u.nu + m.nbig > 0
                THEN CAST(e.ne AS DOUBLE) / (u.nu + m.nbig)
           END AS events_per_session,
           CASE WHEN u.nu + m.nbig > 0
                THEN (CAST(m.ssmall AS DOUBLE) / (u.nu + m.nbig))
                     / 60000000.0
           END AS mean_session_min
    FROM m CROSS JOIN u CROSS JOIN e
    ORDER BY gap_minutes""")
