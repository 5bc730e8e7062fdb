"""Round-4n operator family — exchange-planning + event-hygiene ops:

* `exchange_skew_census` — shuffle-planning diagnostic: bucket the
  events stream by a Knuth multiplicative hash of user_id into 64
  exchange buckets and report rows + distinct keys per bucket — the
  table an engine owner reads before choosing partition counts or
  salting a hot key (the repo's own bucketed exchanges assume this
  distribution is flat; this op MEASURES it).
* `debounce_census` — per-type double-fire rate: an event is a
  "bounce" if the previous event of the same (user, type) — ordered by
  (ts, event_id) — happened within 60 s. The debounce/retry-storm
  census run before trusting event counts.

Distributed plans (shuffle budgets — also in SCALE.md):

`exchange_skew_census`: exchange 1 = the 64-bucket row-count partial
reduce (bucket-bounded); exchange 2 = the (bucket, user) distinct
partial reduce (key-cardinality-bounded — the `distinct_users_per_type`
shape) folded to per-bucket key counts. The hash is pure int64 math
((user_id · 2654435761) mod 2³² mod 64), bit-identical in both engines
— no float, no string hashing.

`debounce_census`: the proven sorted-batch boundary-stitch ordered
plan (the `event_burstiness`/`event_runs` exchange): ONE
range-partitioned sort of the skinny (user, type, ts, id) projection;
in-batch lag tests are vectorized diffs; each batch emits exactly 2
boundary rows (its first and last event) plus type-bounded interior
partials; the driver orders batches by first-row key and runs ONE
cross-seam lag test per batch pair (no chain merging — a bounce
depends only on the immediately preceding row). Counts are pure
int64; the rate is one int/int double division.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .ops.ordered import ordered_pass
from .queries import _empty_typed, _pq, register


_SKEW_BUCKETS = 64
_KNUTH = 2654435761
_DEBOUNCE_US = 60_000_000  # 60 s


# ------------------------------------------------------- exchange skew

def q_exchange_skew_census(sf_dir: str) -> pd.DataFrame:
    """Rows + distinct keys per 64-way hash bucket of events.user_id —
    module docstring."""
    ds = _pq(sf_dir, "events", ["user_id"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        u = b["user_id"].to_numpy(np.int64)
        bk = (u * _KNUTH) % (2 ** 32) % _SKEW_BUCKETS
        return pd.DataFrame({"bucket": bk, "n_rows": np.int64(1)})

    def key_parts(b: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(b["user_id"].to_numpy(np.int64))
        bk = (u * _KNUTH) % (2 ** 32) % _SKEW_BUCKETS
        return pd.DataFrame({"bucket": bk, "u": u, "one": np.int64(1)})

    rows = sum_by(ds.map_batches(parts, batch_format="pandas"),
                  ["bucket"], ["n_rows"])
    empty = _empty_typed(bucket="int64", n_rows="int64",
                         n_keys="int64")
    if rows.empty:
        return empty
    # distinct (bucket, user) pairs — key-cardinality-bounded reduce
    ku = sum_by(ds.map_batches(key_parts, batch_format="pandas"),
                ["bucket", "u"], ["one"])
    keys = ku.groupby("bucket", as_index=False) \
        .agg(n_keys=("u", "size"))
    out = rows.merge(keys, on="bucket")
    return out.sort_values("bucket").reset_index(drop=True) \
        .astype({"bucket": "int64", "n_rows": "int64",
                 "n_keys": "int64"})


register("exchange_skew_census", q_exchange_skew_census, f"""
    WITH b AS (
      SELECT user_id,
             CAST((user_id * {_KNUTH}) % 4294967296 % {_SKEW_BUCKETS}
                  AS BIGINT) AS bucket
      FROM events)
    SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_keys
    FROM b GROUP BY bucket ORDER BY bucket""")


# ----------------------------------------------------------- debounce

def q_debounce_census(sf_dir: str) -> pd.DataFrame:
    """Per-type 60-second double-fire rate via the sorted-batch
    boundary-stitch ordered plan — module docstring."""
    key = ["user_id", "event_type", "ts", "event_id"]
    ds = _pq(sf_dir, "events", key).sort(key)

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        u = b["user_id"].to_numpy(np.int64)
        et = b["event_type"].to_numpy(object)
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = (u[1:] == u[:-1]) & (et[1:] == et[:-1])
        bounce = same & ((ts[1:] - ts[:-1]) <= _DEBOUNCE_US)
        return pd.DataFrame({"event_type": et,
                             "n_events": np.int64(1),
                             "n_bounce": np.concatenate(
                                 ([0], bounce.astype(np.int64)))}) \
            .groupby("event_type", as_index=False).sum()

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        # the first row's lag test needs the previous batch's last row
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        u, et = b["user_id"].to_numpy(np.int64), b["event_type"]
        return ({"u": u[0], "et": et.iloc[0], "ts": ts[0]},
                {"u": u[-1], "et": et.iloc[-1], "ts": ts[-1]})

    folds, first, last = ordered_pass(ds, key, fold, edge)
    empty = _empty_typed(event_type=object, n_events="int64",
                         n_bounce="int64", bounce_rate="float64")
    if folds.empty:
        return empty
    agg = folds.groupby("event_type", as_index=False)[["n_events",
                                                       "n_bounce"]].sum()
    stats = {t: [int(n), int(nb)] for t, n, nb
             in zip(agg["event_type"], agg["n_events"],
                    agg["n_bounce"])}
    # one cross-seam lag test per adjacent batch pair
    for la, f in zip(last.iloc[:-1].itertuples(),
                     first.iloc[1:].itertuples()):
        if (la.u == f.u and la.et == f.et
                and int(f.ts) - int(la.ts) <= _DEBOUNCE_US):
            stats[f.et][1] += 1
    out = pd.DataFrame([(t, v[0], v[1]) for t, v in stats.items()],
                       columns=["event_type", "n_events", "n_bounce"])
    out["bounce_rate"] = out["n_bounce"].to_numpy(np.float64) \
        / out["n_events"].to_numpy(np.float64)
    return out.sort_values("event_type").reset_index(drop=True) \
        .astype({"n_events": "int64", "n_bounce": "int64"})


register("debounce_census", q_debounce_census, f"""
    WITH o AS (
      SELECT event_type, ts,
             LAG(ts) OVER (PARTITION BY user_id, event_type
                           ORDER BY ts, event_id) AS prev_ts
      FROM events)
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CASE WHEN prev_ts IS NOT NULL
                         AND date_diff('microsecond', prev_ts, ts)
                             <= {_DEBOUNCE_US}
                    THEN 1 ELSE 0 END) AS BIGINT) AS n_bounce,
           CAST(SUM(CASE WHEN prev_ts IS NOT NULL
                         AND date_diff('microsecond', prev_ts, ts)
                             <= {_DEBOUNCE_US}
                    THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) AS bounce_rate
    FROM o GROUP BY event_type ORDER BY event_type""")
