"""Round-4r operator family — dedup-cluster completeness, user
lifecycle migration, and acquisition cohorts:

* `dup_transitivity_gap` — per near-dup component: implied pair count
  C(m,2) vs pairs the winnow detector actually emitted, and the
  completeness ratio. The audit that says whether deduping by PAIRS
  would miss what deduping by COMPONENTS catches (a detector that
  finds a-b and b-c but not a-c still clusters all three).
* `activity_tier_migration` — week-over-week user activity-tier
  transition counts (low 1-2 events / mid 3-9 / high 10+, fixed
  thresholds) over consecutive epoch-anchored 7-day weeks: the
  retention/churn migration matrix.
* `user_acquisition_curve` — first-seen-day cohort sizes with the
  cumulative user count: the acquisition curve behind any DAU/NAU
  dashboard.

Distributed plans (shuffle budgets — also in SCALE.md):

`dup_transitivity_gap`: ONE winnow pair-count pipeline (the documented
skinny (fp, doc_id) exchanges) feeds both the edge list and the
min-label-propagation components; the per-component rollup is set
algebra on the driver-held edge list (bounded by true-dup counts, the
same gate `q_winnow_dup_pairs` documents).

`activity_tier_migration`: per-batch (user, week, n) int partials ->
ONE `sum_by` keyed on `(user_id, mix)` (the week index),
user-week-bounded and gated like every other; transitions are one
vectorized adjacent-row scan over the (user, week)-sorted frame
(consecutive weeks only) on the driver, so the driver holds one row
per active user-week; the output key space is <= 9 cells.

`user_acquisition_curve`: per-batch (user, min-ts) partials meet in
the gated keyed combine, where each user set folds to its first-day
histogram; the day counts sum and the running sum folds on the
day-bounded final.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import combine_by_key, sum_by
from .queries import (_WINNOW_PAIR_THRESHOLD, _connected_components,
                     _empty_typed, _pq, _winnow_pair_counts_ds, register)


_DAY_US = 86_400_000_000


# ---------------------------------------------- dup transitivity gap

def q_dup_transitivity_gap(sf_dir: str) -> pd.DataFrame:
    """Per-component implied vs found winnow pairs — module
    docstring."""
    import ray

    pc = _winnow_pair_counts_ds(sf_dir).to_pandas()
    empty = _empty_typed(component="int64", m="int64",
                         n_implied="int64", n_found="int64",
                         completeness="float64")
    if pc.empty:
        return empty
    pairs = pc[pc["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
    if pairs.empty:
        return empty
    edges = pd.DataFrame({"a": pairs["id_a"].astype("int64"),
                          "b": pairs["id_b"].astype("int64")})
    comp = _connected_components(ray.data.from_pandas(edges))
    lut = dict(zip(comp["doc_id"], comp["component"]))
    sizes = comp.groupby("component", as_index=False) \
        .size().rename(columns={"size": "m"})
    found = pd.DataFrame(
        {"component": edges["a"].map(lut).astype("int64"),
         "n_found": np.int64(1)}) \
        .groupby("component", as_index=False).sum()
    out = sizes.merge(found, on="component", how="left")
    m = out["m"].to_numpy(np.int64)
    out["m"] = m
    out["n_implied"] = m * (m - 1) // 2
    out["n_found"] = out["n_found"].fillna(0).astype("int64")
    out["completeness"] = out["n_found"].to_numpy(np.float64) \
        / out["n_implied"].to_numpy(np.float64)
    return out[["component", "m", "n_implied", "n_found",
                "completeness"]].astype({"component": "int64"}) \
        .sort_values("component").reset_index(drop=True)


def _transitivity_oracle_sql() -> str:
    from .queries import ORACLE_SQL as _O

    return f"""
    WITH comp AS ({_O["dup_components"]}),
    pred AS ({_O["winnow_dup_pairs"]}),
    sizes AS (SELECT component, CAST(count(*) AS BIGINT) AS m
              FROM comp GROUP BY component),
    f AS (SELECT c.component, CAST(count(*) AS BIGINT) AS n_found
          FROM pred p JOIN comp c ON c.doc_id = p.id_a
          GROUP BY c.component)
    SELECT s.component, s.m,
           CAST((s.m * (s.m - 1)) // 2 AS BIGINT) AS n_implied,
           COALESCE(f.n_found, 0) AS n_found,
           CAST(COALESCE(f.n_found, 0) AS DOUBLE)
             / ((s.m * (s.m - 1)) // 2) AS completeness
    FROM sizes s LEFT JOIN f USING (component)
    ORDER BY s.component"""


register("dup_transitivity_gap", q_dup_transitivity_gap,
         _transitivity_oracle_sql())


# ------------------------------------------- activity tier migration

def _tier_of(n: np.ndarray) -> np.ndarray:
    return np.where(n >= 10, "high", np.where(n >= 3, "mid", "low")) \
        .astype(object)


_WEEK_US = 7 * _DAY_US


def q_activity_tier_migration(sf_dir: str) -> pd.DataFrame:
    """Consecutive-week user activity-tier transitions — module
    docstring. Weeks are epoch-anchored 7-day buckets (exact integer
    math on both engines)."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mix = (b["ts"].to_numpy("datetime64[us]").astype(np.int64)
               // _WEEK_US)
        return pd.DataFrame({"user_id": b["user_id"]
                             .to_numpy(np.int64),
                             "mix": mix, "n": np.int64(1)})

    um = sum_by(ds.map_batches(partial, batch_format="pandas"),
                ["user_id", "mix"], ["n"])
    empty = _empty_typed(tier_from=object, tier_to=object,
                         n_trans="int64")
    if um.empty:
        return empty
    um = um.sort_values(["user_id", "mix"], kind="mergesort")
    u = um["user_id"].to_numpy(np.int64)
    mix = um["mix"].to_numpy(np.int64)
    tier = _tier_of(um["n"].to_numpy(np.int64))
    adj = (u[1:] == u[:-1]) & (mix[1:] == mix[:-1] + 1)
    if not adj.any():
        return empty
    out = pd.DataFrame({"tier_from": tier[:-1][adj],
                        "tier_to": tier[1:][adj]}) \
        .groupby(["tier_from", "tier_to"], as_index=False) \
        .size().rename(columns={"size": "n_trans"})
    return out.astype({"n_trans": "int64"}) \
        .sort_values(["tier_from", "tier_to"]).reset_index(drop=True)


register("activity_tier_migration", q_activity_tier_migration, f"""
    WITH um AS (
      SELECT user_id,
             epoch_us(ts) // {_WEEK_US} AS mix,
             CAST(count(*) AS BIGINT) AS n
      FROM events GROUP BY user_id, mix),
    t AS (SELECT user_id, mix,
                 CASE WHEN n >= 10 THEN 'high'
                      WHEN n >= 3 THEN 'mid'
                      ELSE 'low' END AS tier
          FROM um),
    m AS (SELECT a.tier AS tier_from, b.tier AS tier_to
          FROM t a JOIN t b
            ON b.user_id = a.user_id AND b.mix = a.mix + 1)
    SELECT tier_from, tier_to, CAST(count(*) AS BIGINT) AS n_trans
    FROM m GROUP BY tier_from, tier_to
    ORDER BY tier_from, tier_to""")


# -------------------------------------------- user acquisition curve

def q_user_acquisition_curve(sf_dir: str) -> pd.DataFrame:
    """First-seen-day cohorts + cumulative users — module docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(np.int64),
            "first_us": b["ts"].to_numpy("datetime64[us]")
            .astype(np.int64)}) \
            .groupby("user_id", as_index=False).min()

    def new_per_day(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("user_id")["first_us"].min().to_numpy(np.int64)
        return pd.DataFrame({"day_us": first // _DAY_US * _DAY_US,
                             "n_new": np.int64(1)}) \
            .groupby("day_us", as_index=False).sum()

    c = combine_by_key(ds.map_batches(partial, batch_format="pandas"),
                       ["user_id"], new_per_day)
    if c.empty:
        return _empty_typed(day="datetime64[us]", n_new="int64",
                            cum_users="int64")
    c = c.groupby("day_us", as_index=False)["n_new"].sum() \
        .sort_values("day_us").reset_index(drop=True)
    c.insert(0, "day", c.pop("day_us").to_numpy(np.int64)
             .astype("datetime64[us]"))
    c["n_new"] = c["n_new"].astype("int64")
    c["cum_users"] = c["n_new"].cumsum().astype("int64")
    return c


register("user_acquisition_curve", q_user_acquisition_curve, """
    WITH f AS (SELECT user_id, date_trunc('day', min(ts)) AS day
               FROM events GROUP BY user_id),
    c AS (SELECT day, CAST(count(*) AS BIGINT) AS n_new
          FROM f GROUP BY day)
    SELECT day, n_new,
           CAST(SUM(n_new) OVER (ORDER BY day) AS BIGINT) AS cum_users
    FROM c ORDER BY day""")
