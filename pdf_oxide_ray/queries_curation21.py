"""Round-4v operator family — fuzzy eval contamination and reorder
survival:

* `fuzzy_decontam_rate` — per source: the share of TRAIN-split docs
  that share >= the winnow pair threshold of fingerprints with any
  TEST-split doc — the NEAR-dup eval-decontamination gate
  (`split_contamination` is the exact-text case;
  `near_dup_split_safety` counts pairs, this names the train docs a
  release would drop, per source).
* `reorder_survival` — Kaplan-Meier survival of the first->second
  order gap in days, with single-order customers right-CENSORED at
  the corpus max order day: per event time, the risk set, event
  count, and the cumulative log-survival on the shared lp6 integer
  grid (both engines sum only int64s — the product chain never runs
  in floats). A second order on the SAME day is not a reorder (day
  units; the twin's strict d > d1).

Distributed plans (shuffle budgets — also in SCALE.md):

`fuzzy_decontam_rate`: the winnow pair pipeline's documented skinny
exchanges yield the (bounded, driver-held) pair list; splits are
row-local md5 math; the contaminated-id set is pair-bounded and its
sources come from ONE distributed filter by a broadcast sorted int64
id array; per-source train totals are (source, split) int partials ->
ONE dimension-bounded reduce.

`reorder_survival`: per-batch per-user two smallest DISTINCT order
days (<= 2 rows per user per batch) -> the gated keyed combine on
the user (a user lives in one key set); the KM table is day-span
bounded; risk sets are one reverse cumsum; every survival factor is
lp6 = round(ln((n-d)/n)*1e6) summed in int64 — bit-identical in any
order. Times after the curve hits zero carry NULL log-survival on
both engines.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import halfaway6, nibble_split, split_sql
from .ops.exchange import combine_by_key, sum_by
from .queries import _empty_typed, _pq, register


_DAY_US = 86_400_000_000

# ------------------------------------------------ fuzzy decontam rate

def q_fuzzy_decontam_rate(sf_dir: str) -> pd.DataFrame:
    """Per-source near-dup train-vs-test contamination — module
    docstring."""
    import ray

    from .queries import q_winnow_dup_pairs
    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def tr_part(b: pd.DataFrame) -> pd.DataFrame:
        sp = nibble_split(b["doc_id"])
        b = b[sp == "train"]
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n_train": np.int64(1)})

    tr = sum_by(ds.map_batches(tr_part, batch_format="pandas"),
                ["source"], ["n_train"])
    empty = _empty_typed(source=object, n_train="int64",
                         n_contam="int64", contam_rate="float64")
    if tr.empty:
        return empty

    pairs = q_winnow_dup_pairs(sf_dir)
    contam: np.ndarray
    if pairs.empty:
        contam = np.array([], dtype=np.int64)
    else:
        sa = nibble_split(pairs["id_a"])
        sb = nibble_split(pairs["id_b"])
        a = pairs["id_a"].to_numpy(np.int64)
        b_ = pairs["id_b"].to_numpy(np.int64)
        contam = np.unique(np.concatenate([
            a[(sa == "train") & (sb == "test")],
            b_[(sb == "train") & (sa == "test")]]))

    ct = pd.DataFrame({"source": pd.Series([], dtype=object),
                       "n_contam": pd.Series([], dtype="int64")})
    if len(contam):
        ids_ref = ray.put(contam)

        def src_of_ids(b: pd.DataFrame) -> pd.DataFrame:
            keys = _get_broadcast(ids_ref)
            d = b["doc_id"].to_numpy(np.int64)
            pos = np.searchsorted(keys, d)
            pos[pos == len(keys)] = 0
            b = b[keys[pos] == d]
            return pd.DataFrame({"source": b["source"]
                                 .to_numpy(object),
                                 "n_contam": np.int64(1)})

        ct = sum_by(ds.map_batches(src_of_ids, batch_format="pandas"),
                    ["source"], ["n_contam"])
    out = tr.merge(ct, on="source", how="left")
    out["n_train"] = out["n_train"].astype("int64")
    out["n_contam"] = out["n_contam"].fillna(0).astype("int64")
    out["contam_rate"] = out["n_contam"].to_numpy(np.float64) \
        / out["n_train"].to_numpy(np.float64)
    return out.sort_values("source").reset_index(drop=True)


def _fuzzy_decontam_oracle_sql() -> str:
    from .queries import ORACLE_SQL as _O

    return f"""
    WITH w AS ({_O["winnow_dup_pairs"]}),
    sp AS (SELECT doc_id, source, {split_sql('doc_id')} AS split
           FROM documents),
    contam AS (
      SELECT a.doc_id FROM w
        JOIN sp a ON a.doc_id = w.id_a
        JOIN sp b ON b.doc_id = w.id_b
      WHERE a.split = 'train' AND b.split = 'test'
      UNION
      SELECT b.doc_id FROM w
        JOIN sp a ON a.doc_id = w.id_a
        JOIN sp b ON b.doc_id = w.id_b
      WHERE b.split = 'train' AND a.split = 'test'),
    tr AS (SELECT source, CAST(count(*) AS BIGINT) AS n_train
           FROM sp WHERE split = 'train' GROUP BY source),
    ct AS (SELECT sp.source, CAST(count(*) AS BIGINT) AS n_contam
           FROM contam JOIN sp ON sp.doc_id = contam.doc_id
           GROUP BY sp.source)
    SELECT tr.source, n_train,
           COALESCE(ct.n_contam, 0) AS n_contam,
           CAST(COALESCE(ct.n_contam, 0) AS DOUBLE) / n_train
             AS contam_rate
    FROM tr LEFT JOIN ct ON ct.source = tr.source
    ORDER BY tr.source"""


register("fuzzy_decontam_rate", q_fuzzy_decontam_rate,
         _fuzzy_decontam_oracle_sql())


# --------------------------------------------------- reorder survival

def q_reorder_survival(sf_dir: str) -> pd.DataFrame:
    """Kaplan-Meier first->second order gap with censoring — module
    docstring."""
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def two_smallest(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "u": b["o_custkey"].to_numpy(np.int64),
            "d": b["o_orderdate"].to_numpy("datetime64[us]")
            .astype(np.int64) // _DAY_US}).drop_duplicates()
        out = d.sort_values(["u", "d"], kind="mergesort") \
            .groupby("u").head(2)
        # the global censor day is the max over ALL orders — a user's
        # 3rd+ order can carry it, so it rides its own sentinel row
        # (u = -1 never collides with real custkeys)
        return pd.concat(
            [out, pd.DataFrame({"u": [np.int64(-1)],
                                "d": [d["d"].max()]})],
            ignore_index=True)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        sent = df[df["u"] == -1]
        out = df[df["u"] != -1].drop_duplicates() \
            .sort_values(["u", "d"], kind="mergesort") \
            .groupby("u").head(2)
        if sent.empty:  # above the gate one key set holds them
            return out
        return pd.concat(
            [out, pd.DataFrame({"u": [np.int64(-1)],
                                "d": [sent["d"].max()]})],
            ignore_index=True)

    empty = _empty_typed(t_days="int64", n_risk="int64",
                         n_events="int64", log_surv6="float64")
    base = combine_by_key(
        ds.map_batches(two_smallest, batch_format="pandas"), ["u"],
        combine)
    if base.empty:
        return empty
    maxday = int(base.loc[base["u"] == -1, "d"].max())
    base = base[base["u"] != -1]
    if base.empty:
        return empty
    u = base["u"].to_numpy(np.int64)
    d = base["d"].to_numpy(np.int64)
    # rows are sorted (u, d) with <= 2 per user: adjacent same-u rows
    # are (first, second distinct) order days
    order = np.lexsort((d, u))
    u, d = u[order], d[order]
    second = np.zeros(len(u), dtype=bool)
    second[1:] = u[1:] == u[:-1]
    first_mask = ~second
    firsts_u = u[first_mask]
    firsts_d = d[first_mask]
    has_second = np.isin(firsts_u, u[second])
    d2 = np.full(len(firsts_u), -1, dtype=np.int64)
    d2[np.searchsorted(firsts_u, u[second])] = d[second]
    t = np.where(has_second, d2 - firsts_d, maxday - firsts_d)
    ev = has_second.astype(np.int64)
    agg = pd.DataFrame({"t": t, "d": ev, "c": np.int64(1)}) \
        .groupby("t", as_index=False).sum().sort_values("t")
    tv = agg["t"].to_numpy(np.int64)
    dv = agg["d"].to_numpy(np.int64)
    cv = agg["c"].to_numpy(np.int64)
    n_risk = cv[::-1].cumsum()[::-1]
    keep = dv > 0
    tv, dv, nr = tv[keep], dv[keep], n_risk[keep]
    if not len(tv):
        return empty
    lp6 = np.zeros(len(tv), dtype=np.int64)
    pos = nr > dv
    lp6[pos] = halfaway6(np.log((nr[pos] - dv[pos])
                                .astype(np.float64)
                                / nr[pos].astype(np.float64)))
    dead = (~pos).cumsum() > 0  # curve hit zero at/before this row
    cum = lp6.cumsum()
    return pd.DataFrame({
        "t_days": tv, "n_risk": nr, "n_events": dv,
        "log_surv6": np.where(dead, np.nan,
                              cum.astype(np.float64))})


register("reorder_survival", q_reorder_survival, f"""
    WITH o2 AS (
      SELECT o_custkey AS u,
             epoch_us(o_orderdate) // {_DAY_US} AS d
      FROM orders),
    f AS (SELECT u, min(d) AS d1 FROM o2 GROUP BY u),
    s AS (SELECT o2.u, min(o2.d) AS d2
          FROM o2 JOIN f ON f.u = o2.u AND o2.d > f.d1
          GROUP BY o2.u),
    mx AS (SELECT max(d) AS m FROM o2),
    obs AS (
      SELECT f.u,
             CASE WHEN s.d2 IS NULL THEN (SELECT m FROM mx) - f.d1
                  ELSE s.d2 - f.d1 END AS t,
             CASE WHEN s.d2 IS NULL THEN 0 ELSE 1 END AS ev
      FROM f LEFT JOIN s ON s.u = f.u),
    agg AS (SELECT t, CAST(SUM(ev) AS BIGINT) AS d,
                   CAST(count(*) AS BIGINT) AS c
            FROM obs GROUP BY t),
    r AS (SELECT t, d,
                 CAST(SUM(c) OVER (ORDER BY t DESC) AS BIGINT)
                   AS n_risk
          FROM agg),
    e AS (SELECT t AS t_days, n_risk, d AS n_events,
                 CASE WHEN n_risk > d
                      THEN CAST(round(ln(CAST(n_risk - d AS DOUBLE)
                                         / n_risk) * 1000000)
                           AS BIGINT)
                      ELSE 0 END AS lp6,
                 CASE WHEN n_risk = d THEN 1 ELSE 0 END AS z
          FROM r WHERE d > 0)
    SELECT t_days, n_risk, n_events,
           CASE WHEN SUM(z) OVER (ORDER BY t_days) > 0 THEN NULL
                ELSE CAST(SUM(lp6) OVER (ORDER BY t_days) AS DOUBLE)
           END AS log_surv6
    FROM e ORDER BY t_days""")
