"""Round-4o operator family — dedup scoring + stream SLAs + split QA:

* `dup_coverage` — per-doc duplicate-coverage fraction: the share of a
  doc's DISTINCT winnow fingerprints that also occur in at least one
  OTHER doc (the Dolma-style "fraction of document duplicated" score a
  curation pipeline thresholds on, complementing the pairwise
  `winnow_dup_pairs` / cluster-level `dup_components` views).
* `interarrival_percentiles` — per event type, exact p50/p90/p99 of
  consecutive same-type inter-event gaps (whole seconds) — the tail
  latency SLA table next to `interarrival_rate`'s mean-rate MLE and
  `event_burstiness`'s dispersion.
* `split_balance` — train-vs-test Welch z per source on doc length:
  the split-QA check that a hash split didn't skew a source's length
  distribution (run after `split_assign`, before training).
* `user_event_entropy` — per-user Shannon entropy of the event-type
  distribution (behavioral diversity score; the per-user analogue of
  `source_token_entropy`, same integer-quantized-log exactness).

Distributed plans (shuffle budgets — also in SCALE.md):

`dup_coverage`: explode per-doc DISTINCT (fp, doc_id) int pairs (text
never leaves the extract batch) -> ONE bucketed exchange on fp%64 (the
`winnow_dup_pairs` exchange); within a bucket the fp run-lengths give
the shared flag vectorized; per-(doc, bucket) partial (n_fp, n_shared)
counts reduce through ``_reduce_partials`` (doc-bounded, ints only).
Coverage is ONE final int/int double division per doc — bit-exact in
any reduce order. No hot-fp guard needed: counting never pairs.

`interarrival_percentiles`: the sorted-batch boundary-stitch ordered
plan (the `event_burstiness`/`debounce_census` exchange): ONE
range-partitioned sort of the skinny (type, ts, id) projection;
in-batch gaps are vectorized diffs folded into a (type, gap_s) count
histogram partial (gap quantized to whole seconds — the bounded-value
histogram convention); each batch adds 2 boundary rows
(``ops.ordered``); the driver stitches one cross-seam gap per
adjacent batch pair, sums the per-batch (type, gap_s) partials
(bounded by batches x distinct in-batch (type, gap_s) pairs), and
reads the percentile_disc index rule ``sorted[ceil(n*p)-1]`` off
cumulative counts — never a global per-event collect.

`split_balance`: pure-map md5-nibble split (the `split_assign` rule)
-> per-batch (source, split) int64 partials (n, sum, sumsq) -> ONE
dimension-bounded reduce; Welch z is a fixed IEEE chain over the int
sums, mirrored term-for-term in the twin (no var_samp — DuckDB's
incremental variance would diverge in the last bits).

`user_event_entropy`: (user, type) partial counts -> ONE
key-cardinality-bounded reduce (the `distinct_users_per_type` shape);
entropy rides the shared lp6 = round(ln(n/T)*1e6) integer quantization
(the `source_token_entropy` exactness argument) so both engines sum
only int64s.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .functions import textops as ftext
from .ops.ordered import ordered_pass
from .ops.quantile import disc_by_group
from .ops.exchange import _scoped_parallelism
from .queries import (_empty_typed, _pq, _reduce_partials, _winnow_fps_ctes,
                      register)


_COV_BUCKETS = 64


# -------------------------------------------------------- dup coverage

def q_dup_coverage(sf_dir: str) -> pd.DataFrame:
    """Per-doc winnow-fingerprint duplicate-coverage fraction — module
    docstring. Docs with empty/NULL text carry no fingerprints and are
    absent, like the twin's ``WHERE length(text) > 0``."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        fps: list = []
        for doc_id, text in zip(b["doc_id"], b["text"].fillna("")):
            f = np.unique(ftext.winnow_fingerprints(text, k=16,
                                                    window=8))
            ids.extend([doc_id] * len(f))
            fps.extend(f.tolist())
        fp_arr = pd.Series(fps, dtype="uint64")
        return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                             "fp": fp_arr,
                             "bucket": (fp_arr % _COV_BUCKETS)
                             .astype("int64")})

    def cover_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # rows are globally-distinct (fp, doc) pairs (per-doc np.unique
        # + each doc lives in exactly one extract batch), so a fp's
        # run length IS its distinct-doc count; flag runs >= 2 shared
        f = g.sort_values("fp", kind="mergesort")
        fp = f["fp"].to_numpy()
        ids = f["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        counts = np.diff(np.r_[starts, len(fp)])
        shared = np.repeat(counts >= 2, counts)
        return pd.DataFrame({"doc_id": ids,
                             "n_fp": np.int64(1),
                             "n_shared": shared.astype(np.int64)}) \
            .groupby("doc_id", as_index=False).sum()

    with _scoped_parallelism(_COV_BUCKETS):
        per = ds.map_batches(explode, batch_format="pandas") \
            .groupby("bucket").map_groups(cover_in_bucket,
                                          batch_format="pandas")
        out = _reduce_partials(per, ["doc_id"], ["n_fp", "n_shared"])
    if out.empty:
        return _empty_typed(doc_id="int64", n_fp="int64",
                            n_shared="int64", coverage="float64")
    out = out.astype({"doc_id": "int64", "n_fp": "int64",
                      "n_shared": "int64"})
    out["coverage"] = out["n_shared"].to_numpy(np.float64) \
        / out["n_fp"].to_numpy(np.float64)
    return out.sort_values("doc_id").reset_index(drop=True)


register("dup_coverage", q_dup_coverage, f"""
    WITH {_winnow_fps_ctes()},
    fpc AS (SELECT fp, count(*) AS c FROM fps GROUP BY fp)
    SELECT f.doc_id, CAST(count(*) AS BIGINT) AS n_fp,
           CAST(SUM(CASE WHEN fpc.c >= 2 THEN 1 ELSE 0 END)
                AS BIGINT) AS n_shared,
           CAST(SUM(CASE WHEN fpc.c >= 2 THEN 1 ELSE 0 END)
                AS DOUBLE) / count(*) AS coverage
    FROM fps f JOIN fpc USING (fp)
    GROUP BY f.doc_id ORDER BY doc_id""")


# --------------------------------------------- interarrival percentiles

def q_interarrival_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact p50/p90/p99 of same-type inter-event gaps in whole
    seconds via the sorted-batch boundary-stitch + bounded-histogram
    plan — module docstring."""
    key = ["event_type", "ts", "event_id"]
    ds = _pq(sf_dir, "events", key).sort(key)

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        et = b["event_type"].to_numpy(object)
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = et[1:] == et[:-1]
        return pd.DataFrame({
            "event_type": et[1:][same],
            "gap_s": (ts[1:] - ts[:-1])[same] // 1_000_000,
            "cnt": np.int64(1)}) \
            .groupby(["event_type", "gap_s"], as_index=False).sum()

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return ({"et": b["event_type"].iloc[0], "ts": ts[0]},
                {"et": b["event_type"].iloc[-1], "ts": ts[-1]})

    hist, first, last = ordered_pass(ds, key, fold, edge)
    empty = _empty_typed(event_type=object, n_gaps="int64",
                         p50_s="int64", p90_s="int64", p99_s="int64")
    if first.empty:
        return empty
    # one cross-seam gap per adjacent batch pair within a type
    lt = last["et"].to_numpy(object)[:-1]
    hit = np.flatnonzero(lt == first["et"].to_numpy(object)[1:])
    if hit.size:
        seams = pd.DataFrame({
            "event_type": lt[hit],
            "gap_s": (first["ts"].to_numpy(np.int64)[1:][hit]
                      - last["ts"].to_numpy(np.int64)[:-1][hit])
            // 1_000_000,
            "cnt": np.int64(1)})
        hist = pd.concat([hist, seams], ignore_index=True)
    hist = hist.groupby(["event_type", "gap_s"], as_index=False)["cnt"] \
        .sum()
    if hist.empty:
        return empty
    out_rows = disc_by_group(hist, "event_type", "gap_s",
                             (0.5, 0.9, 0.99))
    return pd.DataFrame(out_rows,
                        columns=["event_type", "n_gaps", "p50_s",
                                 "p90_s", "p99_s"]) \
        .astype({"n_gaps": "int64", "p50_s": "int64", "p90_s": "int64",
                 "p99_s": "int64"}) \
        .sort_values("event_type").reset_index(drop=True)


register("interarrival_percentiles", q_interarrival_percentiles, """
    WITH o AS (
      SELECT event_type,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
               PARTITION BY event_type ORDER BY ts, event_id) AS gap_us
      FROM events),
    g AS (SELECT event_type, gap_us // 1000000 AS gap_s
          FROM o WHERE gap_us IS NOT NULL)
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_gaps,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY gap_s)
                AS BIGINT) AS p50_s,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY gap_s)
                AS BIGINT) AS p90_s,
           CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY gap_s)
                AS BIGINT) AS p99_s
    FROM g GROUP BY event_type ORDER BY event_type""")


# -------------------------------------------------------- split balance

def q_split_balance(sf_dir: str) -> pd.DataFrame:
    """Train-vs-test Welch z per source on n_chars under the md5-nibble
    split rule — module docstring. Sources missing either split (or
    with a singleton split) are dropped, like the twin's n >= 2 filter
    + inner join."""
    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        nib = b["doc_id"].map(
            lambda d: hashlib.md5(str(d).encode()).hexdigest()[0])
        split = np.where(nib == "0", "test",
                         np.where(nib == "1", "val", "train"))
        nc = b["n_chars"].to_numpy(np.int64)
        g = pd.DataFrame({"source": b["source"].to_numpy(object),
                          "split": split, "n": np.int64(1),
                          "s1": nc, "s2": nc * nc})
        g = g[g["split"] != "val"]
        return g.groupby(["source", "split"], as_index=False)[
            ["n", "s1", "s2"]].sum()

    a = _reduce_partials(ds.map_batches(partial,
                                        batch_format="pandas"),
                         ["source", "split"], ["n", "s1", "s2"])
    empty = _empty_typed(source=object, n_train="int64",
                         n_test="int64", mean_train="float64",
                         mean_test="float64", welch_z="float64")
    if a.empty:
        return empty
    # moments from int sums in the twin's exact operand order:
    # mean = s1/n, var = (s2 - s1*s1/n)/(n-1), z = dm/sqrt(vt/nt+ve/ne)
    a = a[a["n"] >= 2]
    stats: dict = {}
    for r in a.itertuples(index=False):
        n = float(r.n)
        mean = float(r.s1) / n
        var = (float(r.s2) - float(r.s1) * float(r.s1) / n) / (n - 1.0)
        stats[(r.source, r.split)] = (int(r.n), mean, var)
    out_rows = []
    for src in sorted({s for s, _ in stats}):
        if (src, "train") not in stats or (src, "test") not in stats:
            continue
        nt, mt, vt = stats[(src, "train")]
        ne, me, ve = stats[(src, "test")]
        den = vt / float(nt) + ve / float(ne)
        z = (mt - me) / np.sqrt(den) if den > 0 else np.nan
        out_rows.append((src, nt, ne, mt, me, z))
    if not out_rows:
        return empty
    return pd.DataFrame(out_rows,
                        columns=["source", "n_train", "n_test",
                                 "mean_train", "mean_test",
                                 "welch_z"]) \
        .astype({"n_train": "int64", "n_test": "int64"}) \
        .sort_values("source").reset_index(drop=True)


register("split_balance", q_split_balance, """
    WITH s AS (
      SELECT source,
             CASE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)
                  WHEN '0' THEN 'test' WHEN '1' THEN 'val'
                  ELSE 'train' END AS split,
             n_chars
      FROM documents),
    a AS (
      SELECT source, split, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(n_chars) AS BIGINT) AS s1,
             CAST(SUM(n_chars * n_chars) AS BIGINT) AS s2
      FROM s WHERE split IN ('train', 'test') GROUP BY source, split),
    m AS (
      SELECT source, split, n,
             CAST(s1 AS DOUBLE) / n AS mean,
             (CAST(s2 AS DOUBLE)
              - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE) / n)
             / (n - 1) AS var
      FROM a WHERE n >= 2)
    SELECT tr.source, tr.n AS n_train, te.n AS n_test,
           tr.mean AS mean_train, te.mean AS mean_test,
           CASE WHEN tr.var / tr.n + te.var / te.n > 0
                THEN (tr.mean - te.mean)
                     / sqrt(tr.var / tr.n + te.var / te.n)
                END AS welch_z
    FROM m tr JOIN m te
      ON tr.source = te.source
     AND tr.split = 'train' AND te.split = 'test'
    ORDER BY tr.source""")


# --------------------------------------------------- user event entropy

def q_user_event_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user Shannon entropy of the event-type distribution via the
    shared lp6 integer-quantized-log plan — module docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"]
                             .to_numpy(np.int64),
                             "event_type": b["event_type"]
                             .to_numpy(object),
                             "n": np.int64(1)}) \
            .groupby(["user_id", "event_type"], as_index=False).sum()

    c = _reduce_partials(ds.map_batches(counts, batch_format="pandas"),
                         ["user_id", "event_type"], ["n"])
    if c.empty:
        return _empty_typed(user_id="int64", n_events="int64",
                            n_types="int64", entropy="float64")
    totals = c.groupby("user_id")["n"].transform("sum") \
        .to_numpy(np.float64)
    n = c["n"].to_numpy(np.int64)
    raw = np.log(n.astype(np.float64) / totals) * 1e6
    # half-AWAY (DuckDB round()) like every round()-twinned quantization
    lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    c = c.assign(h=n * lp6)
    agg = c.groupby("user_id", as_index=False).agg(
        n_events=("n", "sum"), n_types=("n", "size"), h=("h", "sum"))
    v = agg["h"].to_numpy(np.float64) \
        / agg["n_events"].to_numpy(np.float64)
    agg["entropy"] = -np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6
    return agg.drop(columns=["h"]) \
        .astype({"user_id": "int64", "n_events": "int64",
                 "n_types": "int64"}) \
        .sort_values("user_id").reset_index(drop=True)


register("user_event_entropy", q_user_event_entropy, """
    WITH c AS (
      SELECT user_id, event_type, COUNT(*) AS n FROM events
      GROUP BY user_id, event_type),
    t AS (
      SELECT user_id, SUM(n) AS total, COUNT(*) AS n_types FROM c
      GROUP BY user_id),
    lp AS (
      SELECT c.user_id,
             c.n * CAST(round(ln(CAST(c.n AS DOUBLE)
                                 / CAST(t.total AS DOUBLE))
                              * 1000000) AS BIGINT) AS h
      FROM c JOIN t USING (user_id)),
    hh AS (SELECT user_id, SUM(h) AS s FROM lp GROUP BY user_id)
    SELECT t.user_id, CAST(t.total AS BIGINT) AS n_events,
           CAST(t.n_types AS BIGINT) AS n_types,
           - ROUND(CAST(hh.s AS DOUBLE) / t.total, 0) / 1000000.0
           AS entropy
    FROM t JOIN hh USING (user_id) ORDER BY user_id""")
