"""Round-4c training-data curation + analytics family — the remaining
web-scale pipeline shapes a 100 TB pretraining run leans on:

* `split_contamination`  — exact-text leakage across the deterministic
  md5-nibble train/val/test split (the `split_assign` hash): per
  held-out split, how many docs share their exact text with ANY train
  doc — the eval-integrity gate every data release runs.
* `rfm_segments`         — RFM customer segmentation (recency /
  frequency / monetary quartile scores, exact percentile_disc index
  rule) — the canonical grouped-score + bucketing shape.
* `hourly_top_event`     — per-hour argmax event type with a
  deterministic tie-break (count DESC, type ASC): the grouped-top-1
  window shape, reduced from skinny partials (no window sort).
* `heaps_law_curve`      — vocabulary-growth (Heaps' law) curve by
  ingestion bucket: new-vocabulary mass per doc_id bucket + cumulative
  type/token ratio — the token-level crawl-saturation diagnostic
  (`novelty_curve` is its doc-level sibling).
* `lineitem_value_corr`  — exact pairwise Pearson matrix over the four
  lineitem measures (quantity, extendedprice, discount, tax) from ONE
  pass of int64 moment partials with 24-bit hi/lo product splits.
* `session_overlap_peak` — peak concurrent user sessions (30-min-gap
  sessionization -> interval sweep-line), the classic interval-overlap
  shape, parallelized with the textbook two-level prefix-sum split.

Shuffle budget (SCALE.md doctrine): split_contamination's skinny
(hash, split, n) partials meet in the gated keyed combine on the hash;
rfm_segments / hourly_top_event / lineitem_value_corr reduce
per-batch partials to customer- / hour- / constant-sized frames;
heaps_law_curve is ONE vocabulary-keyed combine (the `unigram_logprob`
scale) folded to a bounded bucket histogram; session_overlap_peak is
TWO bucketed exchanges (user_id % 64 sessionize, then ts-day sweep
buckets) with only per-bucket (delta, max-prefix) triples reaching the
driver — the distributed-prefix-sum recipe, never a global sort.

Exactness: money rides int64 cents; every product that could wrap the
int64 reduce is 24-bit hi/lo split and recombined in Python big ints;
final doubles divide / sqrt IDENTICAL integers in the twin's operand
order, then the shared half-away 1e-6 grid. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

from .functions import dedup as fdedup
from .ops.exchange import _scoped_parallelism, combine_by_key
from .ops.quantile import disc_by_group, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register


# ---------------------------------------------------------------------------
# split contamination: exact-text leakage across the deterministic split
# ---------------------------------------------------------------------------


def _split_of(doc_ids: pd.Series) -> np.ndarray:
    """The `split_assign` rule: first md5 hex nibble of str(doc_id)
    routes 1/16 to test, 1/16 to val, rest to train (stable under any
    partitioning because it depends only on the row key)."""
    nib = doc_ids.map(
        lambda d: hashlib.md5(str(d).encode()).hexdigest()[0])
    return np.where(nib == "0", "test",
                    np.where(nib == "1", "val", "train"))


def q_split_contamination(sf_dir: str) -> pd.DataFrame:
    """Eval-integrity gate: per held-out split (test/val), the count of
    docs whose EXACT text also appears in the train split — run before
    any data release. Distributed shape: per-batch (content-hash,
    split, n) partials meet in the gated keyed combine on the hash,
    where each hash set emits per-split (n_docs-with-a-train-dup)
    partials, so above the gate only #splits-sized rows reach the
    driver. Equality on the 128-bit hash == equality on text
    (the ``dedup_exact`` convention); the twin joins on raw text."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "h": fdedup.content_hash(b["text"]),
            "split": _split_of(b["doc_id"])}) \
            .groupby(["h", "split"], as_index=False) \
            .size().rename(columns={"size": "n"})

    empty = _empty_typed(split=object, n_docs="int64",
                         n_dup_with_train="int64", dup_rate="float64")

    def contam(per_hash: pd.DataFrame) -> pd.DataFrame:
        """(h, split, n) fully combined per hash -> per-split
        (n_docs, n_dup) partial."""
        piv = per_hash.pivot_table(index="h", columns="split",
                                   values="n", aggfunc="sum",
                                   fill_value=0)
        rows = []
        for split in ("test", "val"):
            if split not in piv.columns:
                continue
            n_docs = int(piv[split].sum())
            if n_docs == 0:
                continue
            has_train = piv["train"] > 0 if "train" in piv.columns \
                else pd.Series(False, index=piv.index)
            rows.append({"split": split, "n_docs": n_docs,
                         "n_dup_with_train":
                             int(piv.loc[has_train, split].sum())})
        if not rows:
            return _empty_typed(split=object, n_docs="int64",
                                n_dup_with_train="int64")
        return pd.DataFrame(rows)

    parts = combine_by_key(
        ds.map_batches(partial, batch_format="pandas"), ["h"],
        lambda d: contam(d.groupby(["h", "split"], as_index=False)
                         ["n"].sum()))
    if parts.empty:
        return empty
    out = parts.groupby("split", as_index=False).sum() \
        .sort_values("split").reset_index(drop=True)
    out["dup_rate"] = out["n_dup_with_train"].to_numpy(np.float64) \
        / out["n_docs"].to_numpy(np.float64)
    return out.astype({"n_docs": "int64", "n_dup_with_train": "int64"})


register("split_contamination", q_split_contamination, """
    WITH s AS (
      SELECT text,
             CASE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)
                  WHEN '0' THEN 'test' WHEN '1' THEN 'val'
                  ELSE 'train' END AS split
      FROM documents),
    tr AS (SELECT DISTINCT text FROM s WHERE split = 'train')
    SELECT s.split,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(CASE WHEN tr.text IS NOT NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_dup_with_train,
           CAST(SUM(CASE WHEN tr.text IS NOT NULL THEN 1 ELSE 0 END)
                AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS dup_rate
    FROM s LEFT JOIN tr ON s.text = tr.text
    WHERE s.split IN ('test', 'val')
    GROUP BY s.split ORDER BY s.split""")


# ---------------------------------------------------------------------------
# RFM segmentation: recency / frequency / monetary quartile scores
# ---------------------------------------------------------------------------


def q_rfm_segments(sf_dir: str) -> pd.DataFrame:
    """RFM segmentation over orders: per customer, recency (calendar
    days from last order to the corpus max date), frequency (#orders)
    and monetary (int64 cents sum); each metric quartile-scored with
    the exact percentile_disc index rule ``sorted[ceil(n*p)-1]`` and
    ``score = 1 + (v>q1) + (v>q2) + (v>q3)``; output is the 4x4x4
    segment census. Shape: per-batch per-customer (max-date, n, cents)
    partials re-reduce associatively (max/sum/sum) — the
    ``latest_order_per_customer`` plan; the driver holds only the
    customer-dimension frame (the documented `top_customers` scale;
    past ~1e8 customers the quartile cut moves to the bounded-histogram
    rule, cf. `quantity_quantiles`)."""
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b["o_totalprice"].to_numpy(np.float64) * 100
        return pd.DataFrame({
            "o_custkey": b["o_custkey"].to_numpy(np.int64),
            "last_us": b["o_orderdate"].to_numpy("datetime64[us]")
            .astype(np.int64),
            "frequency": np.int64(1),
            "monetary_c": np.copysign(np.floor(np.abs(p) + 0.5), p)
            .astype(np.int64)}) \
            .groupby("o_custkey", as_index=False) \
            .agg(last_us=("last_us", "max"), frequency=("frequency", "sum"),
                 monetary_c=("monetary_c", "sum"))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False) \
            .agg(last_us=("last_us", "max"),
                 frequency=("frequency", "sum"),
                 monetary_c=("monetary_c", "sum"))

    base = combine_by_key(ds.map_batches(partial, batch_format="pandas"),
                          ["o_custkey"], combine)
    if base.empty:
        return _empty_typed(r_score="int64", f_score="int64",
                            m_score="int64", n_customers="int64")
    day = 86_400_000_000
    recency = (int(base["last_us"].max()) // day
               - base["last_us"].to_numpy(np.int64) // day)

    def score(v: np.ndarray) -> np.ndarray:
        s = np.sort(v)
        qs = [s[disc_rank(len(s), p) - 1] for p in (0.25, 0.5, 0.75)]
        return (1 + (v > qs[0]).astype(np.int64) + (v > qs[1])
                + (v > qs[2]))

    seg = pd.DataFrame({
        "r_score": score(recency),
        "f_score": score(base["frequency"].to_numpy(np.int64)),
        "m_score": score(base["monetary_c"].to_numpy(np.int64))}) \
        .groupby(["r_score", "f_score", "m_score"], as_index=False) \
        .size().rename(columns={"size": "n_customers"})
    return seg.sort_values(["r_score", "f_score", "m_score"]) \
        .reset_index(drop=True).astype("int64")


register("rfm_segments", q_rfm_segments, """
    WITH base AS (
      SELECT o_custkey,
             date_diff('day', MAX(o_orderdate),
                       (SELECT MAX(o_orderdate) FROM orders)) AS recency,
             CAST(COUNT(*) AS BIGINT) AS frequency,
             CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                  AS BIGINT) AS monetary_c
      FROM orders GROUP BY o_custkey),
    q AS (
      SELECT
        percentile_disc(0.25) WITHIN GROUP (ORDER BY recency) AS r1,
        percentile_disc(0.50) WITHIN GROUP (ORDER BY recency) AS r2,
        percentile_disc(0.75) WITHIN GROUP (ORDER BY recency) AS r3,
        percentile_disc(0.25) WITHIN GROUP (ORDER BY frequency) AS f1,
        percentile_disc(0.50) WITHIN GROUP (ORDER BY frequency) AS f2,
        percentile_disc(0.75) WITHIN GROUP (ORDER BY frequency) AS f3,
        percentile_disc(0.25) WITHIN GROUP (ORDER BY monetary_c) AS m1,
        percentile_disc(0.50) WITHIN GROUP (ORDER BY monetary_c) AS m2,
        percentile_disc(0.75) WITHIN GROUP (ORDER BY monetary_c) AS m3
      FROM base)
    SELECT CAST(1 + CAST(recency > r1 AS INT) + CAST(recency > r2 AS INT)
                + CAST(recency > r3 AS INT) AS BIGINT) AS r_score,
           CAST(1 + CAST(frequency > f1 AS INT)
                + CAST(frequency > f2 AS INT)
                + CAST(frequency > f3 AS INT) AS BIGINT) AS f_score,
           CAST(1 + CAST(monetary_c > m1 AS INT)
                + CAST(monetary_c > m2 AS INT)
                + CAST(monetary_c > m3 AS INT) AS BIGINT) AS m_score,
           CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM base, q
    GROUP BY 1, 2, 3 ORDER BY 1, 2, 3""")


# ---------------------------------------------------------------------------
# hourly top event: grouped argmax with deterministic tie-break
# ---------------------------------------------------------------------------


def q_hourly_top_event(sf_dir: str) -> pd.DataFrame:
    """Per-hour top event type (count DESC, type ASC tie-break) — the
    grouped-top-1 window shape computed WITHOUT a window sort: skinny
    (hour, type, n) partials reduce to the bounded hours x types frame;
    the argmax is one driver-side stable sort + drop_duplicates over
    that dimension table."""
    ds = _pq(sf_dir, "events", ["ts", "event_type"])
    hour_us = 3_600_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = (b["ts"].to_numpy("datetime64[us]").astype(np.int64)
             // hour_us * hour_us)
        return pd.DataFrame({"hour": h,
                             "event_type":
                                 b["event_type"].to_numpy(object),
                             "n": np.int64(1)}) \
            .groupby(["hour", "event_type"], as_index=False).sum()

    agg = _reduce_partials(ds.map_batches(partial, batch_format="pandas"),
                           ["hour", "event_type"], ["n"])
    if agg.empty:
        return _empty_typed(hour="datetime64[us]", event_type=object,
                            n="int64")
    top = agg.sort_values(["hour", "n", "event_type"],
                          ascending=[True, False, True],
                          kind="mergesort") \
        .drop_duplicates("hour", keep="first").reset_index(drop=True)
    top["hour"] = top["hour"].astype("datetime64[us]")
    top["n"] = top["n"].astype("int64")
    return top[["hour", "event_type", "n"]]


register("hourly_top_event", q_hourly_top_event, """
    WITH c AS (
      SELECT date_trunc('hour', ts) AS hour, event_type,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM events GROUP BY 1, 2),
    r AS (
      SELECT hour, event_type, n,
             row_number() OVER (PARTITION BY hour
                                ORDER BY n DESC, event_type) AS rn
      FROM c)
    SELECT hour, event_type, n FROM r WHERE rn = 1 ORDER BY hour""")


# ---------------------------------------------------------------------------
# Heaps' law curve: vocabulary growth by ingestion bucket
# ---------------------------------------------------------------------------

_HEAPS_BUCKET = 100  # docs per ingestion bucket (doc_id // 100)


def q_heaps_law_curve(sf_dir: str) -> pd.DataFrame:
    """Token-level crawl-saturation curve (Heaps' law): per ingestion
    bucket (doc_id // {B}), token mass and NEW-vocabulary mass (types
    whose global first occurrence, by min doc_id, lands in the bucket),
    plus cumulative type/token ratio. Distributed shape: token counts
    are skinny (bucket, n) partials; first-occurrence rides per-batch
    (token, min_doc_id) partials through the gated keyed combine (the
    ``novelty_curve`` plan), each vocabulary set folded to its bucket
    histogram; above the gate the driver sees only those bounded
    histograms. Tokens are the corpus-wide ASCII
    ``\\w+`` convention on lowered text (the `decontaminate` twin's
    regexp)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    token_re = fdedup._TOKEN_RE
    B = _HEAPS_BUCKET

    def tok_frame(b: pd.DataFrame) -> pd.DataFrame:
        ids, toks = [], []
        for d, t in zip(b["doc_id"].to_numpy(np.int64),
                        b["text"].fillna("").to_numpy(object)):
            tt = token_re.findall(t.lower())
            ids.append(np.full(len(tt), d, np.int64))
            toks.append(np.asarray(tt, object))
        if not ids:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "tok": pd.Series([], dtype=object)})
        return pd.DataFrame({"doc_id": np.concatenate(ids),
                             "tok": np.concatenate(toks)})

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        f = tok_frame(b)
        return pd.DataFrame({"bucket": f["doc_id"].to_numpy(np.int64)
                             // B, "n_tokens": np.int64(1)}) \
            .groupby("bucket", as_index=False).sum()

    def first_partial(b: pd.DataFrame) -> pd.DataFrame:
        f = tok_frame(b)
        return f.groupby("tok", as_index=False)["doc_id"].min() \
            .rename(columns={"doc_id": "min_id"})

    empty = _empty_typed(bucket="int64", n_tokens="int64",
                         n_new_vocab="int64", cum_tokens="int64",
                         cum_vocab="int64", vocab_rate="float64")
    tc = _reduce_partials(
        ds.map_batches(count_partial, batch_format="pandas"),
        ["bucket"], ["n_tokens"])
    if tc.empty:
        return empty
    def new_vocab(d: pd.DataFrame) -> pd.DataFrame:
        first = d.groupby("tok")["min_id"].min().to_numpy(np.int64)
        return pd.DataFrame({"bucket": first // B}) \
            .groupby("bucket", as_index=False) \
            .agg(n_new_vocab=("bucket", "size"))

    # tc holds a token, so the first-id partials are not empty
    nv = combine_by_key(
        ds.map_batches(first_partial, batch_format="pandas"), ["tok"],
        new_vocab).groupby("bucket", as_index=False)["n_new_vocab"].sum()
    out = tc.merge(nv, on="bucket", how="left") \
        .fillna({"n_new_vocab": 0}) \
        .astype({"bucket": "int64", "n_tokens": "int64",
                 "n_new_vocab": "int64"}) \
        .sort_values("bucket").reset_index(drop=True)
    out["cum_tokens"] = out["n_tokens"].cumsum().astype("int64")
    out["cum_vocab"] = out["n_new_vocab"].cumsum().astype("int64")
    out["vocab_rate"] = out["cum_vocab"].to_numpy(np.float64) \
        / out["cum_tokens"].to_numpy(np.float64)
    return out


q_heaps_law_curve.__doc__ = q_heaps_law_curve.__doc__.format(
    B=_HEAPS_BUCKET)

register("heaps_law_curve", q_heaps_law_curve, f"""
    WITH tok AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9A-Za-z_]+'))
                 AS t
      FROM documents),
    first AS (
      SELECT t, MIN(doc_id) // {_HEAPS_BUCKET} AS bucket
      FROM tok GROUP BY t),
    nv AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_new_vocab
           FROM first GROUP BY bucket),
    tc AS (SELECT doc_id // {_HEAPS_BUCKET} AS bucket,
                  CAST(COUNT(*) AS BIGINT) AS n_tokens
           FROM tok GROUP BY 1),
    j AS (
      SELECT tc.bucket, tc.n_tokens,
             COALESCE(nv.n_new_vocab, 0) AS n_new_vocab
      FROM tc LEFT JOIN nv USING (bucket))
    SELECT CAST(bucket AS BIGINT) AS bucket, n_tokens, n_new_vocab,
           CAST(SUM(n_tokens) OVER w AS BIGINT) AS cum_tokens,
           CAST(SUM(n_new_vocab) OVER w AS BIGINT) AS cum_vocab,
           CAST(SUM(n_new_vocab) OVER w AS DOUBLE)
             / CAST(SUM(n_tokens) OVER w AS DOUBLE) AS vocab_rate
    FROM j
    WINDOW w AS (ORDER BY bucket ROWS UNBOUNDED PRECEDING)
    ORDER BY bucket""")


# ---------------------------------------------------------------------------
# lineitem measure correlation matrix: one pass, exact int64 moments
# ---------------------------------------------------------------------------

_CORR_COLS = [("d", "l_discount"), ("e", "l_extendedprice"),
              ("q", "l_quantity"), ("t", "l_tax")]
_CORR_NAMES = {"d": "discount", "e": "extendedprice", "q": "quantity",
               "t": "tax"}


def q_lineitem_value_corr(sf_dir: str) -> pd.DataFrame:
    """Exact pairwise Pearson matrix over the four lineitem measures in
    ONE streaming pass: cents-quantized int64 values; each square /
    cross product is 24-bit hi/lo SPLIT per batch (row products <=
    ~1.1e14 -> hi <= ~6.6e6, so the int64 reduce holds to ~1e12 rows —
    beyond that, sub-key the reduce by time bucket, cf. SCALE.md) and
    recombined in Python big ints on the driver; r follows the twin's
    exact operand order num / (sqrt(d1) * sqrt(d2)) on identical
    integers (d1*d2 would overflow even HUGEINT at corpus scale, hence
    the split sqrt on BOTH sides), then the shared half-away 1e-6 grid.
    Degenerate variance -> NULL on both sides; the constant-keyed
    partial reduce ships one 26-column row per batch."""
    ds = _pq(sf_dir, "lineitem", [c for _, c in _CORR_COLS])
    keys = [k for k, _ in _CORR_COLS]
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]]

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        v = {}
        for k, col in _CORR_COLS:
            x = b[col].to_numpy(np.float64) * 100
            v[k] = np.copysign(np.floor(np.abs(x) + 0.5), x) \
                .astype(np.int64)
        row: dict = {"k": np.int64(0), "n": np.int64(len(b))}
        for k in keys:
            row[f"s_{k}"] = v[k].sum()
        for a, c in [(a, c) for i, a in enumerate(keys)
                     for c in keys[i:]]:
            p = v[a] * v[c]
            row[f"p_{a}{c}_hi"] = (p >> 24).sum()
            row[f"p_{a}{c}_lo"] = (p & 0xFFFFFF).sum()
        return pd.DataFrame([row])

    prod_keys = [f"{a}{c}" for i, a in enumerate(keys)
                 for c in keys[i:]]
    cols = (["n"] + [f"s_{k}" for k in keys]
            + [f"p_{pk}_{h}" for pk in prod_keys for h in ("hi", "lo")])
    agg = _reduce_partials(ds.map_batches(moments, batch_format="pandas"),
                           ["k"], cols)
    if agg.empty:
        tot = {c: 0 for c in cols}
    else:
        tot = {c: int(agg[c].iloc[0]) for c in cols}
    n = tot["n"]
    s = {k: tot[f"s_{k}"] for k in keys}
    p = {pk: (tot[f"p_{pk}_hi"] << 24) + tot[f"p_{pk}_lo"]
         for pk in prod_keys}
    rows = []
    for a, b in pairs:
        d1 = n * p[a + a] - s[a] * s[a]
        d2 = n * p[b + b] - s[b] * s[b]
        if d1 == 0 or d2 == 0:
            r = np.nan
        else:
            r = float(n * p[a + b] - s[a] * s[b]) \
                / (np.sqrt(float(d1)) * np.sqrt(float(d2))) * 1e6
            r = np.copysign(np.floor(np.abs(r) + 0.5), r) / 1e6
        rows.append({"col_a": _CORR_NAMES[a], "col_b": _CORR_NAMES[b],
                     "n": n, "r": r})
    return pd.DataFrame(rows).astype({"n": "int64", "r": "float64"}) \
        .sort_values(["col_a", "col_b"]).reset_index(drop=True)


def _corr_sql() -> str:
    keys = [k for k, _ in _CORR_COLS]
    sel = ", ".join(
        f"CAST(round({col} * 100) AS BIGINT) AS {k}"
        for k, col in _CORR_COLS)
    sums = (["COUNT(*) AS n"]
            + [f"SUM({k}) AS s_{k}" for k in keys]
            + [f"SUM({a} * {c}) AS p_{a}{c}"
               for i, a in enumerate(keys) for c in keys[i:]])
    arms = []
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            arms.append(f"""
      SELECT '{_CORR_NAMES[a]}' AS col_a, '{_CORR_NAMES[b]}' AS col_b,
             CAST(n AS BIGINT) AS n,
             CASE WHEN n * p_{a}{a} - s_{a} * s_{a} = 0
                    OR n * p_{b}{b} - s_{b} * s_{b} = 0 THEN NULL
                  ELSE ROUND(CAST(n * p_{a}{b} - s_{a} * s_{b} AS DOUBLE)
                       / (sqrt(CAST(n * p_{a}{a} - s_{a} * s_{a}
                                    AS DOUBLE))
                          * sqrt(CAST(n * p_{b}{b} - s_{b} * s_{b}
                                      AS DOUBLE))) * 1000000, 0)
                       / 1000000.0
             END AS r
      FROM m""")
    return (f"WITH v AS (SELECT {sel} FROM lineitem),\n"
            f"m AS (SELECT {', '.join(sums)} FROM v)\n"
            + "\n      UNION ALL".join(arms)
            + "\n      ORDER BY col_a, col_b")


register("lineitem_value_corr", q_lineitem_value_corr, _corr_sql())


# ---------------------------------------------------------------------------
# session overlap peak: interval sweep-line via distributed prefix sums
# ---------------------------------------------------------------------------

_SWEEP_BUCKET_US = 86_400_000_000  # one sweep bucket per day


def q_session_overlap_peak(sf_dir: str) -> pd.DataFrame:
    """Peak CONCURRENT user sessions — the interval-overlap shape: 30-min
    gap sessionization (the `session_intervals` islands), then a
    sweep-line over (+1 at start, -1 at end) endpoints ordered by
    (ts, delta DESC) so boundary-touching sessions count as concurrent.
    Parallel plan (never a global sort): endpoints bucket by calendar
    day; each bucket reports (n_endpoints, total_delta, max_prefix,
    ts at first max) from one bucket-local sorted scan; the driver
    folds the bounded day sequence with the classic two-level
    prefix-sum recombination peak = max_b(offset_b + max_prefix_b).
    TWO skinny exchanges total (user_id % 64, then day); at 1e12-event
    scale shrink the bucket width so per-bucket endpoint counts fit a
    block. Output: one row (n_sessions, peak, peak_ts = earliest
    instant the peak is reached); empty input -> zero rows on both
    sides."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = 30 * 60 * 1_000_000

    def add_ubucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = (b["user_id"] % 64).astype(np.int64)
        return b

    def endpoints(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        if not len(u):
            return pd.DataFrame({"ts": pd.Series([], dtype="int64"),
                                 "delta": pd.Series([], dtype="int64")})
        new_u = np.concatenate([[True], u[1:] != u[:-1]])
        brk = new_u | (np.concatenate([[0], np.diff(ts)]) > gap_us)
        sid = np.cumsum(brk)  # global island id within the bucket
        f = pd.DataFrame({"sid": sid, "ts": ts})
        agg = f.groupby("sid")["ts"].agg(["min", "max"])
        return pd.DataFrame({
            "ts": np.concatenate([agg["min"].to_numpy(np.int64),
                                  agg["max"].to_numpy(np.int64)]),
            "delta": np.concatenate([
                np.ones(len(agg), np.int64),
                -np.ones(len(agg), np.int64)])})

    def add_tbucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__tb"] = (b["ts"] // _SWEEP_BUCKET_US).astype(np.int64)
        return b

    def per_day(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((-g["delta"].to_numpy(np.int64),
                            g["ts"].to_numpy(np.int64)))
        ts = g["ts"].to_numpy(np.int64)[order]
        run = np.cumsum(g["delta"].to_numpy(np.int64)[order])
        imax = int(np.argmax(run))
        return pd.DataFrame({
            "tb": [int(g["__tb"].iloc[0])],
            "n_pts": [len(ts)],
            "total_delta": [int(run[-1])],
            "max_prefix": [int(run[imax])],
            "ts_at_max": [int(ts[imax])]})

    with _scoped_parallelism(64):
        days = ds.map_batches(add_ubucket, batch_format="pandas") \
            .groupby("__bucket") \
            .map_groups(endpoints, batch_format="pandas") \
            .map_batches(add_tbucket, batch_format="pandas") \
            .groupby("__tb").map_groups(per_day, batch_format="pandas") \
            .to_pandas()
    if days.empty:
        return _empty_typed(n_sessions="int64", peak="int64",
                            peak_ts="datetime64[us]")
    days = days.sort_values("tb").reset_index(drop=True)
    offset = 0
    peak, peak_ts = None, None
    for _, row in days.iterrows():
        cand = offset + int(row["max_prefix"])
        if peak is None or cand > peak:
            peak, peak_ts = cand, int(row["ts_at_max"])
        offset += int(row["total_delta"])
    n_sessions = int(days["n_pts"].sum()) // 2
    return pd.DataFrame({
        "n_sessions": pd.Series([n_sessions], dtype="int64"),
        "peak": pd.Series([peak], dtype="int64"),
        "peak_ts": pd.Series([peak_ts], dtype="int64")
        .astype("datetime64[us]")})


register("session_overlap_peak", q_session_overlap_peak, """
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
      FROM o),
    sess AS (
      SELECT user_id, sid, MIN(ts) AS st, MAX(ts) AS en
      FROM s GROUP BY user_id, sid),
    pts AS (
      SELECT st AS ts, 1 AS delta FROM sess
      UNION ALL
      SELECT en AS ts, -1 AS delta FROM sess),
    run AS (
      SELECT ts,
             SUM(delta) OVER (ORDER BY ts, delta DESC
                              ROWS UNBOUNDED PRECEDING) AS c
      FROM pts)
    SELECT CAST((SELECT COUNT(*) FROM sess) AS BIGINT) AS n_sessions,
           CAST(c AS BIGINT) AS peak, ts AS peak_ts
    FROM run WHERE c = (SELECT MAX(c) FROM run)
    ORDER BY ts LIMIT 1""")


# ---------------------------------------------------------------------------
# bigram-LM fluency score: the perplexity-filter shape
# ---------------------------------------------------------------------------


def q_doc_perplexity(sf_dir: str) -> pd.DataFrame:
    """Per-document mean bigram log-probability under the corpus's own
    MLE bigram LM — the perplexity-style fluency filter (the CCNet /
    Gopher quality-screen shape; `unigram_logprob` is its order-1
    sibling). Two streamed passes: (1) bigram counts via per-batch
    value_counts partials (bigram-vocabulary-bounded reduce, the
    `bigram_pmi` exchange scale; left-context totals derive from the
    reduced table — no second corpus pass); (2) the bigram->lp6 map
    broadcasts once (`ray.put` + per-worker cache) and each doc scores
    in a pure map. Exactness: ln(nb/nl) quantizes to the int 1e-6 grid
    on BOTH sides, so a doc's score is an int64 sum over its bigram
    occurrences divided by its bigram count — order-independent.
    Unseen bigrams cannot occur (the LM trains on the same corpus);
    docs with <2 tokens score NULL on both sides."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def big_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        grams = [f"{r[i]} {r[i + 1]}" for r in toks
                 for i in range(len(r) - 1)]
        c = pd.Series(grams, dtype=object).value_counts()
        return pd.DataFrame({"bg": c.index.astype(object),
                             "nb": c.to_numpy(np.int64)})

    vocab = _reduce_partials(
        ds.map_batches(big_counts, batch_format="pandas"),
        ["bg"], ["nb"])
    empty = _empty_typed(doc_id="int64", n_bigrams="int64",
                         logprob="float64")
    if vocab.empty:
        ids = _pq(sf_dir, "documents", ["doc_id"]).to_pandas()
        if ids.empty:
            return empty
        return pd.DataFrame({"doc_id": ids["doc_id"].astype("int64"),
                             "n_bigrams": np.int64(0),
                             "logprob": np.nan}) \
            .sort_values("doc_id").reset_index(drop=True)
    left = vocab["bg"].str.split(" ", n=1).str[0]
    nl = vocab.groupby(left.to_numpy(object))["nb"].transform("sum") \
        .to_numpy(np.int64)
    raw = np.log(vocab["nb"].to_numpy(np.float64)
                 / nl.astype(np.float64)) * 1e6
    lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw).astype(np.int64)
    lut_ref = ray.put(dict(zip(vocab["bg"], lp6)))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lut = _get_broadcast(lut_ref)
        toks = b["text"].fillna("").str.split()
        n = np.maximum(toks.str.len().to_numpy(np.int64) - 1, 0)
        s = np.fromiter(
            (sum(lut[f"{r[i]} {r[i + 1]}"] for i in range(len(r) - 1))
             for r in toks), dtype=np.int64, count=len(toks))
        v = s.astype(np.float64) / np.maximum(n, 1)
        lp = np.where(n > 0,
                      np.copysign(np.floor(np.abs(v) + 0.5), v) / 1e6,
                      np.nan)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "n_bigrams": n, "logprob": lp})

    return ds.map_batches(score, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


register("doc_perplexity", q_doc_perplexity, r"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                                               '\s+'),
                         x -> x <> '') AS t
      FROM documents),
    big AS (
      SELECT doc_id,
             unnest(CASE WHEN len(t) < 2 THEN []
                         ELSE list_transform(range(1, len(t)),
                                             i -> t[i] || ' ' || t[i+1])
                    END) AS bg
      FROM toks),
    bcnt AS (SELECT bg, COUNT(*) AS nb FROM big GROUP BY bg),
    lcnt AS (SELECT split_part(bg, ' ', 1) AS w1,
                    CAST(SUM(nb) AS BIGINT) AS nl
             FROM bcnt GROUP BY 1),
    lp AS (
      SELECT bg,
             CAST(round(ln(CAST(nb AS DOUBLE) / CAST(nl AS DOUBLE))
                        * 1000000) AS BIGINT) AS lp6
      FROM bcnt JOIN lcnt ON split_part(bcnt.bg, ' ', 1) = lcnt.w1),
    per_doc AS (
      SELECT b.doc_id, COUNT(*) AS n_bigrams, SUM(l.lp6) AS s
      FROM big b JOIN lp l USING (bg) GROUP BY b.doc_id)
    SELECT d.doc_id,
           CAST(COALESCE(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
           ROUND(CAST(p.s AS DOUBLE) / p.n_bigrams, 0) / 1000000.0
               AS logprob
    FROM documents d LEFT JOIN per_doc p USING (doc_id)""")


# ---------------------------------------------------------------------------
# ship latency percentiles: fact-fact join + grouped exact percentiles
# ---------------------------------------------------------------------------


def q_ship_latency_percentiles(sf_dir: str) -> pd.DataFrame:
    """Order-to-ship latency SLA report: per order month, exact
    p50/p90/p99 of (l_shipdate - o_orderdate) in days. Plan: lineitem
    joins the skinny (orderkey, orderdate) side through
    ``adaptive_join`` (broadcast under the gate, bucketed above); the
    percentile rides the bounded (month, latency-day) value histogram —
    one skinny reduce, quantiles read off cumulative counts with the
    percentile_disc index rule ``sorted[ceil(n*p)-1]`` — never a global
    sort (the `source_length_quantiles` plan)."""
    from .stages.joins import adaptive_join

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    joined = adaptive_join(li, orders, left_on="l_orderkey",
                           right_on="o_orderkey")
    day = 86_400_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        od = b["o_orderdate"].to_numpy("datetime64[us]")
        lat = (b["l_shipdate"].to_numpy("datetime64[us]")
               .astype(np.int64) // day - od.astype(np.int64) // day)
        return pd.DataFrame({
            "month": od.astype("datetime64[M]").astype("datetime64[us]")
            .astype(np.int64),
            "lat": lat, "cnt": np.int64(1)}) \
            .groupby(["month", "lat"], as_index=False).sum()

    hist = _reduce_partials(
        joined.map_batches(partial, batch_format="pandas"),
        ["month", "lat"], ["cnt"])
    if hist.empty:
        return _empty_typed(month="datetime64[us]", n="int64",
                            p50_days="int64", p90_days="int64",
                            p99_days="int64")
    rows = disc_by_group(hist, "month", "lat", (0.5, 0.9, 0.99))
    out = pd.DataFrame(rows, columns=["month", "n", "p50_days",
                                      "p90_days", "p99_days"]) \
        .sort_values("month").reset_index(drop=True)
    out["month"] = out["month"].astype("datetime64[us]")
    return out.astype({"n": "int64", "p50_days": "int64",
                       "p90_days": "int64", "p99_days": "int64"})


register("ship_latency_percentiles", q_ship_latency_percentiles, """
    WITH j AS (
      SELECT date_trunc('month', o.o_orderdate) AS month,
             date_diff('day', o.o_orderdate, l.l_shipdate) AS lat
      FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey)
    SELECT month, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY lat)
                AS BIGINT) AS p50_days,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY lat)
                AS BIGINT) AS p90_days,
           CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY lat)
                AS BIGINT) AS p99_days
    FROM j GROUP BY month ORDER BY month""")


# ---------------------------------------------------------------------------
# label scatter: within-cluster cohesion over the int8 grid
# ---------------------------------------------------------------------------


def q_label_scatter(sf_dir: str) -> pd.DataFrame:
    """Within-cluster scatter per label — the cluster-cohesion report a
    semantic-dedup / clustering pipeline reads next to
    ``label_centroid_sim`` (between-cluster) and
    ``embedding_norm_stats`` (norm sanity): scatter_l = sum_i ||q_i -
    mu_l||^2 = (n * sum||q||^2 - ||sum q||^2) / n on the shared int8
    quantization grid, so both sides are exact integers until ONE final
    divide. Pure map + label-dimension partial reduce (n, sum q^2, and
    one per-dim component sum column — dims are schema-fixed); the
    numerator recombines in Python big ints (per-row q2 <= dims*127^2
    ~ 1e6 keeps the int64 reduce safe to ~9e12 rows)."""
    ds = _pq(sf_dir, "embeddings", ["label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):  # zero-row block: np.stack needs >= 1 array
            return pd.DataFrame({"label": pd.Series([], dtype="int64"),
                                 "q2": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        ma = np.abs(mat).max(axis=1) if mat.shape[1] else \
            np.zeros(len(mat))
        safe = np.where(ma == 0, 1.0, ma)
        x = (mat * 127.0) / safe[:, None]
        q = np.copysign(np.floor(np.abs(x) + 0.5), x)
        q[ma == 0] = 0.0
        q = q.astype(np.int64)
        f = pd.DataFrame(q, columns=[f"s{i}"
                                     for i in range(q.shape[1])])
        f.insert(0, "label", b["label"].to_numpy(np.int64))
        f["q2"] = (q * q).sum(axis=1)
        f["n"] = np.int64(1)
        return f.groupby("label", as_index=False).sum()

    m = ds.map_batches(partial, batch_format="pandas").materialize()
    if m.count() == 0:
        return _empty_typed(label="int64", n_vecs="int64",
                            sum_norm2="int64", scatter="float64")
    agg = m.to_pandas()
    dim_cols = [c for c in agg.columns if c.startswith("s")]
    agg = agg.groupby("label", as_index=False).sum() \
        .sort_values("label").reset_index(drop=True)
    rows = []
    for _, r in agg.iterrows():
        n, q2 = int(r["n"]), int(r["q2"])
        ss2 = sum(int(r[c]) ** 2 for c in dim_cols)
        num = n * q2 - ss2
        rows.append((int(r["label"]), n, q2,
                     float(num) / np.float64(n)))
    return pd.DataFrame(rows, columns=["label", "n_vecs", "sum_norm2",
                                       "scatter"]) \
        .astype({"label": "int64", "n_vecs": "int64",
                 "sum_norm2": "int64", "scatter": "float64"})


register("label_scatter", q_label_scatter, """
    WITH m AS (
      SELECT vec_id, label, embedding,
             list_max(list_transform(embedding,
                      x -> abs(CAST(x AS DOUBLE)))) AS ma
      FROM embeddings),
    qq AS (
      SELECT vec_id, label,
             unnest(range(1, len(embedding) + 1)) AS i,
             CASE WHEN ma = 0 THEN 0 ELSE
               CAST(round(CAST(unnest(embedding) AS DOUBLE) * 127.0 / ma)
                    AS BIGINT) END AS q
      FROM m),
    dimsum AS (
      SELECT label, i, SUM(q) AS s, SUM(q * q) AS s2
      FROM qq GROUP BY 1, 2),
    lab AS (
      SELECT label, SUM(s * s) AS ss2, SUM(s2) AS sumq2
      FROM dimsum GROUP BY label),
    nn AS (SELECT label, COUNT(*) AS n_vecs FROM embeddings
           GROUP BY label)
    SELECT CAST(nn.label AS BIGINT) AS label,
           CAST(n_vecs AS BIGINT) AS n_vecs,
           CAST(COALESCE(sumq2, 0) AS BIGINT) AS sum_norm2,
           CAST(n_vecs * COALESCE(sumq2, 0) - COALESCE(ss2, 0)
                AS DOUBLE) / CAST(n_vecs AS DOUBLE) AS scatter
    FROM nn LEFT JOIN lab USING (label) ORDER BY nn.label""")


# ---------------------------------------------------------------------------
# reorder gap percentiles: repeat-purchase latency by market segment
# ---------------------------------------------------------------------------


def q_reorder_gap_percentiles(sf_dir: str) -> pd.DataFrame:
    """Repeat-purchase latency: per market segment, exact p50/p90 of the
    per-customer gap (days) between CONSECUTIVE orders — the retention
    diagnostic next to ``retention_cohorts``. Plan: ONE
    ``custkey % 64`` bucket exchange; inside a bucket the gaps are one
    vectorized sorted diff with customer-boundary masking (the
    ``user_sessions`` scan); segments come from the broadcast customer
    dim (sorted-key searchsorted, the fk_audit idiom — ray.put once,
    per-worker cache); percentiles ride the bounded (segment, gap-day)
    histogram with the percentile_disc index rule — never a global
    sort."""
    import pyarrow.parquet as pq
    import ray

    from .stages.joins import _get_broadcast

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"]) \
        .to_pandas().sort_values("c_custkey")
    keys_ref = ray.put(cust["c_custkey"].to_numpy(np.int64))
    seg_ref = ray.put(cust["c_mktsegment"].to_numpy(object))
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                "o_orderkey"])
    day = 86_400_000_000

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = (b["o_custkey"] % 64).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        u = g["o_custkey"].to_numpy(np.int64)
        d = g["o_orderdate"].to_numpy("datetime64[us]") \
            .astype(np.int64) // day
        if not len(u):
            return pd.DataFrame({
                "segment": pd.Series([], dtype=object),
                "gap": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64")})
        same = np.concatenate([[False], u[1:] == u[:-1]])
        gaps = np.concatenate([[0], np.diff(d)])[same]
        cu = u[same]
        keys = _get_broadcast(keys_ref)
        segs = _get_broadcast(seg_ref)
        seg = segs[np.searchsorted(keys, cu)]
        return pd.DataFrame({"segment": seg, "gap": gaps,
                             "cnt": np.int64(1)}) \
            .groupby(["segment", "gap"], as_index=False).sum()

    with _scoped_parallelism(64):
        hist = _reduce_partials(
            ds.map_batches(add_bucket, batch_format="pandas")
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas"),
            ["segment", "gap"], ["cnt"])
    if hist.empty:
        return _empty_typed(segment=object, n="int64",
                            p50_days="int64", p90_days="int64")
    rows = disc_by_group(hist, "segment", "gap", (0.5, 0.9))
    return pd.DataFrame(rows, columns=["segment", "n", "p50_days",
                                       "p90_days"]) \
        .sort_values("segment").reset_index(drop=True) \
        .astype({"n": "int64", "p50_days": "int64", "p90_days": "int64"})


register("reorder_gap_percentiles", q_reorder_gap_percentiles, """
    WITH g AS (
      SELECT o_custkey,
             date_diff('day',
                       lag(o_orderdate) OVER (PARTITION BY o_custkey
                                              ORDER BY o_orderdate,
                                                       o_orderkey),
                       o_orderdate) AS gap
      FROM orders),
    j AS (
      SELECT c.c_mktsegment AS segment, g.gap
      FROM g JOIN customer c ON g.o_custkey = c.c_custkey
      WHERE g.gap IS NOT NULL)
    SELECT segment, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY gap)
                AS BIGINT) AS p50_days,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY gap)
                AS BIGINT) AS p90_days
    FROM j GROUP BY segment ORDER BY segment""")
