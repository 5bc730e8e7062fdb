"""Round-4e training-data curation family — the sketch / packing /
tokenizer-diagnostics shapes a 100 TB pretraining pipeline runs
alongside the exact censuses:

* `kmv_distinct`        — K-Minimum-Values distinct-user sketch per
  event type (k = 64): the mergeable cardinality estimator that
  replaces an exact distinct census when the answer only needs to be
  ~12 %-accurate — and, because KMV is DETERMINISTIC given the hash,
  it has a bit-exact DuckDB twin (unlike HLL).
* `padding_waste`       — sequence-packing efficiency report over
  64-token length buckets: per bucket, the docs / tokens / pad-waste /
  efficiency a fixed-shape training batcher would see — the planning
  table `pack_blocks` consumes.
* `token_fertility`     — tokens-per-character ratio per language:
  the tokenizer-diagnostics number that flags languages the tokenizer
  fragments (high fertility = more tokens per char = costlier).
* `curriculum_schedule` — exact difficulty deciles (mean token length
  on the 1e-6 int grid) with a deterministic 4-epoch introduction
  schedule: the curriculum-ordering planning table, deciles via the
  bounded-histogram percentile rule — never a global sort.

Shuffle budget (SCALE.md doctrine): kmv_distinct moves only k-bounded
(type, hash) partials (≤ 64 rows per type per block) through a
two-level fold — never the user column; padding_waste and
token_fertility are dimension-bounded count partials through ONE
reduce; curriculum_schedule's histogram lives on the 1e-6 mean-length
grid (corpus-size-free: the grid is bounded by max mean token length,
~2e7 cells) and both the thresholds AND the decile fold read off that
histogram — the corpus is scanned exactly once.

Exactness: integer partials recombine in Python big ints where a
100 TB corpus could wrap (documented per query); ratio columns divide
identical integers in the twin's operand order; quantized values ride
`_halfaway6` (DuckDB round(), half-away). Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .ops import exchange as _xc
from .ops.exchange import sum_by
from .ops.quantile import disc_pick, disc_rank
from .queries import _empty_typed, _pq, register


_TOKENS_SQL = (r"list_filter(regexp_split_to_array("
               r"coalesce(text, ''), '\s+'), x -> x <> '')")

# ---------------------------------------------------------------------------
# kmv_distinct: K-Minimum-Values cardinality sketch per event type
# ---------------------------------------------------------------------------

_KMV_K = 64


def _kmv_fold(frames: list[pd.DataFrame]) -> pd.DataFrame:
    """Associative KMV merge: distinct-union the (type, hash) rows,
    keep the k smallest hashes per type."""
    f = pd.concat(frames, ignore_index=True).drop_duplicates()
    f = f.sort_values(["event_type", "h"], kind="mergesort")
    return f.groupby("event_type", as_index=False).head(_KMV_K)


def q_kmv_distinct(sf_dir: str) -> pd.DataFrame:
    """KMV (bottom-k) distinct-user estimate per event type, k = 64:
    keep the 64 smallest md5(user_id) values per type; if a type holds
    fewer than k distinct hashes the count is EXACT, else the estimator
    is (k−1)·16^12 / h48 where h48 is the k-th smallest hash's first
    12 hex nibbles — deterministic given the hash, hence bit-exact
    against the twin (standard error ≈ 1/√(k−2) ≈ 12.7 %).

    Distributed shape: per-batch partials carry ≤ k rows per type (the
    k smallest distinct hashes in that batch) — the user column never
    moves. Below the reduce gate the k-bounded partials fold on the
    driver; above it ONE repartition pass pre-folds disjoint partial
    groups (each output block again ≤ k rows per type) before the
    driver's final fold — a two-level combiner tree, ≤ 64·types rows
    at every level's output. Exactness: hex strings compare
    lexicographically = numerically (fixed width); (63·16^12) is an
    exact double and h48 < 2^48 is exactly representable, so the one
    division is bit-identical; h48 = 0 (probability 2^-48 per type)
    yields NULL in the twin and NaN here — both hash to the empty CSV
    cell."""
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        f = pd.DataFrame({"event_type": b["event_type"],
                          "user_id": b["user_id"]}).dropna() \
            .drop_duplicates()
        if f.empty:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "h": pd.Series([], dtype=object)})
        uid = f["user_id"].astype(np.int64).astype(str)
        f = pd.DataFrame({
            "event_type": f["event_type"].to_numpy(object),
            "h": [hashlib.md5(s.encode()).hexdigest() for s in uid]})
        f = f.sort_values(["event_type", "h"], kind="mergesort")
        return f.groupby("event_type", as_index=False).head(_KMV_K)

    parts = ds.map_batches(partial, batch_format="pandas").materialize()
    n = parts.count()
    empty = _empty_typed(event_type=object, k_used="int64",
                         kth_hash=object, est_distinct="float64")
    if n == 0:
        return empty
    if n > _xc.GATE_ROWS:
        # two-level combiner: concatenate partial blocks and pre-fold,
        # so the driver sees <= 64·types rows per folded block
        parts = parts.repartition(32).map_batches(
            lambda b: _kmv_fold([b]), batch_format="pandas")
    held = _kmv_fold([parts.to_pandas()])
    rows = []
    for etype, g in held.groupby("event_type", sort=True):
        k_used = len(g)
        kth = g["h"].iloc[-1]
        if k_used >= _KMV_K:
            h48 = int(kth[:12], 16)
            est = (np.float64(63.0) * np.float64(281474976710656.0)
                   / np.float64(h48)) if h48 else np.nan
        else:
            est = np.float64(k_used)
        rows.append((etype, k_used, kth, float(est)))
    return pd.DataFrame(rows, columns=["event_type", "k_used",
                                       "kth_hash", "est_distinct"]) \
        .astype({"k_used": "int64"})


register("kmv_distinct", q_kmv_distinct, """
    WITH du AS (
      SELECT DISTINCT event_type,
             md5(CAST(user_id AS VARCHAR)) AS h
      FROM events WHERE user_id IS NOT NULL),
    ranked AS (
      SELECT event_type, h,
             ROW_NUMBER() OVER (PARTITION BY event_type
                                ORDER BY h) AS r
      FROM du),
    agg AS (SELECT event_type, COUNT(*) AS nd FROM du GROUP BY 1)
    SELECT a.event_type,
           CAST(LEAST(a.nd, 64) AS BIGINT) AS k_used,
           r.h AS kth_hash,
           CASE WHEN a.nd >= 64
                THEN (CAST(63 AS DOUBLE) * 281474976710656.0)
                     / CAST(CAST(concat('0x', substr(r.h, 1, 12))
                                 AS BIGINT) AS DOUBLE)
                ELSE CAST(a.nd AS DOUBLE) END AS est_distinct
    FROM agg a JOIN ranked r
      ON r.event_type = a.event_type AND r.r = LEAST(a.nd, 64)
    ORDER BY a.event_type""")


# ---------------------------------------------------------------------------
# padding_waste: sequence-packing efficiency over 64-token buckets
# ---------------------------------------------------------------------------


def q_padding_waste(sf_dir: str) -> pd.DataFrame:
    """Per 64-token length bucket: docs, tokens, pad-to-cap waste and
    packing efficiency a fixed-shape batcher padding every doc in the
    bucket to cap = 64·(bucket+1) would see — the planning table that
    decides whether `pack_blocks`-style concatenation is worth it.

    Distributed shape: per-batch (bucket, n, tok) partials through ONE
    dimension-bounded reduce (buckets ≤ max_tokens/64); the final
    waste/efficiency math runs on the driver's bucket frame in Python
    big ints (n·cap wraps int64 only past ~9e16 doc·tokens per bucket;
    the twin's HUGEINT SUM never wraps). Efficiency divides the same
    integers in the twin's operand order (tok / (n·cap)); zero-token
    docs are excluded on BOTH sides (the twin's WHERE n_tok >= 1)."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n_tok = ftext.token_count_ws(b["text"]).to_numpy(np.int64)
        n_tok = n_tok[n_tok >= 1]
        if n_tok.size == 0:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64"),
                                 "tok": pd.Series([], dtype="int64")})
        return pd.DataFrame({"bucket": (n_tok - 1) // 64,
                             "n": np.int64(1), "tok": n_tok})

    agg = sum_by(ds.map_batches(partial, batch_format="pandas"),
                 ["bucket"], ["n", "tok"])
    empty = _empty_typed(bucket="int64", cap="int64", n_docs="int64",
                         sum_tokens="int64", waste="int64",
                         efficiency="float64")
    if agg.empty:
        return empty
    rows = []
    for _, r in agg.sort_values("bucket").iterrows():
        bucket, n, tok = int(r["bucket"]), int(r["n"]), int(r["tok"])
        cap = 64 * (bucket + 1)
        denom = n * cap
        rows.append((bucket, cap, n, tok, denom - tok,
                     float(np.float64(tok) / np.float64(denom))))
    return pd.DataFrame(rows, columns=["bucket", "cap", "n_docs",
                                       "sum_tokens", "waste",
                                       "efficiency"]) \
        .astype({"bucket": "int64", "cap": "int64", "n_docs": "int64",
                 "sum_tokens": "int64", "waste": "int64"})


register("padding_waste", q_padding_waste, f"""
    WITH t AS (
      SELECT CAST(length({_TOKENS_SQL}) AS BIGINT) AS n_tok
      FROM documents),
    f AS (SELECT (n_tok - 1) // 64 AS bucket, n_tok
          FROM t WHERE n_tok >= 1)
    SELECT bucket, CAST(64 * (bucket + 1) AS BIGINT) AS cap,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(n_tok) AS BIGINT) AS sum_tokens,
           CAST(COUNT(*) * 64 * (bucket + 1) - SUM(n_tok)
                AS BIGINT) AS waste,
           CAST(SUM(n_tok) AS DOUBLE)
             / CAST(COUNT(*) * 64 * (bucket + 1) AS DOUBLE)
             AS efficiency
    FROM f GROUP BY bucket ORDER BY bucket""")


# ---------------------------------------------------------------------------
# token_fertility: tokens-per-character ratio per language
# ---------------------------------------------------------------------------


def q_token_fertility(sf_dir: str) -> pd.DataFrame:
    """Tokens-per-character fertility per language — high fertility
    means the whitespace tokenizer fragments that language into more,
    shorter tokens (the diagnostic that decides per-lang token budgets
    in `token_budget_epochs`).

    Distributed shape: per-batch (lang, n, tok, chars) partials through
    ONE dimension-bounded reduce; the driver recombines in Python big
    ints (Σ chars per lang passes 9e18 only past ~10 PB of one
    language; the twin's HUGEINT never wraps). fertility divides the
    identical integer sums (tok / chars, the twin's operand order);
    an all-empty-text language yields NULL in the twin and NaN here."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": b["lang"].to_numpy(object),
            "n": np.int64(1),
            "tok": ftext.token_count_ws(b["text"]).to_numpy(np.int64),
            "chars": b["n_chars"].to_numpy(np.int64)})

    agg = sum_by(ds.map_batches(partial, batch_format="pandas"),
                 ["lang"], ["n", "tok", "chars"])
    empty = _empty_typed(lang=object, n_docs="int64",
                         total_tokens="int64", total_chars="int64",
                         fertility="float64")
    if agg.empty:
        return empty
    rows = []
    for _, r in agg.sort_values("lang").iterrows():
        tok, chars = int(r["tok"]), int(r["chars"])
        fert = (float(np.float64(tok) / np.float64(chars))
                if chars else np.nan)
        rows.append((r["lang"], int(r["n"]), tok, chars, fert))
    return pd.DataFrame(rows, columns=["lang", "n_docs", "total_tokens",
                                       "total_chars", "fertility"]) \
        .astype({"n_docs": "int64", "total_tokens": "int64",
                 "total_chars": "int64", "fertility": "float64"})


register("token_fertility", q_token_fertility, f"""
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(length({_TOKENS_SQL})) AS BIGINT) AS total_tokens,
           CAST(SUM(n_chars) AS BIGINT) AS total_chars,
           CASE WHEN SUM(n_chars) = 0 THEN NULL
                ELSE CAST(SUM(length({_TOKENS_SQL})) AS DOUBLE)
                     / CAST(SUM(n_chars) AS DOUBLE) END AS fertility
    FROM documents GROUP BY lang ORDER BY lang""")


# ---------------------------------------------------------------------------
# curriculum_schedule: difficulty deciles + epoch introduction plan
# ---------------------------------------------------------------------------


def q_curriculum_schedule(sf_dir: str) -> pd.DataFrame:
    """Exact difficulty deciles over mean token length (the cheap
    easy-to-hard proxy: longer average tokens = rarer words = harder)
    with a deterministic 4-epoch curriculum: decile d enters training
    at epoch (d−1)//3 + 1, so epoch 1 trains on the easiest 30 %,
    epoch 4 adds the hardest 10 %. Value-based deciles (the
    percentile_disc index rule sorted[ceil(n·p)−1]), NOT row-number
    ntiles — ties land deterministically in the same bucket on both
    sides.

    Distributed shape: ONE corpus scan — per-doc difficulty quantizes
    to the 1e-6 int grid (`_halfaway6`, the twin's round()) and
    per-batch (t6, cnt) histogram partials ride one bounded reduce;
    the grid is bounded by the max mean token length (~2e7 cells),
    corpus-size-free. Both the 9 thresholds AND the decile fold read
    off the driver's histogram — no second pass, no global sort.
    Σ t6·cnt recombines in Python big ints (the twin's HUGEINT);
    mean_difficulty divides identical integers in the twin's operand
    order (sum / n / 1e6); zero-token docs are excluded on both
    sides."""
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # leaf-module import: never resolves a sibling queries_* module
        # mid-initialization when a worker deserializes this closure
        from .functions.textops import halfaway6 as _halfaway6

        s = b["text"].fillna("").str.split()
        n_tok = s.str.len().to_numpy(np.int64)
        keep = n_tok > 0
        if not keep.any():
            return pd.DataFrame({"t6": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        ex = s[keep].explode()
        sum_len = ex.str.len().groupby(level=0).sum() \
            .to_numpy(np.float64)
        raw = sum_len / n_tok[keep].astype(np.float64)
        t6 = _halfaway6(raw)
        return pd.DataFrame({"t6": t6.astype(np.int64), "cnt": np.int64(1)})

    hist = sum_by(ds.map_batches(partial, batch_format="pandas"),
                  ["t6"], ["cnt"])
    empty = _empty_typed(decile="int64", intro_epoch="int64",
                         n_docs="int64", mean_difficulty="float64")
    if hist.empty:
        return empty
    hist = hist.sort_values("t6").reset_index(drop=True)
    vals = hist["t6"].to_numpy(np.int64)
    cnt = hist["cnt"].to_numpy(np.int64)
    cum = cnt.cumsum()
    n = int(cum[-1])
    thr = [disc_pick(vals, cum, disc_rank(n, p))
           for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    decile = np.int64(1) + sum((vals > t).astype(np.int64) for t in thr)
    out = []
    for d in sorted(set(decile.tolist())):
        m = decile == d
        nd = int(cnt[m].sum())
        s6 = sum(int(v) * int(c) for v, c in zip(vals[m], cnt[m]))
        out.append((d, (d - 1) // 3 + 1, nd,
                    float(np.float64(s6) / np.float64(nd)) / 1e6))
    return pd.DataFrame(out, columns=["decile", "intro_epoch", "n_docs",
                                      "mean_difficulty"]) \
        .astype({"decile": "int64", "intro_epoch": "int64",
                 "n_docs": "int64"})


register("curriculum_schedule", q_curriculum_schedule, f"""
    WITH tok AS (
      SELECT doc_id, unnest({_TOKENS_SQL}) AS token FROM documents),
    d AS (
      SELECT doc_id,
             CAST(round(CAST(SUM(length(token)) AS DOUBLE)
                        / CAST(COUNT(*) AS DOUBLE) * 1000000)
                  AS BIGINT) AS t6
      FROM tok GROUP BY doc_id),
    thr AS (
      SELECT percentile_disc(0.1) WITHIN GROUP (ORDER BY t6) AS p1,
             percentile_disc(0.2) WITHIN GROUP (ORDER BY t6) AS p2,
             percentile_disc(0.3) WITHIN GROUP (ORDER BY t6) AS p3,
             percentile_disc(0.4) WITHIN GROUP (ORDER BY t6) AS p4,
             percentile_disc(0.5) WITHIN GROUP (ORDER BY t6) AS p5,
             percentile_disc(0.6) WITHIN GROUP (ORDER BY t6) AS p6,
             percentile_disc(0.7) WITHIN GROUP (ORDER BY t6) AS p7,
             percentile_disc(0.8) WITHIN GROUP (ORDER BY t6) AS p8,
             percentile_disc(0.9) WITHIN GROUP (ORDER BY t6) AS p9
      FROM d),
    b AS (
      SELECT 1 + CAST(t6 > p1 AS BIGINT) + CAST(t6 > p2 AS BIGINT)
               + CAST(t6 > p3 AS BIGINT) + CAST(t6 > p4 AS BIGINT)
               + CAST(t6 > p5 AS BIGINT) + CAST(t6 > p6 AS BIGINT)
               + CAST(t6 > p7 AS BIGINT) + CAST(t6 > p8 AS BIGINT)
               + CAST(t6 > p9 AS BIGINT) AS decile, t6
      FROM d, thr)
    SELECT decile, CAST((decile - 1) // 3 + 1 AS BIGINT) AS intro_epoch,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(t6) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
             / 1000000.0 AS mean_difficulty
    FROM b GROUP BY decile ORDER BY decile""")
