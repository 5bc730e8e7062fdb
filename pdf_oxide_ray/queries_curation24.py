"""Round-4y operator family — training-stream hygiene + release ops:

* `shuffle_autocorr` — shuffle-quality audit of the deterministic
  training order (`deterministic_shuffle`'s md5(doc_id) rank): per
  source, how many ADJACENT positions in the global stream are
  same-source, vs the expected pair count n(n−1)/N for an ideal
  shuffle, and their ratio (clump_ratio ≈ 1 means the stream is
  well-mixed; >> 1 means source-run clumping that biases training).
* `dp_source_counts` — differentially-private per-source doc counts:
  Laplace(b=10) noise from a SEEDED md5-derived uniform (the
  `mixture_sample` hex-cast idiom), inverse-CDF sampled — the
  data-card release op when per-source counts are sensitive.
  Deterministic by construction, so the twin is bit-exact; noisy
  counts land on the 1e-6 round grid.
* `quality_dup_lift` — curation calibration: quality-score deciles
  (exact percentile_disc thresholds off the bounded score histogram)
  × exact-text duplicate rate — "are my low-quality docs also my
  duplicates" (if yes, dedup subsumes part of the quality cut).
  Same-text docs score identically, so a text group lives in ONE
  decile and the join is a single skinny exchange.

Distributed plans (shuffle budgets — also in SCALE.md):

`shuffle_autocorr`: the proven sorted-batch boundary-stitch ordered
plan (`debounce_census`): ONE range-partitioned sort of the skinny
(source, md5key, doc_id) projection; in-batch adjacency is one
vectorized shift-compare; 2 boundary rows per batch; the driver runs
one seam test per batch pair. Totals are (source, n) partials → ONE
dimension-bounded reduce.

`dp_source_counts`: per-batch (source, n) partials → ONE
source-bounded reduce; noise is pure per-source hash math on the
dimension-sized driver frame.

`quality_dup_lift`: pass 1 = the bounded score-value histogram
(scores are low-cardinality rationals — the `quality_filter` plan)
→ 9 disc-rule thresholds; pass 2 = per-batch (content_hash, decile)
partials → ONE skinny hash exchange (the `dedup_exact` shape; text
never crosses), folded to a 10-row decile table.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .ops.ordered import ordered_pass
from .ops.quantile import disc_pick, disc_rank
from .queries import _empty_typed, _pq, register


_DP_B = 10.0          # Laplace scale (counts at epsilon = 0.1)
_DP_EPS_CLAMP = 2.220446049250313e-16  # guard ln(0) at u ∈ {0, 1}
_POW52 = 4503599627370496.0            # 2^52


# ----------------------------------------------------- shuffle_autocorr

def q_shuffle_autocorr(sf_dir: str) -> pd.DataFrame:
    """Per-source adjacent-same-source census of the md5 training
    order — module docstring."""
    ds = _pq(sf_dir, "documents", ["doc_id", "source"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "key": [hashlib.md5(str(i).encode()).hexdigest()
                    for i in ids],
            "doc_id": ids,
            "source": b["source"].to_numpy(object)})

    key = ["key", "doc_id"]
    srt = ds.map_batches(keyed, batch_format="pandas").sort(key)

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        src = b["source"].to_numpy(object)
        same = np.concatenate(([False], src[1:] == src[:-1]))
        return pd.DataFrame({"source": src,
                             "n_docs": np.int64(1),
                             "n_adj": same.astype(np.int64)}) \
            .groupby("source", as_index=False).sum()

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        return ({"src": b["source"].iloc[0]},
                {"src": b["source"].iloc[-1]})

    folds, first, last = ordered_pass(srt, key, fold, edge)
    empty = _empty_typed(source=object, n_docs="int64", n_adj="int64",
                         exp_pairs="float64", clump_ratio="float64")
    if folds.empty:
        return empty
    agg = folds.groupby("source", as_index=False)[["n_docs", "n_adj"]] \
        .sum()
    stats = {s: [int(n), int(a)] for s, n, a
             in zip(agg["source"], agg["n_docs"], agg["n_adj"])}
    # one seam test per adjacent batch pair
    for a, b_ in zip(last["src"].to_numpy(object)[:-1],
                     first["src"].to_numpy(object)[1:]):
        if a == b_:
            stats[b_][1] += 1
    total = sum(v[0] for v in stats.values())
    out_rows = []
    for s in sorted(stats):
        n, adj = stats[s]
        exp = float(n * (n - 1)) / float(total)
        ratio = float(adj) / exp if n > 1 else np.nan
        out_rows.append((s, n, adj, exp, ratio))
    return pd.DataFrame(out_rows,
                        columns=["source", "n_docs", "n_adj",
                                 "exp_pairs", "clump_ratio"]) \
        .astype({"n_docs": "int64", "n_adj": "int64"})


register("shuffle_autocorr", q_shuffle_autocorr, """
    WITH o AS (
      SELECT source,
             LAG(source) OVER (
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS prev
      FROM documents),
    a AS (SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(SUM(CASE WHEN prev = source THEN 1 ELSE 0 END)
                      AS BIGINT) AS n_adj
          FROM o GROUP BY source),
    t AS (SELECT CAST(SUM(n_docs) AS BIGINT) AS nn FROM a),
    e AS (SELECT source, n_docs, n_adj,
                 CAST(CAST(CAST(n_docs AS HUGEINT) * (n_docs - 1)
                           AS VARCHAR) AS DOUBLE)
                   / (SELECT nn FROM t) AS exp_pairs
          FROM a)
    SELECT source, n_docs, n_adj, exp_pairs,
           CASE WHEN n_docs > 1
                THEN CAST(n_adj AS DOUBLE) / exp_pairs END
             AS clump_ratio
    FROM e ORDER BY source""")


# ----------------------------------------------------- dp_source_counts

def q_dp_source_counts(sf_dir: str) -> pd.DataFrame:
    """Seeded-Laplace DP release of per-source doc counts — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["source"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n": np.int64(1)})

    p = sum_by(ds.map_batches(parts, batch_format="pandas"),
               ["source"], ["n"])
    empty = _empty_typed(source=object, n_true="int64",
                         n_noisy6="float64")
    if p.empty:
        return empty
    rows = []
    for s, n in zip(p["source"], p["n"]):
        u = int(hashlib.md5(f"dp:{s}".encode()).hexdigest()[:13],
                16) / _POW52
        x = u - 0.5
        noise = (-_DP_B * np.sign(x)
                 * np.log(np.maximum(1.0 - 2.0 * np.abs(x),
                                     _DP_EPS_CLAMP)))
        v = (float(int(n)) + noise) * 1e6
        noisy6 = float(np.copysign(np.floor(np.abs(v) + 0.5), v)
                       / 1e6)
        rows.append((s, int(n), noisy6))
    return pd.DataFrame(rows, columns=["source", "n_true",
                                       "n_noisy6"]) \
        .astype({"n_true": "int64"}) \
        .sort_values("source").reset_index(drop=True)


register("dp_source_counts", q_dp_source_counts, f"""
    WITH a AS (SELECT source, CAST(count(*) AS BIGINT) AS n
               FROM documents GROUP BY source),
    u AS (SELECT source, n,
                 CAST(('0x' || substr(md5('dp:' || source), 1, 13))
                      ::UBIGINT AS DOUBLE) / {_POW52!r} - 0.5 AS x
          FROM a)
    SELECT source, n AS n_true,
           round((CAST(n AS DOUBLE)
                  + -{_DP_B!r} * sign(x)
                    * ln(greatest(1.0 - 2.0 * abs(x),
                                  {_DP_EPS_CLAMP!r})))
                 * 1000000) / 1000000.0 AS n_noisy6
    FROM u ORDER BY source""")


# ----------------------------------------------------- quality_dup_lift

def q_quality_dup_lift(sf_dir: str) -> pd.DataFrame:
    """Quality-decile × exact-dup-rate calibration — module
    docstring."""
    from .functions import dedup as fdedup
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["text"])

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "q": ftext.quality_score(b["text"]).to_numpy(np.float64),
            "cnt": np.int64(1)})

    h = sum_by(ds.map_batches(hist, batch_format="pandas"),
               ["q"], ["cnt"]).sort_values("q")
    empty = _empty_typed(decile="int64", n_docs="int64",
                         n_dups="int64", dup_rate="float64")
    if h.empty:
        return empty
    cum = h["cnt"].cumsum().to_numpy()
    n = int(cum[-1])
    qv = h["q"].to_numpy(np.float64)
    thr = np.array([disc_pick(qv, cum, disc_rank(n, k / 10))
                    for k in range(1, 10)], dtype=np.float64)

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        q = ftext.quality_score(b["text"]).to_numpy(np.float64)
        dec = (q[:, None] >= thr[None, :]).sum(axis=1) \
            .astype(np.int64)
        return pd.DataFrame({
            "h": fdedup.content_hash(b["text"]).to_numpy(object),
            "decile": dec, "c": np.int64(1)})

    per_hash = sum_by(
        ds.map_batches(parts, batch_format="pandas"),
        ["h", "decile"], ["c"])
    m = per_hash["c"].to_numpy(np.int64)
    out = pd.DataFrame({
        "decile": per_hash["decile"].to_numpy(np.int64),
        "n_docs": m,
        "n_dups": np.where(m > 1, m, 0)}) \
        .groupby("decile", as_index=False).sum()
    out["dup_rate"] = out["n_dups"].to_numpy(np.float64) \
        / out["n_docs"].to_numpy(np.float64)
    return out.astype({"decile": "int64", "n_docs": "int64",
                       "n_dups": "int64"}) \
        .sort_values("decile").reset_index(drop=True)


def _quality_dup_oracle_sql() -> str:
    # the quality_filter score chain, with text kept for the dup join
    return r"""
    WITH w AS (
      SELECT text,
             length(list_filter(regexp_split_to_array(text, '\s+'),
                    x -> x <> '')) AS n_tokens,
             length(text) - length(regexp_replace(text, '[.!?,;:]',
                    '', 'g')) AS n_punct,
             list_filter(regexp_split_to_array(lower(text), '\s+'),
                    x -> x <> '') AS words
      FROM documents),
    f AS (
      SELECT text, n_tokens, n_punct,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(len(list_filter(words, x -> list_contains(
                 ['the','and','of','to','a','in','is','that','for','it'],
                 x))) AS DOUBLE) / len(words) END AS stop_ratio,
             CASE WHEN len(words) = 0 THEN 0.0 ELSE
               CAST(list_sum(list_transform(words, x -> length(x)))
                    AS DOUBLE) / len(words) END AS mean_word_len
      FROM w),
    s AS (
      SELECT text,
             0.3 * least(greatest(n_tokens / 50.0, 0.0), 1.0)
             + 0.2 * least(greatest(
                 n_punct / greatest(n_tokens / 10.0, 1.0), 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(stop_ratio - 0.35) / 0.35, 0.0), 1.0)
             + 0.25 * least(greatest(
                 1.0 - abs(mean_word_len - 4.5) / 4.5, 0.0), 1.0)
             AS quality
      FROM f),
    thr AS (
      SELECT quantile_disc(quality, 0.1) AS t1,
             quantile_disc(quality, 0.2) AS t2,
             quantile_disc(quality, 0.3) AS t3,
             quantile_disc(quality, 0.4) AS t4,
             quantile_disc(quality, 0.5) AS t5,
             quantile_disc(quality, 0.6) AS t6,
             quantile_disc(quality, 0.7) AS t7,
             quantile_disc(quality, 0.8) AS t8,
             quantile_disc(quality, 0.9) AS t9
      FROM s),
    b AS (
      SELECT s.text,
             CAST(CASE WHEN quality >= t1 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t2 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t3 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t4 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t5 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t6 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t7 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t8 THEN 1 ELSE 0 END
                + CASE WHEN quality >= t9 THEN 1 ELSE 0 END
                AS BIGINT) AS decile
      FROM s, thr),
    d AS (SELECT decile, COUNT(*) OVER (PARTITION BY text) AS c
          FROM b)
    SELECT decile, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_dups,
           CAST(SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(count(*) AS DOUBLE) AS dup_rate
    FROM d GROUP BY decile ORDER BY decile"""


register("quality_dup_lift", q_quality_dup_lift, _quality_dup_oracle_sql())
