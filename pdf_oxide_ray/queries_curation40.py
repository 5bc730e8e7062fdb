"""Round-5i operator family — exact evaluation statistics at corpus
scale:

* `norm_label_auc` — EXACT ROC-AUC of a 1-D score (the SQUARED L2
  embedding norm on the dyadic 2^20 grid — monotone in the norm, so
  the AUC is the norm's AUC, and an exact int64 with NO float
  summation anywhere) predicting the binary label split
  (label >= 5): the Mann-Whitney U fold with MIDRANK tie handling,
  computed from a bounded (score, is_pos) histogram — never a
  global sort, never a sample. The "is this feature predictive"
  eval every curation classifier starts from, done exactly in one
  pass.
* `welch_ttest` — pairwise Welch's unequal-variance t-test between
  every two sources' doc-length (n_chars) distributions: t statistic
  and Welch–Satterthwaite degrees of freedom from per-source int64
  moment sums (n, Σx, Σx²) — the A/B screen a curation owner runs
  after changing a filter ("did source lengths shift?"), next to
  `source_length_ks`'s nonparametric view.

Distributed plans (shuffle budgets — also in SCALE.md):

`norm_label_auc`: per-batch (score6, is_pos) value-count partials ->
ONE reduce bounded by the 1e-6 norm grid; the U fold (cumulative
negatives, 2x-scaled midranks — all int64) is driver math over the
histogram.

`welch_ttest`: per-batch (source, n, Σx, Σx²) int partials -> ONE
dimension-bounded reduce; the pairwise float chain is driver math
over #sources² moment rows.

Exactness: U rides 2x-scaled integers (midrank halves stay
integral); AUC and every t/df are single mirrored float chains over
identical int sums. Degenerate inputs (single class, n < 2 source)
yield NULL/NaN identically. Empty inputs return the twins' shapes.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_AUC_POS_MIN = 5   # label >= 5 is the positive class


# -------------------------------------------------------- norm_label_auc

def q_norm_label_auc(sf_dir: str) -> pd.DataFrame:
    """Exact AUC of the embedding norm predicting label >= 5 —
    module docstring."""
    ds = _pq(sf_dir, "embeddings", ["embedding", "label"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64) \
            if len(b) else np.zeros((0, 1))
        # exact int score: rint to the 2^20 grid (float32 inputs are
        # exact doubles), then an order-free int64 sum of squares
        ints = np.rint(mat * float(1 << 20)).astype(np.int64)
        s6 = (ints * ints).sum(1)
        pos = (b["label"].to_numpy(np.int64) >= _AUC_POS_MIN) \
            .astype(np.int64)
        return pd.DataFrame({"s6": s6, "pos": pos, "cnt": np.int64(1)})

    h = sum_by(ds.map_batches(part, batch_format="pandas"),
               ["s6", "pos"], ["cnt"])
    if h.empty:
        return _empty_typed(n_pos="int64", n_neg="int64",
                            auc="float64")
    piv = h.pivot_table(index="s6", columns="pos", values="cnt",
                        aggfunc="sum", fill_value=0) \
        .reindex(columns=[0, 1], fill_value=0).sort_index()
    n0 = piv[0].to_numpy(np.int64)
    n1 = piv[1].to_numpy(np.int64)
    n_neg, n_pos = int(n0.sum()), int(n1.sum())
    cum0_below = np.concatenate([[np.int64(0)],
                                 np.cumsum(n0)[:-1]])
    # 2x-scaled U: each positive at a distinct score beats all lower
    # negatives (x2) and half-ties the equal negatives (x1)
    u2 = int((n1 * (2 * cum0_below + n0)).sum())
    auc = (float(u2) / (2.0 * float(n_pos) * float(n_neg))
           if n_pos and n_neg else np.nan)
    return pd.DataFrame({
        "n_pos": pd.Series([n_pos], dtype="int64"),
        "n_neg": pd.Series([n_neg], dtype="int64"),
        "auc": [auc]})


register("norm_label_auc", q_norm_label_auc, f"""
    WITH comp AS (
      SELECT vec_id, label,
             CAST(round_even(CAST(x AS DOUBLE) * 1048576.0, 0)
                  AS BIGINT) AS xi
      FROM (SELECT vec_id, label, unnest(embedding) AS x
            FROM embeddings)),
    sc AS (
      SELECT CAST(SUM(xi * xi) AS BIGINT) AS s6,
             CASE WHEN label >= {_AUC_POS_MIN} THEN 1 ELSE 0 END
               AS pos
      FROM comp GROUP BY vec_id, label),
    h AS (SELECT s6,
                 CAST(SUM(CASE WHEN pos = 0 THEN 1 ELSE 0 END)
                      AS BIGINT) AS n0,
                 CAST(SUM(pos) AS BIGINT) AS n1
          FROM sc GROUP BY s6),
    c AS (SELECT s6, n0, n1,
                 CAST(coalesce(SUM(n0) OVER (ORDER BY s6
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS BIGINT) AS cum0
          FROM h),
    agg AS (
      SELECT CAST(SUM(n1) AS BIGINT) AS n_pos,
             CAST(SUM(n0) AS BIGINT) AS n_neg,
             CAST(SUM(n1 * (2 * cum0 + n0)) AS BIGINT) AS u2
      FROM c)
    SELECT n_pos, n_neg,
           CASE WHEN n_pos > 0 AND n_neg > 0
                THEN CAST(CAST(u2 AS VARCHAR) AS DOUBLE)
                     / (2.0 * CAST(n_pos AS DOUBLE)
                        * CAST(n_neg AS DOUBLE))
           END AS auc
    FROM agg""")


# ------------------------------------------------------------ welch_ttest

def q_welch_ttest(sf_dir: str) -> pd.DataFrame:
    """Pairwise Welch's t over source doc lengths — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        x = b["n_chars"].to_numpy(np.int64)
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n": np.int64(1), "sx": x,
                             "sxx": x * x})

    g = sum_by(ds.map_batches(part, batch_format="pandas"),
               ["source"], ["n", "sx", "sxx"])
    empty = _empty_typed(source_a=object, source_b=object,
                         n_a="int64", n_b="int64", t_stat="float64",
                         df="float64")
    if g.empty:
        return empty
    g = g.sort_values("source").reset_index(drop=True)
    rows = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            a, b_ = g.iloc[i], g.iloc[j]
            na, nb = int(a["n"]), int(b_["n"])
            if na > 1 and nb > 1:
                ma = float(a["sx"]) / na
                mb = float(b_["sx"]) / nb
                va = (float(a["sxx"]) - float(a["sx"])
                      * float(a["sx"]) / na) / (na - 1)
                vb = (float(b_["sxx"]) - float(b_["sx"])
                      * float(b_["sx"]) / nb) / (nb - 1)
                sea = va / na
                seb = vb / nb
                se = sea + seb
                if se > 0:
                    t = (ma - mb) / np.sqrt(se)
                    df = (se * se) / (sea * sea / (na - 1)
                                      + seb * seb / (nb - 1))
                else:
                    t, df = np.nan, np.nan
            else:
                t, df = np.nan, np.nan
            rows.append((a["source"], b_["source"], na, nb, t, df))
    return pd.DataFrame(rows, columns=["source_a", "source_b",
                                       "n_a", "n_b", "t_stat",
                                       "df"]) \
        .astype({"n_a": "int64", "n_b": "int64"})


register("welch_ttest", q_welch_ttest, """
    WITH m AS (
      SELECT source, CAST(count(*) AS BIGINT) AS n,
             CAST(SUM(n_chars) AS BIGINT) AS sx,
             CAST(SUM(n_chars * n_chars) AS BIGINT) AS sxx
      FROM documents GROUP BY source),
    p AS (
      SELECT a.source AS source_a, b.source AS source_b,
             a.n AS na, b.n AS nb,
             CAST(a.sx AS DOUBLE) / a.n AS ma,
             CAST(b.sx AS DOUBLE) / b.n AS mb,
             CASE WHEN a.n > 1 THEN
               (CAST(a.sxx AS DOUBLE) - CAST(a.sx AS DOUBLE)
                * CAST(a.sx AS DOUBLE) / a.n) / (a.n - 1) END AS va,
             CASE WHEN b.n > 1 THEN
               (CAST(b.sxx AS DOUBLE) - CAST(b.sx AS DOUBLE)
                * CAST(b.sx AS DOUBLE) / b.n) / (b.n - 1) END AS vb
      FROM m a JOIN m b ON a.source < b.source),
    s AS (
      SELECT *, va / na AS sea, vb / nb AS seb FROM p)
    SELECT source_a, source_b, na AS n_a, nb AS n_b,
           CASE WHEN na > 1 AND nb > 1 AND sea + seb > 0
                THEN (ma - mb) / sqrt(sea + seb) END AS t_stat,
           CASE WHEN na > 1 AND nb > 1 AND sea + seb > 0
                THEN ((sea + seb) * (sea + seb))
                     / (sea * sea / (na - 1) + seb * seb / (nb - 1))
           END AS df
    FROM s ORDER BY source_a, source_b""")
