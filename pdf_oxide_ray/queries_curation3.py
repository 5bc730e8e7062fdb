"""Round-4d training-data curation family — the split-integrity and
score-calibration shapes a 100 TB pretraining data release runs last:

* `split_token_kl`        — per-language KL(train ‖ val) over the
  shared-vocabulary unigram distributions of the deterministic
  `split_assign` split: the distribution-drift gate that catches a
  skewed split BEFORE a model is trained on it (`split_contamination`
  is its exact-leakage sibling; this is the soft-drift one).
* `quota_allocation`      — largest-remainder (Hamilton) allocation of
  the global 5 % validation and 5 % test budgets across (lang, source)
  strata: Σ quotas == the global budget EXACTLY, each cell within one
  doc of its proportional share — the stratified-split planning table.
* `rank_normalize_by_source` — corpus-wide cume-dist (quantile)
  normalization of doc length, reported per source: mean normalized
  rank far from 0.5 means the source's length distribution sits in the
  corpus tail — the cross-source score-calibration shape, computed
  WITHOUT a global sort.

Shuffle budget (SCALE.md doctrine): split_token_kl is ONE
vocabulary-keyed exchange of (lang, token, a, b) partials (the
`unigram_logprob` scale — Heaps-law small relative to the corpus);
quota_allocation reduces dimension-bounded (lang, source) count
partials and does all allocation math on the driver's cell frame;
rank_normalize_by_source is TWO streamed passes — a bounded n_chars
value histogram, then a broadcast cumulative-count lookup folded to
source-sized partials — never a global sort, never a corpus-sized
driver frame.

Exactness: counts and rank sums ride int64 partials recombined in
Python big ints where a 100 TB corpus could wrap (documented per
query); every ln() is quantized half-away to the shared 1e-6 int grid
on BOTH sides with the twin's exact operand order; final doubles
divide identical integers. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register
from .functions.textops import TOK_SQL as _TOK_SQL
from .functions.textops import nibble_split, split_sql
from .functions.textops import halfaway6 as _halfaway6


# ---------------------------------------------------------------------------
# split_token_kl: unigram-distribution drift between train and val
# ---------------------------------------------------------------------------


def q_split_token_kl(sf_dir: str) -> pd.DataFrame:
    """Per-language KL(train ‖ val) over shared-vocabulary unigram
    distributions of the deterministic md5-nibble split — the
    split-drift gate: near 0 means the held-out set is distributionally
    representative; large means the split is skewed and eval loss will
    mislead. Restricted to tokens present in BOTH splits (the inner
    join both sides), renormalized within the shared vocabulary.

    Distributed shape: per-batch (lang, token, a, b) count partials
    (a = train occurrences, b = val occurrences) reduce through ONE
    vocabulary-keyed exchange (the ``unigram_logprob`` scale —
    Heaps-law small relative to the corpus); the per-lang fold runs on
    the driver's vocab-bounded frame. Exactness: each token's
    ln((a·B)/(b·A)) is evaluated as (a_f64 · B_f64) / (b_f64 · A_f64)
    — cast-then-multiply, mirrored verbatim in the twin so no int64
    product ever forms — quantized half-away to the 1e-6 grid; the
    Σ a·t6 accumulator recombines in Python big ints (the twin's
    SUM promotes to HUGEINT); KL divides identical integers. Twin-side
    bound: a·t6 stays under BIGINT while per-token train counts are
    < ~3e11 (t6 ≤ ~3e7); DuckDB errors loudly, never wraps."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        split = nibble_split(b["doc_id"])
        keep = split != "test"
        f = pd.DataFrame({
            "lang": b["lang"].to_numpy(object)[keep],
            "token": b["text"].fillna("").str.split()
            .to_numpy(object)[keep],
            "b": (split == "val")[keep].astype(np.int64)})
        f = f.explode("token").dropna(subset=["token"])
        if f.empty:
            return pd.DataFrame({
                "lang": pd.Series([], dtype=object),
                "token": pd.Series([], dtype=object),
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64")})
        return f.assign(a=np.int64(1) - f["b"].to_numpy(np.int64))

    vocab = sum_by(ds.map_batches(partial, batch_format="pandas"),
                   ["lang", "token"], ["a", "b"])
    empty = _empty_typed(lang=object, shared_vocab="int64",
                         train_mass="int64", val_mass="int64",
                         kl="float64")
    if vocab.empty:
        return empty
    shared = vocab[(vocab["a"] > 0) & (vocab["b"] > 0)]
    if shared.empty:
        return empty
    out = []
    for lang, g in shared.groupby("lang"):
        a = g["a"].to_numpy(np.int64)
        b = g["b"].to_numpy(np.int64)
        big_a = int(a.sum())
        big_b = int(b.sum())
        # cast-then-multiply, the twin's operand order verbatim
        raw = np.log((a.astype(np.float64) * np.float64(big_b))
                     / (b.astype(np.float64) * np.float64(big_a)))
        t6 = _halfaway6(raw)
        acc = sum(map(int.__mul__, a.tolist(), t6.tolist()))
        out.append((lang, len(g), big_a, big_b,
                    float(acc) / np.float64(big_a) / 1e6))
    return pd.DataFrame(out, columns=["lang", "shared_vocab",
                                      "train_mass", "val_mass", "kl"]) \
        .astype({"shared_vocab": "int64", "train_mass": "int64",
                 "val_mass": "int64"}) \
        .sort_values("lang").reset_index(drop=True)


register("split_token_kl", q_split_token_kl, f"""
    WITH tagged AS (
      SELECT lang,
             {split_sql('doc_id')} AS split,
             {_TOK_SQL} AS token
      FROM documents),
    c AS (
      SELECT lang, token,
             SUM(CASE WHEN split = 'train' THEN 1 ELSE 0 END) AS a,
             SUM(CASE WHEN split = 'val' THEN 1 ELSE 0 END) AS b
      FROM tagged WHERE split <> 'test' GROUP BY 1, 2),
    shared AS (SELECT * FROM c WHERE a > 0 AND b > 0),
    mass AS (
      SELECT lang, SUM(a) AS big_a, SUM(b) AS big_b,
             COUNT(*) AS shared_vocab
      FROM shared GROUP BY lang),
    t AS (
      SELECT s.lang, s.a,
             CAST(round(ln((CAST(s.a AS DOUBLE) * CAST(m.big_b AS DOUBLE))
                           / (CAST(s.b AS DOUBLE)
                              * CAST(m.big_a AS DOUBLE)))
                        * 1000000) AS BIGINT) AS t6
      FROM shared s JOIN mass m USING (lang))
    SELECT m.lang, CAST(m.shared_vocab AS BIGINT) AS shared_vocab,
           CAST(m.big_a AS BIGINT) AS train_mass,
           CAST(m.big_b AS BIGINT) AS val_mass,
           CAST(SUM(t.a * t.t6) AS DOUBLE) / CAST(m.big_a AS DOUBLE)
             / 1000000.0 AS kl
    FROM mass m JOIN t USING (lang)
    GROUP BY m.lang, m.shared_vocab, m.big_a, m.big_b
    ORDER BY m.lang""")


# ---------------------------------------------------------------------------
# quota_allocation: largest-remainder stratified split budgets
# ---------------------------------------------------------------------------


def q_quota_allocation(sf_dir: str) -> pd.DataFrame:
    """Largest-remainder (Hamilton) allocation of the global 5 %
    validation and 5 % test budgets across (lang, source) strata — the
    stratified-split planning table: each cell's quota is within one
    doc of its exact proportional share and the quotas sum to the
    global budget EXACTLY (floor(n·V/N) per cell, then +1 to the cells
    with the largest remainders, ties broken rem DESC, lang ASC,
    source ASC — a total order, so deterministic).

    Distributed shape: ONE streamed pass of dimension-bounded
    (lang, source) count partials; the allocation math runs on the
    driver's cell frame in Python big ints (n·V would wrap int64 near
    ~1e10 docs; the twin's BIGINT product errors loudly there — bound
    documented, not silent)."""
    ds = _pq(sf_dir, "documents", ["lang", "source"])

    def cellp(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": b["lang"].to_numpy(object),
                             "source": b["source"].to_numpy(object),
                             "n": np.int64(1)})

    cells = sum_by(ds.map_batches(cellp, batch_format="pandas"),
                   ["lang", "source"], ["n"])
    empty = _empty_typed(lang=object, source=object, n_docs="int64",
                         val_quota="int64", test_quota="int64",
                         train_quota="int64")
    if cells.empty:
        return empty
    cells = cells.sort_values(["lang", "source"]).reset_index(drop=True)
    n = [int(x) for x in cells["n"]]
    total = sum(n)

    def hamilton(budget: int) -> list[int]:
        fl = [x * budget // total for x in n]
        rem = [x * budget % total for x in n]
        k = budget - sum(fl)
        # ties: rem DESC, then (lang, source) ASC == cell frame order
        order = sorted(range(len(n)), key=lambda i: (-rem[i], i))
        quota = list(fl)
        for i in order[:k]:
            quota[i] += 1
        return quota

    # half-away round of 0.05*N, the twin's round()
    v_budget = int(np.copysign(np.floor(abs(0.05 * total) + 0.5),
                               0.05 * total))
    val_q = hamilton(v_budget)
    test_q = hamilton(v_budget)
    return pd.DataFrame({
        "lang": cells["lang"].to_numpy(object),
        "source": cells["source"].to_numpy(object),
        "n_docs": pd.Series(n, dtype="int64"),
        "val_quota": pd.Series(val_q, dtype="int64"),
        "test_quota": pd.Series(test_q, dtype="int64"),
        "train_quota": pd.Series(
            [x - v - t for x, v, t in zip(n, val_q, test_q)],
            dtype="int64")})


register("quota_allocation", q_quota_allocation, """
    WITH cells AS (
      SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n
      FROM documents GROUP BY 1, 2),
    tot AS (SELECT SUM(n) AS total FROM cells),
    v AS (SELECT CAST(round(0.05 * total) AS BIGINT) AS budget,
                 total FROM tot),
    base AS (
      SELECT lang, source, n,
             n * (SELECT budget FROM v) // (SELECT total FROM v) AS fl,
             n * (SELECT budget FROM v) % (SELECT total FROM v) AS rem
      FROM cells),
    ranked AS (
      SELECT *,
             ROW_NUMBER() OVER (ORDER BY rem DESC, lang, source) AS r
      FROM base),
    need AS (
      SELECT (SELECT budget FROM v) - SUM(fl) AS k FROM ranked)
    SELECT lang, source, n AS n_docs,
           CAST(fl + CASE WHEN r <= (SELECT k FROM need)
                          THEN 1 ELSE 0 END AS BIGINT) AS val_quota,
           CAST(fl + CASE WHEN r <= (SELECT k FROM need)
                          THEN 1 ELSE 0 END AS BIGINT) AS test_quota,
           CAST(n - 2 * (fl + CASE WHEN r <= (SELECT k FROM need)
                                   THEN 1 ELSE 0 END)
                AS BIGINT) AS train_quota
    FROM ranked ORDER BY lang, source""")


# ---------------------------------------------------------------------------
# rank_normalize_by_source: corpus cume-dist calibration per source
# ---------------------------------------------------------------------------


def q_rank_normalize_by_source(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide cume-dist (quantile) normalization of ``n_chars``,
    reported per source: mean normalized rank = Σ cnt_le(x) / (N · n_s)
    where cnt_le(x) = #docs in the WHOLE corpus with n_chars ≤ x. A
    source far from 0.5 sits in the corpus length tail — the
    cross-source score-calibration shape (swap n_chars for any quality
    score), computed WITHOUT a global sort.

    Distributed shape: TWO streamed passes — (1) a bounded n_chars
    value histogram (the exact-quantile convention: distinct lengths,
    not rows), cumulated on the driver; (2) broadcast the sorted
    (length → cnt_le) lookup once (ray.put + per-worker cache,
    searchsorted per batch) and fold per-source (n, Σ cnt_le) partials.
    Per-batch rank sums ride int64 (batch ≤ 1e5 rows · cnt_le ≤ N keeps
    them < 2^63 to N ~ 1e13); the final per-source accumulator
    recombines in Python big ints, mirroring the twin's HUGEINT SUM;
    mean_cume divides identical integers in the twin's operand order
    (acc / N / n_s)."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def histp(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_chars": b["n_chars"].dropna().to_numpy(np.int64),
            "c": np.int64(1)})

    hist = sum_by(ds.map_batches(histp, batch_format="pandas"),
                  ["n_chars"], ["c"])
    empty = _empty_typed(source=object, n_docs="int64",
                         mean_cume="float64")
    if hist.empty:
        return empty
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    lens = hist["n_chars"].to_numpy(np.int64)
    c_le = hist["c"].to_numpy(np.int64).cumsum()
    total = int(c_le[-1])
    lut_ref = ray.put((lens, c_le))

    def srcp(b: pd.DataFrame) -> pd.DataFrame:
        ls, cl = _get_broadcast(lut_ref)
        r = cl[np.searchsorted(ls, b["n_chars"].to_numpy(np.int64))]
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n": np.int64(1), "s": r})

    per_src = sum_by(ds.map_batches(srcp, batch_format="pandas"),
                     ["source"], ["n", "s"])
    rows = []
    for _, r in per_src.sort_values("source").iterrows():
        n_s, acc = int(r["n"]), int(r["s"])
        rows.append((r["source"], n_s,
                     float(acc) / np.float64(total) / np.float64(n_s)))
    return pd.DataFrame(rows, columns=["source", "n_docs",
                                       "mean_cume"]) \
        .astype({"n_docs": "int64", "mean_cume": "float64"})


register("rank_normalize_by_source", q_rank_normalize_by_source, """
    WITH h AS (
      SELECT n_chars, CAST(COUNT(*) AS BIGINT) AS c
      FROM documents GROUP BY n_chars),
    cum AS (
      SELECT n_chars,
             SUM(c) OVER (ORDER BY n_chars
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND CURRENT ROW) AS c_le
      FROM h),
    tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM documents)
    SELECT d.source, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(cum.c_le) AS DOUBLE)
             / CAST((SELECT total FROM tot) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) AS mean_cume
    FROM documents d JOIN cum USING (n_chars)
    GROUP BY d.source ORDER BY d.source""")
