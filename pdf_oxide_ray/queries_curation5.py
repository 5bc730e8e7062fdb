"""Round-4f web-curation family — the three named data-selection /
quality-screening methods a web-scale pretraining pipeline runs that
the registry did not yet cover:

* `gopher_rules`        — the Gopher quality-rule census (Rae et al.
  2021 §A1.1): per source, how many docs fail each of the four
  portable rules (word-count bounds, mean-word-length bounds,
  stopword presence, alphabetic-word ratio) and the all-rules pass
  rate — the screen you calibrate BEFORE turning it into a filter.
* `dsir_weights`        — Data Selection via Importance Resampling
  (Xie et al. 2023): per-doc importance weight = Σ over token
  occurrences of ln(p_target(w)/p_raw(w)) under add-1-smoothed
  unigram LMs (target = the `lang = 'en'` slice, raw = the whole
  corpus), rolled up per source with the positive-weight selection
  rate — the domain-upweighting diagnostic.
* `soft_dedup_weights`  — SoftDedup-style frequency downweighting
  (sampling weight 1/c for a doc in an exact-dup cluster of size c):
  per (source, cluster size) census with raw vs effective token
  counts — what a soft-dedup sampler keeps vs what a hard dedup
  would delete.

Shuffle budget (SCALE.md doctrine): gopher_rules is per-batch
(source, counts) partials through ONE dimension-bounded reduce;
dsir_weights is two streamed passes — a vocabulary-bounded (word,
cT, cR) reduce (the `unigram_logprob` exchange scale), then the
lr6 map broadcasts once (`ray.put` + per-worker cache) and
dimension-bounded (source, n, w6, npos) partials ride one reduce;
soft_dedup_weights reuses the `source_dup_stats` plan — below the
reduce gate the dup clusters (c > 1, sparse by construction) fold on
the driver and broadcast once, above it the hash groupby stays
distributed and `adaptive_join` routes docs × dup-groups (broadcast
or ONE bucketed exchange).

Exactness: ln() values quantize to the int 1e-6 grid (`halfaway6`,
DuckDB round()) so per-doc sums are order-free int64; per-source Σ w6
recombines in Python big ints (the twin's HUGEINT SUM); every ratio
divides identical integers in the twin's operand order. Self-registers
into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import halfaway6 as _halfaway6
from .ops import exchange as _xc
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_TOKENS_SQL = (r"list_filter(regexp_split_to_array("
               r"coalesce(text, ''), '\s+'), x -> x <> '')")

# ---------------------------------------------------------------------------
# gopher_rules: the Gopher quality-rule census per source
# ---------------------------------------------------------------------------

# the portable subset of Gopher's doc-quality rules (public thresholds):
# word count in [50, 100000]; mean word length in [3, 10]; >= 2 distinct
# required stopwords present; >= 80% of words contain an alphabetic char
_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                     "with")


def q_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Per-source Gopher quality-rule failure census: for each of the
    four portable rules, how many docs fail it, how many pass ALL
    rules, and the pass rate — the calibration table you read before
    wiring the rules into a filter stage.

    Rule edge cases (identical on both sides): a zero-token doc fails
    the word-count and stopword rules and is DEFINED to pass the
    mean-length and alpha-ratio rules (their ratios are undefined);
    the mean-length and alpha-ratio compares divide the identical
    integer pair on both sides before comparing against the same
    literal, so no rounding is needed.

    Distributed shape: per-batch (source, counts) partials through ONE
    dimension-bounded reduce (sources ~O(100)); pass_rate divides the
    identical int64 pair. Per-doc token stats ride the pandas split
    kernel + a short per-doc fold (docs are the natural unit here, as
    in `doc_perplexity`)."""
    ds = _pq(sf_dir, "documents", ["source", "text"])
    stop = set(_GOPHER_STOPWORDS)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        n = toks.str.len().to_numpy(np.int64)
        sl = np.fromiter((sum(len(w) for w in r) for r in toks),
                         dtype=np.int64, count=len(toks))
        nstop = np.fromiter(
            (sum(1 for s in stop if s in set(r)) for r in toks),
            dtype=np.int64, count=len(toks))
        nalpha = np.fromiter(
            (sum(1 for w in r if any(c.isalpha() for c in w))
             for r in toks), dtype=np.int64, count=len(toks))
        pos = n > 0
        nf = n.astype(np.float64)
        mwl = np.divide(sl.astype(np.float64), nf, where=pos,
                        out=np.zeros(len(b)))
        ar = np.divide(nalpha.astype(np.float64), nf, where=pos,
                       out=np.zeros(len(b)))
        fw = (n < 50) | (n > 100_000)
        fm = pos & ((mwl < 3.0) | (mwl > 10.0))
        fs = nstop < 2
        fa = pos & (ar < 0.8)
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_docs": np.int64(1),
            "fail_wordcount": fw.astype(np.int64),
            "fail_meanlen": fm.astype(np.int64),
            "fail_stopwords": fs.astype(np.int64),
            "fail_alpharatio": fa.astype(np.int64),
            "n_pass": (~(fw | fm | fs | fa)).astype(np.int64)})

    agg = sum_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["source"], ["n_docs", "fail_wordcount", "fail_meanlen",
                     "fail_stopwords", "fail_alpharatio", "n_pass"])
    empty = _empty_typed(source=object, n_docs="int64",
                         fail_wordcount="int64", fail_meanlen="int64",
                         fail_stopwords="int64",
                         fail_alpharatio="int64", n_pass="int64",
                         pass_rate="float64")
    if agg.empty:
        return empty
    agg = agg.sort_values("source").reset_index(drop=True)
    agg["pass_rate"] = (agg["n_pass"].to_numpy(np.float64)
                        / agg["n_docs"].to_numpy(np.float64))
    return agg.astype({c: "int64" for c in agg.columns
                       if c not in ("source", "pass_rate")})


_STOP_SQL = "[" + ", ".join(f"'{s}'" for s in _GOPHER_STOPWORDS) + "]"
register("gopher_rules", q_gopher_rules, f"""
    WITH t AS (
      SELECT source, {_TOKENS_SQL} AS tk FROM documents),
    f AS (
      SELECT source, CAST(len(tk) AS BIGINT) AS n,
             CAST(coalesce(list_sum(list_transform(tk,
                  x -> length(x))), 0) AS BIGINT) AS sl,
             CAST(len(list_filter({_STOP_SQL},
                  s -> list_contains(tk, s))) AS BIGINT) AS nstop,
             CAST(len(list_filter(tk,
                  x -> regexp_matches(x, '[A-Za-z]'))) AS BIGINT)
                  AS nalpha
      FROM t),
    r AS (
      SELECT source,
             (n < 50 OR n > 100000) AS fw,
             (n > 0 AND (CAST(sl AS DOUBLE) / CAST(n AS DOUBLE) < 3.0
               OR CAST(sl AS DOUBLE) / CAST(n AS DOUBLE) > 10.0)) AS fm,
             (nstop < 2) AS fs,
             (n > 0 AND CAST(nalpha AS DOUBLE) / CAST(n AS DOUBLE)
               < 0.8) AS fa
      FROM f)
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(CAST(fw AS BIGINT)) AS BIGINT) AS fail_wordcount,
           CAST(SUM(CAST(fm AS BIGINT)) AS BIGINT) AS fail_meanlen,
           CAST(SUM(CAST(fs AS BIGINT)) AS BIGINT) AS fail_stopwords,
           CAST(SUM(CAST(fa AS BIGINT)) AS BIGINT) AS fail_alpharatio,
           CAST(SUM(CAST(NOT (fw OR fm OR fs OR fa) AS BIGINT))
                AS BIGINT) AS n_pass,
           CAST(SUM(CAST(NOT (fw OR fm OR fs OR fa) AS BIGINT))
                AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS pass_rate
    FROM r GROUP BY source ORDER BY source""")


# ---------------------------------------------------------------------------
# dsir_weights: Data Selection via Importance Resampling
# ---------------------------------------------------------------------------


def q_dsir_weights(sf_dir: str) -> pd.DataFrame:
    """DSIR importance weights (Xie et al. 2023) rolled up per source:
    each doc scores Σ over its token occurrences of
    ln(p_target(w) / p_raw(w)) under add-1-smoothed unigram LMs, where
    target = the `lang = 'en'` slice and raw = the whole corpus (both
    smoothed over the joint vocabulary) — positive weight means
    "looks like the target domain"; n_selected counts w > 0 docs.

    Distributed shape: pass 1 streams (word, cT, cR) count partials
    into a vocabulary-bounded reduce (the `unigram_logprob` exchange
    scale); the driver derives lr6(w) = halfaway6(ln pT − ln pR) and
    broadcasts the map ONCE (`ray.put` + `_get_broadcast` per-worker
    cache). Pass 2 scores docs in a pure map and folds
    dimension-bounded (source, n, w6, npos) partials through one
    reduce. Exactness: lr6 is int64, so per-doc sums are order-free;
    per-source Σ w6 recombines in Python big ints (the twin's HUGEINT
    SUM, int64 wraps only past ~9e18 micro-nats per source);
    mean_weight rounds Σw6/n to the 1e-6 grid on both sides (the
    `doc_perplexity` convention); empty docs carry weight 0 (not
    selected) on both sides."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["source", "lang", "text"])

    def wc(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        is_t = (b["lang"] == "en").to_numpy(np.int64)
        return pd.DataFrame({
            "w": pd.Series([w for r in toks for w in r], dtype=object),
            "cr": np.int64(1),
            "ct": np.repeat(is_t, toks.str.len().to_numpy(np.int64))})

    vocab = sum_by(
        ds.map_batches(wc, batch_format="pandas"), ["w"], ["ct", "cr"])
    empty = _empty_typed(source=object, n_docs="int64",
                         n_selected="int64", mean_weight="float64")
    if vocab.empty:
        src = _pq(sf_dir, "documents", ["source"])

        def cpart(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"source": b["source"].to_numpy(object),
                                 "n": np.int64(1)})

        counts = sum_by(
            src.map_batches(cpart, batch_format="pandas"),
            ["source"], ["n"])
        if counts.empty:
            return empty
        counts = counts.sort_values("source").reset_index(drop=True)
        return pd.DataFrame({
            "source": counts["source"],
            "n_docs": counts["n"].astype("int64"),
            "n_selected": np.int64(0),
            "mean_weight": np.float64(0.0)})
    # smoothing totals in Python big ints (Σ tokens wraps int64 only
    # past ~9e18 tokens; the twin's HUGEINT never wraps)
    tok_t = sum(int(x) for x in vocab["ct"])
    tok_r = sum(int(x) for x in vocab["cr"])
    v = len(vocab)
    raw = (np.log((vocab["ct"].to_numpy(np.float64) + 1.0)
                  / np.float64(tok_t + v))
           - np.log((vocab["cr"].to_numpy(np.float64) + 1.0)
                    / np.float64(tok_r + v)))
    lr6 = _halfaway6(raw)
    lut_ref = ray.put(dict(zip(vocab["w"], lr6)))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lut = _get_broadcast(lut_ref)
        toks = b["text"].fillna("").str.split()
        w6 = np.fromiter((sum(lut[w] for w in r) for r in toks),
                         dtype=np.int64, count=len(toks))
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n": np.int64(1), "w6": w6,
                             "npos": (w6 > 0).astype(np.int64)})

    agg = sum_by(
        ds.map_batches(score, batch_format="pandas"),
        ["source"], ["n", "w6", "npos"])
    if agg.empty:
        return empty
    rows = []
    for _, r in agg.sort_values("source").iterrows():
        n, s6 = int(r["n"]), int(r["w6"])
        m = np.float64(s6) / np.float64(n)
        rows.append((r["source"], n, int(r["npos"]),
                     float(np.copysign(np.floor(np.abs(m) + 0.5), m))
                     / 1e6))
    return pd.DataFrame(rows, columns=["source", "n_docs",
                                       "n_selected", "mean_weight"]) \
        .astype({"n_docs": "int64", "n_selected": "int64"})


register("dsir_weights", q_dsir_weights, f"""
    WITH tok AS (
      SELECT doc_id, unnest({_TOKENS_SQL}) AS w
      FROM documents),
    tgt AS (SELECT doc_id FROM documents WHERE lang = 'en'),
    cnt AS (
      SELECT w,
             SUM(CASE WHEN t.doc_id IS NOT NULL THEN 1 ELSE 0 END)
               AS ct,
             COUNT(*) AS cr
      FROM tok LEFT JOIN tgt t USING (doc_id) GROUP BY w),
    tot AS (SELECT SUM(ct) AS tok_t, SUM(cr) AS tok_r,
                   COUNT(*) AS v FROM cnt),
    lr AS (
      SELECT w,
             CAST(round((ln(CAST(ct + 1 AS DOUBLE)
                            / CAST(tok_t + v AS DOUBLE))
                         - ln(CAST(cr + 1 AS DOUBLE)
                              / CAST(tok_r + v AS DOUBLE)))
                        * 1000000) AS BIGINT) AS lr6
      FROM cnt, tot),
    per_doc AS (
      SELECT tok.doc_id, SUM(lr.lr6) AS w6
      FROM tok JOIN lr USING (w) GROUP BY tok.doc_id),
    docs AS (
      SELECT d.source, CAST(COALESCE(p.w6, 0) AS BIGINT) AS w6
      FROM documents d LEFT JOIN per_doc p USING (doc_id))
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(CAST(w6 > 0 AS BIGINT)) AS BIGINT) AS n_selected,
           ROUND(CAST(SUM(w6) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE),
                 0) / 1000000.0 AS mean_weight
    FROM docs GROUP BY source ORDER BY source""")


# ---------------------------------------------------------------------------
# soft_dedup_weights: frequency-downweighting census per (source, c)
# ---------------------------------------------------------------------------


def q_soft_dedup_weights(sf_dir: str) -> pd.DataFrame:
    """SoftDedup-style census: docs in an exact-dup cluster of size c
    sample with weight 1/c, so per (source, cluster size) report the
    docs, raw tokens and effective tokens (= raw / c) — what a
    soft-dedup sampler keeps vs what hard dedup would delete (its
    c = 1 rows are the unique docs both keep).

    Distributed shape (the `source_dup_stats` plan): below the reduce
    gate the (hash, cnt) partials fold on the driver and ONLY the
    c > 1 clusters (sparse by construction) broadcast once; above the
    gate the hash groupby stays distributed, c > 1 groups filter
    distributedly, and `adaptive_join` routes docs × dup-groups as a
    broadcast or ONE bucketed exchange. Docs missing from the dup set
    have c = 1. eff_tokens divides the identical int64 pair on both
    sides; the twin groups by coalesce(text, '') to match
    `content_hash`'s NaN fill."""
    import ray

    from .functions import dedup as fdedup
    from .functions import textops as ftext
    from .stages.joins import _get_broadcast, adaptive_join

    ds = _pq(sf_dir, "documents", ["source", "text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                          "cnt": np.int64(1)})
        return g.groupby("h", as_index=False).sum()

    m = ds.map_batches(hpart, batch_format="pandas").materialize()
    npart = m.count()
    empty = _empty_typed(source=object, c="int64", n_docs="int64",
                         sum_tokens="int64", eff_tokens="float64")
    if npart == 0:
        return empty

    def _finish(agg: pd.DataFrame) -> pd.DataFrame:
        if agg.empty:
            return empty
        agg = agg.sort_values(["source", "c"]).reset_index(drop=True)
        agg["eff_tokens"] = (agg["tok"].to_numpy(np.float64)
                             / agg["c"].to_numpy(np.float64))
        return pd.DataFrame({
            "source": agg["source"], "c": agg["c"].astype("int64"),
            "n_docs": agg["n"].astype("int64"),
            "sum_tokens": agg["tok"].astype("int64"),
            "eff_tokens": agg["eff_tokens"]})

    if npart <= _xc.GATE_ROWS:
        a = m.to_pandas().groupby("h", as_index=False)["cnt"].sum()
        dup = a[a["cnt"] > 1]
        cmap_ref = ray.put(
            dict(zip(dup["h"], dup["cnt"].astype(np.int64)))
            if not dup.empty else {})

        def spart(b: pd.DataFrame) -> pd.DataFrame:
            cmap = _get_broadcast(cmap_ref)
            h = fdedup.content_hash(b["text"])
            c = h.map(cmap).fillna(1).astype(np.int64).to_numpy()
            return pd.DataFrame({
                "source": b["source"].to_numpy(object), "c": c,
                "n": np.int64(1),
                "tok": ftext.token_count_ws(b["text"])
                .to_numpy(np.int64)})

        return _finish(sum_by(
            ds.map_batches(spart, batch_format="pandas"),
            ["source", "c"], ["n", "tok"]))

    # 100-TB path: dup clusters never materialize on the driver
    from ray.data.aggregate import Sum

    dup_ds = m.groupby("h").aggregate(
        Sum("cnt", alias_name="cnt")) \
        .map_batches(lambda b: b[b["cnt"] > 1],
                     batch_format="pandas").materialize()

    def dockey(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "h": fdedup.content_hash(b["text"]),
            "source": b["source"].to_numpy(object),
            "tok": ftext.token_count_ws(b["text"]).to_numpy(np.int64)})

    docs = ds.map_batches(dockey, batch_format="pandas")
    joined = adaptive_join(docs, dup_ds, left_on="h", right_on="h",
                           how="left")

    def jpart(b: pd.DataFrame) -> pd.DataFrame:
        c = b["cnt"].fillna(1).astype(np.int64).to_numpy()
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "c": c, "n": np.int64(1),
                             "tok": b["tok"].to_numpy(np.int64)})

    return _finish(sum_by(
        joined.map_batches(jpart, batch_format="pandas"),
        ["source", "c"], ["n", "tok"]))


register("soft_dedup_weights", q_soft_dedup_weights, f"""
    WITH cl AS (
      SELECT coalesce(text, '') AS t, CAST(COUNT(*) AS BIGINT) AS c
      FROM documents GROUP BY 1),
    j AS (
      SELECT d.source, cl.c,
             CAST(length({_TOKENS_SQL}) AS BIGINT) AS n_tok
      FROM documents d JOIN cl ON coalesce(d.text, '') = cl.t)
    SELECT source, c, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(n_tok) AS BIGINT) AS sum_tokens,
           CAST(SUM(n_tok) AS DOUBLE) / CAST(c AS DOUBLE)
             AS eff_tokens
    FROM j GROUP BY source, c ORDER BY source, c""")
