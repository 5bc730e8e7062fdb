"""Round-4p operator family — recency weighting, dedup meta-QA,
readability, and CI-ranked reliability:

* `decayed_event_popularity` — exponentially time-decayed event-type
  popularity (half-life 7 days) anchored at the stream's max
  timestamp: the recency-weighted counter behind trending/decay
  rankings. Exactness: weights are powers of two (0.5^k,
  k = age_days//7 capped at 62), so the decayed sum is an INTEGER
  (Σ n_k·2^(62-k)) on both engines — no exp()/libm in the loop, one
  final exact-scaling division by 2^62.
* `dedup_method_agreement` — meta-QA of the near-dup detectors: the
  winnowing pair set vs the simhash-bucketed char-3-gram Jaccard pair
  set (set sizes, intersection, Jaccard agreement). The table a
  curation owner reads before picking which detector gates the
  corpus.
* `readability_scores` — per-doc Flesch reading-ease under the
  documented heuristic (sentences = [.!?]+ runs min 1; syllables =
  [aeiouy]+ groups per token min 1): the readability quality screen.
* `supplier_reliability` — per-supplier return rate with the Wilson
  95% lower confidence bound — the "rank by lower bound, not by raw
  rate" pattern for small-sample reliability ranking.

Distributed plans (shuffle budgets — also in SCALE.md):

`decayed_event_popularity`: pass 1 = per-batch max-ts partials
(#blocks rows to the driver); pass 2 = (type, k) bucket count
partials -> ONE dimension-bounded reduce (≤ #types × 63 rows); the
exact power-of-two fold runs on driver-held Python bigints.

`dedup_method_agreement`: composes the two existing pair Datasets
(each documented: skinny (fp|bucket, id) exchanges, hot-key guards)
lazily — tagged union, ONE bucketed (id_a, id_b) exchange (64 hash
buckets), per-bucket scalar (nw, ng, nb) partials; only <= 64 count
rows reach the driver, never the pair sets.

`readability_scores`: pure map over documents (compiled-regex
vectorized counts), no shuffle; doc-sized final like quality_score.

`supplier_reliability`: per-batch (suppkey, n, n_returned) int
partials -> ONE supplier-bounded reduce; the Wilson chain is a fixed
IEEE sequence over the int sums, mirrored term-for-term (sqrt is
correctly rounded by IEEE-754, so both engines agree bit-for-bit).

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_DECAY_HALFLIFE_DAYS = 7
_DECAY_MAX_K = 62  # 0.5^62 underflows the useful range; older = 0
_DAY_US = 86_400_000_000


# --------------------------------------------- decayed event popularity

def q_decayed_event_popularity(sf_dir: str) -> pd.DataFrame:
    """Recency-weighted event-type counts with power-of-two decay —
    module docstring."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])

    def max_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"mx": [b["ts"].to_numpy("datetime64[us]")
                                    .astype(np.int64).max()]}) \
            if len(b) else pd.DataFrame({"mx": pd.Series([],
                                                         dtype="int64")})

    empty = _empty_typed(event_type=object, n_events="int64",
                         decayed_weight="float64")
    mx = ds.map_batches(max_part, batch_format="pandas").to_pandas()
    if mx.empty:
        return empty
    m = int(mx["mx"].max())

    def k_part(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        k = np.minimum((m - ts) // _DAY_US // _DECAY_HALFLIFE_DAYS,
                       _DECAY_MAX_K)
        return pd.DataFrame({"event_type": b["event_type"]
                             .to_numpy(object),
                             "k": k, "n": np.int64(1)})

    h = sum_by(ds.map_batches(k_part, batch_format="pandas"),
               ["event_type", "k"], ["n"])
    if h.empty:
        return empty
    rows = []
    for t, g in h.groupby("event_type"):
        s = sum(int(n) << (_DECAY_MAX_K - int(k))
                for k, n in zip(g["k"], g["n"]))
        rows.append((t, int(g["n"].sum()),
                     float(s) / float(1 << _DECAY_MAX_K)))
    return pd.DataFrame(rows, columns=["event_type", "n_events",
                                       "decayed_weight"]) \
        .astype({"n_events": "int64"}) \
        .sort_values("event_type").reset_index(drop=True)


register("decayed_event_popularity", q_decayed_event_popularity, f"""
    WITH mx AS (SELECT epoch_us(max(ts)) AS m FROM events),
    b AS (
      SELECT event_type,
             LEAST((m - epoch_us(ts)) // {_DAY_US}
                   // {_DECAY_HALFLIFE_DAYS}, {_DECAY_MAX_K}) AS k
      FROM events, mx),
    h AS (SELECT event_type, k, COUNT(*) AS n FROM b
          GROUP BY event_type, k),
    s AS (
      SELECT event_type, CAST(SUM(n) AS BIGINT) AS n_events,
             SUM(CAST(n AS HUGEINT)
                 * (1::HUGEINT << CAST({_DECAY_MAX_K} - k AS INT)))
               AS sw
      FROM h GROUP BY event_type)
    SELECT event_type, n_events,
           CAST(sw AS DOUBLE) / {float(1 << _DECAY_MAX_K)!r}
             AS decayed_weight
    FROM s ORDER BY event_type""")


# --------------------------------------------- dedup method agreement

def q_dedup_method_agreement(sf_dir: str) -> pd.DataFrame:
    """Pair-set agreement between the winnowing and char-3-gram
    near-dup detectors — module docstring. The intersection is a
    bucketed (id_a, id_b) exchange: each detector's pair Dataset is
    tagged (w/g indicator), unioned, hashed to buckets by
    ``exchange_by_key``, and each
    bucket emits only three scalar counts — the full pair sets never
    reach the driver (a dup-heavy corpus's pair list is not
    driver-sized)."""
    from .ops.exchange import exchange_by_key
    from .queries import (_WINNOW_PAIR_THRESHOLD, _ngram_dup_pairs_ds,
                          _winnow_pair_counts_ds)

    cols = {"id_a": "int64", "id_b": "int64", "w": "int64",
            "g": "int64"}

    def _typed_empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in cols.items()})

    def w_tag(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return _typed_empty()
        k = b[b["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
        return pd.DataFrame({"id_a": k["id_a"].to_numpy(np.int64),
                             "id_b": k["id_b"].to_numpy(np.int64),
                             "w": np.int64(1), "g": np.int64(0)})

    def g_tag(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return _typed_empty()
        return pd.DataFrame({"id_a": b["id_a"].to_numpy(np.int64),
                             "id_b": b["id_b"].to_numpy(np.int64),
                             "w": np.int64(0), "g": np.int64(1)})

    def per_bucket(gr: pd.DataFrame) -> pd.DataFrame:
        s = gr.groupby(["id_a", "id_b"], as_index=False)[["w", "g"]] \
            .sum()
        both = (s["w"] > 0) & (s["g"] > 0)
        return pd.DataFrame({"nw": [np.int64((s["w"] > 0).sum())],
                             "ng": [np.int64((s["g"] > 0).sum())],
                             "nb": [np.int64(both.sum())]})

    sides = [_winnow_pair_counts_ds(sf_dir)
             .map_batches(w_tag, batch_format="pandas"),
             _ngram_dup_pairs_ds(sf_dir)
             .map_batches(g_tag, batch_format="pandas")]
    parts = exchange_by_key(sides, ["id_a", "id_b"], per_bucket) \
        .to_pandas()  # <= 64 scalar rows: driver-contract final
    nw = int(parts["nw"].sum()) if len(parts) else 0
    ng = int(parts["ng"].sum()) if len(parts) else 0
    nb = int(parts["nb"].sum()) if len(parts) else 0
    nu = nw + ng - nb
    return pd.DataFrame({
        "n_winnow": pd.Series([nw], dtype="int64"),
        "n_ngram": pd.Series([ng], dtype="int64"),
        "n_both": pd.Series([nb], dtype="int64"),
        "agreement": [float(nb) / float(nu) if nu else np.nan]})


def _agreement_oracle_sql() -> str:
    # composed lazily at registration time so the parent module's
    # ORACLE_SQL entries (defined above the family imports) are final
    from .queries import ORACLE_SQL as _O

    return f"""
    WITH w AS ({_O["winnow_dup_pairs"]}),
    g AS (SELECT id_a, id_b FROM ({_O["ngram_dup_pairs"]})),
    cw AS (SELECT CAST(count(*) AS BIGINT) AS nw FROM w),
    cg AS (SELECT CAST(count(*) AS BIGINT) AS ng FROM g),
    cb AS (SELECT CAST(count(*) AS BIGINT) AS nb
           FROM w JOIN g USING (id_a, id_b))
    SELECT nw AS n_winnow, ng AS n_ngram, nb AS n_both,
           CASE WHEN nw + ng - nb > 0
                THEN CAST(nb AS DOUBLE) / (nw + ng - nb) END
             AS agreement
    FROM cw, cg, cb"""


register("dedup_method_agreement", q_dedup_method_agreement,
         _agreement_oracle_sql())


# ------------------------------------------------- readability scores

def q_readability_scores(sf_dir: str) -> pd.DataFrame:
    """Per-doc Flesch reading ease under the documented heuristic —
    module docstring. Wordless docs score NULL like the twin."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("")
        toks = text.str.split()
        n_words = toks.str.len().to_numpy(np.int64)
        ex = toks.explode()
        syl = ex.str.lower().str.count("[aeiouy]+").clip(lower=1) \
            .groupby(level=0).sum()
        n_syll = syl.reindex(b.index).fillna(0.0) \
            .to_numpy(np.float64).astype(np.int64)
        n_sent = text.str.count("[.!?]+").clip(lower=1) \
            .to_numpy(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            flesch = (206.835
                      - 1.015 * (n_words.astype(np.float64)
                                 / n_sent.astype(np.float64))
                      - 84.6 * (n_syll.astype(np.float64)
                                / n_words.astype(np.float64)))
        flesch = np.where(n_words > 0, flesch, np.nan)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "n_words": n_words, "n_syllables": n_syll,
                             "n_sentences": n_sent, "flesch": flesch})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64", n_words="int64",
                            n_syllables="int64", n_sentences="int64",
                            flesch="float64")
    return out.sort_values("doc_id").reset_index(drop=True)


register("readability_scores", q_readability_scores, r"""
    WITH toks AS (
      SELECT doc_id,
             unnest(list_filter(regexp_split_to_array(
                 coalesce(text, ''), '\s+'), x -> x <> '')) AS tok
      FROM documents),
    syl AS (
      SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_words,
             CAST(SUM(GREATEST(length(regexp_extract_all(
                 lower(tok), '[aeiouy]+')), 1)) AS BIGINT) AS n_syll
      FROM toks GROUP BY doc_id)
    SELECT d.doc_id,
           coalesce(s.n_words, 0) AS n_words,
           coalesce(s.n_syll, 0) AS n_syllables,
           GREATEST(CAST(length(regexp_extract_all(
               coalesce(d.text, ''), '[.!?]+')) AS BIGINT), 1)
             AS n_sentences,
           CASE WHEN coalesce(s.n_words, 0) > 0 THEN
             206.835
             - 1.015 * (CAST(s.n_words AS DOUBLE)
                        / GREATEST(CAST(length(regexp_extract_all(
                            coalesce(d.text, ''), '[.!?]+'))
                            AS BIGINT), 1))
             - 84.6 * (CAST(s.n_syll AS DOUBLE)
                       / CAST(s.n_words AS DOUBLE))
           END AS flesch
    FROM documents d LEFT JOIN syl s USING (doc_id)
    ORDER BY doc_id""")


# ----------------------------------------------- supplier reliability

def q_supplier_reliability(sf_dir: str) -> pd.DataFrame:
    """Per-supplier return rate with the Wilson 95% lower bound —
    module docstring."""
    ds = _pq(sf_dir, "lineitem", ["l_suppkey", "l_returnflag"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "s_suppkey": b["l_suppkey"].to_numpy(np.int64),
            "n_items": np.int64(1),
            "n_returned": (b["l_returnflag"].to_numpy(object) == "R")
            .astype(np.int64)})

    a = sum_by(ds.map_batches(partial, batch_format="pandas"),
               ["s_suppkey"], ["n_items", "n_returned"])
    if a.empty:
        return _empty_typed(s_suppkey="int64", n_items="int64",
                            n_returned="int64", return_rate="float64",
                            wilson_lb="float64")
    # the twin's exact IEEE chain, term for term (z = 1.96)
    n = a["n_items"].to_numpy(np.int64).astype(np.float64)
    r = a["n_returned"].to_numpy(np.int64).astype(np.float64)
    z2 = 1.96 * 1.96
    phat = r / n
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    rad = 1.96 * np.sqrt((phat * (1.0 - phat) + z2 / (4.0 * n)) / n)
    out = pd.DataFrame({
        "s_suppkey": a["s_suppkey"].to_numpy(np.int64),
        "n_items": a["n_items"].to_numpy(np.int64),
        "n_returned": a["n_returned"].to_numpy(np.int64),
        "return_rate": phat,
        "wilson_lb": (center - rad) / denom})
    return out.sort_values("s_suppkey").reset_index(drop=True)


register("supplier_reliability", q_supplier_reliability, """
    WITH a AS (
      SELECT l_suppkey AS s_suppkey,
             CAST(COUNT(*) AS BIGINT) AS n_items,
             CAST(SUM(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_returned
      FROM lineitem GROUP BY l_suppkey),
    w AS (
      -- z2 as a DOUBLE product: a bare 1.96 * 1.96 is DECIMAL-exact
      -- 3.8416 in DuckDB, off the Python double product in the last
      -- bit — enough to flip a row's final rounding
      SELECT s_suppkey, n_items, n_returned,
             CAST(n_returned AS DOUBLE) / n_items AS phat,
             CAST(1.96 AS DOUBLE) * CAST(1.96 AS DOUBLE) AS z2,
             CAST(n_items AS DOUBLE) AS nd
      FROM a)
    SELECT s_suppkey, n_items, n_returned, phat AS return_rate,
           (phat + z2 / (2.0 * nd)
            - 1.96 * sqrt((phat * (1.0 - phat) + z2 / (4.0 * nd))
                          / nd))
           / (1.0 + z2 / nd) AS wilson_lb
    FROM w ORDER BY s_suppkey""")
