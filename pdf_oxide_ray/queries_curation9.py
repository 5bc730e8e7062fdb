"""Round-4j operator family — corpus-hygiene + LM-statistics ops a
training-data pipeline needs beside the per-document filters:

* `boilerplate_ngrams` — C4-style boilerplate census: the word
  3-grams appearing in >= DF_MIN distinct documents are "boilerplate";
  per source, what fraction of 3-gram positions a boilerplate strip
  would remove. (The per-token sibling is `df_histogram`; this is the
  positional n-gram form the C4/CCNet cleaners actually run.)
* `prefix_containment` — crawl-dedup census: documents whose full
  text is a strict prefix of another document's text (truncated
  re-crawls), plus exact-duplicate documents, per source. Uses the
  sorted-successor property: a distinct string is a strict prefix of
  SOME other distinct string iff it is a prefix of its immediate
  lexicographic successor.
* `good_turing` — Good-Turing frequency-of-frequencies table over the
  corpus unigram counts: for each observed count r, the class size
  N_r and the smoothed count r* = (r+1) * N_{r+1} / N_r (the
  Gale-Sampson simple form; NULL where N_{r+1}=0).
* `weighted_median_price` — exact weighted percentiles by group:
  per l_returnflag, the quantity-weighted p50/p90 of
  l_extendedprice via a bounded value histogram (percentile_disc
  over the weight-expanded multiset, never materialized).

Distributed plans (shuffle budgets — also in SCALE.md):

`boilerplate_ngrams`: two streamed token passes. Exchange 1 = the
gram-census (gram, df) partial reduce via `sum_by` (df
partials are per-batch doc counts — rows are whole docs, so batch
partials sum exactly); the df >= DF_MIN head is vocabulary-shaped
(grams repeated across >= DF_MIN docs, not corpus-shaped) and rides
ONE `ray.put` + the per-worker `_get_broadcast` cache. Exchange 2 =
the source-sized (n_pos, n_boiler) partial reduce. At 100 TB, if the
boilerplate head outgrows a broadcast (~GBs), swap the membership
test for a bucketed semi-join on gram hash — the census exchange is
unchanged.

`prefix_containment`: ONE distinct exchange (per-batch text
value_counts partials -> groupby(text).sum) + ONE range-partitioned
sort of the distinct texts — both skinny (text, count). The sorted
map emits in-batch contained/dup text hashes plus exactly 2 boundary
strings per batch; the driver stitches adjacent batches (a text's
containment depends only on its immediate successor, so the stitch is
a single cross-seam prefix test per batch pair — no chain merging).
The contained/dup sets are dup-shaped hot sets (md5 hex, 32 B/text)
broadcast once for the per-source counting pass; above a ~GB head,
swap for a bucketed semi-join on text hash. Fixed batch_size keeps
the stitch path exercised at every scale.

`good_turing`: one streamed token pass; exchange = the vocab-sized
(word, count) reduce via `sum_by`; the count-of-counts fold
is over the vocab frame (vocab-sized, documented driver hot set — at
web scale insert a distributed (c, 1) pre-aggregation first) and the
r -> r+1 join is over the tiny count-class table.

`weighted_median_price`: per-batch (flag, price) weight partials ->
`sum_by` — the exchange is bounded by distinct prices x
flags (a bounded value histogram, the repo's exact-percentile rule),
never the weight-expanded multiset; per-flag cumsum + the
percentile_disc index rule `cum >= ceil(W*p)` on the driver over the
histogram. Weights ride int64; the selected prices are the ORIGINAL
float64 values (no cents round-trip), so both sides return the
identical stored double.

Exactness: counts are pure int64; rates/r* are single float64
divisions mirroring the twins' operand order; percentile picks are
exact stored doubles. Empty inputs return the twins' empty shapes.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from .ops.exchange import sum_by
from .ops.ordered import ordered_pass
from .ops.quantile import disc_pick, disc_rank_exact
from .queries import _empty_typed, _pq, register


_WORD_RE = re.compile(r"[0-9a-z_]+")
_WORD_SQL = "regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+')"


# -------------------------------------------------------- boilerplate

_BP_N = 3        # n-gram order
_BP_DF_MIN = 3   # boilerplate threshold: gram appears in >= 3 docs


def q_boilerplate_ngrams(sf_dir: str) -> pd.DataFrame:
    """Per-source boilerplate-position fraction vs the corpus 3-grams
    with document frequency >= DF_MIN. Two streamed passes; broadcast
    boilerplate head — module docstring."""
    import ray

    ds = _pq(sf_dir, "documents", ["source", "text"])
    n = _BP_N

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        agg: dict[str, int] = {}
        for t in b["text"].fillna(""):
            ws = _WORD_RE.findall(t.lower())
            seen = {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}
            for g in seen:
                agg[g] = agg.get(g, 0) + 1
        if not agg:
            return pd.DataFrame({"g": pd.Series([], dtype=object),
                                 "df": pd.Series([], dtype="int64")})
        return pd.DataFrame({"g": list(agg),
                             "df": pd.Series(list(agg.values()),
                                             dtype="int64")})

    census = sum_by(
        ds.map_batches(df_partial, batch_format="pandas"), ["g"], ["df"])
    empty = _empty_typed(source=object, n_docs="int64", n_pos="int64",
                         n_boiler="int64", boiler_rate="float64")
    boiler = frozenset(census.loc[census["df"] >= _BP_DF_MIN, "g"]) \
        if not census.empty else frozenset()
    boiler_ref = ray.put(boiler)

    def src_partial(b: pd.DataFrame) -> pd.DataFrame:
        from .stages.joins import _get_broadcast

        bset = _get_broadcast(boiler_ref)
        n_pos, n_boiler = [], []
        for t in b["text"].fillna(""):
            ws = _WORD_RE.findall(t.lower())
            grams = [" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)]
            n_pos.append(len(grams))
            n_boiler.append(sum(1 for g in grams if g in bset))
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n_docs": np.int64(1),
                             "n_pos": np.array(n_pos, dtype=np.int64),
                             "n_boiler": np.array(n_boiler,
                                                  dtype=np.int64)})

    per = sum_by(ds.map_batches(src_partial, batch_format="pandas"),
                 ["source"], ["n_docs", "n_pos", "n_boiler"])
    if per.empty:
        return empty
    n_pos = per["n_pos"].to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = per["n_boiler"].to_numpy(np.float64) / n_pos
    per["boiler_rate"] = np.where(n_pos > 0, rate, np.nan)
    return per.sort_values("source").reset_index(drop=True) \
        .astype({"n_docs": "int64", "n_pos": "int64", "n_boiler": "int64"})


register("boilerplate_ngrams", q_boilerplate_ngrams, f"""
    WITH perdoc AS (
      SELECT doc_id, source, {_WORD_SQL} AS arr FROM documents),
    g AS (
      SELECT doc_id, source,
             array_to_string(arr[i:i+{_BP_N - 1}], ' ') AS gram
      FROM (SELECT doc_id, source, arr,
                   unnest(range(1, len(arr) - {_BP_N - 2})) AS i
            FROM perdoc WHERE len(arr) >= {_BP_N})),
    dfreq AS (
      SELECT gram, COUNT(DISTINCT doc_id) AS df FROM g GROUP BY gram),
    b AS (SELECT gram FROM dfreq WHERE df >= {_BP_DF_MIN}),
    per AS (
      SELECT source, COUNT(*) AS n_pos,
             SUM(CASE WHEN gram IN (SELECT gram FROM b)
                 THEN 1 ELSE 0 END) AS n_boiler
      FROM g GROUP BY source),
    nd AS (SELECT source, COUNT(*) AS n_docs
           FROM documents GROUP BY source)
    SELECT nd.source, CAST(nd.n_docs AS BIGINT) AS n_docs,
           CAST(COALESCE(per.n_pos, 0) AS BIGINT) AS n_pos,
           CAST(COALESCE(per.n_boiler, 0) AS BIGINT) AS n_boiler,
           CAST(per.n_boiler AS DOUBLE) / CAST(per.n_pos AS DOUBLE)
             AS boiler_rate
    FROM nd LEFT JOIN per USING (source)
    ORDER BY nd.source""")


# -------------------------------------------------- prefix containment

def _md5(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


def q_prefix_containment(sf_dir: str) -> pd.DataFrame:
    """Per-source census of exact-duplicate docs and docs whose text is
    a strict prefix of another doc's text, via ONE distinct exchange +
    ONE sort of the distinct texts with a 2-strings-per-batch boundary
    stitch — module docstring."""
    import ray
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", ["source", "text"])

    def dcount(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].fillna("").value_counts()
        return pd.DataFrame({"text": vc.index.to_numpy(object),
                             "c": vc.to_numpy(np.int64)})

    empty = _empty_typed(source=object, n_docs="int64", n_dup_eq="int64",
                         n_prefix="int64", prefix_rate="float64")
    # metadata-only row count on the parquet scan — the empty guard
    # costs no execution pass (materializing the partials just to
    # count them would add a full extra pipeline run)
    if ds.count() == 0:
        return empty
    parts = ds.map_batches(dcount, batch_format="pandas")
    dist = parts.groupby("text").aggregate(Sum("c", alias_name="c"))
    sorted_ds = dist.sort("text")

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        # kind 0 = prefix of its in-batch successor (the last text's
        # successor lives in the next batch — the seam test covers
        # it), kind 1 = duplicated text; both as md5 of the text
        t = b["text"].to_numpy(object)
        c = b["c"].to_numpy(np.int64)
        rows = [(0, _md5(t[i])) for i in range(len(t) - 1)
                if len(t[i + 1]) > len(t[i]) and t[i + 1].startswith(t[i])]
        rows += [(1, _md5(t[i])) for i in range(len(t)) if c[i] > 1]
        return pd.DataFrame({"kind": pd.Series([r[0] for r in rows],
                                               dtype="int64"),
                             "h": pd.Series([r[1] for r in rows],
                                            dtype=object)})

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        return {"text": b["text"].iloc[0]}, {"text": b["text"].iloc[-1]}

    marks, first, last = ordered_pass(sorted_ds, ["text"], fold, edge,
                                      batch_size=2048)
    pre = set(marks.loc[marks["kind"] == 0, "h"])
    dup = frozenset(marks.loc[marks["kind"] == 1, "h"])
    # cross-seam: the last text of batch i against the first of i+1
    for a, b_ in zip(last["text"].to_numpy(object)[:-1],
                     first["text"].to_numpy(object)[1:]):
        if len(b_) > len(a) and b_.startswith(a):
            pre.add(_md5(a))
    pre_f = frozenset(pre)
    sets_ref = ray.put((pre_f, dup))

    def src_partial(b: pd.DataFrame) -> pd.DataFrame:
        from .stages.joins import _get_broadcast

        pre_s, dup_s = _get_broadcast(sets_ref)
        h = [_md5(t) for t in b["text"].fillna("")]
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_docs": np.int64(1),
            "n_dup_eq": np.array([x in dup_s for x in h], dtype=np.int64),
            "n_prefix": np.array([x in pre_s for x in h], dtype=np.int64)})

    per = sum_by(ds.map_batches(src_partial, batch_format="pandas"),
                 ["source"], ["n_docs", "n_dup_eq", "n_prefix"])
    if per.empty:
        return empty
    per["prefix_rate"] = per["n_prefix"].to_numpy(np.float64) \
        / per["n_docs"].to_numpy(np.float64)
    return per.sort_values("source").reset_index(drop=True) \
        .astype({"n_docs": "int64", "n_dup_eq": "int64",
                 "n_prefix": "int64"})


register("prefix_containment", q_prefix_containment, """
    WITH doc AS (SELECT source, coalesce(text, '') AS text
                 FROM documents),
    d AS (SELECT text, COUNT(*) AS c FROM doc GROUP BY text),
    s AS (SELECT text, c, lead(text) OVER (ORDER BY text) AS nxt FROM d),
    ctn AS (
      SELECT text, (c > 1) AS is_dup,
             (nxt IS NOT NULL AND length(nxt) > length(text)
              AND substr(nxt, 1, CAST(length(text) AS INT)) = text)
               AS is_pre
      FROM s),
    per AS (
      SELECT doc.source, COUNT(*) AS n_docs,
             SUM(CASE WHEN ctn.is_dup THEN 1 ELSE 0 END) AS n_dup_eq,
             SUM(CASE WHEN ctn.is_pre THEN 1 ELSE 0 END) AS n_prefix
      FROM doc JOIN ctn USING (text) GROUP BY doc.source)
    SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
           CAST(n_dup_eq AS BIGINT) AS n_dup_eq,
           CAST(n_prefix AS BIGINT) AS n_prefix,
           CAST(n_prefix AS DOUBLE) / CAST(n_docs AS DOUBLE)
             AS prefix_rate
    FROM per ORDER BY source""")


# --------------------------------------------------------- Good-Turing

def q_good_turing(sf_dir: str) -> pd.DataFrame:
    """Good-Turing frequency-of-frequencies over corpus unigram counts:
    r, N_r, r* = (r+1) * N_{r+1} / N_r (NaN where N_{r+1}=0) — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["text"])

    def wcount(b: pd.DataFrame) -> pd.DataFrame:
        toks: dict[str, int] = {}
        for t in b["text"].fillna(""):
            for w in _WORD_RE.findall(t.lower()):
                toks[w] = toks.get(w, 0) + 1
        if not toks:
            return pd.DataFrame({"w": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype="int64")})
        return pd.DataFrame({"w": list(toks),
                             "c": pd.Series(list(toks.values()),
                                            dtype="int64")})

    vocab = sum_by(
        ds.map_batches(wcount, batch_format="pandas"), ["w"], ["c"])
    empty = _empty_typed(r="int64", n_r="int64", r_star="float64")
    if vocab.empty:
        return empty
    cc = vocab.groupby("c").size()
    r = cc.index.to_numpy(np.int64)
    n_r = cc.to_numpy(np.int64)
    nxt = dict(zip(r.tolist(), n_r.tolist()))
    r_star = np.array(
        [(np.float64(int(ri) + 1) * np.float64(nxt[int(ri) + 1]))
         / np.float64(int(ni)) if int(ri) + 1 in nxt else np.nan
         for ri, ni in zip(r, n_r)], dtype=np.float64)
    out = pd.DataFrame({"r": r, "n_r": n_r, "r_star": r_star})
    return out.sort_values("r").reset_index(drop=True)


register("good_turing", q_good_turing, f"""
    WITH tok AS (
      SELECT unnest({_WORD_SQL}) AS w FROM documents),
    cnt AS (SELECT w, COUNT(*) AS c FROM tok GROUP BY w),
    cc AS (SELECT c AS r, CAST(COUNT(*) AS BIGINT) AS n_r
           FROM cnt GROUP BY c)
    SELECT a.r, a.n_r,
           CAST(a.r + 1 AS DOUBLE) * CAST(b.n_r AS DOUBLE)
             / CAST(a.n_r AS DOUBLE) AS r_star
    FROM cc a LEFT JOIN cc b ON b.r = a.r + 1
    ORDER BY a.r""")


# ------------------------------------------- weighted exact percentile

def q_weighted_median_price(sf_dir: str) -> pd.DataFrame:
    """Per-returnflag quantity-weighted exact p50/p90 of
    l_extendedprice: bounded (flag, price) weight histogram + the
    percentile_disc index rule cum >= ceil(W*p) — module docstring."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = np.rint(np.nan_to_num(
            b["l_quantity"].to_numpy(np.float64))).astype(np.int64)
        return pd.DataFrame({"l_returnflag": b["l_returnflag"]
                             .to_numpy(object),
                             "price": b["l_extendedprice"]
                             .to_numpy(np.float64),
                             "w": w})

    hist = sum_by(ds.map_batches(partial, batch_format="pandas"),
                  ["l_returnflag", "price"], ["w"])
    empty = _empty_typed(l_returnflag=object, total_qty="int64",
                         wmedian_price="float64", wp90_price="float64")
    if hist.empty:
        return empty
    hist = hist[hist["w"] > 0]
    if hist.empty:
        return empty
    rows = []
    for flag, g in hist.groupby("l_returnflag"):
        g = g.sort_values("price", kind="mergesort")
        cum = g["w"].to_numpy(np.int64).cumsum()
        prices = g["price"].to_numpy(np.float64)
        total = int(cum[-1])
        picks = [disc_pick(prices, cum, disc_rank_exact(total, tenths, 10))
                 for tenths in (5, 9)]  # p = 0.5, 0.9 in exact ints
        rows.append((flag, total, picks[0], picks[1]))
    out = pd.DataFrame(rows, columns=["l_returnflag", "total_qty",
                                      "wmedian_price", "wp90_price"])
    return out.sort_values("l_returnflag").reset_index(drop=True) \
        .astype({"total_qty": "int64"})


register("weighted_median_price", q_weighted_median_price, """
    WITH e AS (
      SELECT l_returnflag, l_extendedprice
      FROM (SELECT l_returnflag, l_extendedprice,
                   unnest(range(CAST(l_quantity AS BIGINT))) AS u
            FROM lineitem))
    SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS total_qty,
           percentile_disc(0.5) WITHIN GROUP (ORDER BY l_extendedprice)
             AS wmedian_price,
           percentile_disc(0.9) WITHIN GROUP (ORDER BY l_extendedprice)
             AS wp90_price
    FROM e GROUP BY l_returnflag ORDER BY l_returnflag""")
