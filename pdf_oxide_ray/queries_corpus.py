"""Corpus-diagnostics operator family: the statistical reports a
training-data curation run wants NEXT TO the dedup/quality filters the
earlier families provide — distribution-shape and redundancy metrics
over the `documents` table:

* `token_zipf_fit`   — least-squares Zipf-law fit (slope + intercept of
  log-frequency vs log-rank) over the corpus unigram distribution; the
  canonical "does this corpus look like natural language" check.
* `source_gini`      — Gini coefficient of document LENGTHS per source:
  data-inequality screening (a source whose length mass sits in a few
  giant docs packs/shards badly).
* `source_dup_stats` — per-source exact-duplicate rate (docs whose text
  already appeared under a smaller doc_id anywhere in the corpus): the
  dedup yield report run BEFORE committing to a full dedup pass.
* `df_histogram`     — document-frequency histogram (#tokens per df
  level): the inverted-index/posting-length profile that sizes a
  decontamination or retrieval index.
* `lang_source_mi`   — mutual information between the `lang` and
  `source` metadata columns: metadata-association diagnostic (high MI
  means per-source language models; near-zero means mixed sources).
* `ngram_diversity`  — per-source bigram type/token ratio (distinct-n
  diversity): the repetitiveness screen that flags template-heavy
  sources before tokenizer training.
* `source_vocab_overlap` — pairwise vocabulary Jaccard between
  sources (token-keyed bitmask OR + per-key-set boolean matmul): the
  lineage diagnostic one level above doc-exact duplication.

Shuffle budget (SCALE.md doctrine): every query pre-aggregates inside
``map_batches`` so the only exchanges carry (key, partial) rows —
token-vocab partials (Heaps-law bounded, like ``unigram_logprob``),
(source, length) histogram cells, (hash, min_id, cnt) triples, or
(lang, source) cells. `source_dup_stats` keeps the hash groupby
DISTRIBUTED above the reduce gate and ships only the HOT SET (hashes
with cnt > 1) to the driver for the broadcast verify pass — never the
full hash table. No corpus-sized driver materialization anywhere.

Exactness: every ln() is quantized to an int 1e-6 grid with half-away
rounding on BOTH sides (the ``tfidf_keywords``/``unigram_logprob``
technique); Gini and dup-rate finals divide IDENTICAL integers, so the
doubles are bit-equal in any summation order. Moment sums that can
exceed int64 (Zipf's Σlx·ly over the vocab) ride arbitrary-precision
Python ints on the driver, mirroring the twins' HUGEINT promotion.

Reference parity note: the reference's corpus-level surface is the
fold/report pass of its benchmark bins (`/root/reference/src/bin/
benchmark_all_pdfs.rs:84-230`); these are the distributed
generalizations of that report shape over the driver's document table.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import, like ``queries_relational``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .functions import dedup as fdedup
from .functions import textops as _ftext
from .ops import exchange as _xc
from .ops.exchange import _scoped_parallelism, combine_by_key
from .ops.quantile import disc_index, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register

# The whitespace tokenizer shared with unigram_logprob / tfidf_keywords:
# str.split() on the engine side == this fragment on the DuckDB side.
# canonical definitions live in functions/textops.py (a leaf module) so
# sibling query families can import them without a circular-import risk;
# these aliases keep this module's established names working
_TOK_SQL = _ftext.TOK_SQL
_halfaway6 = _ftext.halfaway6


# ---------------------------------------------------------------------------
# Zipf-law fit over the corpus unigram distribution
# ---------------------------------------------------------------------------

def q_token_zipf_fit(sf_dir: str) -> pd.DataFrame:
    """Least-squares fit of ln(frequency) against ln(rank) over the
    corpus unigram table — the Zipf-law exponent (slope ≈ −1 for
    natural text; far off signals synthetic/degenerate data). ONE
    streamed pass builds vocab count partials per batch; the reduce is
    vocab-bounded (Heaps law, same assumption as ``unigram_logprob``).
    Ranking + moments run on the driver over the vocab table only.
    Exactness: both lns are quantized half-away to the 1e-6 int grid;
    the four moment sums ride arbitrary-precision Python ints (Σlx·ly
    overflows int64 past ~70k terms — the twins' SUM(BIGINT) promotes
    to HUGEINT, so Python ints are the matching arbitrary-precision
    form). slope/intercept divide/combine identical integers cast to
    double in the identical operand order."""
    ds = _pq(sf_dir, "documents", ["text"])

    def tok_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        c = pd.Series([t for row in toks for t in row],
                      dtype=object).value_counts()
        return pd.DataFrame({"token": c.index.astype(object),
                             "n": c.to_numpy(np.int64)})

    vocab = _reduce_partials(ds.map_batches(tok_counts,
                                            batch_format="pandas"),
                             ["token"], ["n"])
    if vocab.empty:
        # twin's aggregate over zero terms: one (0, NULL, NULL) row
        return pd.DataFrame({"n_terms": pd.Series([0], dtype="int64"),
                             "slope": [np.nan], "intercept": [np.nan]})
    vocab = vocab.sort_values(["n", "token"],
                              ascending=[False, True], kind="mergesort")
    k = len(vocab)
    lx = _halfaway6(np.log(np.arange(1, k + 1, dtype=np.float64)))
    ly = _halfaway6(np.log(vocab["n"].to_numpy(np.float64)))
    # arbitrary-precision moments (HUGEINT twin): Python ints
    sx, sy = int(lx.sum()), int(ly.sum())  # per-term vals < 2e7: safe
    sxy = sum(map(int.__mul__, lx.tolist(), ly.tolist()))
    sxx = sum(map(int.__mul__, lx.tolist(), lx.tolist()))
    den = k * sxx - sx * sx
    if den == 0:
        return pd.DataFrame({"n_terms": pd.Series([k], dtype="int64"),
                             "slope": [np.nan], "intercept": [np.nan]})
    slope = float(k * sxy - sx * sy) / float(den)
    intercept = (float(sy) - slope * float(sx)) / float(k) / 1e6
    return pd.DataFrame({"n_terms": pd.Series([k], dtype="int64"),
                         "slope": [slope], "intercept": [intercept]})


# ---------------------------------------------------------------------------
# Gini coefficient of document lengths per source
# ---------------------------------------------------------------------------

def q_source_gini(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of ``n_chars`` per source — inequality of the
    length distribution (0 = uniform, →1 = a few giant docs hold the
    mass). Streamed as a BOUNDED VALUE HISTOGRAM: per-batch
    (source, n_chars)→count partials, one (source, value)-cell reduce
    (cells ≤ #sources × #distinct lengths — histogram-bounded, never
    corpus-bounded), then the exact closed form from cumulative ranks:
    Gini = (2·Σᵢ i·xᵢ − (n+1)·Σx) / (n·Σx) with x ascending. A run of
    c equal values v starting after rank r0 contributes
    v·(c·r0 + c(c+1)/2) — all integer, summed in Python ints; the final
    divide sees identical integers on both sides."""
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["n_chars"])
        g = pd.DataFrame({"source": b["source"].to_numpy(object),
                          "v": b["n_chars"].to_numpy(np.int64),
                          "c": np.int64(1)})
        return g.groupby(["source", "v"], as_index=False).sum()

    hist = _reduce_partials(ds.map_batches(cells, batch_format="pandas"),
                            ["source", "v"], ["c"])
    if hist.empty:
        return _empty_typed(source=object, n_docs="int64", gini="float64")
    rows = []
    for source, g in hist.groupby("source", sort=True):
        g = g.sort_values("v", kind="mergesort")
        n = t = s = r0 = 0
        for v, c in zip(g["v"].tolist(), g["c"].tolist()):
            v, c = int(v), int(c)
            t += v * c
            s += v * (c * r0 + c * (c + 1) // 2)
            r0 += c
            n += c
        gini = (float(2 * s - (n + 1) * t) / float(n * t)
                if n * t != 0 else np.nan)
        rows.append((source, n, gini))
    return pd.DataFrame(rows, columns=["source", "n_docs", "gini"]) \
        .astype({"n_docs": "int64", "gini": "float64"}) \
        .sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# per-source exact-duplicate rate (dedup yield report)
# ---------------------------------------------------------------------------

def q_source_dup_stats(sf_dir: str) -> pd.DataFrame:
    """Per-source exact-dup diagnostics: how many docs per source are
    byte-identical to a doc with a smaller doc_id ANYWHERE in the
    corpus (the cross-source dedup yield you check before a full dedup
    pass). Below the reduce gate: driver-combine the (hash, min_id,
    cnt) partials and broadcast the hash→keeper dict once (one pass
    counts docs + dups per source). Above it: the hash groupby AND the
    dup-group table STAY DISTRIBUTED — ``adaptive_join`` routes docs ×
    dup-groups as a broadcast or ONE bucketed exchange from the dup
    table's own stats (a worst-case corpus where half the docs are
    copies never materializes on the driver); per-source totals and dup
    counts reduce to dimension-sized frames. dup_rate divides the
    identical int64 pair on both sides. The twin groups by raw text
    (equality on text == equality on the collision-safe hash), so no
    hash-function parity is needed."""
    import ray

    from .stages.joins import _get_broadcast, adaptive_join

    ds = _pq(sf_dir, "documents", ["doc_id", "source", "text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                          "doc_id": b["doc_id"].to_numpy(np.int64)})
        a = g.groupby("h")["doc_id"].agg(["min", "count"]).reset_index()
        return pd.DataFrame({"h": a["h"], "min_id": a["min"],
                             "cnt": a["count"].astype(np.int64)})

    m = ds.map_batches(hpart, batch_format="pandas").materialize()
    npart = m.count()
    empty = _empty_typed(source=object, n_docs="int64", n_dups="int64",
                         dup_rate="float64")
    if npart == 0:
        return empty

    def _finish(agg: pd.DataFrame) -> pd.DataFrame:
        if agg.empty:
            return empty
        agg["dup_rate"] = agg["n_dups"].astype(np.float64) \
            / agg["n_docs"].astype(np.float64)
        return agg.astype({"n_docs": "int64", "n_dups": "int64"}) \
            [["source", "n_docs", "n_dups", "dup_rate"]] \
            .sort_values("source").reset_index(drop=True)

    if npart <= _xc.GATE_ROWS:
        a = m.to_pandas().groupby("h", as_index=False) \
            .agg(min_id=("min_id", "min"), cnt=("cnt", "sum"))
        dup = a[a["cnt"] > 1]
        keeper_ref = ray.put(
            dict(zip(dup["h"], dup["min_id"].astype(np.int64)))
            if not dup.empty else {})

        def spart(b: pd.DataFrame) -> pd.DataFrame:
            keeper = _get_broadcast(keeper_ref)
            h = fdedup.content_hash(b["text"])
            kp = h.map(keeper)  # NaN where hash has no dup group
            hit = kp.notna().to_numpy()
            is_dup = np.zeros(len(b), dtype=bool)
            if hit.any():  # compare only the hits — an int64-max NaN
                # sentinel would warn (float->int64 cast overflow)
                is_dup[hit] = (b["doc_id"].to_numpy(np.int64)[hit]
                               > kp[hit].astype(np.int64).to_numpy())
            g = pd.DataFrame({"source": b["source"].to_numpy(object),
                              "n_docs": np.int64(1),
                              "n_dups": is_dup.astype(np.int64)})
            return g.groupby("source", as_index=False).sum()

        return _finish(_reduce_partials(
            ds.map_batches(spart, batch_format="pandas"),
            ["source"], ["n_docs", "n_dups"]))

    # 100-TB path: dup groups never leave the cluster as one table
    from ray.data.aggregate import Min, Sum

    with _scoped_parallelism(64):
        dup_ds = m.groupby("h").aggregate(
            Min("min_id", alias_name="min_id"),
            Sum("cnt", alias_name="cnt")) \
            .map_batches(lambda b: b[b["cnt"] > 1][["h", "min_id"]],
                         batch_format="pandas").materialize()

    def tpart(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"source": b["source"].to_numpy(object),
                          "n_docs": np.int64(1)})
        return g.groupby("source", as_index=False).sum()

    totals = _reduce_partials(ds.map_batches(tpart,
                                             batch_format="pandas"),
                              ["source"], ["n_docs"])
    if totals.empty:
        return empty
    if dup_ds.count() == 0:  # zero dup groups: to_pandas() would drop
        # the schema (column-less frame) inside the broadcast join
        agg = totals.assign(n_dups=np.int64(0))
        return _finish(agg)

    def skinny(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                             "doc_id": b["doc_id"].to_numpy(np.int64),
                             "source": b["source"].to_numpy(object)})

    joined = adaptive_join(ds.map_batches(skinny, batch_format="pandas"),
                           dup_ds, left_on="h", right_on="h")

    def dpart(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_dups": (b["doc_id"].to_numpy(np.int64)
                       > b["min_id"].to_numpy(np.int64))
            .astype(np.int64)})
        return g.groupby("source", as_index=False).sum()

    dups = _reduce_partials(joined.map_batches(dpart,
                                               batch_format="pandas"),
                            ["source"], ["n_dups"])
    agg = totals.merge(dups, on="source", how="left")
    agg["n_dups"] = agg["n_dups"].fillna(0).astype(np.int64)
    return _finish(agg)


# ---------------------------------------------------------------------------
# document-frequency histogram (inverted-index posting profile)
# ---------------------------------------------------------------------------

def q_df_histogram(sf_dir: str) -> pd.DataFrame:
    """Histogram of token DOCUMENT frequency: for each df level, how
    many distinct tokens appear in exactly df documents — the
    posting-length profile that sizes an inverted index (and the tail
    that a decontamination n-gram table must hold). Per batch: explode
    tokens, drop within-doc repeats (vectorized MultiIndex dedup), emit
    (token, df) partials; ONE vocab-bounded reduce; the driver folds
    the vocab into the (df, n_tokens) histogram (≤ #distinct df levels
    rows). All counts are exact integers."""
    ds = _pq(sf_dir, "documents", ["text"])

    def dfp(b: pd.DataFrame) -> pd.DataFrame:
        e = b["text"].fillna("").str.split().explode().dropna()
        if e.empty:
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "df": pd.Series([], dtype="int64")})
        pairs = pd.DataFrame({"i": e.index.to_numpy(),
                              "token": e.to_numpy(object)}) \
            .drop_duplicates()
        c = pairs["token"].value_counts()
        return pd.DataFrame({"token": c.index.astype(object),
                             "df": c.to_numpy(np.int64)})

    vocab = _reduce_partials(ds.map_batches(dfp, batch_format="pandas"),
                             ["token"], ["df"])
    if vocab.empty:
        return _empty_typed(df="int64", n_tokens="int64")
    h = vocab["df"].value_counts().sort_index()
    return pd.DataFrame({"df": h.index.to_numpy(np.int64),
                         "n_tokens": h.to_numpy(np.int64)}) \
        .reset_index(drop=True)


# ---------------------------------------------------------------------------
# lang x source mutual information (metadata association)
# ---------------------------------------------------------------------------

def q_lang_source_mi(sf_dir: str) -> pd.DataFrame:
    """Mutual information I(lang; source) over the document metadata —
    near zero means sources are language-mixed, high means language is
    per-source (so per-source LMs / routing make sense). ONE streamed
    pass of (lang, source) count partials (cells = #langs × #sources,
    dimension-bounded); marginals + MI on the driver. Each cell's
    ln(N·n_ls / (n_l·n_s)) is quantized half-away to the 1e-6 int grid
    on both sides; MI = Σ n_ls·t6 / N / 1e6 divides identical integers."""
    ds = _pq(sf_dir, "documents", ["lang", "source"])

    def cellp(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"lang": b["lang"].to_numpy(object),
                          "source": b["source"].to_numpy(object),
                          "n": np.int64(1)})
        return g.groupby(["lang", "source"], as_index=False).sum()

    cells = _reduce_partials(ds.map_batches(cellp, batch_format="pandas"),
                             ["lang", "source"], ["n"])
    if cells.empty:
        return _empty_typed(n_docs="int64", mi="float64")
    n = cells["n"].to_numpy(np.int64)
    total = int(n.sum())
    nl = cells.groupby("lang")["n"].transform("sum").to_numpy(np.int64)
    ns = cells.groupby("source")["n"].transform("sum").to_numpy(np.int64)
    raw = np.log((total * n).astype(np.float64)
                 / (nl * ns).astype(np.float64))
    t6 = _halfaway6(raw)
    acc = sum(map(int.__mul__, n.tolist(), t6.tolist()))
    mi = float(acc) / float(total) / 1e6
    return pd.DataFrame({"n_docs": pd.Series([total], dtype="int64"),
                         "mi": [mi]})


# ---------------------------------------------------------------------------
# BPE merge-step pair counts (tokenizer-training primitive)
# ---------------------------------------------------------------------------

_BPE_TOPK = 30


def q_bpe_pair_counts(sf_dir: str) -> pd.DataFrame:
    """Adjacent character-pair counts within whitespace tokens — the
    counting step of one BPE tokenizer-training merge round (the most
    frequent pair is the next merge). Vectorized per batch: tokens
    join on a NUL sentinel, one codepoint array, shifted
    ``np.char.add`` forms every in-token bigram, sentinel-adjacent
    positions mask out. The reduce is alphabet²-bounded; the driver
    ranks (n DESC, pair ASC — total order, so the top-k cut is
    deterministic) and keeps the top 30."""
    ds = _pq(sf_dir, "documents", ["text"])

    def pp(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split().explode().dropna()
        toks = toks[toks.str.len() > 1]
        if toks.empty:
            return pd.DataFrame({"pair": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        joined = "\x00".join(toks.tolist())
        a = np.array(list(joined))
        bi = np.char.add(a[:-1], a[1:])
        mask = (a[:-1] != "\x00") & (a[1:] != "\x00")
        c = pd.Series(bi[mask]).value_counts()
        return pd.DataFrame({"pair": c.index.astype(object),
                             "n": c.to_numpy(np.int64)})

    agg = _reduce_partials(ds.map_batches(pp, batch_format="pandas"),
                           ["pair"], ["n"])
    if agg.empty:
        return _empty_typed(pair=object, n="int64")
    return agg.sort_values(["n", "pair"], ascending=[False, True],
                           kind="mergesort").head(_BPE_TOPK) \
        .astype({"n": "int64"}).reset_index(drop=True)


# ---------------------------------------------------------------------------
# revenue concentration curve (top-k% mass — rank-based Pareto report)
# ---------------------------------------------------------------------------

_CONC_PS = (0.01, 0.05, 0.10, 0.25, 0.50)


def q_revenue_concentration(sf_dir: str) -> pd.DataFrame:
    """Share of total revenue held by the top 1/5/10/25/50 % of
    customers — the rank-based concentration curve (the '80/20 report')
    that complements ``source_gini``'s closed-form index. This is an
    ORDER-STATISTIC over an aggregate, not a value histogram, so the
    bounded-histogram trick does not apply; instead: per-customer int64
    cent totals (skinny partials), then below the reduce gate a driver
    sort+cumsum, and above it ONE distributed sort of the (custkey,
    rev_c) aggregate whose ordered blocks each report only (rows, sum)
    to the driver — O(#blocks) driver state — and only the ≤5 BOUNDARY
    blocks are ever fetched to split the k-th rank in-block (raw-ray
    block access: the Dataset API cannot express a prefix scan over
    sorted blocks). Both sides rank by (rev_c DESC, custkey ASC) —
    a total order, so every boundary is deterministic; shares divide
    identical integers. k = CEIL(n·p) in identical double math."""
    import ray

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    from .queries import _cents

    def part(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"o_custkey": b["o_custkey"].to_numpy(np.int64),
                          "rev_c": _cents(b["o_totalprice"]).to_numpy()})
        return g.groupby("o_custkey", as_index=False).sum()

    parts = ds.map_batches(part, batch_format="pandas").materialize()
    npart = parts.count()
    empty = _empty_typed(p="float64", n_cust="int64", share="float64")
    if npart == 0:
        return empty

    def _curve(n: int, tot: int, topsum) -> pd.DataFrame:
        rows = [(p, n, (float(topsum(p)) / float(tot)) if tot else np.nan)
                for p in _CONC_PS]
        return pd.DataFrame(rows, columns=["p", "n_cust", "share"]) \
            .astype({"p": "float64", "n_cust": "int64",
                     "share": "float64"})

    if npart <= _xc.GATE_ROWS:
        pc = parts.to_pandas().groupby("o_custkey", as_index=False) \
            ["rev_c"].sum() \
            .sort_values(["rev_c", "o_custkey"], ascending=[False, True],
                         kind="mergesort")
        rev = pc["rev_c"].to_numpy(np.int64)
        n, tot, cum = len(pc), int(rev.sum()), np.cumsum(rev)
        return _curve(n, tot, lambda p: int(cum[disc_rank(n, p) - 1]))

    # distributed path: sorted blocks report (rows, sum); boundaries only
    from ray.data.aggregate import Sum

    with _scoped_parallelism(64):
        pc_sorted = parts.groupby("o_custkey").aggregate(
            Sum("rev_c", alias_name="rev_c")) \
            .sort(["rev_c", "o_custkey"], descending=[True, False]) \
            .materialize()
    refs = pc_sorted.to_arrow_refs()

    @ray.remote
    def block_stats(tbl) -> tuple:
        import pyarrow.compute as pc_

        return (tbl.num_rows,
                int(pc_.sum(tbl.column("rev_c")).as_py() or 0))

    stats = ray.get([block_stats.remote(r) for r in refs])
    ns = np.array([s[0] for s in stats], dtype=np.int64)
    cum_n = np.cumsum(ns)
    from itertools import accumulate

    cum_s = list(accumulate(s[1] for s in stats))  # python ints: exact
    # past int64 (the twin's SUM promotes to HUGEINT)
    n, tot = int(cum_n[-1]), int(cum_s[-1])

    def topsum(p: float) -> int:
        k = disc_rank(n, p)
        bi = disc_index(cum_n, k)
        prior_n = int(cum_n[bi - 1]) if bi else 0
        prior_s = int(cum_s[bi - 1]) if bi else 0
        tbl = ray.get(refs[bi])
        rev = np.asarray(tbl.column("rev_c"))
        return prior_s + int(rev[: k - prior_n].sum())

    return _curve(n, tot, topsum)


def q_ngram_diversity(sf_dir: str) -> pd.DataFrame:
    """Per-source bigram type/token ratio (distinct-n diversity) — the
    standard repetitiveness screen over a training corpus: a source
    whose ratio collapses is template/boilerplate-heavy and a dedup or
    repetition-filter target. ONE streamed pass emits per-batch
    (source, gram, n) partial counts (the ``bigram_pmi`` in-doc shift
    combiner); the gated keyed combine turns each (source, gram) key
    set into (source, n_distinct, n_bigrams) partials that sum per
    source — above the gate the driver only ever holds #sources rows
    per bucket, never a bigram vocabulary. The final
    ratio divides the two exact int64 counts (one IEEE division, then
    the shared half-away 1e-6 quantization — twin identical).
    Sources whose docs have no bigrams (<2 tokens) are absent on both
    sides."""
    ds = _pq(sf_dir, "documents", ["text", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("").str.split().explode().dropna()
        empty = pd.DataFrame({"source": pd.Series([], dtype=object),
                              "gram": pd.Series([], dtype=object),
                              "n": pd.Series([], dtype="int64")})
        if s.empty:
            return empty
        nxt = s.groupby(level=0).shift(-1)
        grams = (s + " " + nxt).dropna()
        if grams.empty:
            return empty
        return pd.DataFrame({
            "source": b["source"].loc[grams.index].to_numpy(object),
            "gram": grams.to_numpy(object),
            "n": np.int64(1)}) \
            .groupby(["source", "gram"], as_index=False).sum()

    def per_source(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby(["source", "gram"], as_index=False)["n"].sum() \
            .groupby("source", as_index=False) \
            .agg(n_bigrams=("n", "sum"), n_distinct=("n", "size"))

    out = combine_by_key(ds.map_batches(partial, batch_format="pandas"),
                         ["source", "gram"], per_source)
    if out.empty:
        return _empty_typed(source=object, n_bigrams="int64",
                            n_distinct="int64", diversity="float64")
    out = out.groupby("source", as_index=False)[
        ["n_bigrams", "n_distinct"]].sum()
    nd = out["n_distinct"].to_numpy(np.int64)
    nb = out["n_bigrams"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": out["source"].to_numpy(object),
        "n_bigrams": nb, "n_distinct": nd,
        "diversity": _halfaway6(nd.astype(np.float64)
                                / nb.astype(np.float64)) / 1e6}) \
        .sort_values("source").reset_index(drop=True)


def q_source_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise VOCABULARY Jaccard between sources — the lineage
    diagnostic one level above ``cross_source_dups`` (doc-level): two
    sources sharing most of their token vocabulary are the same feed
    even when no document is byte-identical. Distributed shape:
    per-batch distinct (token, source) pairs; ONE token-keyed exchange
    combines each token's source set as a fixed-width BITMASK
    (``functions.bitmask``: ``ceil(#sources/63)`` int64 words, so ANY
    source count rides the same plan) in the gated keyed combine; per
    key set the pair counts are ONE boolean matmul ``B.T @ B`` over
    the unpacked mask bits (#sources² cells), and the driver reduces
    #sources² partials — above the gate the vocabulary itself NEVER
    reaches the driver. Jaccard divides exact int64 counts once (IEEE), then
    the shared half-away 1e-6 quantization; only pairs with common
    vocab appear (the twin's inner-join semantics)."""
    from .functions import bitmask as bm

    ds = _pq(sf_dir, "documents", ["text", "source"])

    src = _reduce_partials(
        ds.map_batches(
            lambda b: b[["source"]].drop_duplicates()
            .assign(n=np.int64(1)),
            batch_format="pandas"),
        ["source"], ["n"])
    empty = _empty_typed(source_a=object, source_b=object,
                         n_common="int64", jaccard="float64")
    if src.empty:
        return empty
    sources = sorted(src["source"].astype(str))
    nsrc = len(sources)
    nw = bm.n_words(nsrc)
    code_of = {s: i for i, s in enumerate(sources)}

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("").str.split().explode().dropna()
        if s.empty:
            return pd.DataFrame(
                {"token": pd.Series([], dtype=object),
                 **{c: pd.Series([], dtype="int64")
                    for c in bm.mask_cols(nw)}})
        g = pd.DataFrame({
            "token": s.to_numpy(object),
            "code": b["source"].loc[s.index].map(code_of)
            .to_numpy(np.int64)}).drop_duplicates()
        # pre-OR within the batch so the exchange carries one row per
        # (token, batch), not one per (token, source, batch) —
        # vectorized via factorize + sorted reduceat (no per-group
        # Python lambda)
        codes, uniq = pd.factorize(g["token"], sort=False)
        masks = bm.encode_codes(g["code"].to_numpy(np.int64), nw)
        out = bm.or_by_key(codes, masks, "_tok")
        out.insert(0, "token", uniq[out.pop("_tok")].astype(object))
        return out

    def block_counts(b: pd.DataFrame) -> pd.DataFrame:
        bits = bm.unpack_bits(b, nw, nsrc).astype(np.int64)
        mat = bits.T @ bits  # (nsrc, nsrc) pair counts for this block
        i, j = np.triu_indices(nsrc)
        return pd.DataFrame({"i": i.astype(np.int64),
                             "j": j.astype(np.int64),
                             "n": mat[i, j].astype(np.int64)})

    agg = combine_by_key(
        ds.map_batches(pairs, batch_format="pandas"), ["token"],
        lambda d: block_counts(bm.fold_or(d, "token", nw)))
    if agg.empty:
        return empty
    agg = agg.groupby(["i", "j"], as_index=False)["n"].sum()
    diag = {int(r["i"]): int(r["n"]) for _, r in agg.iterrows()
            if r["i"] == r["j"]}
    off = agg[(agg["i"] != agg["j"]) & (agg["n"] > 0)]
    if off.empty:
        return empty
    na = off["i"].map(diag).to_numpy(np.int64)
    nb = off["j"].map(diag).to_numpy(np.int64)
    nab = off["n"].to_numpy(np.int64)
    raw = nab.astype(np.float64) / (na + nb - nab).astype(np.float64) * 1e6
    j6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw)
    return pd.DataFrame({
        "source_a": off["i"].map(dict(enumerate(sources)))
        .to_numpy(object),
        "source_b": off["j"].map(dict(enumerate(sources)))
        .to_numpy(object),
        "n_common": nab, "jaccard": j6 / 1e6}) \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)


def q_source_length_ks(sf_dir: str) -> pd.DataFrame:
    """Distribution-drift screen: for every source, the exact
    two-sample Kolmogorov-Smirnov statistic between ITS document-length
    distribution and the WHOLE corpus' — the curator's "which feed is
    distributionally weird" report. ONE bounded (source, n_chars)
    histogram reduce (the ``source_gini`` cells); the ECDF gap
    ``max |F_a - F| = max |ca*n - cg*na| / (na*n)`` is an EXACT
    integer argmax over histogram cells in Python big ints (driver-side
    small final — cells are #sources x #distinct lengths), closed by
    ONE IEEE division mirrored by the twin — no quantization anywhere.
    Sources with zero docs cannot appear; an all-one-source corpus
    yields ks = 0 exactly on both sides."""
    ds = _pq(sf_dir, "documents", ["source", "n_chars"])

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_chars": b["n_chars"].to_numpy(np.int64),
            "c": np.int64(1)}) \
            .groupby(["source", "n_chars"], as_index=False).sum()

    h = _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                         ["source", "n_chars"], ["c"])
    if h.empty:
        return _empty_typed(source=object, n_docs="int64", ks="float64")
    vals = np.sort(h["n_chars"].unique())
    g_counts = h.groupby("n_chars")["c"].sum() \
        .reindex(vals, fill_value=0).to_numpy(np.int64)
    g_cum = np.cumsum(g_counts)
    ng = int(g_cum[-1])
    rows = []
    for src, grp in h.groupby("source"):
        a = grp.groupby("n_chars")["c"].sum() \
            .reindex(vals, fill_value=0).to_numpy(np.int64)
        a_cum = np.cumsum(a)
        na = int(a_cum[-1])
        best = 0
        for ca, cg in zip(a_cum.tolist(), g_cum.tolist()):
            d = abs(int(ca) * ng - int(cg) * na)
            if d > best:
                best = d
        rows.append((src, na, float(best)
                     / (float(na) * float(ng))))
    return pd.DataFrame(rows, columns=["source", "n_docs", "ks"]) \
        .astype({"n_docs": "int64", "ks": "float64"}) \
        .sort_values("source").reset_index(drop=True)


# both lns quantized half-away at 1e-6; moments promote to HUGEINT
# (mirrored by Python-int sums); slope/intercept combine identical
# integers cast to double in the identical operand order.
register("token_zipf_fit", q_token_zipf_fit, rf"""
        WITH toks AS (
          SELECT {_TOK_SQL} AS token FROM documents),
        vocab AS (
          SELECT token, COUNT(*) AS n FROM toks GROUP BY token),
        ranked AS (
          SELECT CAST(ROW_NUMBER() OVER (ORDER BY n DESC, token)
                      AS BIGINT) AS r, n
          FROM vocab),
        q AS (
          SELECT CAST(round(ln(CAST(r AS DOUBLE)) * 1000000)
                      AS BIGINT) AS lx,
                 CAST(round(ln(CAST(n AS DOUBLE)) * 1000000)
                      AS BIGINT) AS ly
          FROM ranked),
        m AS (
          SELECT COUNT(*) AS k, SUM(lx) AS sx, SUM(ly) AS sy,
                 SUM(lx * ly) AS sxy, SUM(lx * lx) AS sxx
          FROM q)
        SELECT CAST(k AS BIGINT) AS n_terms,
               CASE WHEN k = 0 OR k * sxx - sx * sx = 0 THEN NULL
                    ELSE CAST(k * sxy - sx * sy AS DOUBLE)
                         / CAST(k * sxx - sx * sx AS DOUBLE)
               END AS slope,
               CASE WHEN k = 0 OR k * sxx - sx * sx = 0 THEN NULL
                    ELSE (CAST(sy AS DOUBLE)
                          - (CAST(k * sxy - sx * sy AS DOUBLE)
                             / CAST(k * sxx - sx * sx AS DOUBLE))
                            * CAST(sx AS DOUBLE))
                         / CAST(k AS DOUBLE) / 1000000.0
               END AS intercept
        FROM m""")

# Gini from cumulative ranks: ROW_NUMBER within ties is arbitrary
# but Σ i·v over a tied run is order-invariant (same v).
register("source_gini", q_source_gini, """
        WITH x AS (
          SELECT source, CAST(n_chars AS BIGINT) AS v
          FROM documents WHERE n_chars IS NOT NULL),
        r AS (
          SELECT source, v,
                 CAST(ROW_NUMBER() OVER (
                      PARTITION BY source ORDER BY v) AS BIGINT) AS i
          FROM x),
        m AS (
          SELECT source, COUNT(*) AS n, SUM(v) AS t, SUM(i * v) AS s
          FROM r GROUP BY source)
        SELECT source, CAST(n AS BIGINT) AS n_docs,
               CASE WHEN n * t = 0 THEN NULL
                    ELSE CAST(2 * s - (n + 1) * t AS DOUBLE)
                         / CAST(n * t AS DOUBLE)
               END AS gini
        FROM m ORDER BY source""")

# keeper per text = MIN(doc_id); dup = strictly-later copy. GROUP BY
# text == GROUP BY collision-safe hash, so no hash parity needed.
register("source_dup_stats", q_source_dup_stats, """
        WITH h AS (
          SELECT doc_id, source, coalesce(text, '') AS t
          FROM documents),
        k AS (
          SELECT t, MIN(doc_id) AS keeper, COUNT(*) AS c
          FROM h GROUP BY t)
        SELECT h.source, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(CASE WHEN k.c > 1 AND h.doc_id > k.keeper
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_dups,
               CAST(SUM(CASE WHEN k.c > 1 AND h.doc_id > k.keeper
                             THEN 1 ELSE 0 END) AS DOUBLE)
               / CAST(COUNT(*) AS DOUBLE) AS dup_rate
        FROM h JOIN k USING (t)
        GROUP BY h.source ORDER BY h.source""")

register("df_histogram", q_df_histogram, rf"""
        WITH toks AS (
          SELECT DISTINCT doc_id, token
          FROM (SELECT doc_id, {_TOK_SQL} AS token FROM documents)),
        dfreq AS (
          SELECT token, CAST(COUNT(*) AS BIGINT) AS df
          FROM toks GROUP BY token)
        SELECT df, CAST(COUNT(*) AS BIGINT) AS n_tokens
        FROM dfreq GROUP BY df ORDER BY df""")

# per-cell ln quantized half-away at 1e-6; Σ n·t6 promotes to
# HUGEINT (Python ints on the engine side); MI divides identical
# integers. Zero-row input yields zero rows on both sides.
register("lang_source_mi", q_lang_source_mi, """
        WITH c AS (
          SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n
          FROM documents GROUP BY 1, 2),
        tot AS (SELECT SUM(n) AS total FROM c),
        l AS (SELECT lang, SUM(n) AS nl FROM c GROUP BY lang),
        s AS (SELECT source, SUM(n) AS ns FROM c GROUP BY source),
        t AS (
          SELECT c.n,
                 CAST(round(ln(CAST((SELECT total FROM tot) * c.n
                                    AS DOUBLE)
                               / CAST(l.nl * s.ns AS DOUBLE))
                            * 1000000) AS BIGINT) AS t6
          FROM c JOIN l USING (lang) JOIN s USING (source))
        SELECT CAST(tot.total AS BIGINT) AS n_docs,
               CAST((SELECT SUM(n * t6) FROM t) AS DOUBLE)
               / CAST(tot.total AS DOUBLE) / 1000000.0 AS mi
        FROM tot WHERE tot.total IS NOT NULL""")

# rank by (rev_c DESC, custkey ASC) — a total order; k = CEIL(n·p)
# in identical double math; shares divide identical integers.
register("revenue_concentration", q_revenue_concentration, """
        WITH pc AS (
          SELECT o_custkey,
                 SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev_c
          FROM orders GROUP BY o_custkey),
        agg AS (SELECT COUNT(*) AS n, SUM(rev_c) AS tot FROM pc),
        r AS (
          SELECT rev_c,
                 ROW_NUMBER() OVER (ORDER BY rev_c DESC, o_custkey)
                   AS rnk
          FROM pc),
        ps(p) AS (VALUES (0.01), (0.05), (0.10), (0.25), (0.50))
        SELECT ps.p, CAST(agg.n AS BIGINT) AS n_cust,
               CASE WHEN agg.tot = 0 THEN NULL
                    ELSE CAST(SUM(CASE WHEN r.rnk <=
                                  CEIL(CAST(agg.n AS DOUBLE) * ps.p)
                                  THEN r.rev_c ELSE 0 END) AS DOUBLE)
                         / CAST(agg.tot AS DOUBLE)
               END AS share
        FROM r, ps, agg
        GROUP BY ps.p, agg.n, agg.tot
        ORDER BY ps.p""")

# (n DESC, pair ASC) is a total order — the top-k cut is exact
register("bpe_pair_counts", q_bpe_pair_counts, rf"""
        WITH toks AS (
          SELECT {_TOK_SQL} AS w FROM documents),
        pos AS (
          SELECT w, unnest(range(1, length(w))) AS i
          FROM toks WHERE length(w) > 1),
        pairs AS (SELECT substr(w, CAST(i AS INT), 2) AS pair FROM pos),
        c AS (
          SELECT pair, CAST(COUNT(*) AS BIGINT) AS n
          FROM pairs GROUP BY pair)
        SELECT pair, n FROM c
        ORDER BY n DESC, pair LIMIT {_BPE_TOPK}""")

# same in-doc bigram construction as bigram_pmi's twin; the ratio
# divides the two exact counts then quantizes half-away at 1e-6
register("ngram_diversity", q_ngram_diversity, r"""
        WITH arr AS (
          SELECT source,
                 list_filter(regexp_split_to_array(coalesce(text, ''),
                                                   '\s+'),
                             x -> x <> '') AS a
          FROM documents),
        bi AS (
          SELECT source,
                 unnest(list_transform(range(1, len(a)),
                        i -> a[i] || ' ' || a[i + 1])) AS gram
          FROM arr)
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
               CAST(COUNT(DISTINCT gram) AS BIGINT) AS n_distinct,
               ROUND(CAST(COUNT(DISTINCT gram) AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE) * 1000000, 0)
               / 1000000.0 AS diversity
        FROM bi GROUP BY source""")

# same whitespace tokenizer; inner-join semantics (only pairs with
# common vocab); one IEEE division of exact counts + half-away 1e-6
register("source_vocab_overlap", q_source_vocab_overlap, rf"""
        WITH ts AS (
          SELECT DISTINCT source, tok
          FROM (SELECT source, {_TOK_SQL} AS tok FROM documents)),
        v AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS nv
              FROM ts GROUP BY 1),
        ab AS (
          SELECT a.source AS source_a, b.source AS source_b,
                 CAST(COUNT(*) AS BIGINT) AS n_common
          FROM ts a JOIN ts b
            ON a.tok = b.tok AND a.source < b.source
          GROUP BY 1, 2)
        SELECT source_a, source_b, n_common,
               ROUND(CAST(n_common AS DOUBLE)
                     / CAST(va.nv + vb.nv - n_common AS DOUBLE)
                     * 1000000, 0) / 1000000.0 AS jaccard
        FROM ab
        JOIN v va ON va.source = ab.source_a
        JOIN v vb ON vb.source = ab.source_b""")

# exact integer ECDF-gap argmax, ONE double division at the end —
# the engine mirrors the (na_d * ng_d) denominator product exactly
register("source_length_ks", q_source_length_ks, """
        WITH h AS (
          SELECT source, n_chars, CAST(COUNT(*) AS BIGINT) AS c
          FROM documents GROUP BY 1, 2),
        grid AS (
          SELECT s.source, v.n_chars
          FROM (SELECT DISTINCT source FROM documents) s
          CROSS JOIN (SELECT DISTINCT n_chars FROM documents) v),
        j AS (
          SELECT grid.source, grid.n_chars, COALESCE(h.c, 0) AS c
          FROM grid LEFT JOIN h USING (source, n_chars)),
        cum AS (
          SELECT source, n_chars,
                 SUM(c) OVER (PARTITION BY source
                              ORDER BY n_chars) AS ca
          FROM j),
        gc AS (
          SELECT n_chars, SUM(c) OVER (ORDER BY n_chars) AS cg
          FROM (SELECT n_chars, CAST(COUNT(*) AS BIGINT) AS c
                FROM documents GROUP BY 1)),
        tot AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS na
                FROM documents GROUP BY 1),
        n AS (SELECT CAST(COUNT(*) AS BIGINT) AS ng FROM documents)
        SELECT cum.source, tot.na AS n_docs,
               CAST(MAX(ABS(cum.ca * n.ng - gc.cg * tot.na)) AS DOUBLE)
               / (CAST(tot.na AS DOUBLE) * CAST(n.ng AS DOUBLE)) AS ks
        FROM cum
        JOIN gc USING (n_chars)
        JOIN tot USING (source), n
        GROUP BY cum.source, tot.na, n.ng""")
