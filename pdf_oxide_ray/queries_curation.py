"""Round-4 training-data CURATION operator family — the data-mixing /
chunking / growth diagnostics a 100 TB pretraining run decides its
sampling recipe with, plus the last uncovered TPC-H tail shape:

* `mixture_weights`     — temperature-scaled per-source sampling weights
  (tau = 0.5 UNIMAX-style upsampling of small sources: w_s ∝
  sqrt(share_s), normalized) — the data-mixing table a training launch
  reads; IEEE sqrt is correctly rounded so both sides agree bit-exactly.
* `novelty_curve`       — cumulative distinct-content growth by
  ingestion bucket (doc_id // 100): "is the crawl saturating" — the
  curve that decides when to stop ingesting a feed.
* `chunk_plan`          — RAG/packing chunk boundaries per doc (128-token
  chunks, stride 112 = 16-token overlap): (doc_id, chunk_idx, start_tok,
  n_tok) — pure map, the layout a chunk-embedding job consumes.
* `hapax_stats`         — per-source hapax-legomena density (corpus-
  frequency-1 tokens): the OCR-garbage / random-string screen (a source
  whose token mass is one-off strings is noise, not language).
* `promo_part_suppliers`— TPC-H Q20 shape (nested semi-join chain:
  name-filtered parts -> per-(part,supplier) rollup -> half-share gate
  -> DISTINCT suppliers of one nation, names out).
* `interarrival_rate`   — per-event-type exponential-MLE arrival rate
  over inter-event gaps; ordered gaps telescope (sum = max ts - min ts)
  so the rate needs only (n, min, max) per type — no window function,
  no sort, exact at any scale.

Shuffle budget (SCALE.md doctrine): mixture_weights / novelty_curve /
interarrival_rate reduce per-batch partials to dimension- or
bucket-sized frames; hapax_stats is ONE token-keyed exchange
(vocabulary-bounded, the `unigram_logprob` scale) folded to per-source
partials; chunk_plan is a pure map (no exchange at all);
promo_part_suppliers broadcasts the pruned part-key set and reduces
(part, supplier) partials — catalog x suppliers-per-part bounded, the
`dominant_suppliers` scale. No corpus-sized driver materialization
outside chunk_plan's documented driver-contract final (its production
form is `write_parquet` on the chunk table).

Exactness: money/quantity ride int64 cents; every irrational
(sqrt) is quantized to the int 1e-6 grid with half-away rounding on
both sides; final ratios divide IDENTICAL int64 pairs so the doubles
are bit-equal in any order. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import, like ``queries_corpus``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from . import queries as _qmod
from .functions import textops as ftext
from .functions import dedup as fdedup
from .ops.exchange import combine_by_key, sum_by
from .queries import _cents, _empty_typed, _pq, register
from .functions.textops import halfaway6 as _halfaway6

# ---------------------------------------------------------------------------
# mixture weights: temperature-scaled source sampling (tau = 0.5)
# ---------------------------------------------------------------------------


def q_mixture_weights(sf_dir: str) -> pd.DataFrame:
    """Per-source data-mixing weights: w_s = sqrt(share_s) normalized
    (temperature tau = 0.5 — the standard upsample-the-tail recipe for
    multilingual / multi-source pretraining mixes). ONE pass: per-batch
    (source, n_tokens) partials reduce to the source dimension; the
    driver computes share = n/total (identical int64 pair -> identical
    double), quantizes sqrt(share) to the half-away 1e-6 grid (sqrt is
    IEEE-correctly-rounded, so engine and twin agree before
    quantization too), and normalizes by the integer sum of the
    quantized weights — order-independent, bit-exact."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_tokens": ftext.token_count_ws(b["text"]).to_numpy(
                np.int64)})

    v = sum_by(ds.map_batches(partial, batch_format="pandas"),
               ["source"], ["n_tokens"])
    if v.empty:
        return _empty_typed(source=object, n_tokens="int64",
                            share="float64", weight="float64")
    v = v.sort_values("source").reset_index(drop=True)
    n = v["n_tokens"].to_numpy(np.int64)
    total = int(n.sum())
    share = n.astype(np.float64) / np.float64(total)
    w6 = _halfaway6(np.sqrt(share))
    wsum = int(w6.sum())
    return pd.DataFrame({
        "source": v["source"].to_numpy(object),
        "n_tokens": n,
        "share": share,
        "weight": w6.astype(np.float64) / np.float64(wsum)})


# ---------------------------------------------------------------------------
# novelty curve: cumulative distinct-content growth by ingestion bucket
# ---------------------------------------------------------------------------

_NOVELTY_BUCKET = 100  # docs per ingestion bucket (doc_id // 100)


def q_novelty_curve(sf_dir: str) -> pd.DataFrame:
    """Corpus-growth diagnostic: per ingestion bucket (doc_id // {B}),
    how many docs arrived, how many were NOVEL (first occurrence of
    their exact text anywhere, by smallest doc_id), and the cumulative
    novelty rate — the saturation curve that decides when a feed stops
    adding information. Distributed shape: per-batch (hash, min_id)
    partials meet in the gated keyed combine, which turns each hash
    set's first ids into an ingestion-bucket histogram; per-bucket doc
    counts are a second skinny partial reduce. The driver sees
    #buckets rows; cum ratios divide identical int64 pairs. The twin
    groups by raw text (equality on text == equality on the
    collision-safe hash)."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                          "doc_id": b["doc_id"].to_numpy(np.int64)})
        return g.groupby("h", as_index=False)["doc_id"].min() \
            .rename(columns={"doc_id": "min_id"})

    empty = _empty_typed(bucket="int64", n_docs="int64", n_novel="int64",
                         cum_docs="int64", cum_novel="int64",
                         novelty_rate="float64")
    def novel_hist(d: pd.DataFrame) -> pd.DataFrame:
        first = d.groupby("h")["min_id"].min().to_numpy(np.int64)
        return pd.DataFrame({"bucket": first // _NOVELTY_BUCKET}) \
            .groupby("bucket", as_index=False).agg(n_novel=("bucket",
                                                            "size"))

    nov = combine_by_key(ds.map_batches(hpart, batch_format="pandas"),
                         ["h"], novel_hist)
    if nov.empty:
        return empty
    nov = nov.groupby("bucket", as_index=False)["n_novel"].sum()
    docs = sum_by(
        ds.map_batches(
            lambda b: pd.DataFrame(
                {"bucket": b["doc_id"].to_numpy(np.int64)
                 // _NOVELTY_BUCKET, "n_docs": np.int64(1)}),
            batch_format="pandas"),
        ["bucket"], ["n_docs"])
    out = docs.merge(nov, on="bucket", how="left").fillna({"n_novel": 0}) \
        .astype({"bucket": "int64", "n_docs": "int64", "n_novel": "int64"}) \
        .sort_values("bucket").reset_index(drop=True)
    out["cum_docs"] = out["n_docs"].cumsum().astype("int64")
    out["cum_novel"] = out["n_novel"].cumsum().astype("int64")
    out["novelty_rate"] = out["cum_novel"].to_numpy(np.float64) \
        / out["cum_docs"].to_numpy(np.float64)
    return out


q_novelty_curve.__doc__ = q_novelty_curve.__doc__.format(
    B=_NOVELTY_BUCKET)


# ---------------------------------------------------------------------------
# chunk plan: RAG / packing chunk boundaries (pure map)
# ---------------------------------------------------------------------------

_CHUNK_TOKENS = 128
_CHUNK_STRIDE = 112  # 16-token overlap


def q_chunk_plan(sf_dir: str) -> pd.DataFrame:
    """Chunk boundaries per doc: {C}-token chunks every {S} tokens
    (overlap {O}) — the layout a chunk-embedding / RAG-index job
    consumes. Pure map, fully vectorized (np.repeat + offset arange —
    no per-doc Python loop): each doc with n tokens yields
    ceil(max(n-{O},1)/{S}) chunks starting at 0,{S},2*{S},...; zero-
    token docs yield none. No exchange anywhere; the driver final is
    the driver-contract compare only — production writes the chunk
    table with ``write_parquet``."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def chunks(b: pd.DataFrame) -> pd.DataFrame:
        n = ftext.token_count_ws(b["text"]).to_numpy(np.int64)
        n_chunks = np.where(n > 0, 1 + (np.maximum(n, 1) - 1)
                            // _CHUNK_STRIDE, 0).astype(np.int64)
        total = int(n_chunks.sum())
        if total == 0:
            return _empty_typed(doc_id="int64", chunk_idx="int64",
                                start_tok="int64", n_tok="int64")
        doc_rep = np.repeat(b["doc_id"].to_numpy(np.int64), n_chunks)
        offs = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        cidx = np.arange(total, dtype=np.int64) - offs
        start = cidx * _CHUNK_STRIDE
        n_rep = np.repeat(n, n_chunks)
        return pd.DataFrame({
            "doc_id": doc_rep, "chunk_idx": cidx, "start_tok": start,
            "n_tok": np.minimum(_CHUNK_TOKENS, n_rep - start)})

    out = ds.map_batches(chunks, batch_format="pandas").to_pandas()
    if out.empty:
        return _empty_typed(doc_id="int64", chunk_idx="int64",
                            start_tok="int64", n_tok="int64")
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


q_chunk_plan.__doc__ = q_chunk_plan.__doc__.format(
    C=_CHUNK_TOKENS, S=_CHUNK_STRIDE, O=_CHUNK_TOKENS - _CHUNK_STRIDE)


# ---------------------------------------------------------------------------
# hapax stats: per-source frequency-1 token density
# ---------------------------------------------------------------------------


def q_hapax_stats(sf_dir: str) -> pd.DataFrame:
    """Per-source hapax-legomena profile: how many of the corpus'
    frequency-1 tokens each source owns, and what fraction of the
    source's token volume they are — the OCR-garbage / random-string
    screen. A frequency-1 token has exactly one (token, source) owner,
    so ONE token-keyed exchange (vocabulary-bounded like
    ``unigram_logprob``) with Sum(n)/Min(code)/Max(code) aggregates
    identifies hapaxes AND their owner in the same pass; per-block
    folds reduce to (source, n_hapax) partials. Source token volumes
    ride a second skinny dimension reduce. hapax_rate divides the
    identical int64 pair. Sources with zero tokens are absent on both
    sides (the twin's inner-join-on-tokens semantics)."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _pq(sf_dir, "documents", ["source", "text"])

    src = sum_by(
        ds.map_batches(
            lambda b: pd.DataFrame({
                "source": b["source"].to_numpy(object),
                "n_tokens": ftext.token_count_ws(b["text"]).to_numpy(
                    np.int64)}),
            batch_format="pandas"),
        ["source"], ["n_tokens"])
    empty = _empty_typed(source=object, n_tokens="int64",
                         n_hapax="int64", hapax_rate="float64")
    src = src[src["n_tokens"].to_numpy(np.int64) > 0]
    if src.empty:
        return empty
    sources = sorted(src["source"].astype(str))
    code_of = {s: i for i, s in enumerate(sources)}

    def tok_partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("").str.split().explode().dropna()
        if s.empty:
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "code": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "token": s.to_numpy(object),
            "code": b["source"].loc[s.index].map(code_of)
            .to_numpy(np.int64),
            "n": np.int64(1)}) \
            .groupby(["token", "code"], as_index=False).sum()

    def hapax_fold(b: pd.DataFrame) -> pd.DataFrame:
        tot = b["tot"].to_numpy(np.int64)
        hap = b[tot == 1]  # exactly one occurrence -> cmin == cmax
        if hap.empty:
            return pd.DataFrame({"code": pd.Series([], dtype="int64"),
                                 "n_hapax": pd.Series([], dtype="int64")})
        return pd.DataFrame({"code": hap["cmin"].to_numpy(np.int64),
                             "n_hapax": np.int64(1)})

    per_tok = ds.map_batches(tok_partial, batch_format="pandas") \
        .groupby("token").aggregate(Sum("n", alias_name="tot"),
                                    Min("code", alias_name="cmin"),
                                    Max("code", alias_name="cmax"))
    hp = sum_by(
        per_tok.map_batches(hapax_fold, batch_format="pandas"),
        ["code"], ["n_hapax"])
    out = pd.DataFrame({"source": sources,
                        "code": np.arange(len(sources), dtype=np.int64)})
    out = out.merge(src, on="source", how="left") \
        .merge(hp, on="code", how="left").fillna({"n_hapax": 0})
    nh = out["n_hapax"].to_numpy(np.int64)
    nt = out["n_tokens"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": out["source"].to_numpy(object),
        "n_tokens": nt, "n_hapax": nh,
        "hapax_rate": nh.astype(np.float64) / nt.astype(np.float64)}) \
        .sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# TPC-H Q20: suppliers dominating promo-part volume in one nation
# ---------------------------------------------------------------------------

_Q20_NAME_PREFIX = "large "
_Q20_NATION = "NATION_7"


def q_promo_part_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q20 shape — the nested semi-join chain: parts filtered by
    name prefix ('{prefix}%') -> per-(part, supplier) quantity rollup
    -> suppliers shipping MORE THAN TWICE a part's fair share (q * ns >
    2 * total, ns = #suppliers of the part — Q20's excess-volume gate
    adapted to a schema without partsupp availqty) -> DISTINCT those
    suppliers, restricted to one nation, names out. Plan: the pruned
    part-key set broadcasts as a sorted int64 array; lineitem
    pre-aggregates (part, supp, qty_c) per batch; ONE reduce to the
    catalog x suppliers-per-part table; the excess gate compares
    ``q * ns > 2 * tot`` in PYTHON BIG INTS (the twin rides HUGEINT);
    the supplier dimension joins on the driver (dimension-sized)."""
    import pyarrow.parquet as pq
    import ray

    from .stages.joins import _get_broadcast, isin_sorted

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name"]).to_pandas()
    pkeys = np.sort(part.loc[part["p_name"].str.startswith(
        _Q20_NAME_PREFIX), "p_partkey"].to_numpy(np.int64))
    empty = _empty_typed(s_name=object)
    if pkeys.size == 0:
        return empty
    pref = ray.put(pkeys)

    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(b["l_partkey"].to_numpy(np.int64),
                           _get_broadcast(pref))
        return pd.DataFrame({
            "p": b["l_partkey"].to_numpy(np.int64)[keep],
            "s": b["l_suppkey"].to_numpy(np.int64)[keep],
            "q": _cents(b["l_quantity"]).to_numpy()[keep]})

    ps = sum_by(li.map_batches(partial, batch_format="pandas"),
                ["p", "s"], ["q"])
    if ps.empty:
        return empty
    grp = ps.groupby("p")["q"]
    tot = grp.transform(lambda g: sum(int(x) for x in g))
    ns = grp.transform("size").to_numpy(np.int64)
    hit_mask = np.fromiter(
        (int(q) * int(k) > 2 * int(t)
         for q, k, t in zip(ps["q"], ns, tot)),
        dtype=bool, count=len(ps))
    hit = np.unique(ps["s"].to_numpy(np.int64)[hit_mask])
    if hit.size == 0:
        return empty
    supplier = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                             columns=["s_suppkey", "s_name",
                                      "s_nationkey"]).to_pandas()
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"]).to_pandas()
    nk = set(nation.loc[nation["n_name"] == _Q20_NATION, "n_nationkey"])
    sel = supplier[supplier["s_suppkey"].isin(hit)
                   & supplier["s_nationkey"].isin(nk)]
    return pd.DataFrame({"s_name": np.sort(sel["s_name"].to_numpy(object))})


q_promo_part_suppliers.__doc__ = q_promo_part_suppliers.__doc__.format(
    prefix=_Q20_NAME_PREFIX)


# ---------------------------------------------------------------------------
# inter-arrival rate: exponential MLE per event type, no sort needed
# ---------------------------------------------------------------------------


def q_interarrival_rate(sf_dir: str) -> pd.DataFrame:
    """Per-event-type arrival-rate fit: the exponential MLE over
    consecutive inter-event gaps. Ordered gaps TELESCOPE — their sum is
    max(ts) - min(ts) — so the rate needs only (n, min_ts, max_ts) per
    type: no sort, no window, no per-event exchange; per-batch partials
    reduce to #types x #blocks rows driver-side (documented
    dimension-sized final). rate_per_hour = (n-1) * 3.6e9 / span_us —
    exact int64 operands, ONE IEEE chain mirrored term-for-term; types
    with zero span (or a single event) yield NULL like the twin."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("datetime64[us]").astype("int64")
        g = pd.DataFrame({"event_type": b["event_type"]
                          .to_numpy(object), "us": us})
        a = g.groupby("event_type", as_index=False) \
            .agg(n=("us", "size"), mn=("us", "min"), mx=("us", "max"))
        return a.astype({"n": "int64", "mn": "int64", "mx": "int64"})

    m = ds.map_batches(partial, batch_format="pandas").materialize()
    if m.count() == 0:
        return _empty_typed(event_type=object, n_events="int64",
                            span_us="int64", rate_per_hour="float64")
    # dimension-sized driver final (#types x #blocks partial rows)
    p = m.to_pandas().groupby("event_type", as_index=False) \
        .agg(n_events=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
    n = p["n_events"].to_numpy(np.int64)
    span = (p["mx"] - p["mn"]).to_numpy(np.int64)
    rate = np.where(span > 0,
                    (n - 1).astype(np.float64) * 3.6e9
                    / np.where(span > 0, span, 1).astype(np.float64),
                    np.nan)
    return pd.DataFrame({
        "event_type": p["event_type"].to_numpy(object),
        "n_events": n, "span_us": span, "rate_per_hour": rate}) \
        .sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# contamination by source: per-source eval-overlap rollup
# ---------------------------------------------------------------------------


def q_contamination_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source benchmark-contamination report: for each source, how
    many docs share any word 8-gram with the benchmark set (doc_id <
    ``queries._BENCH_DOC_IDS``) and the contamination rate — the table
    a curation run reads to decide which FEEDS leak eval data, not just
    which docs. Same gram kernel and broadcast discipline as
    ``decontaminate`` (bench grams built once driver-side — eval sets
    are small by definition — ray.put once, fetched through the
    per-worker ``_get_broadcast`` cache); the scan emits per-batch
    (source, n_docs, n_contaminated) partials that reduce to the
    source dimension — no corpus-sized exchange anywhere. The final
    rate divides the two exact int64 counts (one IEEE division,
    twin-identical)."""
    import ray

    from .stages.joins import _get_broadcast

    token_re = fdedup._TOKEN_RE
    k = _qmod._DECONTAM_K

    def grams_of(text: str) -> set:
        toks = token_re.findall((text or "").lower())
        return {" ".join(toks[i: i + k])
                for i in range(len(toks) - k + 1)}

    bench_df = _pq(sf_dir, "documents", ["doc_id", "text"]) \
        .filter(expr=f"doc_id < {_qmod._BENCH_DOC_IDS}").to_pandas()
    bench: set = set()
    if "text" in bench_df.columns:  # zero-block frame has no columns
        for t in bench_df["text"]:
            bench |= grams_of(t)
    bench_ref = ray.put(frozenset(bench))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bset = _get_broadcast(bench_ref)
        hit = np.fromiter(
            (not bset.isdisjoint(grams_of(t)) for t in b["text"]),
            dtype=np.int64, count=len(b))
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_docs": np.int64(1),
            "n_contaminated": hit})

    out = sum_by(
        _pq(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pandas"),
        ["source"], ["n_docs", "n_contaminated"])
    if out.empty:
        return _empty_typed(source=object, n_docs="int64",
                            n_contaminated="int64",
                            contamination_rate="float64")
    out = out.sort_values("source").reset_index(drop=True)
    nd = out["n_docs"].to_numpy(np.int64)
    nc = out["n_contaminated"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": out["source"].to_numpy(object),
        "n_docs": nd, "n_contaminated": nc,
        "contamination_rate":
            nc.astype(np.float64) / nd.astype(np.float64)})


# ---------------------------------------------------------------------------
# dedup cluster-size histogram
# ---------------------------------------------------------------------------


def q_dedup_cluster_sizes(sf_dir: str) -> pd.DataFrame:
    """Exact-dup cluster-size histogram: how many distinct texts occur
    k times — the curve that tells a crawl operator whether duplication
    is a few mega-clusters (template spam — route to a blocklist) or a
    long tail of pairs (route to dedup). Two skinny exchanges: per-batch
    (content_hash, n) partial counts -> ONE distributed
    groupby(content_hash) sum (the ``dedup_exact`` exchange: 128-bit
    hash + count, never text), then each fully-reduced block emits its
    bounded (cluster_size, n_clusters) histogram partial and
    ``sum_by`` folds them — the driver holds #distinct-sizes
    rows, never the hash vocabulary. Hash stands in for text equality
    (SHA-256/128-bit — same collision assumption ``dedup_exact``
    documents)."""
    ds = _pq(sf_dir, "documents", ["text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "content_hash": fdedup.content_hash(b["text"]),
            "n": np.int64(1)}).groupby("content_hash",
                                       as_index=False).sum()

    m = ds.map_batches(hpart, batch_format="pandas").materialize()
    if m.count() == 0:
        return _empty_typed(cluster_size="int64", n_clusters="int64")
    from ray.data.aggregate import Sum

    red = m.groupby("content_hash").aggregate(
        Sum("n", alias_name="k"))
    hist = red.map_batches(
        lambda b: pd.DataFrame({"cluster_size":
                                b["k"].astype("int64"),
                                "n_clusters": np.int64(1)}),
        batch_format="pandas")
    out = sum_by(hist, ["cluster_size"], ["n_clusters"])
    return out.astype({"cluster_size": "int64", "n_clusters": "int64"}) \
        .sort_values("cluster_size").reset_index(drop=True)


# ---------------------------------------------------------------------------
# template-prefix detection (web boilerplate screen)
# ---------------------------------------------------------------------------

_PREFIX_LEN = 32  # chars of leading text that define a "template"
_TEMPLATE_MIN_DOCS = 3  # prefixes shared by >= this many docs


def q_template_prefixes(sf_dir: str) -> pd.DataFrame:
    """Template/boilerplate screen: leading-{P}-char prefixes shared by
    >= {M} docs, with doc and distinct-source counts — the standard
    "same form letter everywhere" web-crawl diagnostic (a prefix seen
    across many sources is a mirror/template, not content). Prefix
    cardinality is corpus-sized, so NOTHING per-prefix reaches the
    driver before the HAVING gate: per-batch (prefix, source, n)
    partials meet in the gated keyed combine on prefix, and each
    prefix set runs its rollup and the >= {M} filter there, so above
    the gate only qualifying templates (a hot SET, not the corpus)
    come back.
    All-int counts — hash-exact by construction."""
    ds = _pq(sf_dir, "documents", ["text", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "prefix": b["text"].fillna("").str.slice(0, _PREFIX_LEN)
            .to_numpy(object),
            "source": b["source"].to_numpy(object),
            "n": np.int64(1)}) \
            .groupby(["prefix", "source"], as_index=False).sum()

    def templates(d: pd.DataFrame) -> pd.DataFrame:
        agg = d.groupby(["prefix", "source"], as_index=False)["n"].sum() \
            .groupby("prefix", as_index=False) \
            .agg(n_docs=("n", "sum"), n_sources=("n", "size"))
        return agg[agg["n_docs"] >= _TEMPLATE_MIN_DOCS]

    out = combine_by_key(ds.map_batches(partial, batch_format="pandas"),
                         ["prefix"], templates)
    if out.empty:
        return _empty_typed(prefix=object, n_docs="int64",
                            n_sources="int64")
    return out[["prefix", "n_docs", "n_sources"]] \
        .astype({"n_docs": "int64", "n_sources": "int64"}) \
        .sort_values("prefix").reset_index(drop=True)


# ---------------------------------------------------------------------------
# length x repetition quality grid (filter-threshold tuning)
# ---------------------------------------------------------------------------

_LEN_BUCKET_CHARS = 256  # n_chars per length bucket


def q_length_quality_grid(sf_dir: str) -> pd.DataFrame:
    """2-D filter-tuning histogram: doc counts over (length bucket =
    n_chars // {C}, repetition decile = floor(10 * duplicate-2gram
    fraction)) — the joint distribution a curation run reads to place
    its length/repetition cut lines BEFORE committing to thresholds
    (pure marginals hide the correlated corner: short AND repetitive).
    Pure map + bounded-grid partial reduce (#length-buckets x 10
    cells), no corpus exchange. The repetition decile is computed in
    INTEGER arithmetic — (10 * (n2 - n_distinct)) // n2 — so both
    sides bucket identically with zero float-boundary risk (same trick
    as the bounded-histogram percentile family)."""
    token_re = fdedup._TOKEN_RE

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rb = np.empty(len(b), dtype=np.int64)
        for j, t in enumerate(b["text"]):
            toks = token_re.findall((t or "").lower())
            n2 = len(toks) - 1
            if n2 <= 0:
                rb[j] = 0
            else:
                grams = {(toks[i], toks[i + 1]) for i in range(n2)}
                rb[j] = (10 * (n2 - len(grams))) // n2
        return pd.DataFrame({
            "len_bucket": b["n_chars"].to_numpy(np.int64)
            // _LEN_BUCKET_CHARS,
            "rep_bucket": rb,
            "n_docs": np.int64(1)})

    out = sum_by(
        _pq(sf_dir, "documents", ["text", "n_chars"])
        .map_batches(partial, batch_format="pandas"),
        ["len_bucket", "rep_bucket"], ["n_docs"])
    if out.empty:
        return _empty_typed(len_bucket="int64", rep_bucket="int64",
                            n_docs="int64")
    return out.astype({"len_bucket": "int64", "rep_bucket": "int64",
                       "n_docs": "int64"}) \
        .sort_values(["len_bucket", "rep_bucket"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# token-budget epoch allocation (the mixture_weights consumer)
# ---------------------------------------------------------------------------

_TOKEN_BUDGET = 10_000_000  # training tokens to allocate across sources


def q_token_budget_epochs(sf_dir: str) -> pd.DataFrame:
    """Epochs-per-source under a fixed training-token budget: allocate
    ``_TOKEN_BUDGET`` tokens by the tau=0.5 ``mixture_weights`` recipe
    and report how many PASSES over each source that implies (epochs =
    weight * budget / n_tokens) — the "how many times does the tail
    repeat" number that decides whether a mix over-epochs small
    sources. Identical one-pass partial reduce as mixture_weights
    (source dimension only); weight rides the same 1e-6-quantized
    IEEE-sqrt grid, and epochs is ONE double chain over exact int64
    operands (w6 * budget <= 1e13 is exact in both int64 and double),
    mirrored term-for-term in the twin; zero-token sources yield NULL
    epochs on both sides."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n_tokens": ftext.token_count_ws(b["text"]).to_numpy(
                np.int64)})

    v = sum_by(ds.map_batches(partial, batch_format="pandas"),
               ["source"], ["n_tokens"])
    if v.empty:
        return _empty_typed(source=object, n_tokens="int64",
                            weight="float64", epochs="float64")
    v = v.sort_values("source").reset_index(drop=True)
    n = v["n_tokens"].to_numpy(np.int64)
    total = int(n.sum())
    share = n.astype(np.float64) / np.float64(total)
    w6 = _halfaway6(np.sqrt(share))
    wsum = int(w6.sum())
    num = (w6 * np.int64(_TOKEN_BUDGET)).astype(np.float64)
    epochs = np.where(
        n > 0,
        num / np.float64(wsum) / np.where(n > 0, n, 1).astype(np.float64),
        np.nan)
    return pd.DataFrame({
        "source": v["source"].to_numpy(object),
        "n_tokens": n,
        "weight": w6.astype(np.float64) / np.float64(wsum),
        "epochs": epochs})


# ---------------------------------------------------------------------------
# quality-keeper canonicalization over the near-dup graph
# ---------------------------------------------------------------------------


def q_dup_canonical(sf_dir: str) -> pd.DataFrame:
    """Canonical-document election per near-dup cluster: for every
    connected component of the winnowing dup graph (``dup_components``
    — distributed min-label propagation), keep the LONGEST member
    (max n_chars, ties to the smallest doc_id) — the "keep the best
    duplicate" policy real curation uses instead of keep-first (the
    longest copy of a mirrored page is usually the least truncated).
    Scale shape: the component frame and the elected lengths are
    O(dup-graph nodes) — the skinny tail of the corpus, the documented
    hot SET — while the corpus-sized documents table is only scanned
    once with a broadcast sorted-id ``isin_sorted`` filter (ray.put
    once, per-worker cache) projecting (doc_id, n_chars); no text
    moves, no corpus materialization."""
    import ray

    from .stages.joins import _get_broadcast, isin_sorted

    comp = _qmod.q_dup_components(sf_dir)
    if comp.empty:
        return _empty_typed(component="int64", doc_id="int64",
                            n_chars="int64")
    ids = np.sort(comp["doc_id"].to_numpy(np.int64))
    ids_ref = ray.put(ids)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(b["doc_id"].to_numpy(np.int64),
                           _get_broadcast(ids_ref))
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64)[keep],
            "n_chars": b["n_chars"].to_numpy(np.int64)[keep]})

    lens = _pq(sf_dir, "documents", ["doc_id", "n_chars"]) \
        .map_batches(pick, batch_format="pandas").to_pandas()
    j = comp.merge(lens, on="doc_id")
    canon = j.sort_values(["component", "n_chars", "doc_id"],
                          ascending=[True, False, True]) \
        .groupby("component", as_index=False).head(1)
    return canon[["component", "doc_id", "n_chars"]].astype("int64") \
        .sort_values("component").reset_index(drop=True)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

_TOKSPLIT = ("list_filter(regexp_split_to_array(coalesce(text, ''), "
             "'\\s+'), x -> x <> '')")


def _contamination_by_source_sql() -> str:
    """Twin of q_contamination_by_source — the decontaminate gram CTEs
    (word 8-grams over the ASCII token class) rolled up per source."""
    k = _qmod._DECONTAM_K
    return f"""
        WITH toks AS (
          SELECT doc_id, source,
                 regexp_extract_all(lower(text), '[0-9A-Za-z_]+') AS t
          FROM documents),
        sh AS (
          SELECT doc_id, source,
                 CASE WHEN len(t) < {k} THEN []
                      ELSE list_distinct(list_transform(
                          range(1, len(t) - {k - 2}),
                          i -> array_to_string(t[i:i+{k - 1}], ' ')))
                 END AS grams
          FROM toks),
        bench AS (
          SELECT DISTINCT unnest(grams) AS g FROM sh
          WHERE doc_id < {_qmod._BENCH_DOC_IDS}),
        f AS (
          SELECT source,
                 EXISTS (SELECT 1 FROM bench b
                         WHERE list_contains(sh.grams, b.g)) AS c
          FROM sh)
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(CASE WHEN c THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_contaminated,
               CAST(SUM(CASE WHEN c THEN 1 ELSE 0 END) AS DOUBLE)
               / CAST(COUNT(*) AS DOUBLE) AS contamination_rate
        FROM f GROUP BY source ORDER BY source"""


def _dup_canonical_sql() -> str:
    """Twin of q_dup_canonical — the dup_components recursive-CTE
    reachability over the winnowing edge oracle, then per-component
    argmax(n_chars, tie -> min doc_id) via row_number."""
    return f"""
        WITH RECURSIVE e AS ({_qmod._winnow_oracle_sql()}),
        sym AS (SELECT id_a AS u, id_b AS v FROM e
                UNION ALL SELECT id_b, id_a FROM e),
        reach(node, lab) AS (
            SELECT u, u FROM sym
            UNION
            SELECT s.u, r.lab FROM sym s JOIN reach r ON r.node = s.v),
        comp AS (SELECT node AS doc_id, MIN(lab) AS component
                 FROM reach GROUP BY node),
        canon AS (
            SELECT c.component, c.doc_id, d.n_chars,
                   row_number() OVER (
                       PARTITION BY c.component
                       ORDER BY d.n_chars DESC, c.doc_id) AS rn
            FROM comp c JOIN documents d USING (doc_id))
        SELECT CAST(component AS BIGINT) AS component,
               CAST(doc_id AS BIGINT) AS doc_id,
               CAST(n_chars AS BIGINT) AS n_chars
        FROM canon WHERE rn = 1 ORDER BY component"""


register("mixture_weights", q_mixture_weights, f"""
        WITH v AS (
          SELECT source,
                 CAST(SUM(length({_TOKSPLIT})) AS BIGINT) AS n_tokens
          FROM documents GROUP BY source),
        t AS (SELECT CAST(SUM(n_tokens) AS BIGINT) AS tot FROM v),
        w AS (
          SELECT source, n_tokens,
                 CAST(n_tokens AS DOUBLE) / CAST(t.tot AS DOUBLE)
                   AS share,
                 CAST(round(SQRT(CAST(n_tokens AS DOUBLE)
                                 / CAST(t.tot AS DOUBLE)) * 1000000)
                      AS BIGINT) AS w6
          FROM v, t)
        SELECT source, n_tokens, share,
               CAST(w6 AS DOUBLE)
               / CAST((SELECT SUM(w6) FROM w) AS DOUBLE) AS weight
        FROM w ORDER BY source""")

register("novelty_curve", q_novelty_curve, f"""
        WITH k AS (
          SELECT coalesce(text, '') AS t, MIN(doc_id) AS m
          FROM documents GROUP BY 1),
        nov AS (
          SELECT m // {_NOVELTY_BUCKET} AS bucket,
                 CAST(COUNT(*) AS BIGINT) AS n_novel
          FROM k GROUP BY 1),
        d AS (
          SELECT doc_id // {_NOVELTY_BUCKET} AS bucket,
                 CAST(COUNT(*) AS BIGINT) AS n_docs
          FROM documents GROUP BY 1),
        j AS (
          SELECT d.bucket, d.n_docs,
                 CAST(COALESCE(nov.n_novel, 0) AS BIGINT) AS n_novel
          FROM d LEFT JOIN nov USING (bucket)),
        c AS (
          SELECT bucket, n_docs, n_novel,
                 CAST(SUM(n_docs) OVER (ORDER BY bucket) AS BIGINT)
                   AS cum_docs,
                 CAST(SUM(n_novel) OVER (ORDER BY bucket) AS BIGINT)
                   AS cum_novel
          FROM j)
        SELECT bucket, n_docs, n_novel, cum_docs, cum_novel,
               CAST(cum_novel AS DOUBLE) / CAST(cum_docs AS DOUBLE)
                 AS novelty_rate
        FROM c ORDER BY bucket""")

register("chunk_plan", q_chunk_plan, f"""
        WITH n AS (
          SELECT doc_id,
                 CAST(length({_TOKSPLIT}) AS BIGINT) AS n_tok
          FROM documents),
        s AS (
          SELECT doc_id, n_tok,
                 unnest(generate_series(0, n_tok - 1,
                                        {_CHUNK_STRIDE})) AS start_tok
          FROM n)
        SELECT doc_id,
               CAST(start_tok // {_CHUNK_STRIDE} AS BIGINT) AS chunk_idx,
               CAST(start_tok AS BIGINT) AS start_tok,
               CAST(LEAST({_CHUNK_TOKENS}, n_tok - start_tok) AS BIGINT)
                 AS n_tok
        FROM s ORDER BY doc_id, chunk_idx""")

register("hapax_stats", q_hapax_stats, f"""
        WITH tok AS (
          SELECT source, unnest({_TOKSPLIT}) AS t FROM documents),
        cnt AS (
          SELECT t, CAST(COUNT(*) AS BIGINT) AS n,
                 MIN(source) AS owner
          FROM tok GROUP BY t),
        hap AS (
          SELECT owner AS source, CAST(COUNT(*) AS BIGINT) AS n_hapax
          FROM cnt WHERE n = 1 GROUP BY owner),
        vol AS (
          SELECT source, CAST(COUNT(*) AS BIGINT) AS n_tokens
          FROM tok GROUP BY source)
        SELECT vol.source, vol.n_tokens,
               CAST(COALESCE(hap.n_hapax, 0) AS BIGINT) AS n_hapax,
               CAST(COALESCE(hap.n_hapax, 0) AS DOUBLE)
               / CAST(vol.n_tokens AS DOUBLE) AS hapax_rate
        FROM vol LEFT JOIN hap USING (source)
        ORDER BY vol.source""")

register("promo_part_suppliers", q_promo_part_suppliers, f"""
        WITH pk AS (
          SELECT p_partkey FROM part
          WHERE p_name LIKE '{_Q20_NAME_PREFIX}%'),
        ps AS (
          SELECT l_partkey AS p, l_suppkey AS s,
                 SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS q
          FROM lineitem JOIN pk ON l_partkey = p_partkey
          GROUP BY 1, 2),
        tot AS (SELECT p, SUM(q) AS tq, COUNT(*) AS ns
                FROM ps GROUP BY p),
        hit AS (
          SELECT DISTINCT ps.s FROM ps JOIN tot USING (p)
          WHERE ps.q * tot.ns > 2 * tot.tq)
        SELECT s_name
        FROM hit
        JOIN supplier ON s = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        WHERE n_name = '{_Q20_NATION}'
        ORDER BY s_name""")

register("interarrival_rate", q_interarrival_rate, """
        WITH p AS (
          SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
                 CAST(epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS BIGINT)
                   AS span_us
          FROM events GROUP BY event_type)
        SELECT event_type, n_events, span_us,
               CASE WHEN span_us > 0 THEN
                 CAST(n_events - 1 AS DOUBLE) * 3600000000.0
                 / CAST(span_us AS DOUBLE)
               ELSE NULL END AS rate_per_hour
        FROM p ORDER BY event_type""")

register("contamination_by_source", q_contamination_by_source,
         _contamination_by_source_sql())

register("dedup_cluster_sizes", q_dedup_cluster_sizes, """
    WITH c AS (SELECT text, COUNT(*) AS k FROM documents GROUP BY text)
    SELECT CAST(k AS BIGINT) AS cluster_size,
           CAST(COUNT(*) AS BIGINT) AS n_clusters
    FROM c GROUP BY k ORDER BY cluster_size""")

register("template_prefixes", q_template_prefixes, f"""
    WITH p AS (
      SELECT substr(coalesce(text, ''), 1, {_PREFIX_LEN}) AS prefix,
             source
      FROM documents),
    ps AS (SELECT prefix, source, CAST(COUNT(*) AS BIGINT) AS n
           FROM p GROUP BY 1, 2),
    agg AS (SELECT prefix, CAST(SUM(n) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) AS BIGINT) AS n_sources
            FROM ps GROUP BY prefix)
    SELECT prefix, n_docs, n_sources FROM agg
    WHERE n_docs >= {_TEMPLATE_MIN_DOCS} ORDER BY prefix""")

register("length_quality_grid", q_length_quality_grid, f"""
    WITH toks AS (
      SELECT n_chars,
             regexp_extract_all(lower(text), '[0-9A-Za-z_]+') AS t
      FROM documents),
    g AS (
      SELECT n_chars, len(t) - 1 AS n2,
             CASE WHEN len(t) < 2 THEN []
                  ELSE list_distinct(list_transform(
                      range(1, len(t)), i -> t[i] || ' ' || t[i+1]))
             END AS grams
      FROM toks),
    b AS (
      SELECT n_chars // {_LEN_BUCKET_CHARS} AS len_bucket,
             CASE WHEN n2 <= 0 THEN 0
                  ELSE (10 * (n2 - len(grams))) // n2 END AS rep_bucket
      FROM g)
    SELECT CAST(len_bucket AS BIGINT) AS len_bucket,
           CAST(rep_bucket AS BIGINT) AS rep_bucket,
           CAST(COUNT(*) AS BIGINT) AS n_docs
    FROM b GROUP BY 1, 2 ORDER BY 1, 2""")

register("token_budget_epochs", q_token_budget_epochs, f"""
    WITH v AS (
      SELECT source,
             CAST(SUM(length({_TOKSPLIT})) AS BIGINT) AS n_tokens
      FROM documents GROUP BY source),
    t AS (SELECT CAST(SUM(n_tokens) AS BIGINT) AS tot FROM v),
    w AS (
      SELECT source, n_tokens,
             CAST(round(SQRT(CAST(n_tokens AS DOUBLE)
                             / CAST(t.tot AS DOUBLE)) * 1000000)
                  AS BIGINT) AS w6
      FROM v, t)
    SELECT source, n_tokens,
           CAST(w6 AS DOUBLE)
           / CAST((SELECT SUM(w6) FROM w) AS DOUBLE) AS weight,
           CASE WHEN n_tokens = 0 THEN NULL ELSE
             CAST(w6 * {_TOKEN_BUDGET} AS DOUBLE)
             / CAST((SELECT SUM(w6) FROM w) AS DOUBLE)
             / CAST(n_tokens AS DOUBLE)
           END AS epochs
    FROM w ORDER BY source""")

register("dup_canonical", q_dup_canonical, _dup_canonical_sql())
