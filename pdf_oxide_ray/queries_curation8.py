"""Round-4i operator family — behavioral-sequence + retrieval ops a
training-data pipeline needs beside the document filters:

* `event_runs` — gaps-and-islands: per user, the number of maximal
  same-event-type runs and the longest run (with its type) over the
  (ts, event_id)-ordered stream. The classic session-shape diagnostic
  (is a user's activity one long scroll or many short visits?).
* `oov_rate` — per-source out-of-vocabulary rate against the corpus
  top-V vocabulary (count DESC, word ASC tie-break): the vocabulary-
  coverage number a tokenizer owner reads before adding a source.
* `bm25_search` — Okapi BM25 (k1=1.2, b=0.75) top-20 retrieval for a
  fixed 3-term query: tokenize → (dl, tf) skinny per-doc table →
  tiny (N, Σdl, df_t) reduce → driver idf → broadcast-scalar scoring
  map → per-batch top-k partials → driver merge.

Distributed plans (shuffle budgets — also in SCALE.md):

`event_runs` reuses the sorted-batch boundary-stitch ordered plan
proven by `event_burstiness` (queries_curation7.py), generalized from
gaps to islands: ONE range-partitioned sort of the skinny (user_id,
event_type, ts, event_id) projection is the only exchange; in-batch
islands are vectorized diffs; each batch emits O(1) boundary rows
(first/last island with an explicit whole-batch flag — a k≥3 batch
can legally start and end with the same (user, type, len) island, so
the flag cannot be inferred) plus per-(user,type) interior partials
that the driver stitches in key order — batches partition the global
sort order, so a last→first adjacency in key order IS a cross-batch
seam. Boundary rows are 2/batch and interior partials are
key-cardinality × batches, a documented driver-side hot set (stitch
hierarchically per range partition beyond ~5M rows, the
`_reduce_partials` gate). (The sibling transition-matrix censor over
the same ordered stream already exists as `event_transitions`,
queries_relational.py:475 — this family deliberately does not shadow
it.)

`oov_rate`: two streamed token passes (re-tokenizing beats
materializing a corpus-sized token column); exchange 1 = the
vocabulary-sized (word, count) partial reduce via `_reduce_partials`;
top-V is a driver-side sort of the reduced vocab (vocab-sized, not
corpus-sized; at web scale cut with a distributed top-k first); the
V-word set rides the closure (tiny); exchange 2 = the source-sized
(n_tokens, n_oov) partial reduce.

`bm25_search`: the per-doc (doc_id, dl, tf_t) skinny table is
materialized ONCE in the object store (~40 B/doc — spillable, never
driver-held) so the global reduce and the scoring pass don't
re-tokenize; globals are a 5-number driver fold; idf/avgdl are plain
Python floats in the scoring closure; top-k merges per-batch top-20
partials. No shuffle at all — both passes are pure maps.

Exactness: run counts are pure int64; rates are single int/int double
divisions (bit-identical to the twin); BM25 scores follow the repo's ln() convention — identical
float64 operand order term-for-term and a final half-away round to
the 1e-6 grid (`halfaway6`) on BOTH sides, with the top-k ORDER BY on
the rounded score (+ doc_id) so last-ulp libm drift can't reorder the
cut. Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .functions.retrieval_sql import BM25_K, BM25_SQL, BM25_TERMS
from .functions.textops import halfaway6
from .ops.ordered import ordered_pass
from .queries import _empty_typed, _pq, _reduce_partials, register


_WORD_RE = re.compile(r"[0-9a-z_]+")
_WORD_SQL = "regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+')"


# ---------------------------------------------------------------- runs

def q_event_runs(sf_dir: str) -> pd.DataFrame:
    """Per-user maximal same-type run census over the (ts, event_id)
    order: n_runs, longest_run, and the (smallest) type achieving it.
    Sorted-batch boundary-stitch plan — module docstring."""
    key = ["user_id", "ts", "event_id"]
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "ts",
                                "event_id"]).sort(key)

    # nested, not module-level: a module-level helper would make Ray
    # workers import this module first, and the registry import it
    # triggers then runs queries_curation43 before this module's
    # bm25_search is registered
    def _islands(b: pd.DataFrame):
        """(user, type, island starts, island lengths) of a batch's
        maximal same-(user, type) runs."""
        u = b["user_id"].to_numpy(np.int64)
        et = b["event_type"].to_numpy(object)
        brk = np.flatnonzero((u[1:] != u[:-1]) | (et[1:] != et[:-1]))
        starts = np.concatenate(([0], brk + 1))
        ends = np.concatenate((brk, [len(b) - 1]))
        return u, et, starts, ends - starts + 1

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        # interior islands only: the first and last may continue
        # across the batch seam
        u, et, starts, lens = _islands(b)
        return pd.DataFrame({"user_id": u[starts[1:-1]],
                             "event_type": et[starts[1:-1]],
                             "n_isl": np.int64(1),
                             "max_len": lens[1:-1]}) \
            .groupby(["user_id", "event_type"], as_index=False) \
            .agg(n_isl=("n_isl", "sum"), max_len=("max_len", "max"))

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        # the batch's first and last islands; `whole` marks a
        # single-island batch — explicit because a batch of >= 3
        # islands can legally start and end with the same (user, type,
        # len) island
        u, et, starts, lens = _islands(b)
        whole = len(starts) == 1
        return ({"u": u[0], "et": et[0], "len": lens[0], "whole": whole},
                {"u": u[-1], "et": et[-1], "len": lens[-1]})

    folds, first, last = ordered_pass(ds, key, fold, edge)
    empty = _empty_typed(user_id="int64", n_runs="int64",
                         longest_run="int64", run_type=object)
    if first.empty:
        return empty
    stats: dict = {}  # (user, type) -> [n_runs, max_len]

    def _fin(user: int, typ: str, ln: int) -> None:
        cur = stats.setdefault((user, typ), [0, 0])
        cur[0] += 1
        cur[1] = max(cur[1], ln)

    for _, r in folds.groupby(["user_id", "event_type"], as_index=False) \
            .agg(n_isl=("n_isl", "sum"),
                 max_len=("max_len", "max")).iterrows():
        cur = stats.setdefault((int(r["user_id"]), r["event_type"]),
                               [0, 0])
        cur[0] += int(r["n_isl"])
        cur[1] = max(cur[1], int(r["max_len"]))
    # stitch the batches' edge islands in global order
    pend: tuple | None = None  # (user, type, len)
    for f, la in zip(first.itertuples(), last.itertuples()):
        fu, ft, fl = int(f.u), f.et, int(f.len)
        if pend is not None:
            if pend[0] == fu and pend[1] == ft:
                merged = pend[2] + fl
                if f.whole:
                    pend = (fu, ft, merged)
                    continue
                _fin(fu, ft, merged)
            else:
                _fin(*pend)
                if f.whole:
                    pend = (fu, ft, fl)
                    continue
                _fin(fu, ft, fl)
        else:
            if f.whole:
                pend = (fu, ft, fl)
                continue
            _fin(fu, ft, fl)
        pend = (int(la.u), la.et, int(la.len))
    if pend is not None:
        _fin(*pend)
    if not stats:
        return empty
    per = pd.DataFrame([(u, t, v[0], v[1])
                        for (u, t), v in stats.items()],
                       columns=["user_id", "event_type", "n_isl",
                                "max_len"])
    tot = per.groupby("user_id", as_index=False) \
        .agg(n_runs=("n_isl", "sum"), longest_run=("max_len", "max"))
    best = per.merge(tot, on="user_id")
    best = best[best["max_len"] == best["longest_run"]] \
        .groupby("user_id", as_index=False) \
        .agg(run_type=("event_type", "min"))
    out = tot.merge(best, on="user_id").sort_values("user_id") \
        .reset_index(drop=True)
    return out.astype({"user_id": "int64", "n_runs": "int64",
                       "longest_run": "int64"})[
        ["user_id", "n_runs", "longest_run", "run_type"]]


register("event_runs", q_event_runs, """
    WITH o AS (
      SELECT user_id, event_type,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id)
             - ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) AS grp
      FROM events),
    i AS (
      SELECT user_id, event_type, grp, COUNT(*) AS run_len
      FROM o GROUP BY user_id, event_type, grp),
    m AS (
      SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_runs,
             CAST(MAX(run_len) AS BIGINT) AS longest_run
      FROM i GROUP BY user_id)
    SELECT m.user_id, m.n_runs, m.longest_run,
           MIN(i.event_type) AS run_type
    FROM m JOIN i ON i.user_id = m.user_id
                 AND i.run_len = m.longest_run
    GROUP BY m.user_id, m.n_runs, m.longest_run
    ORDER BY m.user_id""")


# ----------------------------------------------------------------- oov

_OOV_V = 10  # top-V vocabulary size (parameter; the plan is V-agnostic)


def q_oov_rate(sf_dir: str) -> pd.DataFrame:
    """Per-source OOV rate vs the corpus top-V vocabulary (count DESC,
    word ASC tie-break). Two streamed token passes; exchanges are the
    vocab-sized word-count reduce and the source-sized OOV reduce —
    module docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def wcount(b: pd.DataFrame) -> pd.DataFrame:
        toks: dict[str, int] = {}
        for t in b["text"].fillna(""):
            for w in _WORD_RE.findall(t.lower()):
                toks[w] = toks.get(w, 0) + 1
        return pd.DataFrame({"w": list(toks), "c": list(toks.values())}) \
            .astype({"c": "int64"}) if toks else \
            pd.DataFrame({"w": pd.Series([], dtype=object),
                          "c": pd.Series([], dtype="int64")})

    vocab_df = _reduce_partials(
        ds.map_batches(wcount, batch_format="pandas"), ["w"], ["c"])
    empty = _empty_typed(source=object, n_tokens="int64",
                         n_oov="int64", oov_rate="float64")
    if vocab_df.empty:
        return empty
    vocab_df = vocab_df.sort_values(["c", "w"],
                                    ascending=[False, True],
                                    kind="mergesort")
    vocab = frozenset(vocab_df["w"].head(_OOV_V))

    def oov(b: pd.DataFrame) -> pd.DataFrame:
        srcs, n_tok, n_oov = [], [], []
        agg: dict[str, list[int]] = {}
        for s, t in zip(b["source"], b["text"].fillna("")):
            ws = _WORD_RE.findall(t.lower())
            cur = agg.setdefault(s, [0, 0])
            cur[0] += len(ws)
            cur[1] += sum(1 for w in ws if w not in vocab)
        for s, (nt, no) in agg.items():
            srcs.append(s)
            n_tok.append(nt)
            n_oov.append(no)
        return pd.DataFrame({"source": pd.Series(srcs, dtype=object),
                             "n_tokens": pd.Series(n_tok, dtype="int64"),
                             "n_oov": pd.Series(n_oov, dtype="int64")})

    per = _reduce_partials(ds.map_batches(oov, batch_format="pandas"),
                           ["source"], ["n_tokens", "n_oov"])
    if per.empty:
        return empty
    per["oov_rate"] = per["n_oov"].to_numpy(np.float64) \
        / per["n_tokens"].to_numpy(np.float64)
    return per.sort_values("source").reset_index(drop=True) \
        .astype({"n_tokens": "int64", "n_oov": "int64"})


register("oov_rate", q_oov_rate, f"""
    WITH tok AS (
      SELECT source, unnest({_WORD_SQL}) AS w FROM documents),
    cnt AS (SELECT w, COUNT(*) AS c FROM tok GROUP BY w),
    vocab AS (SELECT w FROM cnt ORDER BY c DESC, w LIMIT {_OOV_V}),
    agg AS (
      SELECT source, COUNT(*) AS n_tokens,
             SUM(CASE WHEN w IN (SELECT w FROM vocab)
                 THEN 0 ELSE 1 END) AS n_oov
      FROM tok GROUP BY source)
    SELECT source, CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(n_oov AS BIGINT) AS n_oov,
           CAST(n_oov AS DOUBLE) / CAST(n_tokens AS DOUBLE) AS oov_rate
    FROM agg ORDER BY source""")


# ---------------------------------------------------------------- bm25

def q_bm25_search(sf_dir: str) -> pd.DataFrame:
    """Okapi BM25 (k1=1.2, b=0.75) top-20 for the fixed query
    {join, spark, window}: skinny (dl, tf_t) table materialized once,
    5-number global fold, scalar-closure scoring map, per-batch top-k
    partials. Scores round half-away to the 1e-6 grid on BOTH sides
    and the ORDER BY uses the rounded score — module docstring."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    t1, t2, t3 = BM25_TERMS

    def tf_dl(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        dl = np.zeros(n, dtype=np.int64)
        tf = np.zeros((3, n), dtype=np.int64)
        for i, t in enumerate(b["text"].fillna("")):
            ws = _WORD_RE.findall(t.lower())
            dl[i] = len(ws)
            for w in ws:
                if w == t1:
                    tf[0, i] += 1
                elif w == t2:
                    tf[1, i] += 1
                elif w == t3:
                    tf[2, i] += 1
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "dl": dl, "tf1": tf[0], "tf2": tf[1],
                             "tf3": tf[2]})

    skinny = ds.map_batches(tf_dl, batch_format="pandas").materialize()

    def glob(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": np.int64(0),
            "n": np.int64(len(b)),
            "sdl": np.int64(b["dl"].sum()),
            "df1": np.int64((b["tf1"] > 0).sum()),
            "df2": np.int64((b["tf2"] > 0).sum()),
            "df3": np.int64((b["tf3"] > 0).sum())}, index=[0])

    g = _reduce_partials(skinny.map_batches(glob, batch_format="pandas"),
                         ["k"], ["n", "sdl", "df1", "df2", "df3"])
    empty = _empty_typed(doc_id="int64", dl="int64", score="float64")
    if g.empty or int(g["n"].iloc[0]) == 0:
        return empty
    n = int(g["n"].iloc[0])
    avgdl = np.float64(int(g["sdl"].iloc[0])) / np.float64(n)
    idf = [np.log((np.float64(n - int(g[f"df{i}"].iloc[0])) + 0.5)
                  / (np.float64(int(g[f"df{i}"].iloc[0])) + 0.5) + 1.0)
           for i in (1, 2, 3)]
    idf1, idf2, idf3 = (np.float64(x) for x in idf)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        hit = (b["tf1"] + b["tf2"] + b["tf3"]) > 0
        b = b[hit]
        if len(b) == 0:
            return _empty_typed(doc_id="int64", dl="int64",
                                score_r6="int64")
        dl = b["dl"].to_numpy(np.float64)
        norm = np.float64(1.2) * (np.float64(0.25)
                                  + np.float64(0.75) * (dl / avgdl))

        def sat(tf_col: str) -> np.ndarray:
            tf = b[tf_col].to_numpy(np.float64)
            return (tf * np.float64(2.2)) / (tf + norm)

        s = idf1 * sat("tf1")
        s = s + idf2 * sat("tf2")
        s = s + idf3 * sat("tf3")
        out = pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                            "dl": b["dl"].to_numpy(np.int64),
                            "score_r6": halfaway6(s)})
        return out.sort_values(["score_r6", "doc_id"],
                               ascending=[False, True],
                               kind="mergesort").head(BM25_K)

    top = skinny.map_batches(score, batch_format="pandas").to_pandas()
    if top.empty:
        return empty
    top = top.sort_values(["score_r6", "doc_id"],
                          ascending=[False, True],
                          kind="mergesort").head(BM25_K)
    return pd.DataFrame({"doc_id": top["doc_id"].astype("int64"),
                         "dl": top["dl"].astype("int64"),
                         "score": top["score_r6"].to_numpy(np.float64)
                         / 1e6}).reset_index(drop=True)


register("bm25_search", q_bm25_search, BM25_SQL)
