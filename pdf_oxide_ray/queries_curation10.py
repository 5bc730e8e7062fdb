"""Round-4k operator family — tokenizer-prep + operational analytics:

* `subsample_weights` — word2vec-style frequency subsampling (t=1e-3):
  for the top-30 corpus words, the keep-probability
  p = min(1, (sqrt(f/t)+1) * (t/f)) and the expected surviving count —
  the dampening table a skip-gram / fastText trainer derives before a
  run.
* `char_coverage` — SentencePiece-style character-coverage table: per
  character of the lowercased corpus, count, fraction and cumulative
  coverage in (count DESC, char ASC) order — the table that picks the
  `character_coverage` knob.
* `vocab_coverage` — tokenizer vocab sizing: for each target coverage
  p in {0.5, 0.9, 0.95, 0.99}, the minimal vocabulary size k (words in
  count DESC, word ASC order) whose cumulative token mass reaches
  ceil(p·N), and the coverage actually achieved.
* `order_backlog` — gap-filled daily backlog curve: per calendar day,
  orders placed, orders completed (all lineitems shipped), and the
  running open-order backlog.

Distributed plans (shuffle budgets — also in SCALE.md):

`subsample_weights` / `vocab_coverage`: ONE vocab-bounded
(word, count) reduce via `_reduce_partials`; the ordering/cumsum folds
run on the reduced vocab frame (vocab-sized driver hot set — at web
scale cut with a distributed top-k / pre-aggregated count classes
first). All downstream math is driver-side over ≤ vocab rows.

`char_coverage`: per-batch character Counters (C-level over the
batch's joined text) reduce to a charset-bounded (char, count) table —
charset cardinality is alphabet-sized at any corpus size; cumulative
coverage rides int64 cumsums divided once at the end (association-free
on both engines).

`order_backlog`: exchange 1 = the per-order MAX(shipdate) reduce in the
gated keyed combine on orderkey, each key set folded immediately into
day-bounded (day, n) partials; exchange 2 = the two day-bounded count
reduces. The dense calendar, the gap-fill and the
running int64 backlog are generated DRIVER-side on the day-bounded
table (3 years ≈ 1.1k rows at any corpus size), touching no fact rows.

Exactness: counts/cumsums are int64 (order-free); keep-probabilities
mirror the twin's float64 operand order exactly (sqrt is correctly
rounded, so the chain is bit-identical without grid quantization);
coverage thresholds compare int64 cumsums against ceil(p·N) computed
identically. Empty inputs return the twins' empty shapes.
Self-registers into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on
import.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd

from .ops.exchange import combine_by_key
from .ops.quantile import disc_index, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register


_WORD_RE = re.compile(r"[0-9a-z_]+")
_WORD_SQL = "regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+')"


def _vocab_counts(sf_dir: str) -> pd.DataFrame:
    """Shared vocab census: (w, c) over corpus unigrams."""
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

    return _reduce_partials(
        ds.map_batches(wcount, batch_format="pandas"), ["w"], ["c"])


# --------------------------------------------------------- subsampling

_SUB_T = 0.001
_SUB_TOPK = 30


def q_subsample_weights(sf_dir: str) -> pd.DataFrame:
    """word2vec subsampling keep-probabilities for the top-30 words —
    module docstring."""
    vocab = _vocab_counts(sf_dir)
    empty = _empty_typed(word=object, c="int64", p_keep="float64",
                         expected_kept="float64")
    if vocab.empty:
        return empty
    n = np.float64(int(vocab["c"].sum()))
    top = vocab.sort_values(["c", "w"], ascending=[False, True],
                            kind="mergesort").head(_SUB_TOPK)
    c = top["c"].to_numpy(np.int64)
    f = c.astype(np.float64) / n
    t = np.float64(_SUB_T)
    p = np.minimum(np.float64(1.0), (np.sqrt(f / t) + 1.0) * (t / f))
    return pd.DataFrame({"word": top["w"].to_numpy(object),
                         "c": c, "p_keep": p,
                         "expected_kept": c.astype(np.float64) * p}) \
        .reset_index(drop=True)


register("subsample_weights", q_subsample_weights, f"""
    WITH tok AS (
      SELECT unnest({_WORD_SQL}) AS w FROM documents),
    cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY w),
    tot AS (SELECT SUM(c) AS n FROM cnt),
    s AS (
      SELECT w, c,
             LEAST(1.0,
                   (sqrt((CAST(c AS DOUBLE) / CAST(tot.n AS DOUBLE))
                         / {_SUB_T}) + 1.0)
                   * ({_SUB_T} / (CAST(c AS DOUBLE)
                                  / CAST(tot.n AS DOUBLE)))) AS p_keep
      FROM cnt, tot)
    SELECT w AS word, c, p_keep,
           CAST(c AS DOUBLE) * p_keep AS expected_kept
    FROM s ORDER BY c DESC, w LIMIT {_SUB_TOPK}""")


# ------------------------------------------------------ char coverage

def q_char_coverage(sf_dir: str) -> pd.DataFrame:
    """Character-coverage table over the lowercased corpus — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["text"])

    def ccount(b: pd.DataFrame) -> pd.DataFrame:
        cnt = Counter("".join(b["text"].fillna("")).lower())
        if not cnt:
            return pd.DataFrame({"ch": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype="int64")})
        return pd.DataFrame({"ch": list(cnt),
                             "c": pd.Series(list(cnt.values()),
                                            dtype="int64")})

    cs = _reduce_partials(ds.map_batches(ccount, batch_format="pandas"),
                          ["ch"], ["c"])
    empty = _empty_typed(ch=object, c="int64", frac="float64",
                         cum_frac="float64")
    if cs.empty:
        return empty
    cs = cs.sort_values(["c", "ch"], ascending=[False, True],
                        kind="mergesort").reset_index(drop=True)
    c = cs["c"].to_numpy(np.int64)
    n = np.float64(int(c.sum()))
    cum = c.cumsum()
    return pd.DataFrame({"ch": cs["ch"].to_numpy(object),
                         "c": c,
                         "frac": c.astype(np.float64) / n,
                         "cum_frac": cum.astype(np.float64) / n})


register("char_coverage", q_char_coverage, """
    WITH s AS (SELECT lower(coalesce(text, '')) AS t FROM documents),
    ch AS (
      SELECT substr(t, CAST(i AS INT), 1) AS ch
      FROM (SELECT t, unnest(range(1, length(t) + 1)) AS i
            FROM s WHERE length(t) > 0)),
    cnt AS (SELECT ch, CAST(COUNT(*) AS BIGINT) AS c
            FROM ch GROUP BY ch),
    tot AS (SELECT SUM(c) AS n FROM cnt),
    o AS (SELECT ch, c,
                 SUM(c) OVER (ORDER BY c DESC, ch) AS cum FROM cnt)
    SELECT o.ch, o.c,
           CAST(o.c AS DOUBLE) / CAST(tot.n AS DOUBLE) AS frac,
           CAST(o.cum AS DOUBLE) / CAST(tot.n AS DOUBLE) AS cum_frac
    FROM o, tot ORDER BY o.c DESC, o.ch""")


# ----------------------------------------------------- vocab coverage

_COV_TARGETS = (0.5, 0.9, 0.95, 0.99)


def q_vocab_coverage(sf_dir: str) -> pd.DataFrame:
    """Minimal vocab size reaching each target token coverage — module
    docstring."""
    vocab = _vocab_counts(sf_dir)
    empty = _empty_typed(p="float64", k_words="int64",
                         coverage="float64")
    if vocab.empty:
        return empty
    vocab = vocab.sort_values(["c", "w"], ascending=[False, True],
                              kind="mergesort")
    cum = vocab["c"].to_numpy(np.int64).cumsum()
    n = int(cum[-1])
    rows = []
    for p in _COV_TARGETS:
        k = disc_index(cum, disc_rank(n, p))
        rows.append((np.float64(p), k + 1,
                     np.float64(int(cum[k])) / np.float64(n)))
    return pd.DataFrame(rows, columns=["p", "k_words", "coverage"]) \
        .astype({"k_words": "int64"})


register("vocab_coverage", q_vocab_coverage, f"""
    WITH tok AS (
      SELECT unnest({_WORD_SQL}) AS w FROM documents),
    cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY w),
    tot AS (SELECT SUM(c) AS n FROM cnt),
    o AS (SELECT c,
                 SUM(c) OVER (ORDER BY c DESC, w) AS cum,
                 ROW_NUMBER() OVER (ORDER BY c DESC, w) AS rk
          FROM cnt),
    p AS (SELECT CAST(unnest([{", ".join(str(p) for p in _COV_TARGETS)}])
                      AS DOUBLE) AS p)
    SELECT p.p, CAST(MIN(o.rk) AS BIGINT) AS k_words,
           CAST(min_by(o.cum, o.rk) AS DOUBLE)
             / CAST(ANY_VALUE(tot.n) AS DOUBLE) AS coverage
    FROM p, o, tot
    WHERE o.cum >= CAST(ceil(p.p * CAST(tot.n AS DOUBLE)) AS BIGINT)
    GROUP BY p.p ORDER BY p.p""")


# ------------------------------------------------------ order backlog

def q_order_backlog(sf_dir: str) -> pd.DataFrame:
    """Gap-filled daily placed/completed/backlog curve — module
    docstring."""
    orders = _pq(sf_dir, "orders", ["o_orderdate"])

    def placed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"day": b["o_orderdate"].dt.floor("D")
                             .to_numpy(), "n": np.int64(1)}) \
            .groupby("day", as_index=False).sum()

    pl = _reduce_partials(orders.map_batches(placed,
                                             batch_format="pandas"),
                          ["day"], ["n"])
    empty = _empty_typed(day="datetime64[us]", n_placed="int64",
                         n_completed="int64", backlog="int64")
    if pl.empty:
        return empty

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def omax(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("l_orderkey", as_index=False) \
            .agg(md=("l_shipdate", "max"))

    def cdays(d: pd.DataFrame) -> pd.DataFrame:
        md = d.groupby("l_orderkey")["md"].max()
        return pd.DataFrame({"day": md.dt.floor("D").to_numpy(),
                             "n": np.int64(1)}) \
            .groupby("day", as_index=False).sum()

    # per-order MAX partials (one row per key per batch) fold straight
    # into day-bounded count partials inside the keyed combine
    cm = combine_by_key(li.map_batches(omax, batch_format="pandas"),
                        ["l_orderkey"], cdays)
    cm = cm.groupby("day", as_index=False)["n"].sum() if len(cm) else \
        _empty_typed(day="datetime64[us]", n="int64")
    lo = pl["day"].min()
    hi = pl["day"].max()
    if not cm.empty:
        hi = max(hi, cm["day"].max())
    cal = pd.DataFrame({"day": pd.date_range(lo, hi, freq="D")})
    out = cal.merge(pl.rename(columns={"n": "n_placed"}), on="day",
                    how="left") \
        .merge(cm.rename(columns={"n": "n_completed"}), on="day",
               how="left")
    out["n_placed"] = out["n_placed"].fillna(0).astype(np.int64)
    out["n_completed"] = out["n_completed"].fillna(0).astype(np.int64)
    out["backlog"] = (out["n_placed"] - out["n_completed"]).cumsum() \
        .astype(np.int64)
    out["day"] = out["day"].astype("datetime64[us]")
    return out


register("order_backlog", q_order_backlog, """
    WITH pl AS (
      SELECT date_trunc('day', o_orderdate) AS d,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM orders GROUP BY 1),
    co AS (SELECT l_orderkey, MAX(l_shipdate) AS md
           FROM lineitem GROUP BY l_orderkey),
    cm AS (
      SELECT date_trunc('day', md) AS d, CAST(COUNT(*) AS BIGINT) AS n
      FROM co GROUP BY 1),
    bounds AS (
      SELECT (SELECT MIN(d) FROM pl) AS lo,
             greatest((SELECT MAX(d) FROM pl),
                      COALESCE((SELECT MAX(d) FROM cm),
                               (SELECT MAX(d) FROM pl))) AS hi),
    cal AS (
      SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day
      FROM bounds)
    SELECT cal.day,
           CAST(COALESCE(pl.n, 0) AS BIGINT) AS n_placed,
           CAST(COALESCE(cm.n, 0) AS BIGINT) AS n_completed,
           CAST(SUM(COALESCE(pl.n, 0) - COALESCE(cm.n, 0))
                OVER (ORDER BY cal.day) AS BIGINT) AS backlog
    FROM cal LEFT JOIN pl ON pl.d = cal.day
             LEFT JOIN cm ON cm.d = cal.day
    ORDER BY cal.day""")
