"""Round-4z operator family — drift monitoring + distributional-
semantics counting:

* `value_psi_weekly` — Population Stability Index of the event-value
  distribution per epoch week against the FIRST week's decile bins —
  the standard production drift monitor (PSI < 0.1 stable, > 0.25
  action). Bins come from exact disc-rule deciles of the reference
  week's micro-unit value histogram; per-(week, bin) terms are
  clamped at 1e-9 (the usual PSI smoothing, mirrored literally) and
  rounded to the int 1e-12 grid so int64 sums are order-free — the
  reference week's own PSI is exactly 0 (a built-in sanity row).
* `glove_cooc_topk` — top-50 word co-occurrence pairs within a
  4-token window, weighted by the GloVe harmonic 1/distance (scaled
  ×12 so weights are EXACT ints: 12, 6, 4, 3) — the co-occurrence
  counting pass of GloVe/word2vec-style embedding training, with the
  deterministic (weight DESC, pair ASC) tie order.

Distributed plans (shuffle budgets — also in SCALE.md):

`value_psi_weekly`: ONE (week, value6) joint-histogram reduce
(week × distinct-value bounded — values are 2-decimal money on a
bounded grid); reference deciles, binning and the PSI fold are
driver math over the histogram frame, never over events.

`glove_cooc_topk`: per-batch vectorized pair counting (doc-boundary
masked shifts for distances 1..4 — no per-token Python loop) emits
one row per DISTINCT pair per batch; the final reduce is the gated
keyed combine (`ops/exchange.py`) with a local top-50 per key set,
so above the gate only constant-size candidates reach the driver,
never the pair vocabulary.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.exchange import combine_by_key
from .ops.quantile import disc_pick, disc_rank
from .queries import _empty_typed, _pq, _reduce_partials, register


_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US
_PSI_EPS = 1e-09
_COOC_WINDOW = 4
_COOC_K = 50


# ----------------------------------------------------- value_psi_weekly

def q_value_psi_weekly(sf_dir: str) -> pd.DataFrame:
    """Weekly PSI of event values vs the first week's decile bins —
    module docstring."""
    ds = _pq(sf_dir, "events", ["ts", "value"])

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        wk = b["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // _WEEK_US
        raw = b["value"].to_numpy(np.float64) * 1e6
        v6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        return pd.DataFrame({"wk": wk, "v6": v6, "n": np.int64(1)}) \
            .groupby(["wk", "v6"], as_index=False).sum()

    h = _reduce_partials(ds.map_batches(hist, batch_format="pandas"),
                         ["wk", "v6"], ["n"])
    empty = _empty_typed(week="int64", n_events="int64",
                         psi="float64")
    if h.empty:
        return empty
    w0 = int(h["wk"].min())
    ref = h[h["wk"] == w0].sort_values("v6")
    cum = ref["n"].cumsum().to_numpy(np.int64)
    nref = int(cum[-1])
    rv = ref["v6"].to_numpy(np.int64)
    thr = np.array([disc_pick(rv, cum, disc_rank(nref, k / 10))
                    for k in range(1, 10)], dtype=np.int64)
    h = h.copy()
    h["bin"] = (h["v6"].to_numpy(np.int64)[:, None]
                >= thr[None, :]).sum(axis=1).astype(np.int64)
    cb = h.groupby(["wk", "bin"], as_index=False)["n"].sum()
    weeks = sorted(cb["wk"].unique().tolist())
    ntot = cb.groupby("wk")["n"].sum().to_dict()
    mat = cb.pivot_table(index="bin", columns="wk", values="n",
                         fill_value=0, aggfunc="sum") \
        .reindex(np.arange(10), fill_value=0)
    pr = mat[w0].to_numpy(np.int64).astype(np.float64) \
        / np.float64(ntot[w0])
    rows = []
    for wk in weeks:
        pw = mat[wk].to_numpy(np.int64).astype(np.float64) \
            / np.float64(ntot[wk])
        t = (pw - pr) * np.log(np.maximum(pw, _PSI_EPS)
                               / np.maximum(pr, _PSI_EPS))
        v = t * 1e12
        t12 = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        rows.append((int(wk), int(ntot[wk]),
                     float(np.float64(t12.sum()) / 1e12)))
    return pd.DataFrame(rows, columns=["week", "n_events", "psi"]) \
        .astype({"week": "int64", "n_events": "int64"})


_PSI_THR = "\n".join(
    f"             quantile_disc(v6, {k / 10}) AS t{k},"
    for k in range(1, 9)) + f"""
             quantile_disc(v6, 0.9) AS t9"""
_PSI_BIN = " + ".join(
    f"CASE WHEN v6 >= t{k} THEN 1 ELSE 0 END" for k in range(1, 10))

register("value_psi_weekly", q_value_psi_weekly, f"""
    WITH e AS (
      SELECT epoch_us(ts) // {_WEEK_US} AS wk,
             CAST(round(value * 1000000) AS BIGINT) AS v6
      FROM events),
    r AS (SELECT min(wk) AS w0 FROM e),
    thr AS (SELECT
{_PSI_THR}
            FROM e WHERE wk = (SELECT w0 FROM r)),
    b AS (SELECT wk, CAST({_PSI_BIN} AS BIGINT) AS bin
          FROM e, thr),
    n AS (SELECT wk, CAST(count(*) AS BIGINT) AS n
          FROM e GROUP BY wk),
    cnt AS (SELECT wk, bin, CAST(count(*) AS BIGINT) AS cb
            FROM b GROUP BY wk, bin),
    grid AS (SELECT n.wk, g.bin, n.n
             FROM n, (SELECT unnest(range(0, 10)) AS bin) g),
    p AS (SELECT grid.wk, grid.bin, grid.n,
                 COALESCE(cnt.cb, 0) AS cb
          FROM grid LEFT JOIN cnt
            ON cnt.wk = grid.wk AND cnt.bin = grid.bin),
    pr AS (SELECT bin, cb AS cr, n AS nr FROM p
           WHERE wk = (SELECT w0 FROM r)),
    t AS (SELECT p.wk, CAST(round(
            ((CAST(p.cb AS DOUBLE) / p.n)
             - (CAST(pr.cr AS DOUBLE) / pr.nr))
            * ln(greatest(CAST(p.cb AS DOUBLE) / p.n, {_PSI_EPS!r})
                 / greatest(CAST(pr.cr AS DOUBLE) / pr.nr,
                            {_PSI_EPS!r}))
            * 1000000000000) AS BIGINT) AS t12
          FROM p JOIN pr ON pr.bin = p.bin)
    SELECT t.wk AS week, n.n AS n_events,
           CAST(SUM(t12) AS DOUBLE) / 1000000000000.0 AS psi
    FROM t JOIN n ON n.wk = t.wk
    GROUP BY t.wk, n.n ORDER BY t.wk""")


# ----------------------------------------------------- glove_cooc_topk

def q_glove_cooc_topk(sf_dir: str) -> pd.DataFrame:
    """Top-50 harmonic-weighted window-4 co-occurrence pairs — module
    docstring."""
    ds = _pq(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sp = b["text"].fillna("").str.split()
        toks = np.concatenate(
            [np.array(x, dtype=object) for x in sp]) \
            if len(sp) else np.empty(0, dtype=object)
        lens = sp.str.len().to_numpy(np.int64)
        did = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        frames = []
        for dist in range(1, _COOC_WINDOW + 1):
            if len(toks) <= dist:
                break
            ok = did[dist:] == did[:-dist]
            x = toks[:-dist][ok]
            y = toks[dist:][ok]
            lo = np.where(x <= y, x, y)
            hi = np.where(x <= y, y, x)
            frames.append(pd.DataFrame({
                "tok_a": lo, "tok_b": hi,
                "weight": np.int64(12 // dist)}))
        if not frames:
            return pd.DataFrame({
                "tok_a": pd.Series([], dtype=object),
                "tok_b": pd.Series([], dtype=object),
                "weight": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True) \
            .groupby(["tok_a", "tok_b"], as_index=False)["weight"] \
            .sum()

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["weight", "tok_a", "tok_b"],
                             ascending=[False, True, True],
                             kind="mergesort").head(_COOC_K)

    out = combine_by_key(
        ds.map_batches(partial, batch_format="pandas"), ["tok_a", "tok_b"],
        lambda d: topk(d.groupby(["tok_a", "tok_b"], as_index=False)
                       ["weight"].sum()))
    if out.empty:
        return _empty_typed(tok_a=object, tok_b=object, weight="int64")
    return topk(out).reset_index(drop=True) \
        .astype({"weight": "int64"})


register("glove_cooc_topk", q_glove_cooc_topk, rf"""
    WITH t AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(coalesce(text, ''),
                         '\s+'), z -> z <> '') AS arr
      FROM documents),
    mx AS (SELECT COALESCE(max(len(arr)), 0) AS m FROM t),
    pos AS (
      SELECT doc_id, arr[i.i] AS tok, i.i AS p
      FROM t, (SELECT unnest(range(1, (SELECT m FROM mx) + 1)) AS i) i
      WHERE i.i <= len(arr)),
    pr AS (
      SELECT least(a.tok, b.tok) AS tok_a,
             greatest(a.tok, b.tok) AS tok_b,
             CAST(12 // (b.p - a.p) AS BIGINT) AS w
      FROM pos a JOIN pos b
        ON b.doc_id = a.doc_id AND b.p > a.p
       AND b.p <= a.p + {_COOC_WINDOW}),
    agg AS (SELECT tok_a, tok_b, CAST(SUM(w) AS BIGINT) AS weight
            FROM pr GROUP BY 1, 2)
    SELECT tok_a, tok_b, weight FROM agg
    ORDER BY weight DESC, tok_a, tok_b LIMIT {_COOC_K}""")
