"""Round-4w operator family — corpus regression + mixture-distance +
dedup-calibration diagnostics:

* `tokens_chars_ols` — per-source ordinary-least-squares fit of
  whitespace-token count against ``n_chars`` (slope = tokens/char,
  intercept, r²) from EXACT integer moments: every sum (n, Σx, Σy,
  Σx², Σxy, Σy²) rides int64 partials, the normal-equation terms
  (n·Σxy − ΣxΣy etc.) fold in Python big ints, and each final double
  is ONE division of correctly-rounded operands — the SQL twin rides
  HUGEINT and routes every operand through
  ``CAST(CAST(x AS VARCHAR) AS DOUBLE)`` (strtod, correctly rounded;
  DuckDB's direct HUGEINT→DOUBLE cast is 1 ulp off past 2^53 — see
  ``spearman_qty_price``). Degenerate groups (constant x → NULL
  slope/intercept/r²; constant y → r² NULL) mirror the twin's NULLs
  as NaN.
* `source_js_matrix` — pairwise Jensen-Shannon divergence between
  per-source unigram token distributions — the mixture-design
  distance matrix read before setting source weights (which sources
  are near-duplicates of each other distributionally). Per-token
  terms are rounded to the int 1e-12 grid and SUMMED IN INT64 on
  both engines (the ``bigram_pmi``/``log_surv6`` convention), so the
  result is bit-identical regardless of summation order.
* `candidate_jaccard_hist` — dedup-detector calibration: the exact
  fingerprint-set Jaccard of every winnow candidate pair
  (``winnow_dup_pairs``), histogrammed into 10 bins with the exact
  per-bin mean — the operating-curve table an engine owner reads to
  pick the pair threshold (are the candidates true near-dups, or
  band-collision noise).

Distributed plans (shuffle budgets — also in SCALE.md):

`tokens_chars_ols`: per-batch per-source int64 moment partials →
ONE source-bounded `sum_by`; the normal equations run on
the driver over the source-bounded frame in Python big ints (no
overflow at any scale; int64 partials hold to ~9e12 docs/source at
1e3 chars/doc — SCALE.md documents the bound).

`source_js_matrix`: per-batch (token, source) count partials → ONE
vocab×source-bounded reduce (the `lang_source_mi`/`df_histogram`
exchange); the 190-pair term fold is vectorized numpy over the
vocab-sized count matrix — a documented hot-set final (vocab, not
corpus). Pair count is source²-bounded.

`candidate_jaccard_hist`: reuses the winnow pair pipeline's skinny
(fp, doc_id) exchanges; the candidate-pair list is bounded and
driver-held (the `winnow_dup_pairs` contract); true fingerprint sets
are re-derived in ONE distributed filtered pass over documents (a
broadcast sorted id array gates it — only pair-involved docs emit),
and only (doc_id, fp) ints reach the driver, never text. mean_j is
exact while Σ round(j·1e9) per bin < 2^53 (~9e6 pairs/bin).

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import TOK_SQL
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


# --------------------------------------------------- tokens_chars_ols

def q_tokens_chars_ols(sf_dir: str) -> pd.DataFrame:
    """Per-source OLS of token count vs n_chars from exact integer
    moments — module docstring."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["source", "text", "n_chars"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        x = b["n_chars"].to_numpy(np.int64)
        y = ftext.token_count_ws(b["text"]).to_numpy(np.int64)
        return pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "n": np.int64(1), "sx": x, "sy": y,
            "sxx": x * x, "sxy": x * y, "syy": y * y})

    p = sum_by(ds.map_batches(parts, batch_format="pandas"),
               ["source"],
               ["n", "sx", "sy", "sxx", "sxy", "syy"])
    empty = _empty_typed(source=object, n_docs="int64",
                         slope="float64", intercept="float64",
                         r2="float64")
    if p.empty:
        return empty
    rows = []
    for _, r in p.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, sxy, syy = int(r["sxx"]), int(r["sxy"]), int(r["syy"])
        cov = n * sxy - sx * sy          # exact Python big ints
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        if varx > 0:
            slope = float(cov) / float(varx)
            intercept = (float(sy) - slope * float(sx)) / float(n)
        else:
            slope, intercept = np.nan, np.nan
        r2 = ((float(cov) * float(cov))
              / (float(varx) * float(vary))
              if varx > 0 and vary > 0 else np.nan)
        rows.append((r["source"], n, slope, intercept, r2))
    return pd.DataFrame(rows, columns=["source", "n_docs", "slope",
                                       "intercept", "r2"]) \
        .astype({"n_docs": "int64"}) \
        .sort_values("source").reset_index(drop=True)


# per-doc whitespace token count, no unnest (keeps zero-token docs)
_YTOK_SQL = (r"CAST(len(list_filter(regexp_split_to_array("
             r"coalesce(text, ''), '\s+'), z -> z <> '')) AS BIGINT)")
# HUGEINT -> correctly-rounded DOUBLE (strtod; see module docstring)
def _vd(x: str) -> str:
    return f"CAST(CAST({x} AS VARCHAR) AS DOUBLE)"


register("tokens_chars_ols", q_tokens_chars_ols, f"""
    WITH t AS (SELECT source, CAST(n_chars AS HUGEINT) AS x,
                      CAST({_YTOK_SQL} AS HUGEINT) AS y
               FROM documents),
    a AS (SELECT source, CAST(count(*) AS HUGEINT) AS n,
                 SUM(x) AS sx, SUM(y) AS sy, SUM(x * x) AS sxx,
                 SUM(x * y) AS sxy, SUM(y * y) AS syy
          FROM t GROUP BY source),
    c AS (SELECT source, n, sx, sy,
                 n * sxy - sx * sy AS cov,
                 n * sxx - sx * sx AS varx,
                 n * syy - sy * sy AS vary
          FROM a),
    s AS (SELECT source, n, sx, sy, cov, varx, vary,
                 CASE WHEN varx > 0
                      THEN {_vd('cov')} / {_vd('varx')} END AS slope
          FROM c)
    SELECT source, CAST(n AS BIGINT) AS n_docs, slope,
           CASE WHEN varx > 0
                THEN ({_vd('sy')} - slope * {_vd('sx')}) / {_vd('n')}
           END AS intercept,
           CASE WHEN varx > 0 AND vary > 0
                THEN ({_vd('cov')} * {_vd('cov')})
                     / ({_vd('varx')} * {_vd('vary')})
           END AS r2
    FROM s ORDER BY source""")


# --------------------------------------------------- source_js_matrix

def q_source_js_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise source Jensen-Shannon divergence on unigram token
    distributions — module docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "source": b["source"].to_numpy(object),
            "token": b["text"].fillna("").str.split()}) \
            .explode("token").dropna(subset=["token"])
        return d.assign(n=np.int64(1))

    p = sum_by(ds.map_batches(parts, batch_format="pandas"),
               ["token", "source"], ["n"])
    empty = _empty_typed(source_a=object, source_b=object,
                         js="float64")
    if p.empty:
        return empty
    mat = p.pivot_table(index="token", columns="source", values="n",
                        fill_value=0, aggfunc="sum")
    srcs = sorted(mat.columns)
    if len(srcs) < 2:
        return empty
    tot = {s: float(int(mat[s].sum())) for s in srcs}
    counts = {s: mat[s].to_numpy(np.int64) for s in srcs}
    rows = []
    for i, a in enumerate(srcs):
        ca_all = counts[a]
        for b in srcs[i + 1:]:
            cb_all = counts[b]
            m = (ca_all > 0) | (cb_all > 0)
            ca = ca_all[m].astype(np.float64)
            cb = cb_all[m].astype(np.float64)
            pa = ca / tot[a]
            pb = cb / tot[b]
            js12 = np.int64(0)
            for px, cx in ((pa, ca), (pb, cb)):
                sel = cx > 0
                if not sel.any():
                    continue
                term = (0.5 * px[sel]
                        * np.log(2.0 * px[sel]
                                 / (pa[sel] + pb[sel])))
                v = term * 1e12
                js12 += np.copysign(np.floor(np.abs(v) + 0.5), v) \
                    .astype(np.int64).sum()
            rows.append((a, b, np.float64(js12) / 1e12))
    return pd.DataFrame(rows, columns=["source_a", "source_b", "js"])


_JS_TERM = """CASE WHEN c{u} > 0 THEN CAST(round(
          0.5 * (CAST(c{u} AS DOUBLE) / n{u})
              * ln(2 * (CAST(c{u} AS DOUBLE) / n{u})
                   / ((CAST(ca AS DOUBLE) / na)
                      + (CAST(cb AS DOUBLE) / nb)))
          * 1000000000000) AS BIGINT) ELSE 0 END"""

register("source_js_matrix", q_source_js_matrix, f"""
    WITH tok AS (SELECT source, {TOK_SQL} AS token FROM documents),
    c AS (SELECT source, token, CAST(count(*) AS BIGINT) AS n
          FROM tok GROUP BY source, token),
    tot AS (SELECT source, CAST(count(*) AS BIGINT) AS nt
            FROM tok GROUP BY source),
    v AS (SELECT DISTINCT token FROM tok),
    p AS (SELECT a.source AS sa, b.source AS sb,
                 a.nt AS na, b.nt AS nb
          FROM tot a JOIN tot b ON a.source < b.source),
    g AS (SELECT p.sa, p.sb, p.na, p.nb,
                 COALESCE(x.n, 0) AS ca, COALESCE(y.n, 0) AS cb
          FROM p CROSS JOIN v
          LEFT JOIN c x ON x.source = p.sa AND x.token = v.token
          LEFT JOIN c y ON y.source = p.sb AND y.token = v.token),
    t AS (SELECT sa, sb,
                 {_JS_TERM.format(u='a')}
                 + {_JS_TERM.format(u='b')} AS t12
          FROM g)
    SELECT sa AS source_a, sb AS source_b,
           CAST(SUM(t12) AS DOUBLE) / 1000000000000.0 AS js
    FROM t GROUP BY sa, sb ORDER BY sa, sb""")


# --------------------------------------------- candidate_jaccard_hist

def q_candidate_jaccard_hist(sf_dir: str) -> pd.DataFrame:
    """Exact fingerprint-set Jaccard histogram of winnow candidate
    pairs — module docstring."""
    import ray

    from .functions import textops as ftext
    from .queries import q_winnow_dup_pairs
    from .stages.joins import _get_broadcast

    pairs = q_winnow_dup_pairs(sf_dir)
    empty = _empty_typed(jbin="int64", n_pairs="int64",
                         mean_j="float64")
    if pairs.empty:
        return empty
    ids = np.unique(np.concatenate(
        [pairs["id_a"].to_numpy(np.int64),
         pairs["id_b"].to_numpy(np.int64)]))
    ids_ref = ray.put(ids)

    def fp_rows(b: pd.DataFrame) -> pd.DataFrame:
        keys = _get_broadcast(ids_ref)
        d = b["doc_id"].to_numpy(np.int64)
        pos = np.searchsorted(keys, d)
        pos[pos == len(keys)] = 0
        b = b[keys[pos] == d]
        rows, fps = ftext.winnow_rows(b["text"], 16, 8)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64)[rows],
                             "fp": fps})

    rows = _pq(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(fp_rows, batch_format="pandas").to_pandas()
    by = {d: set(g) for d, g in rows.groupby("doc_id")["fp"]}
    a = pairs["id_a"].to_numpy(np.int64)
    b_ = pairs["id_b"].to_numpy(np.int64)
    inter = np.array([len(by[x] & by[y]) for x, y in zip(a, b_)],
                     dtype=np.int64)
    union = np.array([len(by[x]) + len(by[y]) for x, y in zip(a, b_)],
                     dtype=np.int64) - inter
    j = inter.astype(np.float64) / union.astype(np.float64)
    jbin = np.minimum(np.floor(j * 10).astype(np.int64), 9)
    v = j * 1e9
    j9 = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
    agg = pd.DataFrame({"jbin": jbin, "n_pairs": np.int64(1),
                        "s9": j9}) \
        .groupby("jbin", as_index=False).sum()
    agg["mean_j"] = (agg["s9"].to_numpy(np.float64)
                     / agg["n_pairs"].to_numpy(np.float64)) / 1e9
    return agg[["jbin", "n_pairs", "mean_j"]] \
        .astype({"jbin": "int64", "n_pairs": "int64"}) \
        .sort_values("jbin").reset_index(drop=True)


def _candidate_jaccard_oracle_sql() -> str:
    from .queries import _WINNOW_PAIR_THRESHOLD, _winnow_fps_ctes

    return f"""
    WITH {_winnow_fps_ctes()},
    fpc AS (SELECT fp, count(*) AS c FROM fps GROUP BY fp),
    pc AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n
           FROM fps a JOIN fps b ON a.fp = b.fp
                                AND a.doc_id < b.doc_id
           JOIN fpc ON fpc.fp = a.fp AND fpc.c BETWEEN 2 AND 16
           GROUP BY 1, 2),
    pairs AS (SELECT id_a, id_b FROM pc
              WHERE n >= {_WINNOW_PAIR_THRESHOLD}),
    sz AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS k
           FROM fps GROUP BY doc_id),
    itr AS (SELECT p.id_a, p.id_b, CAST(count(*) AS BIGINT) AS i
            FROM pairs p JOIN fps a ON a.doc_id = p.id_a
            JOIN fps b ON b.doc_id = p.id_b AND b.fp = a.fp
            GROUP BY 1, 2),
    j AS (SELECT CAST(i AS DOUBLE) / (sa.k + sb.k - i) AS jac
          FROM itr JOIN sz sa ON sa.doc_id = itr.id_a
          JOIN sz sb ON sb.doc_id = itr.id_b)
    SELECT LEAST(CAST(floor(jac * 10) AS BIGINT), 9) AS jbin,
           CAST(count(*) AS BIGINT) AS n_pairs,
           CAST(SUM(CAST(round(jac * 1000000000) AS BIGINT))
                AS DOUBLE) / count(*) / 1000000000.0 AS mean_j
    FROM j GROUP BY jbin ORDER BY jbin"""


register("candidate_jaccard_hist", q_candidate_jaccard_hist,
         _candidate_jaccard_oracle_sql())
