"""Round-4g curation family — evaluation / sampling-design /
coverage-estimation shapes a corpus curator runs on top of the
existing censuses:

* `lang_confusion`    — labeled-vs-predicted language confusion
  census: the language-ID quality evaluation (per (label, prediction)
  cell counts + per-label recall) over the same stopword-profile
  heuristic `lang_id` scores per doc.
* `neyman_allocation` — Neyman optimal sample allocation: distribute
  a 10,000-doc annotation budget across sources proportionally to
  Nh·σh (stratum size × token-count standard deviation) — the
  survey-sampling rule that beats proportional allocation when strata
  have unequal variance; largest-remainder integerization (the
  `quota_allocation` Hamilton machinery over variance weights).
* `chao1_vocab`       — Chao1 species-richness estimate of each
  source's TOTAL vocabulary (observed + f1²-style unseen-mass
  correction from hapax/dis-legomena counts; the bias-corrected
  f1·(f1−1)/(2·(f2+1)) form is total) — the "how much vocabulary
  haven't we crawled yet" coverage diagnostic.

Shuffle budget (SCALE.md doctrine): lang_confusion is per-batch
(lang, pred, n) partials through ONE #langs²-bounded reduce;
neyman_allocation is per-source (n, Σx, Σx²) moment partials through
ONE dimension-bounded reduce with all allocation math on the driver's
source frame; chao1_vocab rides ONE (source, token)-keyed count
reduce (vocabulary-bounded, the `source_token_entropy` exchange
scale) folded per batch to distinct-pair partials.

Exactness: moment sums recombine in Python big ints (the twin's
HUGEINT); σ and every ratio mirror the twin's IEEE operand order
term-for-term; Neyman weights quantize to the half-away 1e-6 grid so
the weight total is an order-free integer; Hamilton ranks break ties
(rem DESC, source ASC) — a total order on both sides. Self-registers
into ``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.textops import halfaway6 as _halfaway6
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


# the lang_id heuristic's SQL twin fragments (queries.py lang_id oracle):
# distinct words of the first 2000 lowered chars, stopword-profile hit
# counts, first-max-wins argmax en > de > fr > es
_PRED_SQL = r"""
    w AS (
      SELECT doc_id, list_distinct(regexp_split_to_array(
                 substr(lower(text), 1, 2000), '\s+')) AS words
      FROM documents),
    h AS (
      SELECT doc_id,
        len(list_intersect(words,
          ['the','and','of','to','a','in','is','that','for','it']))
          AS h_en,
        len(list_intersect(words,
          ['der','die','das','und','ist','nicht','ein','zu','mit']))
          AS h_de,
        len(list_intersect(words,
          ['le','la','les','et','est','un','une','pour','dans','que']))
          AS h_fr,
        len(list_intersect(words,
          ['el','la','los','las','es','un','una','para','que','con']))
          AS h_es
      FROM w),
    p AS (
      SELECT doc_id,
             CASE WHEN greatest(h_en, h_de, h_fr, h_es) = 0
                       THEN 'unknown'
                  WHEN h_en >= h_de AND h_en >= h_fr AND h_en >= h_es
                       THEN 'en'
                  WHEN h_de >= h_fr AND h_de >= h_es THEN 'de'
                  WHEN h_fr >= h_es THEN 'fr'
                  ELSE 'es' END AS lang_pred
      FROM h)"""


# ---------------------------------------------------------------------------
# lang_confusion: labeled vs predicted language census
# ---------------------------------------------------------------------------


def q_lang_confusion(sf_dir: str) -> pd.DataFrame:
    """Language-ID evaluation: per (labeled lang, predicted lang) cell,
    the doc count and the within-label recall — the confusion matrix
    you read before trusting `lang_id` as a routing filter. Prediction
    is the same stopword-profile heuristic as `lang_id` (ASCII corpora;
    same caveat as its oracle).

    Distributed shape: prediction is a pure map; per-batch (lang,
    pred, n) partials ride ONE #langs²-bounded reduce; recall divides
    the identical int64 pair on the driver's cell frame (the twin's
    operand order)."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["lang", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": b["lang"].to_numpy(object),
            "lang_pred": ftext.detect_language(b["text"])
            .to_numpy(object),
            "n": np.int64(1)})

    cells = sum_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["lang", "lang_pred"], ["n"])
    empty = _empty_typed(lang=object, lang_pred=object, n_docs="int64",
                         recall="float64")
    if cells.empty:
        return empty
    cells = cells.sort_values(["lang", "lang_pred"]) \
        .reset_index(drop=True)
    tot = cells.groupby("lang")["n"].transform("sum")
    return pd.DataFrame({
        "lang": cells["lang"], "lang_pred": cells["lang_pred"],
        "n_docs": cells["n"].astype("int64"),
        "recall": (cells["n"].to_numpy(np.float64)
                   / tot.to_numpy(np.float64))})


register("lang_confusion", q_lang_confusion, f"""
    WITH {_PRED_SQL},
    j AS (
      SELECT d.lang, p.lang_pred
      FROM documents d JOIN p USING (doc_id)),
    c AS (
      SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
      FROM j GROUP BY 1, 2),
    t AS (SELECT lang, SUM(n) AS tot FROM c GROUP BY 1)
    SELECT c.lang, c.lang_pred, c.n AS n_docs,
           CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) AS recall
    FROM c JOIN t USING (lang) ORDER BY c.lang, c.lang_pred""")


# ---------------------------------------------------------------------------
# neyman_allocation: variance-optimal sample allocation per source
# ---------------------------------------------------------------------------

_NEYMAN_BUDGET = 10_000


def q_neyman_allocation(sf_dir: str) -> pd.DataFrame:
    """Neyman optimal allocation of a 10,000-doc annotation budget
    across sources: nh ∝ Nh·σh where σh is the population standard
    deviation of the whitespace token count — high-variance feeds get
    proportionally more labels than proportional allocation would give
    them. Integerized by largest remainder (Hamilton; ties rem DESC,
    source ASC — a total order). The pure Neyman formula can allocate
    a small stratum more than its population (documented; a sampler
    clips downstream).

    Distributed shape: per-batch (source, n, Σx, Σx²) moment partials
    through ONE dimension-bounded reduce; everything after runs on the
    driver's source frame. Exactness: moments recombine in Python big
    ints (Σx² wraps int64 only past ~9e18 token²; the twin's HUGEINT
    never wraps); σ mirrors the twin's IEEE chain term-for-term with a
    max(·, 0) guard against negative fp variance; the weight Nh·σh
    quantizes to the half-away 1e-6 grid so the weight TOTAL is an
    order-free integer sum; Hamilton runs on those integers (w6·budget
    wraps int64 only past ~9e14 weight units — the `quota_allocation`
    documented-bound convention). A zero total weight (all strata
    constant) allocates zero everywhere on both sides."""
    from .functions import textops as ftext

    ds = _pq(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = ftext.token_count_ws(b["text"]).to_numpy(np.int64)
        return pd.DataFrame({"source": b["source"].to_numpy(object),
                             "n": np.int64(1), "sx": x, "sx2": x * x})

    agg = sum_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["source"], ["n", "sx", "sx2"])
    empty = _empty_typed(source=object, n_docs="int64",
                         sigma="float64", alloc="int64")
    if agg.empty:
        return empty
    agg = agg.sort_values("source").reset_index(drop=True)
    rows = []
    for _, r in agg.iterrows():
        n, sx, sx2 = int(r["n"]), int(r["sx"]), int(r["sx2"])
        var = max((np.float64(sx2) - np.float64(sx) * np.float64(sx)
                   / np.float64(n)) / np.float64(n), np.float64(0.0))
        sig = np.sqrt(var)
        w6 = int(_halfaway6(np.array([np.float64(n) * sig]))[0])
        rows.append((r["source"], n, float(sig), w6))
    tot6 = sum(w6 for *_, w6 in rows)
    if tot6 == 0:
        alloc = [0] * len(rows)
    else:
        base = [w6 * _NEYMAN_BUDGET // tot6 for *_, w6 in rows]
        rem = [w6 * _NEYMAN_BUDGET % tot6 for *_, w6 in rows]
        k = _NEYMAN_BUDGET - sum(base)
        order = sorted(range(len(rows)), key=lambda i: (-rem[i], i))
        alloc = list(base)
        for i in order[:k]:
            alloc[i] += 1
    return pd.DataFrame({
        "source": [r[0] for r in rows],
        "n_docs": pd.Series([r[1] for r in rows], dtype="int64"),
        "sigma": pd.Series([r[2] for r in rows], dtype="float64"),
        "alloc": pd.Series(alloc, dtype="int64")})


register("neyman_allocation", q_neyman_allocation, r"""
    WITH m AS (
      SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx,
             CAST(SUM(x * x) AS BIGINT) AS sx2
      FROM (SELECT source,
                   CAST(length(list_filter(regexp_split_to_array(
                        coalesce(text, ''), '\s+'), x -> x <> ''))
                        AS BIGINT) AS x
            FROM documents)
      GROUP BY source),
    s AS (
      SELECT source, n,
             sqrt(GREATEST((CAST(sx2 AS DOUBLE)
                            - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)
                              / CAST(n AS DOUBLE))
                           / CAST(n AS DOUBLE), 0.0)) AS sigma
      FROM m),
    wq AS (
      SELECT source, n, sigma,
             CAST(round(CAST(n AS DOUBLE) * sigma * 1000000)
                  AS BIGINT) AS w6
      FROM s),
    tot AS (SELECT SUM(w6) AS t6 FROM wq),
    base AS (
      SELECT source, n, sigma, w6,
             CASE WHEN (SELECT t6 FROM tot) = 0 THEN 0
                  ELSE w6 * 10000 // (SELECT t6 FROM tot) END AS fl,
             CASE WHEN (SELECT t6 FROM tot) = 0 THEN 0
                  ELSE w6 * 10000 % (SELECT t6 FROM tot) END AS rem
      FROM wq),
    ranked AS (
      SELECT *, ROW_NUMBER() OVER (ORDER BY rem DESC, source) AS r
      FROM base),
    need AS (
      SELECT CASE WHEN (SELECT t6 FROM tot) = 0 THEN 0
                  ELSE 10000 - SUM(fl) END AS k FROM ranked)
    SELECT source, n AS n_docs, sigma,
           CAST(fl + CASE WHEN (SELECT t6 FROM tot) > 0
                          AND r <= (SELECT k FROM need)
                          THEN 1 ELSE 0 END AS BIGINT) AS alloc
    FROM ranked ORDER BY source""")


# ---------------------------------------------------------------------------
# chao1_vocab: species-richness estimate of each source's vocabulary
# ---------------------------------------------------------------------------


def q_chao1_vocab(sf_dir: str) -> pd.DataFrame:
    """Chao1 richness estimate of each source's TOTAL vocabulary from
    its token-frequency tail: chao1 = V + f1·(f1−1)/(2·(f2+1)) where V
    is the observed distinct-token count, f1 the hapax count and f2
    the dis-legomena count (the bias-corrected form, total at f2 = 0)
    — "how much vocabulary this feed hasn't shown us yet".

    Distributed shape: per-batch (source, token, cnt) partials fold
    through ONE vocabulary-bounded reduce (the `source_token_entropy`
    exchange scale); V / f1 / f2 and the one correction term compute
    on the driver's per-source tail counts. The correction divides
    exact integers in the twin's operand order and adds to
    CAST(V AS DOUBLE) — bit-identical."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("").str.split().explode().dropna()
        if s.empty:
            return pd.DataFrame({"source": pd.Series([], dtype=object),
                                 "token": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype="int64")})
        return pd.DataFrame({"source": b["source"].loc[s.index]
                             .to_numpy(object),
                             "token": s.to_numpy(object),
                             "cnt": np.int64(1)})

    vocab = sum_by(
        ds.map_batches(partial, batch_format="pandas"),
        ["source", "token"], ["cnt"])
    empty = _empty_typed(source=object, v_obs="int64", f1="int64",
                         f2="int64", chao1="float64")
    if vocab.empty:
        return empty
    rows = []
    for src, g in vocab.groupby("source", sort=True):
        c = g["cnt"].to_numpy(np.int64)
        v, f1, f2 = len(c), int((c == 1).sum()), int((c == 2).sum())
        chao1 = float(np.float64(v)
                      + np.float64(f1 * (f1 - 1))
                      / np.float64(2 * (f2 + 1)))
        rows.append((src, v, f1, f2, chao1))
    return pd.DataFrame(rows, columns=["source", "v_obs", "f1", "f2",
                                       "chao1"]) \
        .astype({"v_obs": "int64", "f1": "int64", "f2": "int64"})


register("chao1_vocab", q_chao1_vocab, r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(regexp_split_to_array(
                 coalesce(text, ''), '\s+'), x -> x <> '')) AS token
      FROM documents),
    tc AS (SELECT source, token, COUNT(*) AS c FROM tok GROUP BY 1, 2),
    f AS (
      SELECT source, CAST(COUNT(*) AS BIGINT) AS v_obs,
             CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS f1,
             CAST(SUM(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS BIGINT)
               AS f2
      FROM tc GROUP BY source)
    SELECT source, v_obs, f1, f2,
           CAST(v_obs AS DOUBLE)
             + CAST(f1 * (f1 - 1) AS DOUBLE)
               / CAST(2 * (f2 + 1) AS DOUBLE) AS chao1
    FROM f ORDER BY source""")
