"""The registry's one bigram language model (LEAF module — query
families import it without touching siblings, the
`functions/markov_sql.py` pattern). It serves the self-scored
`doc_perplexity` / `ccnet_buckets` and the held-out ablations
`heldout_perplexity`, `dedup_lm_ab`, `decontam_lm_ab` and
`quality_lm_ab`.

The recipe: whitespace tokens; ``"a b"`` bigram keys; the MLE
bigram lp6 ``halfaway6(ln(n(a b) / n(a .)))`` on the half-away 1e-6
grid; add-one unigram backoff ``halfaway6(ln((c(b) + 1) / (N + V)))``
for bigrams the model never saw, with ``unk`` for an unseen ``b``
and ``unk = 0`` when ``N + V == 0``. Per-occurrence lp6 values are
ints, so every doc or corpus score is an order-free int64 sum.

- ``count_pass``: a Dataset of ``text`` rows -> the reduced count
  frame and the doc count (callers put their row filter in a
  ``map_batches`` in front, which Ray fuses into the same task).
- ``lm_from_counts``: count frame -> (bigram lp6, unigram backoff lp6,
  unk), the tuple the scorer takes.
- ``score`` / ``score_texts`` / ``score_sums``: one token list, one
  block per doc, one block summed.
- ``ab_frame``: the (name, n, n_bigrams, backoff_rate, mean_lp)
  result of the ablations.
- ``TOKENS_SQL`` / ``BIGRAMS_SQL`` / ``lm_chain`` / ``ab_sql``: the
  same recipe for the DuckDB twins.

The md5-nibble split rule the ablations score on is
`functions/textops.nibble_split`."""

from __future__ import annotations

import numpy as np
import pandas as pd

from .textops import halfaway6

# the count frame's doc-count key: never a token, never a bigram
_DOCS = ""


def bigrams(token_lists) -> list:
    """The ``"a b"`` keys of every adjacent token pair, list by list."""
    return [f"{a} {b}" for r in token_lists for a, b in zip(r, r[1:])]


def count_pass(ds, unigrams: bool = True) -> tuple[pd.DataFrame, int]:
    """(counts, n_docs) over the ``text`` rows of ``ds``: one per-block
    emission and one ``sum_by``. ``counts`` is a (g, n) frame; bigram
    keys hold one space, unigram keys none. ``unigrams=False`` emits
    bigrams only, for the callers that never back off."""
    from ..ops.exchange import sum_by

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        grams = bigrams(toks)
        if unigrams:
            grams += [w for r in toks for w in r]
        n = np.ones(len(grams) + 1, np.int64)
        n[-1] = len(b)
        return pd.DataFrame({"g": pd.Series(grams + [_DOCS], dtype=object),
                             "n": n})

    counts = sum_by(ds.map_batches(emit, batch_format="pandas"),
                    ["g"], ["n"])
    docs = (counts["g"] == _DOCS).to_numpy(bool)
    n_docs = int(counts["n"][docs].sum())
    return counts[~docs].reset_index(drop=True), n_docs


def bigram_lp6(big: pd.DataFrame) -> dict:
    """The MLE bigram lp6 table of a (g, n) bigram count frame."""
    left = big["g"].str.split(" ", n=1).str[0]
    nl = big.groupby(left.to_numpy(object))["n"] \
        .transform("sum").to_numpy(np.int64)
    lp6 = halfaway6(np.log(big["n"].to_numpy(np.float64)
                           / nl.astype(np.float64)))
    return dict(zip(big["g"], lp6.tolist()))


def lm_from_counts(counts: pd.DataFrame):
    """(bigram lp6 lut, unigram backoff lut, unk lp6) from a
    ``count_pass`` frame. With no unigram rows the backoff lut is
    empty and unk is 0."""
    if not len(counts):
        return {}, {}, 0
    is_big = counts["g"].str.contains(" ", regex=False).to_numpy(bool)
    bgl = bigram_lp6(counts[is_big])
    un = counts[~is_big]
    denom = int(un["n"].sum()) + len(un)
    if denom == 0:
        return bgl, {}, 0
    un_lp6 = halfaway6(np.log((un["n"].to_numpy(np.int64) + 1)
                              .astype(np.float64) / np.float64(denom)))
    unk = int(halfaway6(np.log(1.0 / np.float64(denom))))
    return bgl, dict(zip(un["g"], un_lp6.tolist())), unk


def score(toks: list, lm) -> tuple[int, int, int]:
    """(n_bigrams, n_backoff, s_lp6) of one token list under ``lm``."""
    bgl, unl, unk = lm
    nbo = s = 0
    for a, b in zip(toks, toks[1:]):
        lp = bgl.get(f"{a} {b}")
        if lp is None:
            nbo += 1
            lp = unl.get(b, unk)
        s += lp
    return max(len(toks) - 1, 0), nbo, s


def score_texts(texts: pd.Series, lm) -> np.ndarray:
    """``score`` per text: an (n, 3) int64 array."""
    return np.array([score(r, lm) for r in texts.fillna("").str.split()],
                    dtype=np.int64).reshape(-1, 3)


# the columns of ``score_sums``
SUMS = ["n_docs", "n_bigrams", "n_backoff", "s_lp6"]


def score_sums(texts: pd.Series, lm) -> list[int]:
    """``SUMS`` over texts: docs with a bigram, then ``score`` summed."""
    sc = score_texts(texts, lm)
    return [int((sc[:, 0] > 0).sum())] + sc.sum(axis=0).tolist()


def ab_frame(rows, key: str = "variant",
             n: str = "n_train_docs") -> pd.DataFrame:
    """(key, n, n_bigrams, n_backoff, s_lp6) rows -> the result frame
    (key, n, n_bigrams, backoff_rate, mean_lp), sorted by key; the
    rate and mean are NULL without bigrams."""
    out = []
    for name, nd, nb, nbo, s in rows:
        nb, nbo, s = int(nb), int(nbo), int(s)
        out.append((name, int(nd), nb,
                    float(nbo) / nb if nb else np.nan,
                    (float(s) / nb) / 1e6 if nb else np.nan))
    return pd.DataFrame(out, columns=[key, n, "n_bigrams",
                                      "backoff_rate", "mean_lp"]) \
        .astype({n: "int64", "n_bigrams": "int64"}) \
        .sort_values(key).reset_index(drop=True)


# whitespace tokens of ``text`` and the "a b" bigrams of a token list
# ``t``, as DuckDB list expressions
TOKENS_SQL = (r"list_filter(regexp_split_to_array(coalesce(text, ''), "
              r"'\s+'), x -> x <> '')")
BIGRAMS_SQL = ("unnest(CASE WHEN len(t) < 2 THEN [] ELSE list_transform("
               "range(1, len(t)), i -> t[i] || ' ' || t[i+1]) END)")


def lm_chain(prefix: str, src: str) -> str:
    """One variant's LM CTE chain over ``src`` (doc_id, t), scoring
    the ``held`` CTE's ``bg`` rows into ``{prefix}scored``."""
    return f"""
    {prefix}uni AS (
      SELECT w, count(*) AS c FROM (
        SELECT unnest(t) AS w FROM {src}) GROUP BY w),
    {prefix}tot AS (
      SELECT CAST(coalesce(SUM(c), 0) AS BIGINT)
               + CAST(count(*) AS BIGINT) AS denom
      FROM {prefix}uni),
    {prefix}big AS (
      SELECT bg, count(*) AS nb FROM (
        SELECT {BIGRAMS_SQL} AS bg FROM {src}) GROUP BY bg),
    {prefix}left AS (
      SELECT split_part(bg, ' ', 1) AS w1,
             CAST(SUM(nb) AS BIGINT) AS nl
      FROM {prefix}big GROUP BY 1),
    {prefix}lp AS (
      SELECT bg,
             CAST(round(ln(CAST(nb AS DOUBLE) / CAST(nl AS DOUBLE))
                        * 1000000) AS BIGINT) AS lp6
      FROM {prefix}big JOIN {prefix}left
        ON split_part({prefix}big.bg, ' ', 1) = {prefix}left.w1),
    {prefix}scored AS (
      SELECT h.*,
             CASE WHEN l.lp6 IS NOT NULL THEN 0 ELSE 1 END
               AS backoff,
             coalesce(l.lp6,
                      CASE WHEN tt.denom > 0 THEN
                        CAST(round(ln(CAST(coalesce(u.c, 0) + 1
                                           AS DOUBLE)
                                      / CAST(tt.denom AS DOUBLE))
                                   * 1000000) AS BIGINT)
                      ELSE 0 END) AS lp6
      FROM held h
      CROSS JOIN {prefix}tot tt
      LEFT JOIN {prefix}lp l ON l.bg = h.bg
      LEFT JOIN {prefix}uni u
        ON u.w = split_part(h.bg, ' ', 2))"""


def ab_sql(variants) -> str:
    """The A/B twin's closing CTEs and SELECT: one ``(name, prefix,
    src)`` per variant, each an ``lm_chain(prefix, src)`` scoring the
    caller's ``held`` CTE. Twin of ``ab_frame``."""
    chains = ",".join(lm_chain(p, src) for _, p, src in variants)
    nt = ",\n".join(f"(SELECT CAST(count(*) AS BIGINT) FROM {src}) "
                    f"AS n_{p}" for _, p, src in variants)
    agg = "\n      UNION ALL".join(f"""
      SELECT '{name}' AS variant, nt.n_{p} AS n_train_docs,
             CAST(count(s.lp6) AS BIGINT) AS n_bigrams,
             CAST(coalesce(SUM(s.backoff), 0) AS BIGINT)
               AS n_backoff,
             SUM(s.lp6) AS s
      FROM nt LEFT JOIN {p}scored s ON TRUE GROUP BY nt.n_{p}"""
                                   for name, p, _ in variants)
    return f"""{chains},
    nt AS (SELECT {nt}),
    agg AS ({agg})
    SELECT variant, n_train_docs, n_bigrams,
           CASE WHEN n_bigrams > 0
                THEN CAST(n_backoff AS DOUBLE) / n_bigrams
           END AS backoff_rate,
           CASE WHEN n_bigrams > 0
                THEN (CAST(CAST(s AS VARCHAR) AS DOUBLE)
                      / n_bigrams) / 1000000.0
           END AS mean_lp
    FROM agg ORDER BY variant"""
