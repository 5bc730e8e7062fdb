"""Shared helpers for the LM-ablation family (LEAF module — query
families import it without touching siblings, the
`functions/markov_sql.py` pattern): the `heldout_perplexity` LM
construction from (kind, g, n) count frames, and the per-variant
DuckDB LM CTE chain. The md5-nibble split rule they score on is
`functions/textops.nibble_split`."""

from __future__ import annotations

import numpy as np
import pandas as pd




def lm_from_counts(vocab: pd.DataFrame):
    """(bigram lp6 lut, unigram backoff lut, unk lp6) from a
    (kind, g, n) count frame — the heldout_perplexity recipe."""
    bg = vocab[vocab["kind"] == "b"] if len(vocab) else vocab
    un = vocab[vocab["kind"] == "u"] if len(vocab) else vocab
    denom = (int(un["n"].sum()) if len(un) else 0) + int(len(un))
    if len(bg):
        left = bg["g"].str.split(" ", n=1).str[0]
        nl = bg.groupby(left.to_numpy(object))["n"] \
            .transform("sum").to_numpy(np.int64)
        raw = np.log(bg["n"].to_numpy(np.float64)
                     / nl.astype(np.float64)) * 1e6
        lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        bg_lut = dict(zip(bg["g"], lp6))
    else:
        bg_lut = {}
    if denom > 0:
        uc = un["n"].to_numpy(np.int64) if len(un) else \
            np.array([], dtype=np.int64)
        raw = np.log((uc + 1).astype(np.float64)
                     / np.float64(denom)) * 1e6
        un_lp6 = np.copysign(np.floor(np.abs(raw) + 0.5), raw) \
            .astype(np.int64)
        un_lut = dict(zip(un["g"], un_lp6)) if len(un) else {}
        r0 = np.log(1.0 / np.float64(denom)) * 1e6
        unk = int(np.copysign(np.floor(np.abs(r0) + 0.5), r0))
    else:
        un_lut, unk = {}, 0
    return bg_lut, un_lut, unk



def lm_chain(prefix: str, src: str) -> str:
    """One variant's LM CTE chain over ``src`` (doc_id, t)."""
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
        SELECT unnest(CASE WHEN len(t) < 2 THEN []
                           ELSE list_transform(range(1, len(t)),
                                               i -> t[i] || ' '
                                                    || t[i+1])
                      END) AS bg
        FROM {src}) GROUP BY bg),
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
      SELECT CASE WHEN l.lp6 IS NOT NULL THEN 0 ELSE 1 END
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

