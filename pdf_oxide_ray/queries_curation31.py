"""Round-4af operator family — audience analytics + sentence-level
text profiling:

* `audience_overlap` — the pairwise audience-overlap matrix across
  event types: distinct-user counts per type, per-pair common users,
  and the exact Jaccard |A∩B| / |A∪B| — the growth-analytics
  segmentation report ("do buyers also click?"). Zero-intersection
  pairs are emitted too (the twin's LEFT JOIN + COALESCE path).
* `sentence_length_profile` — per-source sentence census: documents
  split on [.!?]+ runs, whitespace-tokenized per sentence; reports
  sentence count, exact mean tokens per sentence, and the disc-rule
  p90 — the text-quality profile that catches run-on/fragment
  corpora before training.

Distributed plans (shuffle budgets — also in SCALE.md):

`audience_overlap`: ONE bucketed exchange (user % 64); each bucket
OR-folds its users' type BITMASKS (types fit one int64), histograms
the distinct masks, and decodes each mask once into per-pair /
per-type partial counts — partials are bounded by #types² per
bucket; the Jaccard division is driver math. Users never leave
their bucket; the driver never sees a user.

`sentence_length_profile`: per-batch (source, sentence-token-count)
bounded histogram partials -> ONE skinny reduce; mean and disc-rule
p90 are driver math over the histogram.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions.bitmask import (BITS, encode_codes, mask_cols, n_words,
                                or_by_key)
from .ops.quantile import disc_pick, disc_rank
from .ops.exchange import _scoped_parallelism
from .queries import _empty_typed, _pq, _reduce_partials, register


# ------------------------------------------------------ audience_overlap

def q_audience_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise event-type audience Jaccard matrix — module
    docstring."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__bucket": (b["user_id"] % 64).astype(np.int64),
            "user_id": b["user_id"].to_numpy(np.int64),
            "event_type": b["event_type"].to_numpy(object)}) \
            .drop_duplicates(["user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"ta": object, "tb": object, "n": "int64"}
        if len(g) == 0:
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in cols.items()})
        g = g.drop_duplicates(["user_id", "event_type"])
        types = np.array(sorted(g["event_type"].unique()), dtype=object)
        code = {t: i for i, t in enumerate(types)}
        # Multi-word masks (functions/bitmask.py): any domain size, no
        # silent int64 shift wrap past 63 distinct types.
        nw = n_words(len(types))
        codes = g["event_type"].map(code).to_numpy(np.int64)
        folded = or_by_key(g["user_id"].to_numpy(np.int64),
                           encode_codes(codes, nw), "u")
        hist = folded.groupby(mask_cols(nw)).size()
        rows = []
        for mask, c in hist.items():
            words = (mask,) if nw == 1 else mask
            on = [w * BITS + b for w, wd in enumerate(words)
                  for b in range(BITS) if (int(wd) >> b) & 1]
            for ii, i in enumerate(on):
                rows.append((types[i], types[i], int(c)))  # diagonal
                for j in on[ii + 1:]:
                    rows.append((types[i], types[j], int(c)))
        return pd.DataFrame(rows, columns=["ta", "tb", "n"])

    with _scoped_parallelism(32):
        part = ds.map_batches(add_bucket, batch_format="pandas") \
            .groupby("__bucket").map_groups(per_bucket,
                                            batch_format="pandas")
        agg = _reduce_partials(part, ["ta", "tb"], ["n"])
    empty = _empty_typed(type_a=object, type_b=object,
                         users_a="int64", users_b="int64",
                         users_both="int64", jaccard="float64")
    if agg.empty:
        return empty
    tot = {r.ta: int(r.n) for r in
           agg[agg["ta"] == agg["tb"]].itertuples(index=False)}
    inter = {(r.ta, r.tb): int(r.n) for r in
             agg[agg["ta"] != agg["tb"]].itertuples(index=False)}
    types = sorted(tot)
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            both = inter.get((a, b), 0)
            union = tot[a] + tot[b] - both
            rows.append((a, b, tot[a], tot[b], both,
                         float(both) / float(union)))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "users_a",
                                       "users_b", "users_both",
                                       "jaccard"]) \
        .astype({"users_a": "int64", "users_b": "int64",
                 "users_both": "int64", "jaccard": "float64"})


register("audience_overlap", q_audience_overlap, """
    WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
    tot AS (SELECT event_type, count(*) AS n FROM ut GROUP BY 1),
    pr AS (SELECT a.event_type AS ta, b.event_type AS tb,
                  count(*) AS inter
           FROM ut a JOIN ut b ON a.user_id = b.user_id
                              AND a.event_type < b.event_type
           GROUP BY 1, 2)
    SELECT x.event_type AS type_a, y.event_type AS type_b,
           x.n AS users_a, y.n AS users_b,
           CAST(COALESCE(pr.inter, 0) AS BIGINT) AS users_both,
           CAST(CAST(COALESCE(pr.inter, 0) AS BIGINT) AS DOUBLE)
             / CAST(x.n + y.n - COALESCE(pr.inter, 0) AS DOUBLE)
             AS jaccard
    FROM tot x JOIN tot y ON x.event_type < y.event_type
    LEFT JOIN pr ON pr.ta = x.event_type AND pr.tb = y.event_type
    ORDER BY type_a, type_b""")


# ----------------------------------------------- sentence_length_profile

def q_sentence_length_profile(sf_dir: str) -> pd.DataFrame:
    """Per-source sentence-length census — module docstring."""
    ds = _pq(sf_dir, "documents", ["source", "text"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        seg = b.assign(s=b["text"].fillna("")
                       .str.split(r"[.!?]+", regex=True)) \
            .explode("s")
        nt = seg["s"].fillna("").str.split().str.len() \
            .to_numpy(np.int64)
        keep = nt > 0
        return pd.DataFrame({"source": seg["source"]
                             .to_numpy(object)[keep],
                             "nt": nt[keep], "cnt": np.int64(1)}) \
            .groupby(["source", "nt"], as_index=False).sum()

    h = _reduce_partials(ds.map_batches(part, batch_format="pandas"),
                         ["source", "nt"], ["cnt"])
    empty = _empty_typed(source=object, n_sentences="int64",
                         mean_sentence_tokens="float64",
                         p90_sentence_tokens="int64")
    if h.empty:
        return empty
    rows = []
    for s, g in h.groupby("source"):
        g = g.sort_values("nt")
        n = int(g["cnt"].sum())
        total = int((g["nt"].to_numpy(np.int64)
                     * g["cnt"].to_numpy(np.int64)).sum())
        cum = g["cnt"].cumsum().to_numpy(np.int64)
        p90 = int(disc_pick(g["nt"].to_numpy(np.int64), cum,
                            disc_rank(n, 0.9)))
        rows.append((s, n, float(total) / float(n), p90))
    return pd.DataFrame(rows, columns=["source", "n_sentences",
                                       "mean_sentence_tokens",
                                       "p90_sentence_tokens"]) \
        .astype({"n_sentences": "int64",
                 "p90_sentence_tokens": "int64"}) \
        .sort_values("source").reset_index(drop=True)


register("sentence_length_profile", q_sentence_length_profile, r"""
    WITH seg AS (
      SELECT source,
             unnest(regexp_split_to_array(coalesce(text, ''),
                                          '[.!?]+')) AS s
      FROM documents),
    t AS (SELECT source,
                 len(list_filter(regexp_split_to_array(s, '\s+'),
                                 x -> x <> '')) AS nt
          FROM seg),
    f AS (SELECT * FROM t WHERE nt > 0)
    SELECT source, count(*) AS n_sentences,
           CAST(CAST(SUM(nt) AS BIGINT) AS DOUBLE) / count(*)
             AS mean_sentence_tokens,
           CAST(quantile_disc(nt, 0.9) AS BIGINT)
             AS p90_sentence_tokens
    FROM f GROUP BY source ORDER BY source""")
