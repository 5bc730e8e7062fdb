"""Round-4q operator family — guaranteed heavy hitters, split-leakage
audit for NEAR-dups, and detector precision/recall:

* `token_heavy_hitters` — EXACT set of whitespace tokens with global
  frequency >= 1/200 of the corpus token count, found with the
  textbook two-pass plan: pass 1 streams per-batch Misra-Gries(K=512)
  summaries (constant state per block, NEVER the block vocabulary)
  whose merged counters undercount any token by at most N/(K+1), so
  the integer candidate rule `c·200·(K+1) >= N·(K+1-200)` provably
  keeps every qualifying token; pass 2 exactly recounts only the
  broadcast candidate set. The output is exact — the sketch only
  bounds the candidate set, it never decides membership.
* `near_dup_split_safety` — how many winnowing near-dup pairs straddle
  the deterministic train/val/test split (the `split_assign` md5
  nibble rule): the leakage audit a data owner runs before shipping a
  split, at NEAR-dup granularity (``split_contamination`` covers the
  exact-text case).
* `dedup_prf` — precision / recall / F1 of the winnowing near-dup
  detector against exact-text duplication as ground truth (docs with
  non-empty text): the detector scorecard next to
  ``dedup_method_agreement``'s detector-vs-detector view.

Distributed plans (shuffle budgets — also in SCALE.md):

`token_heavy_hitters`: pass 1 = per-batch MG(512) summaries (≤ K+1
rows per block — the "" row carries the block's token total) reduced
via `sum_by`; merging truncated summaries by plain addition
keeps the MG bound because each block's truncation deducts at most
n_block/(K+1) per token, so deductions telescope to ≤ N/(K+1). The
candidate set after the rule is ≤ ~K tokens. Pass 2 = broadcast
candidate set (`ray.put` once, per-worker cache), per-batch exact
(tok, n) int partials -> ONE candidate-bounded reduce. At extreme
block counts the merged-summary key space is min(vocab, blocks×K);
the standard fix is a tree merge with re-truncation per level — named
here, not needed below ~10^5 blocks.

`near_dup_split_safety`: composes the existing winnow pair pipeline
(skinny (fp, doc_id) exchanges, hot-fp guard, pair list bounded by
true-dup counts and driver-held under its documented gate) with the
pure row-local split rule; the groupby runs on the ≤ 6-row
(split_lo, split_hi) key space.

`dedup_prf`: truth-pair COUNT comes from the `dedup_exact` exchange
(per-batch (hash, n) partials -> ONE bucketed reduce) as Σ C(m,2) —
truth pairs are never materialized. The intersection only needs the
content hashes of docs appearing in the (bounded, driver-held)
predicted pair list: ONE distributed filter by a broadcast sorted
int64 id array (searchsorted membership) returns |pair ids| rows.

Empty inputs return the twins' empty shapes. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .functions import dedup as fdedup
from .functions.textops import TOK_SQL, nibble_split, split_sql
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_HH_K = 512          # Misra-Gries summary size per block
_HH_PHI_DEN = 200    # heavy hitter = count * 200 >= total tokens


# ------------------------------------------------ token heavy hitters

def q_token_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact tokens with frequency >= 1/200 via MG candidates + exact
    recount — module docstring."""
    import ray

    from .stages.joins import _get_broadcast

    ds = _pq(sf_dir, "documents", ["text"])
    empty = _empty_typed(tok=object, n_tok="int64")

    def mg_part(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split().explode().dropna()
        total = np.int64(len(toks))
        vc = toks.value_counts()
        if len(vc) > _HH_K:
            # Misra-Gries decrement: subtract the (K+1)-th largest
            # counter, keep the <= K strictly-positive survivors
            vc = vc - int(vc.iloc[_HH_K])
            vc = vc[vc > 0]
        out = pd.DataFrame({"tok": vc.index.to_numpy(object),
                            "c": vc.to_numpy(np.int64)})
        # the "" sentinel (str.split never yields it) rides the block's
        # token total past the truncation
        return pd.concat(
            [out, pd.DataFrame({"tok": [""], "c": [total]})],
            ignore_index=True)

    merged = sum_by(
        ds.map_batches(mg_part, batch_format="pandas"), ["tok"], ["c"])
    if merged.empty:
        return empty
    sent = merged["tok"] == ""
    n_total = int(merged.loc[sent, "c"].sum())
    if n_total == 0:
        return empty
    mg = merged[~sent]
    # integer candidate rule: c >= N/200 - N/(K+1), cross-multiplied
    c = mg["c"].to_numpy(np.int64)
    keep = (c.astype(object) * (_HH_PHI_DEN * (_HH_K + 1))
            >= n_total * (_HH_K + 1 - _HH_PHI_DEN))
    cand = frozenset(mg.loc[keep, "tok"])
    if not cand:
        return empty
    cand_ref = ray.put(cand)

    def recount(b: pd.DataFrame) -> pd.DataFrame:
        cs = _get_broadcast(cand_ref)
        toks = b["text"].fillna("").str.split().explode().dropna()
        return pd.DataFrame({"tok": toks[toks.isin(cs)].to_numpy(object),
                             "n_tok": np.int64(1)})

    exact = sum_by(
        ds.map_batches(recount, batch_format="pandas"),
        ["tok"], ["n_tok"])
    if exact.empty:
        return empty
    out = exact[exact["n_tok"].to_numpy(np.int64)
                * _HH_PHI_DEN >= n_total]
    return out.astype({"n_tok": "int64"}) \
        .sort_values("tok").reset_index(drop=True)


register("token_heavy_hitters", q_token_heavy_hitters, f"""
    WITH toks AS (SELECT {TOK_SQL} AS tok FROM documents),
    tot AS (SELECT count(*) AS n FROM toks),
    c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n_tok
          FROM toks GROUP BY tok)
    SELECT tok, n_tok FROM c, tot
    WHERE n_tok * {_HH_PHI_DEN} >= n ORDER BY tok""")


# -------------------------------------------- near-dup split leakage

def q_near_dup_split_safety(sf_dir: str) -> pd.DataFrame:
    """Winnow near-dup pairs per (split, split) cell — module
    docstring. A pair with split_lo <> split_hi is leakage."""
    from .queries import q_winnow_dup_pairs

    w = q_winnow_dup_pairs(sf_dir)
    empty = _empty_typed(split_lo=object, split_hi=object,
                         n_pairs="int64", share="float64")
    if w.empty:
        return empty
    sa = pd.Series(nibble_split(w["id_a"]), dtype=object)
    sb = pd.Series(nibble_split(w["id_b"]), dtype=object)
    cells = pd.DataFrame({
        "split_lo": np.minimum(sa.to_numpy(object),
                               sb.to_numpy(object)),
        "split_hi": np.maximum(sa.to_numpy(object),
                               sb.to_numpy(object))}) \
        .groupby(["split_lo", "split_hi"], as_index=False) \
        .size().rename(columns={"size": "n_pairs"})
    tot = int(cells["n_pairs"].sum())
    cells["n_pairs"] = cells["n_pairs"].astype("int64")
    cells["share"] = cells["n_pairs"].to_numpy(np.float64) / tot
    return cells.sort_values(["split_lo", "split_hi"]) \
        .reset_index(drop=True)


def _split_safety_oracle_sql() -> str:
    from .queries import ORACLE_SQL as _O

    return f"""
    WITH w AS ({_O["winnow_dup_pairs"]}),
    s AS (SELECT doc_id, {split_sql('doc_id')} AS split FROM documents),
    p AS (SELECT LEAST(sa.split, sb.split) AS split_lo,
                 GREATEST(sa.split, sb.split) AS split_hi
          FROM w JOIN s sa ON sa.doc_id = w.id_a
                 JOIN s sb ON sb.doc_id = w.id_b),
    c AS (SELECT split_lo, split_hi,
                 CAST(count(*) AS BIGINT) AS n_pairs
          FROM p GROUP BY split_lo, split_hi),
    t AS (SELECT CAST(SUM(n_pairs) AS BIGINT) AS tot FROM c)
    SELECT split_lo, split_hi, n_pairs,
           CAST(n_pairs AS DOUBLE) / tot AS share
    FROM c, t ORDER BY split_lo, split_hi"""


register("near_dup_split_safety", q_near_dup_split_safety,
         _split_safety_oracle_sql())


# --------------------------------------- detector precision / recall

def q_dedup_prf(sf_dir: str) -> pd.DataFrame:
    """Winnow detector vs exact-text ground truth — module docstring.
    Ground truth is over docs with non-empty text (the winnow
    detector's own domain)."""
    import ray

    from .queries import q_winnow_dup_pairs
    from .stages.joins import _get_broadcast

    pred = q_winnow_dup_pairs(sf_dir)
    n_pred = int(len(pred))

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def hpart(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["text"].fillna("").str.len() > 0]
        return pd.DataFrame({"h": fdedup.content_hash(b["text"]),
                             "n": np.int64(1)})

    per_hash = sum_by(
        ds.map_batches(hpart, batch_format="pandas"), ["h"], ["n"])
    if per_hash.empty:
        m = np.array([], dtype=np.int64)
    else:
        m = per_hash["n"].to_numpy(np.int64)
    n_truth = int((m * (m - 1) // 2).sum())

    n_both = 0
    if n_pred:
        ids = np.unique(np.concatenate([
            pred["id_a"].to_numpy(np.int64),
            pred["id_b"].to_numpy(np.int64)]))
        ids_ref = ray.put(ids)

        def hash_of_pair_ids(b: pd.DataFrame) -> pd.DataFrame:
            keys = _get_broadcast(ids_ref)
            d = b["doc_id"].to_numpy(np.int64)
            pos = np.searchsorted(keys, d)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == d
            b = b[hit & (b["text"].fillna("").str.len() > 0)]
            if not len(b):  # typed empty: Ray's size estimator chokes
                return pd.DataFrame({
                    "doc_id": pd.Series([], dtype="int64"),
                    "h": pd.Series([], dtype="string")})
            return pd.DataFrame({
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "h": fdedup.content_hash(b["text"])})

        hmap = ds.map_batches(hash_of_pair_ids,
                              batch_format="pandas").to_pandas()
        lut = dict(zip(hmap["doc_id"], hmap["h"])) \
            if len(hmap) else {}
        for a, b_ in zip(pred["id_a"], pred["id_b"]):
            ha, hb = lut.get(int(a)), lut.get(int(b_))
            if ha is not None and ha == hb:
                n_both += 1

    prec = float(n_both) / n_pred if n_pred else np.nan
    rec = float(n_both) / n_truth if n_truth else np.nan
    f1 = ((2.0 * prec * rec) / (prec + rec)
          if n_pred and n_truth and (prec + rec) > 0.0 else np.nan)
    return pd.DataFrame({
        "n_pred": pd.Series([n_pred], dtype="int64"),
        "n_truth": pd.Series([n_truth], dtype="int64"),
        "n_both": pd.Series([n_both], dtype="int64"),
        "prec": [prec], "rec": [rec], "f1": [f1]})


def _dedup_prf_oracle_sql() -> str:
    from .queries import ORACLE_SQL as _O

    return f"""
    WITH pred AS ({_O["winnow_dup_pairs"]}),
    truth AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b
      FROM documents a JOIN documents b
        ON a.text = b.text AND a.doc_id < b.doc_id
      WHERE length(a.text) > 0),
    np_ AS (SELECT CAST(count(*) AS BIGINT) AS n_pred FROM pred),
    nt AS (SELECT CAST(count(*) AS BIGINT) AS n_truth FROM truth),
    nb AS (SELECT CAST(count(*) AS BIGINT) AS n_both
           FROM pred JOIN truth USING (id_a, id_b)),
    r AS (
      SELECT n_pred, n_truth, n_both,
             CASE WHEN n_pred > 0
                  THEN CAST(n_both AS DOUBLE) / n_pred END AS prec,
             CASE WHEN n_truth > 0
                  THEN CAST(n_both AS DOUBLE) / n_truth END AS rec
      FROM np_, nt, nb)
    SELECT n_pred, n_truth, n_both, prec, rec,
           CASE WHEN prec IS NOT NULL AND rec IS NOT NULL
                     AND prec + rec > 0.0
                THEN (2.0 * prec * rec) / (prec + rec) END AS f1
    FROM r"""


register("dedup_prf", q_dedup_prf, _dedup_prf_oracle_sql())
