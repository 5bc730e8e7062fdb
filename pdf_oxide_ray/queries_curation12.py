"""Round-4m operator family — iterative trainer/selector ops (the
non-SQL-expressible class) plus a grouped exact geometric mean:

* `geo_mean_by_type` — geometric mean of positive event values per
  type via the shared lp6 integer-log quantization (order-free int64
  sums on both engines), final exp on the half-away 1e-6 grid.
  Oracle-backed.
* `bpe_train_steps` — a REAL 10-step BPE trainer: ONE distributed
  (word, count) census, then the classic merge loop driver-side over
  the VOCABULARY (BPE training state is word-count-shaped, never
  corpus-shaped — exactly how production BPE trainers run): per step,
  the merged pair (max occurrence-weighted count, lexicographic
  tie-break), its count, and the corpus symbol total after the merge.
  Iterative ⇒ no SQL twin; deterministic ⇒ pinned rows-only.
* `kcenter_coreset` — greedy farthest-point (k-center) selection of
  K=20 vectors under exact int8-quantized squared-L2 distance — the
  diversity-coreset selector for data-efficient training. Starts at
  the smallest vec_id; ties break on smallest vec_id; stops early when
  the corpus is covered (max min-distance 0). Iterative ⇒ no SQL twin;
  deterministic ⇒ pinned rows-only.

Distributed plans (shuffle budgets — also in SCALE.md):

`geo_mean_by_type`: one type-bounded (type, n, Σlp6) partial reduce.

`bpe_train_steps`: the only exchange is the vocab-bounded word census
via `sum_by`; the merge loop touches vocab rows × 10 steps
on the driver (documented hot set — the census, not the corpus).

`kcenter_coreset`: the quantized matrix rides the same documented
all-pairs gate as the 1-NN family (explicit error above 2M rows naming
the per-step distributed min-distance-update alternative: one map +
one argmax reduce per step); the greedy loop is K exact int64
vector-distance sweeps.

Determinism: every partial is an int64 sum (order-free); the quantized
matrix is rebuilt identically from sorted vec_id; tie-breaks are total
orders. Pinned hashes verified in fresh sessions at different
num_cpus. Self-registers into ``queries.QUERIES`` / ``ORACLE_SQL`` on
import (the two iterative ops register no oracle — the driver records
the weaker rows-only check by design).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .functions.textops import halfaway6
from .ops.exchange import sum_by
from .queries import _empty_typed, _pq, register


_WORD_RE = re.compile(r"[0-9a-z_]+")
_WORD_SQL = "regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+')"


# ------------------------------------------------------ geometric mean

def q_geo_mean_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped geometric mean over positive values via integer-log
    partial sums — module docstring."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b["value"].to_numpy(np.float64)
        keep = v > 0
        if not keep.any():
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="int64")})
        lp6 = halfaway6(np.log(v[keep]))
        return pd.DataFrame({"event_type": b["event_type"]
                             .to_numpy(object)[keep],
                             "n": np.int64(1), "s": lp6})

    agg = sum_by(ds.map_batches(partial, batch_format="pandas"),
                 ["event_type"], ["n", "s"])
    if agg.empty:
        return _empty_typed(event_type=object, n="int64",
                            gmean="float64")
    raw = np.exp(agg["s"].to_numpy(np.float64)
                 / agg["n"].to_numpy(np.float64) / 1e6)
    agg["gmean"] = halfaway6(raw).astype(np.float64) / 1e6
    return agg.drop(columns=["s"]).sort_values("event_type") \
        .reset_index(drop=True).astype({"n": "int64"})


register("geo_mean_by_type", q_geo_mean_by_type, """
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
           round(exp(CAST(SUM(CAST(round(ln(value) * 1000000.0)
                                   AS BIGINT)) AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE) / 1000000.0)
                 * 1000000.0, 0) / 1000000.0 AS gmean
    FROM events WHERE value > 0
    GROUP BY event_type ORDER BY event_type""")


# ----------------------------------------------------------- BPE train

_BPE_STEPS = 10


def q_bpe_train_steps(sf_dir: str) -> pd.DataFrame:
    """10-step BPE merge trainer over the distributed word census —
    module docstring. Rows-only (iterative; pinned hash)."""
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

    vocab = sum_by(
        ds.map_batches(wcount, batch_format="pandas"), ["w"], ["c"])
    empty = _empty_typed(step="int64", left=object, right=object,
                         pair_count="int64", corpus_symbols="int64")
    if vocab.empty:
        return empty
    # trainer state: (symbol tuple, count) — vocabulary-shaped
    words: list[list] = [(list(w), int(c))
                         for w, c in zip(vocab["w"], vocab["c"])]
    rows = []
    for step in range(1, _BPE_STEPS + 1):
        pairs: dict[tuple, int] = {}
        for syms, c in words:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), cnt = best
        merged = left + right
        for k, (syms, c) in enumerate(words):
            i, out = 0, []
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == left
                        and syms[i + 1] == right):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[k] = (out, c)
        total = sum(len(s) * c for s, c in words)
        rows.append((step, left, right, cnt, total))
    if not rows:
        return empty
    return pd.DataFrame(rows, columns=["step", "left", "right",
                                       "pair_count", "corpus_symbols"]) \
        .astype({"step": "int64", "pair_count": "int64",
                 "corpus_symbols": "int64"})


register("bpe_train_steps", q_bpe_train_steps)
# no ORACLE_SQL: iterative merge loop is not SQL-expressible; pinned
# rows-only hash in tests/test_pinned_rows_only.py


# ------------------------------------------------------ k-center core

_KCENTER_K = 20


def q_kcenter_coreset(sf_dir: str) -> pd.DataFrame:
    """Greedy farthest-point K=20 coreset under exact quantized
    squared-L2 — module docstring. Rows-only (iterative; pinned
    hash)."""
    # driver-side lazy import of the sibling's gated matrix builder —
    # never resolved during worker initialization (leaf-import rule)
    from .queries_curation11 import _quantized_matrix

    empty = _empty_typed(step="int64", vec_id="int64",
                         min_dist="int64")
    qm = _quantized_matrix(sf_dir)
    if qm is None:
        return empty
    ids, _labels, q = qm
    n = len(ids)
    sel = 0  # row of smallest vec_id (ids are sorted)
    rows = [(1, int(ids[sel]), 0)]
    diff = q - q[sel]
    mind = np.einsum("ij,ij->i", diff, diff)  # exact int64
    for step in range(2, min(_KCENTER_K, n) + 1):
        m = mind.max()
        if m == 0:
            break  # corpus covered — every point duplicates a center
        cand = np.where(mind == m, ids, np.int64(2 ** 62))
        nxt_id = cand.min()
        nxt = int(np.searchsorted(ids, nxt_id))
        rows.append((step, int(nxt_id), int(m)))
        diff = q - q[nxt]
        d = np.einsum("ij,ij->i", diff, diff)
        np.minimum(mind, d, out=mind)
    return pd.DataFrame(rows, columns=["step", "vec_id", "min_dist"]) \
        .astype({"step": "int64", "vec_id": "int64",
                 "min_dist": "int64"})


register("kcenter_coreset", q_kcenter_coreset)
# no ORACLE_SQL: greedy iterative selection; pinned rows-only hash
