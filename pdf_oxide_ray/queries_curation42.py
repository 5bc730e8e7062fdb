"""Round-5k operator — winnowing parameter-grid sensitivity:

* `winnow_param_grid` — the detector's (k, window) tuning table:
  for configs (16,8) [the production baseline], (12,6) [finer,
  recall-leaning] and (24,12) [coarser, precision-leaning], the
  duplicate-pair count at the production threshold, the overlap with
  the baseline pair set, and the Jaccard agreement — what a curation
  owner reads next to `winnow_threshold_curve` (threshold axis)
  before committing fingerprint parameters. Guarantee per config:
  any shared substring of length >= k + window − 1 yields a shared
  fingerprint, so the grid trades granularity against exchange
  volume.

Plan (also in SCALE.md; the `dedup_method_agreement` plan): each
config rides its own `_winnow_pair_counts_ds` (ONE fp-keyed exchange,
hot-fp guard) and becomes a tagged side of (id_a, id_b) pairs over the
threshold with flag columns f0..f2. One (id_a, id_b) exchange unions
the three sides; each bucket emits one row per config of its pair
count and its overlap with the baseline, so the driver sums at most
64 x 3 rows and no pair list ever reaches it.

Empty inputs return the twin's 3 config rows with zero counts and
NULL jaccard. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .queries import _WINNOW_PAIR_THRESHOLD, register


_WPG_CONFIGS = ((16, 8), (12, 6), (24, 12))  # (k, window); 0 = base


def q_winnow_param_grid(sf_dir: str) -> pd.DataFrame:
    """Pair counts + baseline agreement per (k, window) — module
    docstring."""
    from .ops.exchange import exchange_by_key
    from .queries import _winnow_pair_counts_ds

    flags = [f"f{i}" for i in range(len(_WPG_CONFIGS))]
    counts = [f"n_{i}" for i in range(len(flags))] \
        + [f"n_inter_{i}" for i in range(len(flags))]

    def tagger(i: int):
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            if len(b):
                b = b[b["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
            ids = b[["id_a", "id_b"]].to_numpy(np.int64) if len(b) \
                else np.empty((0, 2), np.int64)
            return pd.DataFrame({"id_a": ids[:, 0], "id_b": ids[:, 1],
                                 **{f: np.int64(j == i)
                                    for j, f in enumerate(flags)}})
        return tag

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        on = g.groupby(["id_a", "id_b"])[flags].max().to_numpy(np.int64)
        return pd.DataFrame([np.concatenate([
            on.sum(axis=0), (on & on[:, :1]).sum(axis=0)])],
            columns=counts)

    sides = [_winnow_pair_counts_ds(sf_dir, k=k, window=w)
             .map_batches(tagger(i), batch_format="pandas")
             for i, (k, w) in enumerate(_WPG_CONFIGS)]
    parts = exchange_by_key(sides, ["id_a", "id_b"], per_bucket) \
        .to_pandas()  # <= 64 rows: the driver-contract final
    tot = parts[counts].sum().to_numpy(np.int64) if len(parts) \
        else np.zeros(len(counts), np.int64)
    n, inter = tot[:len(flags)], tot[len(flags):]
    rows = []
    for i, (k, w) in enumerate(_WPG_CONFIGS):
        union = int(n[i] + n[0] - inter[i])
        rows.append((k, w, int(n[i]), int(inter[i]),
                     float(inter[i]) / union if union else np.nan))
    return pd.DataFrame(rows, columns=["k", "window", "n_pairs",
                                       "n_inter_base",
                                       "jaccard_base"]) \
        .astype({"k": "int64", "window": "int64",
                 "n_pairs": "int64", "n_inter_base": "int64"})


def _grid_oracle_sql() -> str:
    import re

    from .queries import _winnow_fps_ctes

    def pair_cte(i: int, k: int, w: int) -> str:
        # uniquify the shared chain's CTE names per config (sibling
        # WITH scopes cannot reuse them)
        chain = re.sub(r"\b(d|kh|wm|fps)\b", rf"\1_{i}",
                       _winnow_fps_ctes(k, w))
        return f"""
    {chain},
    fpc{i} AS (SELECT fp, count(*) AS c FROM fps_{i} GROUP BY fp),
    pr{i} AS (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n
        FROM fps_{i} a JOIN fps_{i} b ON a.fp = b.fp
                            AND a.doc_id < b.doc_id
        JOIN fpc{i} ON fpc{i}.fp = a.fp
                   AND fpc{i}.c BETWEEN 2 AND 16
        GROUP BY 1, 2),
    p{i} AS (SELECT id_a, id_b FROM pr{i}
             WHERE n >= {_WINNOW_PAIR_THRESHOLD})"""

    ctes = ",".join(pair_cte(i, k, w)
                    for i, (k, w) in enumerate(_WPG_CONFIGS))
    stats = " UNION ALL ".join(f"""
      SELECT CAST({k} AS BIGINT) AS k, CAST({w} AS BIGINT) AS window,
             (SELECT CAST(count(*) AS BIGINT) FROM p{i}) AS n_pairs,
             (SELECT CAST(count(*) AS BIGINT)
              FROM p{i} x JOIN p0 y USING (id_a, id_b))
               AS n_inter_base""" for i, (k, w)
        in enumerate(_WPG_CONFIGS))
    return f"""
    WITH {ctes},
    st AS ({stats}),
    nb AS (SELECT CAST(count(*) AS BIGINT) AS n_base FROM p0)
    SELECT st.k, st.window, st.n_pairs, st.n_inter_base,
           CASE WHEN st.n_pairs + nb.n_base - st.n_inter_base > 0
                THEN CAST(st.n_inter_base AS DOUBLE)
                     / (st.n_pairs + nb.n_base - st.n_inter_base)
           END AS jaccard_base
    FROM st CROSS JOIN nb
    ORDER BY st.k, st.window"""


register("winnow_param_grid", q_winnow_param_grid, _grid_oracle_sql())
