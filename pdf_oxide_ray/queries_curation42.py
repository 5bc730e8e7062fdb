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

Plan (also in SCALE.md): each config rides its own
`_winnow_pair_counts_ds` (ONE fp-keyed exchange, hot-fp guard); the
three pair-count frames come to the driver (``.to_pandas()``), where
the threshold filter, the per-config flags and one (id_a, id_b)
pivot run in pandas. The pair lists are bounded by true-dup counts
under the hot-fp guard, but a dup-heavy corpus's lists are not
driver-sized: unlike `dedup_method_agreement`, whose flag sums reduce
through a bucketed exchange, this grid still holds every pair on the
driver.

Empty inputs return the twin's 3 config rows with zero counts and
NULL jaccard. Self-registers into ``queries.QUERIES`` /
``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .queries import _WINNOW_PAIR_THRESHOLD, _empty_typed, register


_WPG_CONFIGS = ((16, 8), (12, 6), (24, 12))  # (k, window); 0 = base


def q_winnow_param_grid(sf_dir: str) -> pd.DataFrame:
    """Pair counts + baseline agreement per (k, window) — module
    docstring."""
    from .queries import _winnow_pair_counts_ds

    flags = []
    for (k, w) in _WPG_CONFIGS:
        pc = _winnow_pair_counts_ds(sf_dir, k=k, window=w) \
            .to_pandas()
        if len(pc):
            pc = pc[pc["sum(n)"] >= _WINNOW_PAIR_THRESHOLD]
            flags.append(pd.DataFrame({
                "id_a": pc["id_a"].astype("int64"),
                "id_b": pc["id_b"].astype("int64"),
                "cfg": np.int64(len(flags))}))
        else:
            flags.append(pd.DataFrame({
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "cfg": pd.Series([], dtype="int64")}))
    u = pd.concat(flags, ignore_index=True)
    if len(u):
        piv = u.assign(v=np.int64(1)) \
            .pivot_table(index=["id_a", "id_b"], columns="cfg",
                         values="v", aggfunc="max", fill_value=0) \
            .reindex(columns=range(len(_WPG_CONFIGS)), fill_value=0)
        base = piv[0].to_numpy(np.int64)
    else:
        piv = None
        base = np.array([], dtype=np.int64)
    n_base = int(base.sum())
    rows = []
    for i, (k, w) in enumerate(_WPG_CONFIGS):
        if piv is not None:
            c = piv[i].to_numpy(np.int64)
            n_pairs = int(c.sum())
            inter = int((c & base).sum())
        else:
            n_pairs = inter = 0
        union = n_pairs + n_base - inter
        rows.append((k, w, n_pairs, inter,
                     float(inter) / union if union else np.nan))
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
