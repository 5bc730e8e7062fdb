"""Round-4h: `event_burstiness` — the Goh–Barabási burstiness
coefficient B = (σ−μ)/(σ+μ) over the interarrival gaps of each event
type (B → −1 periodic, 0 Poisson, → 1 bursty) — the temporal-shape
diagnostic that tells a crawler/stream planner whether a feed arrives
smoothly or in bursts. `interarrival_rate` fits the exponential MLE
(needs only Σgaps = max − min, telescoping); burstiness needs Σg² too,
which does NOT telescope — so this operator demonstrates the exact
distributed ORDERED-GAP plan:

1. ONE range-partitioned sort of the skinny (event_type, ts,
   event_id) projection (~24 B/row all-to-all — the only exchange).
2. A streamed pass over the sorted batches (``ops.ordered``):
   in-batch gaps are one vectorized diff with type-boundary masking;
   each batch also emits its FIRST and LAST rows.
3. With the batches back in global order, a batch's last row and the
   next batch's first row of the same type are a cross-batch gap; the
   driver folds the stitched gaps into the same
   per-type moments — no second pass, no per-type task concentration
   (a hot type spreads across many range partitions, unlike a
   groupby(type).map_groups plan). Boundary keys are 2/batch (~3M
   rows for 100 TB at 64 MB blocks — a documented driver-side hot
   set; beyond that, stitch hierarchically per range partition).

Exactness: gaps are exact int64 microseconds (guarded < 2^45 ≈ 1.1
years with a LOUD error — beyond that the hi/lo split below would
need a third word); g² rides a 23-bit hi/lo split (hi², hi·lo, lo²
per-row products ≤ ~7e13, int64-safe; cross-batch headroom ~1.3e5
worst-case batches per type — sub-key the reduce by time bucket past
that, the `value_skew_by_type` convention) and recombines in Python
big ints ((Σhi²)<<46 + (Σhi·lo)<<24 + Σlo² — the twin's HUGEINT
SUM(g·g)). μ, σ and B are then pure IEEE chains over identical
integers in the twin's operand order (sqrt is correctly rounded per
IEEE-754, so no grid quantization is needed); a type with < 2 events
reports NULL stats on both sides. Self-registers into
``queries.QUERIES`` / ``queries.ORACLE_SQL`` on import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops.ordered import ordered_pass
from .queries import _empty_typed, _pq, register


_GAP_MAX = 1 << 45  # ~1.1 years in us; the 23-bit split's safe bound


def _gap_moments(etype: np.ndarray, gaps: np.ndarray) -> pd.DataFrame:
    """Per-type (n, Σg, Σhi², Σhi·lo, Σlo²) partials for int64 µs gaps
    (23-bit hi/lo split keeps every per-row product int64-safe)."""
    if gaps.size and int(gaps.max()) >= _GAP_MAX:
        raise ValueError(
            f"event_burstiness: gap >= 2^45 us (~1.1 y) — the 23-bit "
            f"hi/lo split needs a third word for this time span")
    hi, lo = gaps >> 23, gaps & ((1 << 23) - 1)
    return pd.DataFrame({"event_type": etype, "n": np.int64(1),
                         "sg": gaps, "s2a": hi * hi, "s2b": hi * lo,
                         "s2c": lo * lo}) \
        .groupby("event_type", as_index=False).sum()


def q_event_burstiness(sf_dir: str) -> pd.DataFrame:
    """Burstiness B = (σ−μ)/(σ+μ) of per-type interarrival gaps — see
    the module docstring for the sorted-batch + boundary-stitch plan
    and the exactness argument."""
    _MOMENT_COLS = ["n", "sg", "s2a", "s2b", "s2c"]
    key = ["event_type", "ts", "event_id"]
    ds = _pq(sf_dir, "events", key).sort(key)

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        et = b["event_type"].to_numpy(object)
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = et[1:] == et[:-1]
        gaps = (ts[1:] - ts[:-1])[same]
        mom = _gap_moments(et[1:][same], gaps) if same.any() else \
            pd.DataFrame({"event_type": pd.Series([], dtype=object),
                          **{c: pd.Series([], dtype="int64")
                             for c in _MOMENT_COLS}})
        # zero-moment census so every observed type reaches the output
        # (a single-event type interior to one batch has no gap row)
        census = pd.DataFrame({
            "event_type": pd.unique(et),
            **{c: np.int64(0) for c in _MOMENT_COLS}})
        return pd.concat([mom, census], ignore_index=True)

    def edge(b: pd.DataFrame) -> tuple[dict, dict]:
        ts = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return ({"et": b["event_type"].iloc[0], "ts": ts[0]},
                {"et": b["event_type"].iloc[-1], "ts": ts[-1]})

    folds, first, last = ordered_pass(ds, key, fold, edge)
    empty = _empty_typed(event_type=object, n_gaps="int64",
                         mean_gap_us="float64", sigma_gap_us="float64",
                         burstiness="float64")
    if folds.empty:
        return empty
    agg = folds.groupby("event_type", as_index=False)[_MOMENT_COLS].sum()
    per_type = {r["event_type"]: [int(r["n"]), int(r["sg"]),
                                  int(r["s2a"]), int(r["s2b"]),
                                  int(r["s2c"])]
                for _, r in agg.iterrows()}
    # seam stitch: a batch's last row and the next batch's first row of
    # the same type are adjacent in the global (type, ts, id) order
    lt = last["et"].to_numpy(object)[:-1]
    ft = first["et"].to_numpy(object)[1:]
    hit = np.flatnonzero(lt == ft)
    if hit.size:
        g = first["ts"].to_numpy(np.int64)[1:][hit] \
            - last["ts"].to_numpy(np.int64)[:-1][hit]
        stitched = _gap_moments(lt[hit], g)
        for _, r in stitched.iterrows():
            cur = per_type.setdefault(r["event_type"], [0, 0, 0, 0, 0])
            for i, c in enumerate(_MOMENT_COLS):
                cur[i] += int(r[c])
    out = []
    for t in sorted(per_type):
        n, sg, s2a, s2b, s2c = per_type[t]
        if n == 0:
            out.append((t, 0, np.nan, np.nan, np.nan))
            continue
        sg2 = (s2a << 46) + (s2b << 24) + s2c
        mu = np.float64(sg) / np.float64(n)
        var = max(np.float64(sg2) / np.float64(n) - mu * mu,
                  np.float64(0.0))
        sig = np.sqrt(var)
        b = (float((sig - mu) / (sig + mu)) if sig + mu > 0
             else np.nan)
        out.append((t, n, float(mu), float(sig), b))
    return pd.DataFrame(out, columns=["event_type", "n_gaps",
                                      "mean_gap_us", "sigma_gap_us",
                                      "burstiness"]) \
        .astype({"n_gaps": "int64"})


register("event_burstiness", q_event_burstiness, """
    WITH g AS (
      SELECT event_type,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
               PARTITION BY event_type ORDER BY ts, event_id) AS gap
      FROM events),
    m AS (
      SELECT event_type, COUNT(gap) AS n, SUM(gap) AS sg,
             SUM(CAST(gap AS HUGEINT) * CAST(gap AS HUGEINT)) AS sg2
      FROM g GROUP BY event_type),
    s AS (
      SELECT event_type, n, sg,
             CASE WHEN n = 0 THEN NULL
                  ELSE CAST(sg AS DOUBLE) / CAST(n AS DOUBLE) END
               AS mu,
             CASE WHEN n = 0 THEN NULL
                  ELSE sqrt(GREATEST(
                    CAST(sg2 AS DOUBLE) / CAST(n AS DOUBLE)
                    - (CAST(sg AS DOUBLE) / CAST(n AS DOUBLE))
                      * (CAST(sg AS DOUBLE) / CAST(n AS DOUBLE)),
                    0.0)) END AS sig
      FROM m)
    SELECT event_type, CAST(n AS BIGINT) AS n_gaps,
           mu AS mean_gap_us, sig AS sigma_gap_us,
           CASE WHEN n = 0 OR sig + mu <= 0 THEN NULL
                ELSE (sig - mu) / (sig + mu) END AS burstiness
    FROM s ORDER BY event_type""")
