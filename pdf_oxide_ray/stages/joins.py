"""Join strategies (SURVEY.md §2.7 / ray_guide joins section).

* ``broadcast_join``: small side shipped ONCE via ``ray.put``; each actor
  reads it in ``__init__`` and merges per batch — no shuffle. This is the
  dimension-table path (customer, nation, ...).
* ``bucketed_hash_join``: both sides large — tag each side, union, and
  merge matching keys pairwise inside one ``exchange_by_key`` (the
  portable partitioned hash join).
* ``asof_join`` / ``range_count_join``: the temporal joins, the same
  tagged union through ``exchange_by_key`` with a banded searchsorted
  per bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..ops.exchange import exchange_by_key


# per-worker-process cache of fetched broadcast sides; ray.get of the same
# ObjectRef is zero-copy from the local plasma store, and the cache avoids
# even that call per batch. Capped (FIFO evict) so a long-lived worker that
# sees many distinct broadcast refs doesn't grow its heap unboundedly.
_BROADCAST_CACHE: dict = {}
_BROADCAST_CACHE_MAX = 8


def _get_broadcast(ref):
    import ray

    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    obj = _BROADCAST_CACHE.get(key)
    if obj is None:
        obj = ray.get(ref)
        while len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_MAX:
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
        _BROADCAST_CACHE[key] = obj
    return obj


def _arrow_if_empty(df: pd.DataFrame):
    """Zero-row pandas frames with object/string columns trip Ray's
    block-size estimator ("cannot call `vectorize` on size 0 inputs"),
    logging once per empty block — log spam at high bucket counts.
    Arrow sizes zero-row blocks exactly, so empty join outputs return
    as Arrow (object columns pinned to string so the schema stays
    stable instead of inferring null). Non-empty frames pass through
    untouched (zero-copy for the common path)."""
    if len(df):
        return df
    try:
        import pyarrow as pa

        obj = {c: "string" for c in df.columns if df[c].dtype == object}
        return pa.Table.from_pandas(df.astype(obj) if obj else df,
                                    preserve_index=False)
    except Exception:  # exotic dtype: keep pandas, accept the log line
        return df


def broadcast_join(ds, right: pd.DataFrame, on: str,
                   right_on: str | None = None, how: str = "inner",
                   concurrency: int | None = None):
    """Join a Dataset with a SMALL pandas side (broadcast, no shuffle).

    Implemented as stateless tasks (elastic, no pool sizing to starve other
    stages); the broadcast side is ``ray.put`` once and cached per worker
    process. ``concurrency`` optionally caps task parallelism.
    """
    import ray

    ref = ray.put(right)
    ron = right_on or on

    def merge(batch: pd.DataFrame):
        return _arrow_if_empty(
            batch.merge(_get_broadcast(ref), how=how, left_on=on,
                        right_on=ron))

    kwargs = {}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return ds.map_batches(merge, batch_format="pandas", **kwargs)


def isin_sorted(vals: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership of int64 ``vals`` in a SORTED unique int64
    ``keys`` (searchsorted — no per-call Python-set re-hash; the
    broadcast-membership idiom for fk_audit / hot-set semi-joins)."""
    v = vals.astype(np.int64, copy=False)
    if keys.size == 0:
        return np.zeros(v.size, dtype=bool)
    idx = np.searchsorted(keys, v)
    return (idx < keys.size) & (keys[np.minimum(idx, keys.size - 1)] == v)


def bucketed_hash_join(left_ds, right_ds, left_on: str, right_on: str,
                       how: str = "inner"):
    """Partitioned hash join of two Datasets.

    Both sides, tagged with their side and join key, move through the
    single ``exchange_by_key`` shuffle; each bucket is merged with
    pandas. Skew: a hot key lands whole in one bucket.
    """

    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    clash = (set(left_cols) & set(right_cols)) - {left_on, right_on}
    if clash:
        raise ValueError(f"column collision between join sides: {clash}")
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]

    # the union's reindex pads each side's missing columns with NaN, which
    # promotes int/bool columns to float64 — restore ONLY the join keys'
    # original dtypes (a float64 key would merge against int64 as
    # mismatched dtypes; restoring every int column would crash on
    # legitimately-nullable non-key ints)
    def _key_dtype(schema, key: str) -> dict:
        for name, typ in zip(schema.names, schema.types):
            if name != key:
                continue
            try:
                dt = np.dtype(typ.to_pandas_dtype()
                              if hasattr(typ, "to_pandas_dtype") else typ)
            except (TypeError, NotImplementedError):
                return {}
            if dt.kind in "iub":
                return {name: dt}
        return {}

    left_restore = _key_dtype(left_schema, left_on)
    right_restore = _key_dtype(right_schema, right_on)

    def tag(side: str, on: str):
        def _tag(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["__key"] = batch[on]
            batch["__side"] = side
            # align both sides to the shared schema (union requirement)
            return batch.reindex(columns=all_cols + ["__key", "__side"])
        return _tag

    left = left_ds.map_batches(tag("l", left_on), batch_format="pandas")
    right = right_ds.map_batches(tag("r", right_on), batch_format="pandas")

    def merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        lmask = group["__side"] == "l"
        lg = group.loc[lmask, left_cols]
        rg = group.loc[~lmask, right_cols]
        if left_restore:
            lg = lg.astype(left_restore)
        if right_restore:
            rg = rg.astype(right_restore)
        return _arrow_if_empty(
            lg.merge(rg, how=how, left_on=left_on, right_on=right_on))

    return exchange_by_key([left, right], ["__key"], merge_bucket)


# ---------------------------------------------------------------------------
# temporal joins Ray Data lacks natively: as-of and range-band
# ---------------------------------------------------------------------------
#
# Partitioning assumption (documented per the custom-operator guidance):
# both implementations co-locate rows by the equi-key via ONE
# ``exchange_by_key`` of tagged skinny projections; within a bucket the
# time logic is a vectorized searchsorted over the sorted right side.
# Skew: a hot key lands whole in one bucket.


_ADAPTIVE_BROADCAST_MAX_ROWS = 5_000_000
_ADAPTIVE_BROADCAST_MAX_BYTES = 512 * 1024 * 1024  # replicated-side cap


def adaptive_join(left_ds, right_ds, left_on: str, right_on: str,
                  how: str = "inner",
                  broadcast_max_rows: int | None = None,
                  broadcast_max_bytes: int | None = None):
    """AQE-style join strategy selection: when the RIGHT side's row
    count (a cheap stat — parquet metadata for pruned reads) fits the
    broadcast gate, ship it once via ``broadcast_join`` (zero shuffle);
    otherwise fall back to the partitioned ``bucketed_hash_join``. Both
    strategies produce the identical inner-join relation, so the choice
    is pure physics — the same decision a cost-based optimizer makes
    from table stats. The gate mirrors the keyed combine's `GATE_ROWS`
    (`ops/exchange.py`): a skinny dimension or key-map side (rows × few
    columns) under ~5M rows is cheaper to replicate than to shuffle both
    sides. Rows alone
    lie about WIDE sides (5M wide rows = tens of driver-side GB), so a
    byte gate (``size_bytes()`` — parquet metadata for un-executed
    reads, exact for materialized data) must pass as well."""
    n = right_ds.count()
    gate = (_ADAPTIVE_BROADCAST_MAX_ROWS if broadcast_max_rows is None
            else broadcast_max_rows)
    byte_gate = (_ADAPTIVE_BROADCAST_MAX_BYTES
                 if broadcast_max_bytes is None else broadcast_max_bytes)
    nbytes = right_ds.size_bytes()
    if n <= gate and (nbytes is None or nbytes <= byte_gate):
        right_df = right_ds.to_pandas()
        if n == 0 and not len(right_df.columns):
            # zero-block to_pandas() drops the schema; rebuild the
            # column frame from Dataset.schema() so the merge keeps
            # names/dtypes and callers need no pre-count empty guard
            import pyarrow as pa

            sch = right_ds.schema()
            if sch is not None:
                cols = {}
                for name, typ in zip(sch.names, sch.types):
                    if isinstance(typ, pa.DataType):
                        cols[name] = pa.array([], type=typ).to_pandas()
                    else:
                        cols[name] = pd.Series(dtype=object)
                right_df = pd.DataFrame(cols)
        return broadcast_join(left_ds, right_df, on=left_on,
                              right_on=right_on, how=how)
    return bucketed_hash_join(left_ds, right_ds, left_on, right_on,
                              how=how)


def _banded_bounds(key: np.ndarray, ts: np.ndarray, n_keys: int,
                   span: int):
    """Per-key disjoint int64 bands so ONE global searchsorted respects
    key boundaries (the rolling_time_window trick, overflow-guarded);
    returns (banded_values, ok) — ok False when n_keys x span would
    overflow and the caller must loop per key segment."""
    if n_keys * span >= (1 << 62):
        return None, False
    return key * span + ts, True


def asof_join(left_ds, right_ds, on: str, left_ts: str, right_ts: str,
              left_cols: list[str], right_cols: list[str],
              suffix: str = "_right"):
    """For each left row, the most recent right row with
    ``right_ts <= left_ts`` for the same key (DuckDB ASOF JOIN
    semantics; inner — left rows with no prior right row are dropped).

    Shuffle shape: ONE ``exchange_by_key`` on the key (not one
    group per key — per-group pandas overhead across 10^4+ keys was the
    measured cost), with the in-bucket match a single banded searchsorted
    over all of the bucket's keys at once."""

    def tag(side: str, ts_col: str, cols: list[str]):
        def _tag(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[[on, ts_col] + cols].copy()
            out.columns = [on, "__ts"] + [f"__{side}_{c}" for c in cols]
            out["__side"] = side
            return out
        return _tag

    lt = left_ds.map_batches(tag("l", left_ts, left_cols),
                             batch_format="pandas")
    rt = right_ds.map_batches(tag("r", right_ts, right_cols),
                              batch_format="pandas")
    l_out = [f"__l_{c}" for c in left_cols]
    r_out = [f"__r_{c}" for c in right_cols]
    all_cols = [on, "__ts", "__side"] + l_out + r_out

    def align(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.reindex(columns=all_cols)

    both = [lt.map_batches(align, batch_format="pandas"),
            rt.map_batches(align, batch_format="pandas")]

    # same-named timestamp columns get the suffix on the right side
    right_ts_out = right_ts + suffix if right_ts == left_ts else right_ts

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lmask = (g["__side"] == "l").to_numpy()
        lg = g[lmask]
        rg = g[~lmask]
        if lg.empty or rg.empty:
            return pd.DataFrame(columns=[on, left_ts, right_ts_out]
                                + left_cols
                                + [c + suffix for c in right_cols])
        uid_all, _ = pd.factorize(g[on], sort=False)
        uid_l = uid_all[lmask].astype(np.int64)
        uid_r = uid_all[~lmask].astype(np.int64)
        ts_all = _ts_int(g["__ts"].to_numpy())
        tmin = int(ts_all.min())
        lts = ts_all[lmask] - tmin
        rts = ts_all[~lmask] - tmin
        span = int(ts_all.max()) - tmin + 2
        n_keys = int(uid_all.max()) + 1
        rkey, ok = _banded_bounds(uid_r, rts, n_keys, span)
        if ok:
            lkey = uid_l * span + lts
            order = np.argsort(rkey, kind="stable")
            idx = np.searchsorted(rkey[order], lkey, side="right") - 1
            keep = idx >= 0
            cand = order[np.maximum(idx, 0)]
            keep &= uid_r[cand] == uid_l  # band check: same key
            ridx = cand[keep]
        else:
            # overflow fallback: per-key segments on the sorted right
            order = np.lexsort((rts, uid_r))
            ru, rt_s = uid_r[order], rts[order]
            seg_start = np.searchsorted(ru, uid_l, side="left")
            seg_end = np.searchsorted(ru, uid_l, side="right")
            pos = np.empty(len(uid_l), np.int64)
            for i in range(len(uid_l)):
                s, e = seg_start[i], seg_end[i]
                pos[i] = s + np.searchsorted(rt_s[s:e], lts[i],
                                             side="right") - 1
            keep = pos >= seg_start  # a match exists within the segment
            ridx = order[pos[keep]]
        lg = lg[keep]
        matched = rg.iloc[ridx]
        out = pd.DataFrame({on: lg[on].to_numpy(),
                            left_ts: lg["__ts"].to_numpy(),
                            right_ts_out: matched["__ts"].to_numpy()})
        for c in left_cols:
            out[c] = lg[f"__l_{c}"].to_numpy()
        for c in right_cols:
            out[c + suffix] = matched[f"__r_{c}"].to_numpy()
        return out

    return exchange_by_key(both, [on], per_bucket)


def range_count_join(left_ds, right_ds, on: str, left_ts: str,
                     right_ts: str, left_id: str, lower, upper,
                     count_name: str = "n_in_range"):
    """For each left row, COUNT right rows of the same key with
    ``left_ts + lower <= right_ts < left_ts + upper`` (a band/interval
    join realized as two searchsorted cuts). Same bucketed shuffle
    shape as ``asof_join`` — one banded searchsorted per bucket, not
    one pandas group per key."""

    def _dur_us(x) -> int:
        if isinstance(x, pd.Timedelta):
            return int(x / pd.Timedelta(microseconds=1))
        return int(x)

    lower_i, upper_i = _dur_us(lower), _dur_us(upper)

    def tag(side: str, ts_col: str, idc: str | None):
        def _tag(batch: pd.DataFrame) -> pd.DataFrame:
            cols = {on: batch[on], "__ts": batch[ts_col],
                    "__side": side}
            cols["__id"] = batch[idc] if idc else -1
            return pd.DataFrame(cols)
        return _tag

    lt = left_ds.map_batches(tag("l", left_ts, left_id),
                             batch_format="pandas")
    rt = right_ds.map_batches(tag("r", right_ts, None),
                              batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lmask = (g["__side"] == "l").to_numpy()
        lg = g[lmask]
        if lg.empty:
            return pd.DataFrame({on: lg[on], left_id: lg["__id"],
                                 count_name: pd.Series([],
                                                       dtype="int64")})
        uid_all, _ = pd.factorize(g[on], sort=False)
        uid_l = uid_all[lmask].astype(np.int64)
        uid_r = uid_all[~lmask].astype(np.int64)
        ts_all = _ts_int(g["__ts"].to_numpy())
        tmin = int(ts_all.min())
        lts = ts_all[lmask] - tmin
        rts = ts_all[~lmask] - tmin
        # margin so lts+lower / lts+upper stay inside the key's band
        margin = abs(lower_i) + abs(upper_i) + 2
        span = int(ts_all.max()) - tmin + 2 * margin
        n_keys = int(uid_all.max()) + 1 if len(uid_all) else 1
        rkey, ok = _banded_bounds(uid_r, rts + margin, n_keys, span)
        if ok:
            rkey = np.sort(rkey)
            base = uid_l * span + (lts + margin)
            lo = np.searchsorted(rkey, base + lower_i, side="left")
            hi = np.searchsorted(rkey, base + upper_i, side="left")
            cnt = (hi - lo).astype(np.int64)
        else:  # overflow fallback: per-key segments
            order = np.lexsort((rts, uid_r))
            ru, rt_s = uid_r[order], rts[order]
            cnt = np.empty(len(uid_l), np.int64)
            seg_start = np.searchsorted(ru, uid_l, side="left")
            seg_end = np.searchsorted(ru, uid_l, side="right")
            for i in range(len(uid_l)):
                s, e = seg_start[i], seg_end[i]
                seg = rt_s[s:e]
                cnt[i] = (np.searchsorted(seg, lts[i] + upper_i, "left")
                          - np.searchsorted(seg, lts[i] + lower_i,
                                            "left"))
        return pd.DataFrame({on: lg[on].to_numpy(),
                             left_id: lg["__id"].to_numpy(),
                             count_name: cnt})

    return exchange_by_key([lt, rt], [on], per_bucket)


def _ts_int(arr: np.ndarray) -> np.ndarray:
    """Timestamps (datetime64 or integral) -> int64 for bucket math."""
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[us]").astype(np.int64)
    return arr.astype(np.int64)
