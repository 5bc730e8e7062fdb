"""As-of and range-band joins (custom temporal operators) on known data."""

import pandas as pd
import ray.data as rd

from pdf_oxide_ray.stages.joins import asof_join, range_count_join


def _ts(s: str) -> pd.Timestamp:
    return pd.Timestamp(s)


def _events(rows):
    return rd.from_pandas(pd.DataFrame(
        rows, columns=["user_id", "event_id", "ts"]))


def test_asof_join_picks_latest_preceding(ray_session):
    left = _events([(1, 100, _ts("2024-01-01 10:00")),
                    (1, 101, _ts("2024-01-01 12:00")),
                    (2, 200, _ts("2024-01-01 10:00"))])
    right = _events([(1, 900, _ts("2024-01-01 09:00")),
                     (1, 901, _ts("2024-01-01 11:00")),
                     (2, 950, _ts("2024-01-01 10:30"))])  # after left -> drop
    out = asof_join(left, right, on="user_id", left_ts="ts", right_ts="ts",
                    left_cols=["event_id"], right_cols=["event_id"]) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    # user 2's only right row is later than its left row: inner drop
    assert out["event_id"].tolist() == [100, 101]
    assert out["event_id_right"].tolist() == [900, 901]
    assert out["ts_right"].tolist() == [_ts("2024-01-01 09:00"),
                                        _ts("2024-01-01 11:00")]


def test_asof_join_ties_take_equal_ts(ray_session):
    t = _ts("2024-01-01 10:00")
    left = _events([(1, 100, t)])
    right = _events([(1, 900, t)])
    out = asof_join(left, right, on="user_id", left_ts="ts", right_ts="ts",
                    left_cols=["event_id"], right_cols=["event_id"]).to_pandas()
    assert out["event_id_right"].tolist() == [900]


def test_range_count_join(ray_session):
    left = _events([(1, 100, _ts("2024-01-01 10:00")),
                    (1, 101, _ts("2024-01-01 12:00"))])
    right = _events([(1, 0, _ts("2024-01-01 09:10")),   # within 1h of 10:00
                     (1, 0, _ts("2024-01-01 09:59")),   # within
                     (1, 0, _ts("2024-01-01 10:00")),   # == left ts: excluded
                     (1, 0, _ts("2024-01-01 11:30"))])  # within 1h of 12:00
    out = range_count_join(left, right, on="user_id", left_ts="ts",
                           right_ts="ts", left_id="event_id",
                           lower=-pd.Timedelta(hours=1),
                           upper=pd.Timedelta(0)) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert out["n_in_range"].tolist() == [2, 1]


def test_temporal_join_overflow_fallback_paths(ray_session, monkeypatch):
    """Force the banded-key overflow guard so the per-key-segment
    fallback runs; results must equal the banded path."""
    import numpy as np

    import pdf_oxide_ray.stages.joins as J

    rs = np.random.RandomState(9)
    n = 5000
    base = pd.Timestamp("2024-01-01").value // 1000
    lpd = pd.DataFrame({
        "user_id": rs.randint(0, 40, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            base + rs.randint(0, 86_400_000_000, n), unit="us")})
    rpd = pd.DataFrame({
        "user_id": rs.randint(0, 40, n).astype(np.int64),
        "event_id": 10_000_000 + np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            base + rs.randint(0, 86_400_000_000, n), unit="us")})

    kw_asof = dict(on="user_id", left_ts="ts", right_ts="ts",
                   left_cols=["event_id"], right_cols=["event_id"])
    kw_rng = dict(on="user_id", left_ts="ts", right_ts="ts",
                  left_id="event_id", lower=-pd.Timedelta(hours=1),
                  upper=pd.Timedelta(0))

    def run_all():
        a = J.asof_join(rd.from_pandas(lpd), rd.from_pandas(rpd),
                        **kw_asof).to_pandas()
        r = J.range_count_join(rd.from_pandas(lpd), rd.from_pandas(rpd),
                               **kw_rng).to_pandas()
        ca = sorted(a.columns)
        cr = sorted(r.columns)
        return (a[ca].sort_values(ca).reset_index(drop=True),
                r[cr].sort_values(cr).reset_index(drop=True))

    a_fast, r_fast = run_all()
    monkeypatch.setattr(J, "_banded_bounds", lambda *a_: (None, False))
    a_slow, r_slow = run_all()
    pd.testing.assert_frame_equal(a_fast, a_slow)
    pd.testing.assert_frame_equal(r_fast, r_slow)
    assert len(a_fast) > 0 and len(r_fast) > 0


def test_asof_join_matches_pandas_merge_asof_property(ray_session):
    """Independent reference: the bucketed banded asof must agree with
    pandas.merge_asof (by=key, backward, exact matches allowed) on
    randomized inputs across several seeds."""
    import numpy as np

    from pdf_oxide_ray.stages.joins import asof_join

    base = pd.Timestamp("2024-01-01").value // 1000
    for seed in range(6):
        rs = np.random.RandomState(seed)
        nl, nr = rs.randint(1, 400), rs.randint(1, 400)
        lpd = pd.DataFrame({
            "user_id": rs.randint(0, 12, nl).astype(np.int64),
            "event_id": np.arange(nl, dtype=np.int64),
            "ts": pd.to_datetime(
                base + rs.randint(0, 10**9, nl) * 1000, unit="us")})
        rpd = pd.DataFrame({
            "user_id": rs.randint(0, 12, nr).astype(np.int64),
            "event_id": 10**6 + np.arange(nr, dtype=np.int64),
            "ts": pd.to_datetime(
                base + rs.randint(0, 10**9, nr) * 1000, unit="us")})
        out = asof_join(rd.from_pandas(lpd), rd.from_pandas(rpd),
                        on="user_id", left_ts="ts", right_ts="ts",
                        left_cols=["event_id"],
                        right_cols=["event_id"]).to_pandas()
        ref = pd.merge_asof(
            lpd.sort_values("ts", kind="mergesort"),
            rpd.sort_values("ts", kind="mergesort")
            .rename(columns={"event_id": "r_event_id", "ts": "r_ts"}),
            left_on="ts", right_on="r_ts", by="user_id",
            direction="backward").dropna(subset=["r_ts"])
        a = out[["user_id", "event_id", "ts", "ts_right"]] \
            .sort_values("event_id").reset_index(drop=True)
        b = ref[["user_id", "event_id", "ts", "r_ts"]] \
            .rename(columns={"r_ts": "ts_right"}) \
            .sort_values("event_id").reset_index(drop=True)
        # matched TS must agree everywhere (payload ties can differ in
        # which equal-ts right row is chosen; the timestamp cannot)
        pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()),
                                      check_dtype=False)
