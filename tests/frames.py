"""Frame comparison shared by the query-family property tests."""

import numpy as np
import pandas as pd


def assert_frames_equal(a: pd.DataFrame, b: pd.DataFrame, name: str):
    """Same columns and rows in any order: floats bit-equal (NaN
    matches NaN), everything else equal as Python values."""
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[sorted(b.columns)].sort_values(sorted(b.columns)) \
        .reset_index(drop=True)
    assert list(a.columns) == list(b.columns), name
    assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)} rows"
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            av = a[c].to_numpy(np.float64)
            bv = b[c].to_numpy(np.float64)
            both_nan = np.isnan(av) & np.isnan(bv)
            assert bool(np.all(both_nan | (av == bv))), f"{name}.{c}"
        else:
            assert a[c].tolist() == b[c].tolist(), f"{name}.{c}"
