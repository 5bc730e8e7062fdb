"""Property-based hardening for round-2 code paths: pixel decode
totality, AES round-trips at all key sizes, and bucketed-join equivalence
with pandas merge (including the NaN-promoted chained-join regression).
"""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.core.aes import (aes_cbc_decrypt, aes_cbc_decrypt_nopad,
                                    aes_cbc_encrypt, aes_cbc_encrypt_nopad)
from pdf_oxide_ray.core.images import to_rgb_pixels

_CSPACES = ["DeviceGray", "DeviceRGB", "DeviceCMYK", "CalRGB", "ICCBased",
            "Separation", "Unknown", ""]


@settings(max_examples=120, deadline=None)
@given(data=st.binary(max_size=256),
       w=st.integers(min_value=1, max_value=9),
       h=st.integers(min_value=1, max_value=9),
       cs=st.sampled_from(_CSPACES),
       bits=st.sampled_from([1, 2, 4, 8, 16]))
def test_to_rgb_pixels_total(data, w, h, cs, bits):
    """Any byte payload either decodes to (h, w, 3) uint8 or raises
    ValueError — never another exception (MediaFeatures absorbs
    ValueError into error rows)."""
    try:
        out = to_rgb_pixels(data, w, h, cs, bits)
    except ValueError:
        return
    assert out.shape == (h, w, 3)
    assert out.dtype == np.uint8


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from([16, 24, 32]).flatmap(
           lambda n: st.binary(min_size=n, max_size=n)),
       iv=st.binary(min_size=16, max_size=16),
       data=st.binary(max_size=200))
def test_aes_cbc_roundtrip_all_key_sizes(key, iv, data):
    assert aes_cbc_decrypt(key, aes_cbc_encrypt(key, iv, data)) == data


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from([16, 32]).flatmap(
           lambda n: st.binary(min_size=n, max_size=n)),
       iv=st.binary(min_size=16, max_size=16),
       nblocks=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_aes_nopad_roundtrip(key, iv, nblocks, seed):
    data = np.random.RandomState(seed).bytes(16 * nblocks)
    ct = aes_cbc_encrypt_nopad(key, iv, data)
    assert len(ct) == len(data)
    assert aes_cbc_decrypt_nopad(key, iv, ct) == data


def _frames(seed: int, with_nullable_int: bool):
    rs = np.random.RandomState(seed)
    n_l, n_r = rs.randint(1, 40), rs.randint(1, 40)
    left = pd.DataFrame({
        "k": rs.randint(0, 12, n_l),
        "lv": rs.randint(0, 100, n_l),
    })
    right = pd.DataFrame({
        "rk": rs.randint(0, 12, n_r),
        "rv": rs.randint(0, 100, n_r).astype("float64"),
    })
    if with_nullable_int:
        # non-key int column with NaN after arrow->pandas (the dtype
        # restore used to crash on these)
        right["rnull"] = rs.randint(0, 5, n_r).astype("float64")
        right.loc[right.index[: max(1, n_r // 4)], "rnull"] = np.nan
    return left, right


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       nullable=st.booleans())
def test_bucketed_join_matches_pandas_merge(ray_session, seed, nullable):
    import ray.data as rd

    from pdf_oxide_ray.stages.joins import bucketed_hash_join

    left, right = _frames(seed, nullable)
    got = bucketed_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "rk").to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")
    if want.empty:
        assert len(got) == 0
        return
    key_cols = ["k", "lv", "rk", "rv"]
    g = got[key_cols].sort_values(key_cols, kind="mergesort") \
        .reset_index(drop=True).astype("float64")
    w = want[key_cols].sort_values(key_cols, kind="mergesort") \
        .reset_index(drop=True).astype("float64")
    pd.testing.assert_frame_equal(g, w)


@given(vals=st.lists(st.integers(min_value=-56021, max_value=56021),
                     min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_moment_hilo_split_recombines_exactly(vals):
    """value_skew_by_type's hi/lo int64 split: the per-batch partials
    (s3h, s3l) and (s4a, s4b, s4c) must recombine to the EXACT Σv³ and
    Σv⁴ (computed in Python big ints) for any values in the quantized
    cents domain — including negatives and the ±max edge."""
    v = np.asarray(vals, np.int64)
    v2 = v * v
    hi, lo = v2 >> 16, v2 & 0xFFFF
    s3h, s3l = int((v * hi).sum()), int((v * lo).sum())
    s4a, s4b, s4c = int((hi * hi).sum()), int((hi * lo).sum()), \
        int((lo * lo).sum())
    s3 = (s3h << 16) + s3l
    s4 = (s4a << 32) + (s4b << 17) + s4c
    assert s3 == sum(int(x) ** 3 for x in vals)
    assert s4 == sum(int(x) ** 4 for x in vals)
