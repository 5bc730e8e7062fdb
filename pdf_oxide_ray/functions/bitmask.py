"""Multi-word domain bitmasks for relational-division / set-coverage
queries (``loyal_users``, ``user_type_breadth``, ``source_vocab_overlap``).

A small categorical DOMAIN (event types, sources) maps onto bit
positions; each entity's coverage set is then a fixed-width bitmask
that rides the ONE keyed exchange as plain int64 columns and combines
with bitwise OR (associative + commutative, so per-batch pre-ORs
re-fold exactly in the keyed combine). Domains wider than 63 use
``ceil(n/63)`` words (``mask_0..mask_{w-1}``), so the same vectorized
plan holds for ANY domain size. 63 (not 64) bits per word
keeps every mask non-negative in int64, so pandas/Arrow round-trips
never reinterpret the sign bit.

Scale shape (SCALE.md): the exchange carries (key, w x int64) rows —
a 1000-type domain is 16 words = 128 bytes/row, still skinny; the
per-key-set folds (popcount histogram, full-mask count, bit matmul)
are vectorized numpy and reduce to dimension-sized partials on the
driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

BITS = 63  # bits per int64 word (sign bit left clear)


def n_words(n_domain: int) -> int:
    """Words needed for an ``n_domain``-wide bitmask (>=1)."""
    return max(1, -(-int(n_domain) // BITS))


def mask_cols(nw: int) -> list[str]:
    return [f"mask_{w}" for w in range(nw)]


def encode_codes(codes: np.ndarray, nw: int) -> dict[str, np.ndarray]:
    """Per-row single-bit masks for domain codes (0..n-1) as ``nw``
    int64 columns: row i has bit ``codes[i] % 63`` set in word
    ``codes[i] // 63`` and zeros elsewhere."""
    codes = np.asarray(codes, np.int64)
    word = codes // BITS
    bit = np.int64(1) << (codes % BITS)
    return {f"mask_{w}": np.where(word == w, bit, np.int64(0))
            for w in range(nw)}


def or_by_key(keys: np.ndarray, masks: dict[str, np.ndarray],
              key_name: str) -> pd.DataFrame:
    """Within-batch pre-OR: one output row per distinct key, each mask
    word OR-folded via sorted ``np.bitwise_or.reduceat`` (no per-group
    Python lambda). ``keys`` may be any numpy dtype with a stable sort
    (int64 ids, object strings)."""
    order = np.argsort(keys, kind="mergesort")
    k = keys[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    out = {key_name: k[starts]}
    for name, m in masks.items():
        out[name] = np.bitwise_or.reduceat(
            np.asarray(m, np.int64)[order], starts)
    return pd.DataFrame(out)


def fold_or(df: pd.DataFrame, key_name: str, nw: int) -> pd.DataFrame:
    """Final OR fold over concatenated per-batch partials (the
    keyed combine's ``fn``): one row per key, each word OR-combined via
    ``or_by_key``'s sorted ``reduceat`` (no per-group Python)."""
    return or_by_key(df[key_name].to_numpy(),
                     {c: df[c].to_numpy(np.int64) for c in mask_cols(nw)},
                     key_name)


def unpack_bits(b: pd.DataFrame, nw: int, n_domain: int) -> np.ndarray:
    """(rows, n_domain) 0/1 int64 matrix from the mask columns."""
    cols = []
    for w in range(nw):
        width = min(BITS, n_domain - w * BITS)
        m = b[f"mask_{w}"].to_numpy(np.int64)
        cols.append((m[:, None] >> np.arange(width, dtype=np.int64)) & 1)
    return np.concatenate(cols, axis=1) if len(cols) > 1 else cols[0]


def popcount(b: pd.DataFrame, nw: int, n_domain: int) -> np.ndarray:
    """Per-row set-bit count across all mask words (vectorized over
    rows; #domain iterations of shift-and-mask)."""
    n = len(b)
    k = np.zeros(n, np.int64)
    for w in range(nw):
        width = min(BITS, n_domain - w * BITS)
        m = b[f"mask_{w}"].to_numpy(np.int64)
        for i in range(width):
            k += (m >> i) & 1
    return k


def full_mask_values(nw: int, n_domain: int) -> list[int]:
    """The per-word all-bits-set values for an ``n_domain`` domain."""
    out = []
    for w in range(nw):
        width = min(BITS, n_domain - w * BITS)
        out.append(int((1 << width) - 1))
    return out
