"""Deduplication operators (exact + near-dup families) for corpus-scale
pipelines.

Not present in the reference library (its corpus bins never join across
documents — SURVEY.md §2.7); these are the cross-document operators a
training-data engine needs. Shuffle plans:

* exact: content-hash per batch (vectorized) -> ``groupby(hash)`` -> min
  doc_id per group (hash-partitioned; ONE small shuffle over (hash, id));
* MinHash+LSH: shingle -> minhash signature per batch -> explode to
  (band_id, band_hash, doc_id) rows -> ``groupby(band)`` -> candidate pairs
  -> Jaccard verify -> min-label connected components;
* SimHash: 64-bit signature per batch; bucket by rotated prefixes;
* embedding near-dup: cosine >= tau via the similarity module's bucketed
  matmul.

Everything per-batch is numpy/pandas vectorized; the only all-to-all
exchanges are the groupbys over tiny (key, id) projections — never the text.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

# ASCII word tokens by design: the DuckDB oracles tokenize with the RE2
# class [0-9A-Za-z_]+ (RE2 \w is ASCII-only), so the Python side must
# agree on EVERY corpus, not just ASCII ones. Widen both sides together
# if a multilingual corpus ever needs Unicode word segmentation.
_TOKEN_RE = re.compile(r"\w+", re.ASCII)

# 64-bit universal-hash parameters for minhash permutations, seeded once per
# worker at import (deterministic constants).
_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 1337) -> tuple[np.ndarray, np.ndarray]:
    rs = np.random.RandomState(seed)
    a = rs.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rs.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


_PERM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def content_hash(texts: pd.Series) -> pd.Series:
    """Stable 128-bit hex content hash (collision-safe exact-dup key)."""
    return texts.fillna("").map(
        lambda t: hashlib.sha256(t.encode("utf-8")).hexdigest()[:32])


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Word k-shingles -> uint64 hashes."""
    toks = _TOKEN_RE.findall(text.lower())
    if len(toks) < k:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    if not grams:
        return np.zeros(1, dtype=np.uint64)
    return np.fromiter(
        (int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(),
                        "big") for g in grams),
        dtype=np.uint64, count=len(grams))


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa = set(shingle_hashes(text_a, k).tolist())
    sb = set(shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Character n-gram Jaccard (the cheap verify for short texts)."""
    sa = {text_a[i : i + n] for i in range(max(len(text_a) - n + 1, 1))}
    sb = {text_b[i : i + n] for i in range(max(len(text_b) - n + 1, 1))}
    return len(sa & sb) / max(len(sa | sb), 1)


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens.

    The per-token hash is the first 8 bytes of md5 so a DuckDB oracle can
    reconstruct the signature bit-for-bit from ``md5(tok)`` hex (blake2b
    isn't available in SQL); the bit accumulation is one vectorized pass
    over the stacked token digests rather than a per-token numpy op."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return 0
    buf = b"".join(hashlib.md5(t.encode()).digest()[:8] for t in toks)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(-1, 8), axis=1)
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    out = np.packbits((acc > 0).astype(np.uint8))
    return int.from_bytes(out.tobytes(), "big") >> 1  # fit int64


# ---------------------------------------------------------------------------
# batch-level kernels (map_batches bodies)
# ---------------------------------------------------------------------------

_SHINGLE_C = np.uint64(0x100000001B3)  # FNV-ish odd multiplier
_BAND_C = np.uint64(0xFF51AFD7ED558CCD)  # Murmur3 fmix64 constant


def batch_minhash_band_rows(texts: pd.Series, num_perm: int = 64,
                            num_bands: int = 16, k: int = 5
                            ) -> pd.DataFrame:
    """Whole-batch MinHash+LSH band rows, fully vectorized.

    One C-level tokenize (pandas str ops), ONE deterministic uint64 hash
    over the batch's flattened token array (pd.util.hash_array — fixed
    key, stable across workers/runs), a rolling polynomial k-shingle
    hash computed as k shifted vector adds, segment-min minhash via
    np.minimum.reduceat (perm-chunked to bound the temporaries), and a
    vectorized polynomial band fold. Replaces the per-doc Python loop
    (blake2b per shingle) that dominated minhash_dedup's runtime (r02
    verdict). The hash FAMILY differs from that per-doc blake2b one —
    cluster outputs are unchanged because any injective-ish shingle
    hash preserves shingle-set Jaccard, and the oracle/verify recompute
    Jaccard from the texts.

    Returns a frame with (row, band_id, band_hash): ``row`` indexes into
    ``texts`` positionally."""
    n_docs = len(texts)
    if n_docs == 0:
        return pd.DataFrame({"row": pd.Series(dtype="int64"),
                             "band_id": pd.Series(dtype="int64"),
                             "band_hash": pd.Series(dtype="int64")})
    toks = texts.fillna("").str.lower().str.findall(_TOKEN_RE)
    lens = toks.str.len().to_numpy(np.int64)
    import itertools

    flat = np.fromiter(itertools.chain.from_iterable(toks),
                       dtype=object, count=int(lens.sum())) \
        if lens.sum() else np.empty(0, dtype=object)
    tok_h = pd.util.hash_array(flat) if flat.size else \
        np.empty(0, dtype=np.uint64)
    starts_excl = np.concatenate([np.zeros(1, np.int64),
                                  np.cumsum(lens)])
    n_tok = int(starts_excl[-1])

    # rolling polynomial over the full flat array (k shifted adds)
    if n_tok >= k:
        S_full = np.zeros(n_tok - k + 1, dtype=np.uint64)
        for j in range(k):
            S_full = S_full * _SHINGLE_C + tok_h[j : n_tok - k + 1 + j]
    else:
        S_full = np.empty(0, dtype=np.uint64)

    # long docs (len >= k): all within-doc shingle start positions
    m_long = np.where(lens >= k, lens - k + 1, 0)
    tot_long = int(m_long.sum())
    if tot_long:
        doc_long = np.repeat(np.arange(n_docs, dtype=np.int64), m_long)
        cum = np.concatenate([np.zeros(1, np.int64),
                              np.cumsum(m_long)])[:-1]
        intra = np.arange(tot_long, dtype=np.int64) - \
            np.repeat(cum, m_long)
        pos = np.repeat(starts_excl[:-1], m_long) + intra
        S_long = S_full[pos]
    else:
        doc_long = np.empty(0, np.int64)
        S_long = np.empty(0, np.uint64)

    # short docs (0 < len < k): ONE shingle from all tokens; empty docs:
    # shingle 0 (mirrors the legacy single-gram / zeros(1) behavior)
    short_idx = np.flatnonzero((lens > 0) & (lens < k))
    S_short = np.zeros(short_idx.size, dtype=np.uint64)
    for i, d in enumerate(short_idx):
        s = np.uint64(0)
        for th in tok_h[starts_excl[d]:starts_excl[d + 1]]:
            s = s * _SHINGLE_C + th
        S_short[i] = s
    empty_idx = np.flatnonzero(lens == 0)

    doc_all = np.concatenate([doc_long, short_idx, empty_idx])
    S_all = np.concatenate([S_long, S_short,
                            np.zeros(empty_idx.size, np.uint64)])
    order = np.argsort(doc_all, kind="stable")
    doc_all, S_all = doc_all[order], S_all[order]
    seg_starts = np.concatenate(
        [np.zeros(1, np.int64), np.flatnonzero(np.diff(doc_all)) + 1])

    if num_perm not in _PERM_CACHE:
        a, b = _perm_params(num_perm)
        _PERM_CACHE[num_perm] = (a | np.uint64(1), b)
    a, b = _PERM_CACHE[num_perm]
    sig = np.empty((n_docs, num_perm), dtype=np.uint64)
    chunk = 8  # bound the (n_shingles x chunk) temporary
    for c0 in range(0, num_perm, chunk):
        vals = S_all[:, None] * a[c0:c0 + chunk] + b[c0:c0 + chunk]
        sig[:, c0:c0 + chunk] = np.minimum.reduceat(vals, seg_starts,
                                                    axis=0)

    rows_per_band = num_perm // num_bands
    folded = sig.reshape(n_docs, num_bands, rows_per_band)
    bh = np.zeros((n_docs, num_bands), dtype=np.uint64)
    for j in range(rows_per_band):
        bh = bh * _BAND_C + folded[:, :, j]
    # fold the band id in (legacy salt semantics) and fit int64
    bh = (bh * _BAND_C
          + np.arange(1, num_bands + 1, dtype=np.uint64)) >> np.uint64(1)
    return pd.DataFrame({
        "row": np.repeat(np.arange(n_docs, dtype=np.int64), num_bands),
        "band_id": np.tile(np.arange(num_bands, dtype=np.int64), n_docs),
        "band_hash": bh.reshape(-1).astype(np.int64)})


def add_simhash(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    batch = batch.copy()
    batch["simhash"] = batch[text_col].fillna("").map(simhash64).astype("int64")
    return batch


def connected_components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find over the (small) verified candidate-pair set: id -> root.
    At 100 TB the pair set after Jaccard verification is a tiny fraction of
    the corpus (only near-dup ids + edges reach the driver)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in parent}
