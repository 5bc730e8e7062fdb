"""Text-analysis operators for large-scale training-data pipelines.

These extend the reference's per-document metric folds
(``/root/reference/src/bin/validate_dataset.rs:31-141`` computes per-file
counts/lengths the same way) to corpus scale. All functions are vectorized
per batch (pandas string kernels / compiled regex) and are designed to run
inside ``map_batches`` — regexes compile once at module import (per-worker
warm state).

Ops: language-ID (stopword + charset n-gram heuristic), quality scoring
(length / punctuation / stopword ratios), token counting (whitespace and a
BPE-ish regex), document fingerprinting (md5 + 64-bit rolling hash).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

RE_WS = re.compile(r"\s+")
RE_PUNCT = re.compile(r"[.!?,;:]")
RE_DIGIT = re.compile(r"\d")
# GPT-2-style pre-tokenizer shape (public BPE regex family): optional space +
# letters | digits | non-space-non-alnum runs. We standardize on the
# RE2-portable variant (no lookahead, explicit [0-9], single trailing \s+
# instead of the classic `\s+(?!\S)|\s+` pair) so the exact same pattern
# runs in both Python re and DuckDB regexp_extract_all — the oracle twin
# counts identical token spans.
RE_BPE = re.compile(r" ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+")
BPE_PATTERN_SQL = r" ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"

# tiny per-language stopword profiles (public common-word lists)
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans", "que"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "para", "que", "con"},
}


# DuckDB twin of Python str.split(): whitespace tokens, empties dropped.
# Lives here (a LEAF module — no queries import) so the query-family
# modules can share it at top level without a circular import: a worker
# whose first import is one queries_* module must never resolve a symbol
# from a sibling queries_* module mid-initialization.
TOK_SQL = (r"unnest(list_filter(regexp_split_to_array("
           r"coalesce(text, ''), '\s+'), x -> x <> ''))")


def halfaway6(raw: np.ndarray) -> np.ndarray:
    """Quantize to the int 1e-6 grid with half-AWAY rounding (DuckDB
    ``round()``), the shared convention for every ln()-twinned value."""
    v = raw * 1e6
    return np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)


def token_count_ws(texts: pd.Series) -> pd.Series:
    """Whitespace token count (vectorized)."""
    return texts.fillna("").str.split().str.len().astype("int64")


def token_count_bpe(texts: pd.Series) -> pd.Series:
    """BPE-ish regex token count."""
    return texts.fillna("").map(lambda t: len(RE_BPE.findall(t))).astype("int64")


def detect_language(texts: pd.Series) -> pd.Series:
    """Stopword-profile language ID with charset shortcut for CJK."""

    def _lang(t: str) -> str:
        if not t:
            return "unknown"
        # charset heuristic: CJK codepoint density
        cjk = sum(1 for ch in t[:400] if 0x4E00 <= ord(ch) <= 0x9FFF)
        if cjk > len(t[:400]) * 0.05:
            return "zh"
        words = set(RE_WS.split(t.lower()[:2000]))
        best, best_hits = "unknown", 0
        for lang, stops in _LANG_STOPWORDS.items():
            hits = len(words & stops)
            if hits > best_hits:
                best, best_hits = lang, hits
        return best if best_hits >= 1 else "unknown"

    return texts.fillna("").map(_lang)


def quality_features(texts: pd.Series) -> pd.DataFrame:
    """Per-doc quality metrics: token/punct/digit counts, alpha & stopword
    ratios, mean word length."""
    filled = texts.fillna("")
    n_chars = filled.str.len().astype("int64")
    n_tokens = token_count_ws(filled)
    n_punct = filled.map(lambda t: len(RE_PUNCT.findall(t))).astype("int64")
    n_digits = filled.map(lambda t: len(RE_DIGIT.findall(t))).astype("int64")

    def _wordstats(t: str) -> tuple[float, float]:
        words = t.lower().split()
        if not words:
            return 0.0, 0.0
        stops = _LANG_STOPWORDS["en"]
        stop_ratio = sum(1 for w in words if w in stops) / len(words)
        mean_len = float(np.mean([len(w) for w in words]))
        return stop_ratio, mean_len

    stats = filled.map(_wordstats)
    return pd.DataFrame({
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "n_punct": n_punct,
        "n_digits": n_digits,
        "stop_ratio": stats.map(lambda x: x[0]),
        "mean_word_len": stats.map(lambda x: x[1]),
    })


def quality_score(texts: pd.Series) -> pd.Series:
    """Composite 0-1 heuristic quality score (length, punctuation presence,
    stopword ratio band, word-length band)."""
    f = quality_features(texts)
    length_ok = np.clip(f["n_tokens"] / 50.0, 0.0, 1.0)
    punct_ok = np.clip(f["n_punct"] / np.maximum(f["n_tokens"] / 10.0, 1.0),
                       0.0, 1.0)
    stop_ok = 1.0 - np.abs(f["stop_ratio"] - 0.35) / 0.35
    wlen_ok = 1.0 - np.abs(f["mean_word_len"] - 4.5) / 4.5
    score = (0.3 * length_ok + 0.2 * punct_ok
             + 0.25 * np.clip(stop_ok, 0, 1) + 0.25 * np.clip(wlen_ok, 0, 1))
    return pd.Series(score, index=texts.index, name="quality")


def fingerprint_md5(texts: pd.Series) -> pd.Series:
    return texts.fillna("").map(
        lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())


_WINNOW_P = np.uint64(1000003)


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> np.ndarray:
    """MOSS-style winnowing fingerprints (Schleimer et al., SIGMOD'03):
    polynomial rolling hashes over byte k-grams (vectorized: k shifted
    multiply-adds with uint64 wraparound), then the min hash of every
    ``window`` consecutive k-grams, deduplicated. Guarantees any shared
    substring of length >= k + window - 1 yields a shared fingerprint."""
    data = text.encode("utf-8")
    if not data:
        return np.zeros(0, dtype=np.uint64)
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    n = len(b) - k + 1
    if n <= 0:
        h = np.zeros(1, dtype=np.uint64)
        for v in b:
            h = h * _WINNOW_P + v
        return h
    h = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        h = h * _WINNOW_P + b[j : j + n]
    w = min(window, n)
    mins = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
    return np.unique(mins)
