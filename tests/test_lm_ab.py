"""The bigram LM of `functions/lm_ab.py`: the count pass against a
``collections.Counter`` over random blocks (both forms), the LM and
its scorer against a hand-rolled backoff model, the A/B result frame,
and a guard that keeps the count emission, the MLE lp6 formula, the
backoff lookup and the A/B rate in that one module."""

import math
import pathlib
import re
from collections import Counter

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.functions.lm_ab import (ab_frame, count_pass,
                                           lm_from_counts, score,
                                           score_sums, score_texts)

_WORDS = np.array(["a", "b", "cc", "d", "é"], dtype=object)
_GAPS = np.array([" ", "  ", "\t", "\n "], dtype=object)


def _texts(rng, n: int) -> list:
    """None, "", one-token and multi-token texts with mixed gaps."""
    out = []
    for _ in range(n):
        kind = rng.integers(0, 5)
        if kind == 0:
            out.append(None)
        elif kind == 1:
            out.append(rng.choice(["", " ", "\n"]))
        else:
            k = 1 if kind == 2 else int(rng.integers(2, 9))
            toks = rng.choice(_WORDS, k)
            gaps = rng.choice(_GAPS, k + 1)
            out.append("".join(g + t for g, t in zip(gaps, toks))
                       + gaps[-1])
    return out


@st.composite
def _count_case(draw):
    """Texts cut into 1-5 blocks at random rows (empty blocks included)
    and the count form."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    df = pd.DataFrame({"text": pd.Series(_texts(rng, n), dtype=object)})
    cuts = sorted(int(c) for c in rng.integers(0, n + 1,
                                                draw(st.integers(0, 4))))
    blocks = [df.iloc[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return df["text"].tolist(), blocks, draw(st.booleans())


def _counter(texts, unigrams: bool) -> Counter:
    c = Counter()
    for t in texts:
        toks = (t or "").split()
        c.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        if unigrams:
            c.update(toks)
    return c


@settings(max_examples=15, deadline=None)
@given(_count_case())
def test_count_pass_matches_a_counter(ray_session, case):
    import ray.data as rd

    texts, blocks, unigrams = case
    counts, n_docs = count_pass(rd.from_pandas(blocks), unigrams)
    assert n_docs == len(texts)
    assert list(counts.columns) == ["g", "n"]
    assert not counts["g"].duplicated().any()
    assert dict(zip(counts["g"], counts["n"].astype(int))) \
        == _counter(texts, unigrams)


def _q6(x: float) -> int:
    """Half-away rounding onto the 1e-6 grid, written out."""
    v = x * 1e6
    return int(math.copysign(math.floor(abs(v) + 0.5), v))


def _hand_lm(texts):
    """(bigram lut, unigram lut, unk) built by hand from Counters."""
    big, uni = Counter(), Counter()
    for t in texts:
        toks = (t or "").split()
        big.update(zip(toks, toks[1:]))
        uni.update(toks)
    left = Counter()
    for (a, _), n in big.items():
        left[a] += n
    bgl = {f"{a} {b}": _q6(np.log(n / left[a])) for (a, b), n in big.items()}
    denom = sum(uni.values()) + len(uni)
    if not denom:
        return bgl, {}, 0
    return (bgl, {w: _q6(np.log((c + 1) / denom)) for w, c in uni.items()},
            _q6(np.log(1 / denom)))


def _hand_score(toks, lm):
    bgl, unl, unk = lm
    nb = nbo = s = 0
    for i in range(len(toks) - 1):
        nb += 1
        key = toks[i] + " " + toks[i + 1]
        if key in bgl:
            s += bgl[key]
        else:
            nbo += 1
            s += unl[toks[i + 1]] if toks[i + 1] in unl else unk
    return nb, nbo, s


def _frame(c: Counter) -> pd.DataFrame:
    return pd.DataFrame({"g": pd.Series(list(c), dtype=object),
                         "n": np.array(list(c.values()), np.int64)})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_lm_and_scorer_match_a_hand_rolled_model(seed, unigrams):
    rng = np.random.default_rng(seed)
    train = _texts(rng, int(rng.integers(0, 12)))
    held = _texts(rng, int(rng.integers(0, 12)))
    lm = lm_from_counts(_frame(_counter(train, unigrams)))
    want_lm = _hand_lm(train) if unigrams else \
        (_hand_lm(train)[0], {}, 0)
    assert lm == want_lm
    want = [_hand_score((t or "").split(), want_lm) for t in held]
    got = score_texts(pd.Series(held, dtype=object), lm)
    assert got.dtype == np.int64 and got.shape == (len(held), 3)
    assert [tuple(r) for r in got.tolist()] == want
    assert score_sums(pd.Series(held, dtype=object), lm) == \
        [sum(w[0] > 0 for w in want)] + [sum(w[i] for w in want)
                                         for i in range(3)]


def test_scorer_backoff_cases():
    lm = lm_from_counts(_frame(_counter(["a b a c"], True)))
    bgl, unl, unk = lm
    # N = 4 tokens, V = 3 types: denom 7
    assert bgl == {"a b": _q6(math.log(1 / 2)), "b a": 0,
                   "a c": _q6(math.log(1 / 2))}
    assert unl == {"a": _q6(math.log(3 / 7)), "b": _q6(math.log(2 / 7)),
                   "c": _q6(math.log(2 / 7))}
    assert unk == _q6(math.log(1 / 7)) == -1945910
    # seen bigram, then unseen bigram with an unseen continuation
    assert score(["a", "b", "z"], lm) == (2, 1, bgl["a b"] + unk)
    # unseen bigram, seen continuation
    assert score(["c", "a"], lm) == (1, 1, unl["a"])
    # shorter than 2 tokens
    assert score(["a"], lm) == score([], lm) == (0, 0, 0)
    # bigram counts alone: denom 0, so unk is 0 and nothing to back off on
    bg_only = lm_from_counts(_frame(_counter(["a b a c"], False)))
    assert bg_only == (bgl, {}, 0)
    assert score(["c", "a", "b"], bg_only) == (2, 1, bgl["a b"])
    assert lm_from_counts(pd.DataFrame({"g": [], "n": []})) == ({}, {}, 0)


def test_ab_frame():
    out = ab_frame([("raw", 5, 4, 1, -6_000_000),
                    ("dedup", 3, 0, 0, 0)])
    assert list(out.columns) == ["variant", "n_train_docs", "n_bigrams",
                                 "backoff_rate", "mean_lp"]
    assert out["variant"].tolist() == ["dedup", "raw"]
    assert out["n_train_docs"].dtype == out["n_bigrams"].dtype == np.int64
    assert np.isnan(out.loc[0, "backoff_rate"])
    assert np.isnan(out.loc[0, "mean_lp"])
    assert out.loc[1, "backoff_rate"] == 0.25
    assert out.loc[1, "mean_lp"] == -1.5
    assert list(ab_frame([], "split", "n_docs").columns)[:2] == \
        ["split", "n_docs"]


_PKG = pathlib.Path(__file__).resolve().parent.parent / "pdf_oxide_ray"
_LM_ONLY = [
    (re.compile(r"\bunl\.get\("), "the unigram backoff lookup"),
    (re.compile(r"np\.log\([^()]*(\([^()]*\)[^()]*)*/\s*nl\b"
                r"|CAST\(nl AS DOUBLE\)"),
     "the MLE lp6 formula (a bigram count over its left-context total)"),
    (re.compile(r"""\[["'][bu]["']\]\s*\*\s*len\("""),
     "a hand-written (kind, g, n) count emission"),
    (re.compile(r"\bnbo\)?\s*/\s*nb\b"), "a hand-built A/B backoff rate"),
]


def test_bigram_lm_lives_only_in_lm_ab():
    home = _PKG / "functions" / "lm_ab.py"
    bad = []
    for path in sorted(_PKG.rglob("*.py")):
        if path == home:
            continue
        text = path.read_text()
        for pat, what in _LM_ONLY:
            for m in pat.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{path.relative_to(_PKG)}:{line} {what}")
    assert not bad, "use functions/lm_ab.py:\n" + "\n".join(bad)
