"""Composed training-data preparation job: documents table -> a
training-ready, split-partitioned parquet corpus in ONE pipeline —
the end-to-end flow a user of the individual operators (quality
filter, decontamination, exact dedup, token counting, split
assignment) actually runs before tokenizer/LM training.

Stages (all streaming; shuffle budget below):

1. **Threshold pass** — corpus quality-P{p} threshold off the bounded
   score histogram (``queries._quality_threshold``: per-batch score
   value_counts, ONE skinny reduce; exact percentile_disc rule).
2. **Filter+feature pass** — per batch (one read of the text): quality
   score >= threshold, benchmark 8-gram decontamination (benchmark
   grams broadcast once via ``ray.put``; eval sets are small by
   definition), content hash, whitespace token count, md5-nibble split
   assignment (train/val/test, reorder-stable).
3. **Dedup exchange** — ONE ``exchange_by_key`` on the content hash
   keeps the min-doc_id row per hash. This is the pipeline's
   single all-to-all and it carries the payload ONCE (unlike the
   flagship's skinny-offsets doctrine, every downstream consumer here
   needs the full text anyway, so hash-partitioning the records is the
   minimal-traffic plan — the alternative is a skinny winners exchange
   PLUS a big-big re-join, i.e. two corpus-sized shuffles).
4. **Partitioned sink** — ``write_parquet(out_dir,
   partition_cols=["split"])``: one directory per split, loader-friendly,
   never one giant file. ``out_dir`` must not exist yet or be empty; the
   splits appear there all at once, when the write is complete
   (``state/manifest.replace_dir``).

The stage semantics are bit-identical to their standalone oracle-backed
queries (`quality_filter`, `decontaminate`, `dedup_exact`,
`token_counts`, `split_assign`) — the composition adds no new math.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def run_training_prep(input_path: str, out_dir: str, *,
                      quality_p: float | None = None,
                      benchmark_texts: list[str] | None = None) -> dict:
    """documents parquet (doc_id, text, source) -> split-partitioned
    training corpus. Returns a summary dict (counts per stage)."""
    import ray
    import ray.data as rd

    from .. import queries as Q
    from ..functions import dedup as fdedup
    from ..functions import textops as ftext
    from ..ops.exchange import exchange_by_key
    from ..state.manifest import replace_dir, require_empty

    require_empty(out_dir)
    p = Q._QUALITY_FILTER_P if quality_p is None else quality_p

    ds = rd.read_parquet(input_path, columns=["doc_id", "text", "source"])
    n_input = ds.count()
    if n_input == 0:
        return {"n_input": 0, "n_filtered": 0, "n_unique": 0,
                "per_split": {}, "quality_threshold": None,
                "out_dir": out_dir}

    thr = Q._quality_threshold(
        rd.read_parquet(input_path, columns=["doc_id", "text"]), p)

    token_re = fdedup._TOKEN_RE
    k = Q._DECONTAM_K

    def grams_of(text: str) -> set:
        toks = token_re.findall((text or "").lower())
        return {" ".join(toks[i: i + k])
                for i in range(len(toks) - k + 1)}

    bench: set = set()
    for t in benchmark_texts or []:
        bench |= grams_of(t)
    bench_ref = ray.put(frozenset(bench))

    from ..stages.joins import _get_broadcast

    def filter_and_feature(b: pd.DataFrame) -> pd.DataFrame:
        q = ftext.quality_score(b["text"]).to_numpy(np.float64)
        keep = q >= thr
        # benchmark set fetched through the per-worker broadcast cache
        # (one deserialize per worker, not per batch); the 8-gram scan
        # only runs on rows that already passed the quality cut
        bset = _get_broadcast(bench_ref)
        if bset and keep.any():
            idx = np.flatnonzero(keep)
            texts = b["text"].to_numpy(object)
            dirty = [i for i in idx
                     if not bset.isdisjoint(grams_of(texts[i]))]
            keep[dirty] = False
        b = b[keep]
        h = fdedup.content_hash(b["text"])
        split = ftext.nibble_split(b["doc_id"])
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "text": b["text"].to_numpy(object),
            "source": b["source"].to_numpy(object),
            "quality": q[keep],
            "n_tokens": ftext.token_count_ws(b["text"])
            .to_numpy(np.int64),
            "content_hash": h.to_numpy(object),
            "split": split})

    feat = ds.map_batches(filter_and_feature,
                          batch_format="pandas").materialize()
    n_filtered = feat.count()
    if n_filtered == 0:
        return {"n_input": int(n_input), "n_filtered": 0, "n_unique": 0,
                "per_split": {}, "quality_threshold": thr,
                "out_dir": out_dir}

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["content_hash", "doc_id"], kind="mergesort")
        first = np.r_[True, g["content_hash"].to_numpy(object)[1:]
                      != g["content_hash"].to_numpy(object)[:-1]]
        return g[first]

    unique = exchange_by_key(feat, ["content_hash"], dedup_bucket) \
        .materialize()
    n_unique = unique.count()
    replace_dir(out_dir, lambda tmp: unique.write_parquet(
        tmp, partition_cols=["split"]))

    per_split = unique.map_batches(
        lambda b: b.groupby("split", as_index=False)
        .agg(n=("doc_id", "size")), batch_format="pandas").to_pandas() \
        .groupby("split")["n"].sum().to_dict()
    return {"n_input": int(n_input), "n_filtered": int(n_filtered),
            "n_unique": int(n_unique),
            "per_split": {str(s): int(n) for s, n in per_split.items()},
            "quality_threshold": thr, "out_dir": out_dir}
