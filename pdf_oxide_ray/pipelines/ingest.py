"""Incremental (day-2) ingestion: extract ONLY a new transcript shard,
drop turns whose extracted text already exists in the corpus output, and
append the survivors as a fresh ``part_id=N`` partition with a manifest.

This is the continuous-ingestion story a 100 TB corpus actually runs:
yesterday's output is never re-extracted and never driver-materialized —
its content hashes stream through ONE bucketed anti-join exchange against
the new shard's hashes (the ``q_incremental_dedup`` shape over real
pipeline state instead of a synthetic snapshot). Only the NEW shard's
surviving (conv_id, turn_idx) id set is driver-held — bounded by the
ingest increment, not the corpus.

Dedup unit: the extracted turn text (collision-safe sha-256/128 content
hash, the ``dedup_exact`` convention). A turn whose text extraction
errored is NEVER dropped (status='error' rows carry no meaningful text).
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.dedup import content_hash
from ..ops.exchange import exchange_by_key
from ..state.manifest import write_manifest
from .flagship import extract_dataset, read_transcripts, tune_for_pipeline


def _existing_part_ids(out_dir: str) -> list[int]:
    out = []
    for p in glob.glob(os.path.join(out_dir, "part_id=*")):
        m = re.search(r"part_id=(\d+)$", p)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def run_incremental_ingest(new_input: str, out_dir: str, *,
                           want_markdown: bool = True,
                           keep_spans: bool = True) -> dict:
    """Extract ``new_input`` and append the non-duplicate turns to
    ``out_dir``. Returns a summary dict (rows seen / kept / dropped,
    the new part_id, wall seconds)."""
    import ray.data as rd

    tune_for_pipeline()
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    existing_ids = _existing_part_ids(out_dir)
    next_pid = (existing_ids[-1] + 1) if existing_ids else 0

    extracted = extract_dataset(
        read_transcripts(new_input), want_markdown=want_markdown,
        keep_spans=keep_spans).materialize()
    n_new = extracted.count()
    if n_new == 0:
        return {"part_id": None, "rows_seen": 0, "rows_kept": 0,
                "rows_dropped": 0, "wall_sec": time.perf_counter() - t0}

    def tag_new(b: pd.DataFrame) -> pd.DataFrame:
        h = content_hash(b["extracted_text"])
        # error rows are exempt from dedup: give them a unique key
        err = (b["status"] == "error").to_numpy(bool)
        key = np.where(
            err,
            "err:" + b["conv_id"].astype(str) + ":"
            + b["turn_idx"].astype(str),
            h.to_numpy(object))
        return pd.DataFrame({"h": key,
                             "conv_id": b["conv_id"].to_numpy(object),
                             "turn_idx": b["turn_idx"]
                             .to_numpy(np.int64),
                             "side": np.int64(1)})

    new_keys = extracted.select_columns(
        ["conv_id", "turn_idx", "extracted_text", "status"]) \
        .map_batches(tag_new, batch_format="pandas")

    sides = [new_keys]
    old_files: list[str] = []
    for i in existing_ids:
        old_files += sorted(glob.glob(
            os.path.join(out_dir, f"part_id={i}", "*.parquet")))
    if old_files:
        old = rd.read_parquet(old_files,
                              columns=["extracted_text", "status"])

        def tag_old(b: pd.DataFrame) -> pd.DataFrame:
            b = b[b["status"] != "error"]
            h = content_hash(b["extracted_text"]).unique()
            return pd.DataFrame({"h": pd.Series(h, dtype=object),
                                 "conv_id": "",
                                 "turn_idx": np.int64(-1),
                                 "side": np.int64(0)})

        sides.append(old.map_batches(tag_old, batch_format="pandas"))

    def survivors(g: pd.DataFrame) -> pd.DataFrame:
        """Per bucket: new rows whose hash is absent from the snapshot;
        within the new shard itself, first (conv_id, turn_idx) per hash
        wins (self-dedup of the increment)."""
        side = g["side"].to_numpy(np.int64)
        seen = set(g.loc[side == 0, "h"])
        new = g[side == 1].sort_values(["conv_id", "turn_idx"],
                                       kind="mergesort")
        new = new[~new["h"].isin(seen)].drop_duplicates("h", keep="first")
        return new[["conv_id", "turn_idx"]]

    keep = exchange_by_key(sides, ["h"], survivors).to_pandas()
    kept_ids = frozenset(zip(keep["conv_id"], keep["turn_idx"])) \
        if not keep.empty else frozenset()

    if not kept_ids:
        # everything deduplicated away: commit an empty partition so the
        # increment is still recorded in lineage
        pdir = os.path.join(out_dir, f"part_id={next_pid}")
        os.makedirs(pdir, exist_ok=True)
        wall = time.perf_counter() - t0
        write_manifest(out_dir, next_pid, inputs=[new_input], rows=0,
                       errors=0, n_chars=0, content_hash=0,
                       wall_sec=wall)
        return {"part_id": next_pid, "rows_seen": int(n_new),
                "rows_kept": 0, "rows_dropped": int(n_new),
                "wall_sec": round(wall, 3)}

    import ray

    ids_ref = ray.put(kept_ids)

    def keep_rows(t: pa.Table) -> pa.Table:
        from ..stages.joins import _get_broadcast

        ids = _get_broadcast(ids_ref)
        mask = [
            (c, i) in ids
            for c, i in zip(t.column("conv_id").to_pylist(),
                            t.column("turn_idx").to_pylist())]
        return t.filter(pa.array(mask))

    surviving = extracted.map_batches(keep_rows, batch_format="pyarrow")
    tmp_path = os.path.join(out_dir, f".part_id={next_pid}.tmp")
    part_path = os.path.join(out_dir, f"part_id={next_pid}")
    if os.path.isdir(tmp_path):
        shutil.rmtree(tmp_path)
    surviving.write_parquet(tmp_path)
    if os.path.isdir(part_path):
        shutil.rmtree(part_path)
    os.replace(tmp_path, part_path)

    stats = rd.read_parquet(part_path, columns=["status", "n_chars"]) \
        .map_batches(
            lambda b: pa.table({
                "rows": pa.array([b.num_rows], pa.int64()),
                "errors": pa.array(
                    [int(np.sum(np.asarray(b.column("status"))
                                == "error"))], pa.int64()),
                "n_chars": pa.array(
                    [int(np.sum(np.asarray(b.column("n_chars"))))],
                    pa.int64())}),
            batch_format="pyarrow") \
        .to_pandas().sum()
    wall = time.perf_counter() - t0
    write_manifest(out_dir, next_pid, inputs=[new_input],
                   rows=int(stats["rows"]), errors=int(stats["errors"]),
                   n_chars=int(stats["n_chars"]), content_hash=0,
                   wall_sec=wall)
    return {"part_id": next_pid, "rows_seen": int(n_new),
            "rows_kept": int(stats["rows"]),
            "rows_dropped": int(n_new) - int(stats["rows"]),
            "wall_sec": round(wall, 3)}
