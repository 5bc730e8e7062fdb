"""Flagship pipeline (north rule): read transcripts, extract every turn,
annotate each turn with its conversation offsets, write or return the rows.

One plan serves both entry points (``_flagship_plan``):

``read_transcripts -> map_batches(ExtractTurns, one task per read block)
-> materialize() -> to_arrow_refs() -> offset_index.annotate_blocks``:
one task per block gathers ``(conv_id, turn_idx, n_chars, status)``, the
driver prefix-sums each conversation (``compute_offsets_table``), and one
task per block appends its slice -> ``rd.from_arrow_refs``.

``run_flagship_job`` writes the annotated rows to parquet (blocks under
``MIN_ROWS_PER_FILE`` rows share a file), committed through
``state/manifest.replace_dir``, and returns the phase timings;
``run_flagship`` returns them lazily, sorted by ``(conv_id, turn_idx)`` so
turns keep their in-conversation order.

The Ray-Data re-expression of the reference's EP3 batch loop
(``src/bin/benchmark_all_pdfs.rs:41-230``): directory walk ->
``read_parquet``; sequential per-file body -> task ``map_batches``;
JSON summary -> the job summary and partition manifests.

Scale notes:
* extraction is stateless per row on Ray's shared task pool; no shuffle.
  Each read block is one extract call (``batch_size=None``), so
  ``_plan_num_blocks`` is the one unit of parallelism; the call cuts its
  output by payload bytes (``stages.extract.BATCH_BYTES``), not by a row
  count, so short turns do not pay Ray Data's per-batch cost per few KB;
* the fat rows (text, markdown, spans) never cross an exchange: only the
  skinny (conv_id, turn_idx, n_chars, status) table reaches the driver,
  and each block's slice of the offsets goes back to the task that
  annotates that block;
* the driver holds the skinny table and the offsets. On a 1-CPU host
  ``compute_offsets_table`` took 0.3–0.4 s and +66 MB peak at 1M turns, and
  2.2–2.7 s and +185 MB at 5M turns. A corpus beyond driver memory needs a new
  distributed plan, which should come with a benchmark workload of that
  size (SCALE.md);
* resumability: ``run_extraction_partitioned`` shards the extract phase by
  input file groups; each shard commits ``part_id=N`` and then its
  manifest through the one commit protocol (``state/manifest.py``), and
  reruns skip complete shards.
"""

from __future__ import annotations

import glob
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.assembly import TURN_SEPARATOR
from ..stages.extract import ExtractTurns
from ..state import offset_index
from ..state.manifest import (commit_partition, read_manifests,
                              replace_dir, require_empty)

TARGET_BLOCK_BYTES = 64 * 1024 * 1024  # cap block size at scale
# The job writes blocks smaller than this together, into one file: each
# file pays its footer and starts its compression afresh (mix_full seed 1:
# two files of 1,200 turns took 1,079,700 B, one file 1,050,200 B)
MIN_ROWS_PER_FILE = 4096


def tune_for_pipeline() -> None:
    """Switch the session to the push-based sort shuffle. It is a
    session-wide ``DataContext`` write, so only the two jobs that run
    an exchange call it: ``run_flagship``'s lazy ``(conv_id, turn_idx)``
    sort and ``run_incremental_ingest``'s dedup groupby. The one
    measurement behind it (sf0.1, 32 cpus: ~50 s -> ~6 s self-time, the
    pull-based exchange drowning in per-object overhead at 256 blocks x
    256 partitions) was taken on a conv_id groupby exchange that the
    flagship no longer has; neither remaining exchange has been
    measured with and without it."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


def _plan_num_blocks(paths: list[str]) -> int:
    """Blocks ~ max(2-3x cores, input/64MB): enough waves to pipeline the
    extract tasks without flooding the shuffle with tiny blocks (measured:
    64-96 blocks optimal at 32 cpus / 132k turns; 192 blocks 2x slower)."""
    import ray

    total_cpus = int(ray.cluster_resources().get("CPU", 8)) if \
        ray.is_initialized() else 8
    try:
        input_bytes = sum(os.path.getsize(p) for p in paths)
    except OSError:
        input_bytes = 0
    return max(2 * total_cpus, input_bytes // TARGET_BLOCK_BYTES or 1)


def read_transcripts(path: str, columns: list[str] | None = None):
    """``path`` is a parquet/JSONL file, a directory, or a glob.

    Parquet is the production format (column pruning + row groups);
    JSONL (.jsonl/.json) is accepted as a convenience source for raw
    conversation dumps — projected down to ``columns`` right after the
    read since JSON cannot prune at the scan."""
    if os.path.isdir(path):
        paths = sorted(glob.glob(os.path.join(path, "*.parquet"))) or \
            sorted(glob.glob(os.path.join(path, "*.jsonl"))) or \
            sorted(glob.glob(os.path.join(path, "*.json")))
    elif any(ch in path for ch in "*?["):
        paths = sorted(glob.glob(path))
    else:
        paths = [path]
    json_paths = [p for p in paths if p.endswith((".jsonl", ".json"))]
    if json_paths and len(json_paths) != len(paths):
        raise ValueError(
            f"mixed parquet/JSONL inputs in one read: {paths[:4]}...; "
            "point at one format per source")
    if json_paths:
        ds = rd.read_json(paths,
                          override_num_blocks=_plan_num_blocks(paths))
        if columns:
            ds = ds.select_columns(columns)
        return ds.map_batches(_cast_transcript_types,
                              batch_format="pyarrow")
    return rd.read_parquet(paths, columns=columns,
                           override_num_blocks=_plan_num_blocks(paths))


def _cast_transcript_types(batch: pa.Table) -> pa.Table:
    """Align JSON-inferred dtypes with TRANSCRIPT_SCHEMA so the two source
    formats are interchangeable downstream (JSON infers int64 for turn_idx
    and cannot represent timestamp[us] natively — it arrives as an ISO
    string or epoch-microsecond int)."""
    from ..gen.transcripts import TRANSCRIPT_SCHEMA

    for name in batch.schema.names:
        idx = TRANSCRIPT_SCHEMA.get_field_index(name)
        if idx < 0:
            continue
        want = TRANSCRIPT_SCHEMA.field(idx).type
        col = batch.column(name)
        if col.type == want:
            continue
        if pa.types.is_timestamp(want) and pa.types.is_integer(col.type):
            cast = col.cast(pa.int64()).cast(want)
        else:
            cast = col.cast(want)
        batch = batch.set_column(batch.schema.get_field_index(name),
                                 name, cast)
    return batch


def extract_dataset(ds, *, want_markdown: bool = True,
                    keep_spans: bool = True):
    """transcripts Dataset -> extracted Dataset (zero-copy Arrow batches),
    one extract call per input block.

    TASK-based ``map_batches`` with a callable-instance UDF:
    the warm tokenizer/font-cache state lives in module-level per-worker
    caches (built on first import in each worker process, reused across
    every batch that worker runs), and Ray's shared task-worker pool gives
    perfect work-stealing over skewed payloads. Measured at sf0.1/32 cpus:
    tasks 9.7s vs actor pool 18s — the pool's fixed spawn cost plus
    per-actor dispatch (no stealing) dominates for a cheap-state stage.
    """
    return ds.map_batches(
        ExtractTurns(want_markdown=want_markdown, keep_spans=keep_spans),
        batch_format="pyarrow",
        batch_size=None,
        num_cpus=1,
    )


def _flagship_plan(input_path: str, want_markdown: bool, keep_spans: bool):
    """The one flagship plan: extract, then annotate every turn with its
    conversation offsets. Returns the refs of the annotated blocks and a
    summary of the first two phases:

    1. read -> extract (tasks) -> ``materialize()`` — the one checkpoint,
       whose blocks the step below reads by ref;
    2. ``offset_index.annotate_blocks``: one task per block gathers the
       skinny ``(conv_id, turn_idx, n_chars, status)`` columns, the driver
       counts the error rows and prefix-sums each conversation in turn
       order, and one task per block appends its slice of the result to
       that block — no exchange, no key lookup.

    The annotate tasks are running when this returns; the caller wraps
    the refs in ``rd.from_arrow_refs``, which waits for them.
    """
    t0 = time.perf_counter()
    extracted = extract_dataset(
        read_transcripts(input_path), want_markdown=want_markdown,
        keep_spans=keep_spans).materialize()
    rows = extracted.count()
    t_extract = time.perf_counter() - t0

    t1 = time.perf_counter()
    annotated, skinny = offset_index.annotate_blocks(
        extracted.to_arrow_refs(), len(TURN_SEPARATOR))
    # zero rows: None, like a Dataset.sum over no blocks
    errors = pc.sum(pc.equal(skinny.column("status"), "error")).as_py() \
        if rows else None
    t_offsets = time.perf_counter() - t1
    return annotated, {"rows": rows, "errors": errors,
                       "sec_extract": round(t_extract, 3),
                       "sec_offsets": round(t_offsets, 3)}


def run_flagship(input_path: str, *, want_markdown: bool = True,
                 keep_spans: bool = True):
    """Annotated per-turn Dataset sorted by ``(conv_id, turn_idx)``.
    Extraction, offsets and annotation run now; the sort stays lazy
    (consume with write_parquet/iter_batches)."""
    annotated, _ = _flagship_plan(input_path, want_markdown, keep_spans)
    tune_for_pipeline()
    return rd.from_arrow_refs(annotated).sort(["conv_id", "turn_idx"])


def run_flagship_job(input_path: str, out_dir: str, *,
                     want_markdown: bool = True,
                     keep_spans: bool = True) -> dict:
    """Production flagship: the annotated rows of ``run_flagship``, written
    to ``out_dir`` as parquet in block order. ``out_dir`` must not exist
    yet or be empty; the rows appear there all at once, when the write is
    complete (``state/manifest.replace_dir``). Returns a summary dict with
    the row and error counts and the seconds of each phase."""
    require_empty(out_dir)
    t0 = time.perf_counter()
    annotated, phases = _flagship_plan(input_path, want_markdown,
                                       keep_spans)
    t2 = time.perf_counter()
    replace_dir(out_dir, lambda tmp: rd.from_arrow_refs(annotated)
                .write_parquet(tmp, min_rows_per_file=MIN_ROWS_PER_FILE))
    t_write = time.perf_counter() - t2
    return {**phases, "out_dir": out_dir,
            "sec_annotate_write": round(t_write, 3),
            "sec_total": round(time.perf_counter() - t0, 3)}


# ---------------------------------------------------------------------------
# sharded, resumable extraction phase
# ---------------------------------------------------------------------------

def _conv_hash(conv_ids: list[str]) -> np.ndarray:
    return np.fromiter((zlib.crc32(c.encode()) for c in conv_ids),
                       dtype=np.uint32, count=len(conv_ids))


def _add_row_hash(batch: pa.Table) -> pa.Table:
    """Order-insensitive per-row content hash for manifest lineage."""
    texts = batch.column("extracted_text").to_pylist()
    convs = batch.column("conv_id").to_pylist()
    idxs = batch.column("turn_idx").to_pylist()
    hashes = [
        zlib.crc32(f"{c}\x00{i}\x00".encode() + (t or "").encode())
        for c, i, t in zip(convs, idxs, texts)
    ]
    return batch.append_column("row_hash", pa.array(hashes, pa.uint32()))


def plan_shards(input_path: str, num_shards: int) -> list[dict]:
    """Shard the input for resumable processing.

    With >= num_shards files, shards are FILE GROUPS (the 100 TB layout:
    lineage = the file list). With fewer files (local testing), shards are
    conv_id-hash slices of the whole input (lineage = the predicate).
    """
    if os.path.isdir(input_path):
        files = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    else:
        files = sorted(glob.glob(input_path)) or [input_path]
    if len(files) >= num_shards:
        chunks = [sorted(files[i::num_shards]) for i in range(num_shards)]
        return [{"part_id": i, "files": chunk, "mode": "files"}
                for i, chunk in enumerate(chunks) if chunk]
    return [{"part_id": i, "files": files, "mode": "conv_hash",
             "num_shards": num_shards} for i in range(num_shards)]


def run_extraction_partitioned(input_path: str, out_dir: str, *,
                               num_shards: int = 8,
                               want_markdown: bool = True,
                               keep_spans: bool = True) -> dict:
    """Resumable extract phase: per-shard parquet + manifest; skip complete
    shards on rerun. Returns summary with per-shard stats."""
    os.makedirs(out_dir, exist_ok=True)
    shards = plan_shards(input_path, num_shards)
    summary = {"shards": [], "skipped": 0, "rows": 0, "errors": 0}
    done = {m["part_id"] for m in read_manifests(out_dir)}
    for shard in shards:
        pid = shard["part_id"]
        if pid in done:
            summary["skipped"] += 1
            continue
        t0 = time.perf_counter()
        ds = rd.read_parquet(shard["files"])
        if shard["mode"] == "conv_hash":
            k, n = pid, shard["num_shards"]

            def _filter(batch: pa.Table, k=k, n=n) -> pa.Table:
                mask = _conv_hash(batch.column("conv_id").to_pylist()) % n == k
                return batch.filter(pa.array(mask))

            ds = ds.map_batches(_filter, batch_format="pyarrow")
        ds = extract_dataset(ds, want_markdown=want_markdown,
                             keep_spans=keep_spans)
        ds = ds.map_batches(_add_row_hash, batch_format="pyarrow")
        m = commit_partition(
            out_dir, pid, ds, t0=t0,
            inputs=shard["files"] if shard["mode"] == "files"
            else [f"{f}#conv_hash%{shard['num_shards']}=={pid}"
                  for f in shard["files"]])
        summary["shards"].append(m)
        summary["rows"] += m["rows"]
        summary["errors"] += m["errors"]
    return summary


def run_export(input_path: str, out_dir: str, fmt: str = "text", *,
               sink: str = "parquet") -> dict:
    """Per-format export job — the distributed analogue of the
    reference's export_to_{text,markdown,html} bins
    (``/root/reference/src/bin/export_to_*.rs``): extract, render the
    requested format per turn, write (conv_id, turn_idx, content)
    rows. HTML renders each turn's spans through the semantic
    converter (R6) inside the same batch pass. ``sink`` picks the
    output format: ``parquet`` (production — column-pruned reads) or
    ``jsonl`` (``Dataset.write_json`` — the interchange format LM
    training loaders commonly consume); both stream per block, never
    one giant file. ``out_dir`` must not exist yet or be empty; the rows
    appear there all at once, when the write is complete."""
    if fmt not in ("text", "markdown", "html"):
        raise ValueError(f"unknown export format {fmt!r}")
    if sink not in ("parquet", "jsonl"):
        raise ValueError(f"unknown sink {sink!r}")
    require_empty(out_dir)
    ds = read_transcripts(input_path)
    extracted = extract_dataset(ds, want_markdown=(fmt == "markdown"),
                                keep_spans=(fmt == "html"))

    def render(b: pa.Table) -> pa.Table:
        if fmt == "text":
            content = b.column("extracted_text")
        elif fmt == "markdown":
            content = b.column("markdown")
        else:
            from ..core.html_out import convert_page_semantic
            from ..core.interpret import TextSpan

            html = []
            for recs in b.column("spans").to_pylist():
                spans = [TextSpan(text=r["text"], x=r["x"], y=r["y"],
                                  width=r["w"], height=r["h"],
                                  font_name=r["font"], font_size=r["size"],
                                  bold=r["bold"], mcid=None,
                                  sequence=r["seq"])
                         for r in (recs or [])]
                html.append(convert_page_semantic(spans) if spans else "")
            content = pa.array(html, pa.large_string())
        return pa.table({
            "conv_id": b.column("conv_id"),
            "turn_idx": b.column("turn_idx"),
            "content": content,
            "status": b.column("status"),
        })

    out = extracted.map_batches(render, batch_format="pyarrow")
    replace_dir(out_dir, out.write_json if sink == "jsonl"
                else out.write_parquet)
    return {"out_dir": out_dir, "format": fmt, "sink": sink}
