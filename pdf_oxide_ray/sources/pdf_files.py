"""File-based PDF source: a directory / glob / list of raw ``.pdf``
files -> Ray Dataset in the payload schema the extraction stage
consumes — the reference's PRIMARY input mode (its CLI and benchmark
bins walk a directory of PDF files: ``/root/reference/src/bin/
benchmark_all_pdfs.rs:84-120``; ``python.rs`` ``open(path)``), which the
parquet-first flagship did not cover as a source until now.

Design (Ray-Data-first):

* ``ray.data.read_binary_files(paths, include_paths=True)`` streams the
  file bytes as blocks — Ray parallelizes at file granularity with
  size-based block coalescing, so a directory of millions of PDFs scans
  without any driver-side listing loop beyond Ray's own path expansion.
* One ``map_batches`` projects each file into the transcript payload
  schema: ``text`` is the latin-1 decode of the bytes (the 1:1
  byte<->str transport the parquet corpus already rides so binary
  stream sections survive intact, ``core/payload.py:80-90``),
  ``conv_id`` is the file path, ``turn_idx`` 0. The decode is a
  per-FILE Python step (file granularity — the extraction kernel is
  per-payload anyway), not a per-row hot loop over records.
* ``extract_pdf_dir`` then reuses the SAME ``extract_dataset`` stage as
  the flagship — one kernel, two sources; output is the standard
  extracted schema (``write_parquet``-able, partition-resumable like
  the flagship job).

100 TB: no stage materializes the corpus; bytes flow file-block ->
decode -> extract with streaming backpressure, and the only wide step
is whatever the caller does downstream.
"""

from __future__ import annotations

import pyarrow as pa


def read_pdf_files(paths: str | list[str]):
    """Directory / glob / explicit list of PDF files -> Dataset with
    columns ``(conv_id, turn_idx, role, text)`` ready for
    ``extract_dataset``. ``conv_id`` carries the source path so
    downstream joins / manifests can trace rows back to files."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)

    def to_payload(batch: pa.Table) -> pa.Table:
        raw = batch.column("bytes").to_pylist()
        pth = batch.column("path").to_pylist()
        return pa.table({
            "conv_id": pa.array([str(p) for p in pth], pa.string()),
            "turn_idx": pa.array([0] * len(raw), pa.int64()),
            "role": pa.array(["document"] * len(raw), pa.string()),
            "text": pa.array([b.decode("latin-1") for b in raw],
                             pa.large_string()),
        })

    return ds.map_batches(to_payload, batch_format="pyarrow")


def extract_pdf_dir(paths: str | list[str], *, want_markdown: bool = True,
                    keep_spans: bool = True):
    """Raw PDF files -> extracted Dataset (lazy; consume with
    ``write_parquet`` / ``iter_batches``). Identical output schema to
    the flagship's extraction phase, so every downstream corpus query
    runs unchanged on file-sourced corpora."""
    from ..pipelines.flagship import extract_dataset

    ds = read_pdf_files(paths)
    return extract_dataset(ds, want_markdown=want_markdown,
                           keep_spans=keep_spans)
