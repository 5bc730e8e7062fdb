"""Ray Data extraction stage: the reference's per-document body as a
task-based ``map_batches`` over whole read blocks, cut into output tables
by payload bytes.

Reference parity: this stage computes, per row, exactly what
``PdfDocument::open`` + ``extract_text``/``to_markdown`` compute per file in
the reference's sequential CLI loop
(``/root/reference/src/bin/benchmark_all_pdfs.rs:41-230``); the loop over
files becomes the Dataset, the per-file body becomes ``__call__``.

Design (SURVEY.md §4):

* callable instance on Ray's task workers: static encoding tables /
  compiled regexes / the AGL subset are imported once per worker process
  (module import), mirroring the reference's per-document caches promoted to
  per-worker warm state (``document.rs:50``, ``text.rs:446-458``);
* ``batch_size=None``: each call gets one whole read block, so the read
  blocks stay the one unit of parallelism. The call yields one output
  table per ~``BATCH_BYTES`` of ``text`` payload, not per fixed row
  count: payloads range from one-sentence chat turns (~60 B) to
  multi-page PDFs, and a fixed 128-row batch cut a block of short turns
  into ~150 batches, each paying Ray Data's per-batch cost and each a
  chunk of every materialized column;
* ``batch_format="pyarrow"``: zero-copy in; output built via
  ``pa.Table.from_arrays`` (no pandas round-trip for the wide ``spans``
  list<struct> column);
* row-level try/except inside ``extract_payload``: a poison payload yields a
  ``status='error'`` row, never a task failure;
* per-row wall time emitted (``duration_us``) for the skew/metrics rollups.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# The extraction kernel allocates millions of short-lived objects per
# batch; CPython's default gen0 threshold (700) makes collection overhead
# (and its cross-core cache traffic) a measurable share of the hot loop.
# Raising the thresholds was measured ~15% faster at 32 procs on the
# multiprocessing calibration with no change in peak RSS; collection still
# runs every ~100k allocations so cyclic garbage stays bounded. Applied
# lazily in the WORKER process only (first batch), not at import time —
# a driver or test process importing this module keeps default GC.
_GC_TUNED = False


def _tune_worker_gc() -> None:
    global _GC_TUNED
    if not _GC_TUNED:
        gc.set_threshold(100_000, 50, 50)
        _GC_TUNED = True

from ..core.payload import extract_payload
from ..gen.transcripts import SPAN_TYPE

# Payload bytes per yielded table. On chat_hot (58 B turns), any budget
# from 64 KiB to 4 MiB gave the same job time on a 1-CPU host; at 1 MiB a
# table of production-mix turns (~1.75 KB mean) holds ~600 rows.
BATCH_BYTES = 1 << 20

EXTRACTED_FIELDS = [
    ("kind", pa.string()),
    ("extracted_text", pa.large_string()),
    ("markdown", pa.large_string()),
    ("spans", pa.list_(SPAN_TYPE)),
    ("n_spans", pa.int32()),
    ("n_chars", pa.int64()),
    ("status", pa.string()),
    ("error", pa.string()),
    ("duration_us", pa.int64()),
]


def byte_slices(text: pa.ChunkedArray | pa.Array) -> list[tuple[int, int]]:
    """``(start, stop)`` row ranges that cut ``text`` in order into runs of
    at most ``BATCH_BYTES`` payload bytes. A row is added to the current
    run unless that would pass the budget, so a row larger than the budget
    is a run by itself. Zero rows give one empty range."""
    nbytes = pc.binary_length(text).fill_null(0).to_numpy()
    cum = np.cumsum(nbytes, dtype=np.int64)
    out: list[tuple[int, int]] = []
    start, taken = 0, 0
    while start < len(cum):
        stop = int(np.searchsorted(cum, taken + BATCH_BYTES, side="right"))
        stop = max(stop, start + 1)
        out.append((start, stop))
        start, taken = stop, int(cum[stop - 1])
    return out or [(0, 0)]


class ExtractTurns:
    """Extract stage: transcripts block -> extracted tables, one per
    ``byte_slices`` run, in row order.

    Use as ``ds.map_batches(ExtractTurns(...), batch_format="pyarrow",
    batch_size=None, num_cpus=1)`` (``pipelines.flagship.extract_dataset``).
    """

    def __init__(self, want_markdown: bool = True, keep_spans: bool = True):
        # Import-time table construction is the per-actor warm state; the
        # imports in this module's header already materialized the AGL
        # subset, encoding tables and compiled cleanup regexes once.
        self.want_markdown = want_markdown
        self.keep_spans = keep_spans

    def __call__(self, block: pa.Table) -> Iterator[pa.Table]:
        _tune_worker_gc()
        for start, stop in byte_slices(block.column("text")):
            yield self._extract(block.slice(start, stop - start))

    def _extract(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        kinds: list[str] = []
        extracted: list[str] = []
        markdowns: list[str] = []
        spans: list[list[dict]] = []
        n_spans: list[int] = []
        n_chars: list[int] = []
        statuses: list[str] = []
        errors: list[str] = []
        durations: list[int] = []
        for text in texts:
            t0 = time.perf_counter_ns()
            res = extract_payload(text or "", want_markdown=self.want_markdown,
                                  keep_spans=self.keep_spans)
            durations.append((time.perf_counter_ns() - t0) // 1000)
            kinds.append(res["kind"])
            extracted.append(res["extracted_text"])
            markdowns.append(res["markdown"])
            spans.append(res["spans"])
            n_spans.append(res["n_spans"])
            n_chars.append(len(res["extracted_text"]))
            statuses.append(res["status"])
            errors.append(res["error"])

        cols: dict[str, pa.Array | pa.ChunkedArray] = {}
        for name in ("conv_id", "turn_idx", "role", "tool", "ts"):
            if name in batch.column_names:
                cols[name] = batch.column(name)
        cols["kind"] = pa.array(kinds, pa.string())
        cols["extracted_text"] = pa.array(extracted, pa.large_string())
        cols["markdown"] = pa.array(markdowns, pa.large_string())
        cols["spans"] = pa.array(spans, pa.list_(SPAN_TYPE))
        cols["n_spans"] = pa.array(n_spans, pa.int32())
        cols["n_chars"] = pa.array(n_chars, pa.int64())
        cols["status"] = pa.array(statuses, pa.string())
        cols["error"] = pa.array(errors, pa.string())
        cols["duration_us"] = pa.array(durations, pa.int64())
        return pa.table(cols)
