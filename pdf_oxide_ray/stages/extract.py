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
  ``pa.Table`` (no pandas round-trip for the wide ``spans`` list<struct>
  column);
* two passes per output table. The plain-turn pass is columnar: one Arrow
  compute mask (``_unchanged_plain``) marks the turns that
  ``extract_payload`` provably returns unchanged as ``kind='plain'``, and
  their output columns are built from ``text`` in bulk. Every other row
  goes through ``extract_payload`` one at a time; its row-level
  try/except turns a poison payload into a ``status='error'`` row, never a
  task failure. The two parts are put back in row order;
* ``duration_us``: a per-row loop turn's own wall time; a marked turn's
  even integer share of the plain-turn pass (mask and column builds), so
  the column still sums to the stage's kernel time.
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

EXTRACTED_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("extracted_text", pa.large_string()),
    ("markdown", pa.large_string()),
    ("spans", pa.list_(SPAN_TYPE)),
    ("n_spans", pa.int32()),
    ("n_chars", pa.int64()),
    ("status", pa.string()),
    ("error", pa.string()),
    ("duration_us", pa.int64()),
])


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


# A turn that matches this regex may change under extraction:
#   "%PDF"         extract_payload's sniff may read it as a PDF;
#   "\n", "  "     a line break or space run the cleanup may touch; with
#                  no "\n", ``^``/``$`` under ``re.M`` match only at the
#                  ends of the text;
#   three "<"      ``looks_like_html`` may read it as HTML.
_MAY_CHANGE = "|".join(["%PDF", "\n", "  ", "<[^<]*<[^<]*<"])
# An ASCII letter that no page-artifact pattern of ``core/cleanup.py`` can
# match: not P, a, g or e (of "Page"), and no ASCII letter is in Python's
# Unicode ``\s`` or ``\d``. A text with one and no "\n" is no artifact line.
_NON_ARTIFACT_LETTER = "[b-dfh-zA-OQ-Z]"


def _unchanged_plain(text: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Bool mask of the rows whose ``extract_payload`` result is
    ``kind='plain'``, ``status='ok'`` and ``extracted_text == text``: no
    ``%PDF``, fewer than three ``<``, no newline, no two spaces in a row,
    and a letter of ``_NON_ARTIFACT_LETTER``. Then every no-op check of
    ``core/cleanup.py`` holds. A null row is never marked."""
    mask = pc.and_(
        pc.invert(pc.match_substring_regex(text, _MAY_CHANGE)),
        pc.match_substring_regex(text, _NON_ARTIFACT_LETTER))
    return np.asarray(mask.fill_null(False), dtype=bool)


def _strings(value: str, n: int, typ: pa.DataType) -> pa.Array:
    return pa.array([value] * n, typ)


def _shares(total: int, n: int) -> pa.Array:
    """``n`` integers within one of each other that sum to ``total``."""
    q, r = divmod(total, n)
    out = np.full(n, q, np.int64)
    out[:r] += 1
    return pa.array(out)


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
        text = batch.column("text")
        t0 = time.perf_counter_ns()
        plain = _unchanged_plain(text)
        marked, rest = np.flatnonzero(plain), np.flatnonzero(~plain)
        parts: list[pa.Table] = []
        if len(marked):
            parts.append(self._plain_part(
                text.take(marked) if len(rest) else text, t0))
        if len(rest) or not len(marked):
            parts.append(self._per_row_part(
                (text.take(rest) if len(marked) else text).to_pylist()))
        if len(parts) == 1:
            out = parts[0]
        else:
            # the parts hold rows [marked..., rest...]; put them in order
            order = np.empty(len(plain), np.int64)
            order[np.concatenate([marked, rest])] = np.arange(len(plain))
            out = pa.concat_tables(parts).take(order)
        cols = {name: batch.column(name)
                for name in ("conv_id", "turn_idx", "role", "tool", "ts")
                if name in batch.column_names}
        for name in out.column_names:
            cols[name] = out.column(name)
        return pa.table(cols)

    def _plain_part(self, text: pa.ChunkedArray, t0: int) -> pa.Table:
        """Output rows of turns that extraction returns unchanged; their
        ``duration_us`` shares the wall time since ``t0``."""
        n = len(text)
        text = text.cast(pa.large_string())
        cols = [
            _strings("plain", n, pa.string()),
            text,
            text if self.want_markdown else _strings("", n, pa.large_string()),
            pa.ListArray.from_arrays(pa.array(np.zeros(n + 1, np.int32)),
                                     pa.array([], SPAN_TYPE),
                                     type=pa.list_(SPAN_TYPE)),
            pa.array(np.zeros(n, np.int32)),
            pc.utf8_length(text),
            _strings("ok", n, pa.string()),
            _strings("", n, pa.string()),
        ]
        cols.append(_shares((time.perf_counter_ns() - t0) // 1000, n))
        return pa.table(cols, schema=EXTRACTED_SCHEMA)

    def _per_row_part(self, texts: list[str | None]) -> pa.Table:
        """Output rows of ``extract_payload`` called on each turn."""
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
        values = (kinds, extracted, markdowns, spans, n_spans, n_chars,
                  statuses, errors, durations)
        return pa.table([pa.array(v, f.type) for v, f in
                         zip(values, EXTRACTED_SCHEMA)],
                        schema=EXTRACTED_SCHEMA)
