"""Spans around calls into the program's layers, recorded from the outside.

A layer is traced by rebinding the name its caller looks up (a module
global, or a method on its class) to a wrapper that records a span: name,
start and end in ns, the parent span, and the turn it belongs to. Spans stay
in memory; self time is computed at the end. Nothing inside the package is
edited, and every rebinding is undone when tracing stops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # one (id, name, start_ns, end_ns, parent id, turn) per span, in the
        # order the spans end; ids count up in the order they start
        self.records: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.turn = -1
        self._stack: list[int] = []
        self._next_id = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call. ``on_result(tracer, args,
        result)`` runs after the span closes, to count what the call did."""
        stack, records, clock = self._stack, self.records, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._next_id
            self._next_id = idx + 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.append((idx, name, t0, t1,
                                stack[-1] if stack else -1, self.turn))
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        """``fn`` counting its calls under ``key``, without a span."""
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def patched(self, targets):
        """Rebind each ``(owner, attr, name, on_result)`` target to a traced
        wrapper (``name=None`` only counts calls under ``on_result``, a key)
        for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, extra in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr,
                        self.counter(extra, orig) if name is None
                        else self.wrap(name, orig, extra))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """The span records ordered by id, so a span's index is its id."""
        return sorted(self.records)

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """name -> (self ns summed over its spans, number of spans)."""
        spans = self.spans()
        own = self_times([s[2] for s in spans], [s[3] for s in spans],
                         [s[4] for s in spans])
        out: dict[str, tuple[int, int]] = {}
        for span, ns in zip(spans, own.tolist()):
            s, c = out.get(span[1], (0, 0))
            out[span[1]] = (s + ns, c + 1)
        return out

    def root_ns(self) -> int:
        return sum(end - start for _, _, start, end, parent, _ in self.records
                   if parent < 0)


def self_times(starts, ends, parents) -> np.ndarray:
    """Per span: its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once). ``parents[i]`` is
    the index of span i's parent, or -1 for a root."""
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    own = ends - starts
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = int(starts[p]), int(ends[p])
        covered = 0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(int(starts[k]), lo), min(int(ends[k]), hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        own[p] -= covered
    return own


# -- the extraction kernel's layers -------------------------------------------

KERNEL_ROOT = "payload.extract_payload"
KERNEL_LAYERS = [
    KERNEL_ROOT,
    "document.open",
    "document.pages",
    "document.load_fonts",
    "document.get_page_content_data",
    "decoders.decode_stream",
    "encryption.decrypt",
    "document.structure_tree",
    "interpret.extract_text_spans",
    "content.parse_content_stream",
    "spans_post.postprocess_spans",
    "assemble.assemble_text",
    "markdown.convert_page_from_spans",
    "payload.spans_to_records",
    "htmlstrip.strip_html",
    "cleanup",
]
PDF_LAYERS = KERNEL_LAYERS[1:14]


def _count_ops(tr: Tracer, args, result) -> None:
    tr.count("content.ops", len(result))


def _count_kept(tr: Tracer, args, result) -> None:
    tr.count("spans_post.in", len(args[0]))
    tr.count("spans_post.kept", len(result))


def _count_starts(tr: Tracer, args, result) -> None:
    tr.count("payload.records", len(result))
    tr.count("payload.start_found", sum(r["start"] >= 0 for r in result))


def kernel_targets() -> list[tuple]:
    """Each kernel layer, rebound where its caller looks it up."""
    from pdf_oxide_ray.core import (assemble, decoders, document, encryption,
                                    fonts, htmlstrip, interpret, markdown,
                                    payload)

    doc = document.PdfDocument
    targets = [
        (payload, "PdfDocument", "document.open", None),
        (doc, "pages", "document.pages", None),
        (doc, "load_fonts", "document.load_fonts", None),
        (doc, "get_page_content_data", "document.get_page_content_data",
         None),
        # module global for document's stream reads; the decoders attribute
        # for the xref-stream path, which imports it at call time
        (document, "decode_stream", "decoders.decode_stream", None),
        (decoders, "decode_stream", "decoders.decode_stream", None),
        (encryption.EncryptionHandler, "decrypt", "encryption.decrypt", None),
        (doc, "structure_tree", "document.structure_tree", None),
        (interpret.TextExtractor, "extract_text_spans",
         "interpret.extract_text_spans", None),
        (interpret, "parse_content_stream", "content.parse_content_stream",
         _count_ops),
        (document, "postprocess_spans", "spans_post.postprocess_spans",
         _count_kept),
        (payload, "assemble_text", "assemble.assemble_text", None),
        (payload, "convert_page_from_spans",
         "markdown.convert_page_from_spans", None),
        (payload, "spans_to_records", "payload.spans_to_records",
         _count_starts),
        (payload, "strip_html", "htmlstrip.strip_html", None),
        # every whitespace/artifact cleanup call site in the kernel
        (payload, "cleanup_plain_text", "cleanup", None),
        (payload, "remove_page_artifacts", "cleanup", None),
        (htmlstrip, "cleanup_plain_text", "cleanup", None),
        (htmlstrip, "cleanup_markdown", "cleanup", None),
        (assemble, "cleanup_plain_text", "cleanup", None),
        (markdown, "cleanup_markdown", "cleanup", None),
        # a parse here is a miss of the worker-global ToUnicode CMap cache
        (fonts, "parse_tounicode_cmap", None, "fonts.cmap_parses"),
    ]
    return targets
