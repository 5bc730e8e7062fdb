"""Per-turn payload dispatcher: detect kind -> extract.

One turn's ``text`` payload is one of (FIXTURES.md §1):

* ``pdf``   — a PDF-style document (header ``%PDF``): full S1->R1 path via
  ``document.PdfDocument`` (parse, interpret, span post-process, assemble);
* ``html``  — boilerplate-laden HTML: Readability-style main-content strip;
* ``plain`` — passthrough + the reference's page-artifact cleanup
  (``/root/reference/src/converters/whitespace.rs:91-114,339-345``).

``extract_payload`` never raises: malformed payloads yield
``status='error'`` rows (mirrors the reference's 100%-success design goal,
``/root/reference/README.md:21`` — a poison payload must not fail a job).
"""

from __future__ import annotations

from .assemble import assemble_text
from .cleanup import cleanup_plain_text, remove_page_artifacts
from .document import PdfDocument
from .htmlstrip import looks_like_html, strip_html
from .interpret import TextSpan
from .markdown import convert_page_from_spans

PAYLOAD_PDF = "pdf"
PAYLOAD_HTML = "html"
PAYLOAD_PLAIN = "plain"


def detect_payload_kind(text: str) -> str:
    head = text.lstrip()[:16]
    if head.startswith("%PDF"):
        return PAYLOAD_PDF
    if looks_like_html(text):
        return PAYLOAD_HTML
    return PAYLOAD_PLAIN


def spans_to_records(spans: list[TextSpan],
                     page_text: str | None = None,
                     page_offset: int = 0) -> list[dict]:
    """TextSpan -> plain dicts matching the Arrow list<struct> span schema.

    When ``page_text`` is given, each span also carries ``start`` — the
    char offset of its text within the page's final extracted text (the
    north rule's "span offsets"). Spans appear in the assembled text in
    emission order, so a moving-cursor ``str.find`` recovers offsets in
    one linear pass; a span whose text the cleanup pass removed (page
    artifacts) gets -1.
    """
    cursor = 0
    out = []
    for s in spans:
        start = -1
        if page_text is not None and s.text:
            found = page_text.find(s.text, cursor)
            if found < 0:
                # structure-tree ordering (R2) can emit spans out of
                # geometric order — retry from the page start
                found = page_text.find(s.text)
            if found >= 0:
                start = page_offset + found
                if found >= cursor:
                    cursor = found + len(s.text)
        out.append({
            "text": s.text,
            "x": float(s.x), "y": float(s.y),
            "w": float(s.width), "h": float(s.height),
            "font": s.font_name, "size": float(s.font_size),
            "bold": bool(s.bold), "seq": int(s.sequence),
            "start": start,
        })
    return out


def extract_payload(text: str, want_markdown: bool = True,
                    keep_spans: bool = True) -> dict:
    """Extract one turn payload. Returns a dict with keys:
    ``kind, extracted_text, markdown, spans, n_spans, status, error``.
    With ``keep_spans=False`` no span records are built: ``spans`` is
    empty and ``n_spans`` still counts the spans."""
    kind = detect_payload_kind(text)
    try:
        if kind == PAYLOAD_PDF:
            # PDF payloads ride the string column as latin-1 text: a str of
            # U+0000-U+00FF maps 1:1 onto bytes, so binary sections
            # (RC4-encrypted streams, raw Flate) survive the utf-8 parquet
            # transport with byte offsets intact (utf-8 encode would shift
            # xref offsets). Chars above U+00FF can't come from a byte
            # stream; replace defensively.
            doc = PdfDocument(text.encode("latin-1", errors="replace"))
            pages = doc.pages()
            tree = doc.structure_tree()
            page_texts: list[str] = []
            page_mds: list[str] = []
            page_spans: list[list[TextSpan]] = []
            for i, page in enumerate(pages):
                spans = doc.extract_spans(page)
                page_spans.append(spans)
                if not spans:
                    page_texts.append("")
                elif tree is not None:
                    # Tagged PDF: structure-tree reading order (R2)
                    from .structure import (extract_text_structure_order,
                                            traverse_structure_tree)

                    ordered = traverse_structure_tree(tree, i)
                    page_texts.append(
                        extract_text_structure_order(spans, ordered))
                else:
                    page_texts.append(assemble_text(spans))
                if want_markdown:
                    page_mds.append(convert_page_from_spans(spans))
            # span offsets into the joined extracted text (north rule:
            # "per-turn extracted text and span offsets")
            all_spans: list[dict] = []
            if keep_spans:
                page_offset = 0
                sep = len("\n\n---\n\n")
                for ptext, spans in zip(page_texts, page_spans):
                    all_spans.extend(
                        spans_to_records(spans, page_text=ptext,
                                         page_offset=page_offset))
                    page_offset += len(ptext) + sep
            extracted = "\n\n---\n\n".join(page_texts)
            md = "\n---\n\n".join(page_mds) if want_markdown else ""
            return {"kind": kind, "extracted_text": extracted, "markdown": md,
                    "spans": all_spans,
                    "n_spans": sum(len(s) for s in page_spans),
                    "status": "ok", "error": ""}
        if kind == PAYLOAD_HTML:
            plain, md = strip_html(text)
            return {"kind": kind, "extracted_text": plain,
                    "markdown": md if want_markdown else "",
                    "spans": [], "n_spans": 0, "status": "ok", "error": ""}
        cleaned = cleanup_plain_text(remove_page_artifacts(text))
        return {"kind": kind, "extracted_text": cleaned,
                "markdown": cleaned if want_markdown else "",
                "spans": [], "n_spans": 0, "status": "ok", "error": ""}
    except Exception as exc:  # noqa: BLE001 - row-level error absorption
        return {"kind": kind, "extracted_text": "", "markdown": "",
                "spans": [], "n_spans": 0, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"[:500]}
