"""Property-based robustness: extract_payload must NEVER raise and must be
deterministic on arbitrary input (row-level error absorption — a poison
payload cannot fail a 10^12-row job; mirrors the reference's 100%-success
goal, README.md:21)."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.core.content import parse_content_stream
from pdf_oxide_ray.core.objects import MAX_NESTING
from pdf_oxide_ray.core.payload import detect_payload_kind, extract_payload

REQUIRED_KEYS = {"kind", "extracted_text", "markdown", "spans", "status",
                 "error"}


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=2000))
def test_never_raises_on_arbitrary_text(text):
    res = extract_payload(text)
    assert REQUIRED_KEYS <= set(res)
    assert res["status"] in ("ok", "error")
    assert isinstance(res["extracted_text"], str)
    assert isinstance(res["markdown"], str)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=2000))
def test_never_raises_on_binary_as_latin1(data):
    # arbitrary bytes arriving via the latin-1 string channel
    res = extract_payload(data.decode("latin-1"))
    assert res["status"] in ("ok", "error")


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=500))
def test_pdf_prefixed_garbage_is_absorbed(tail):
    res = extract_payload("%PDF-1.7\n" + tail)
    assert res["kind"] == "pdf"
    assert res["status"] in ("ok", "error")


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=800))
def test_html_prefixed_garbage_is_absorbed(tail):
    res = extract_payload("<html><body><div>" + tail)
    assert res["status"] in ("ok", "error")
    assert isinstance(res["extracted_text"], str)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=1000))
def test_deterministic(text):
    assert extract_payload(text) == extract_payload(text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_kind_detection_total(text):
    assert detect_payload_kind(text) in ("pdf", "html", "plain")


def test_tampered_v5_encryption_dicts_absorbed():
    """A V5/R6 doc with corrupted /U, /UE, or truncated entries must yield
    a status='error' (or ok-empty) row, never raise out of extract_payload."""
    import random

    from pdf_oxide_ray.core.payload import extract_payload
    from pdf_oxide_ray.gen.transcripts import make_pdf_payload

    v5 = None
    for seed in range(1200):
        p = make_pdf_payload(random.Random(seed))
        if "/AESV3" in p:
            v5 = p
            break
    assert v5 is not None
    tampered = [
        v5.replace("/UE <", "/XE <", 1),                  # drop /UE
        v5.replace("/U <", "/U <00", 1),                  # corrupt /U length
        v5.replace("/R 5", "/R 6").replace("/R 66", "/R 6"),  # wrong rev
        v5[: len(v5) // 2],                                # truncation
    ]
    for t in tampered:
        res = extract_payload(t)
        assert isinstance(res["status"], str)  # absorbed, never raised


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000),
       cut=st.floats(min_value=0.01, max_value=1.0),
       flips=st.lists(st.tuples(st.integers(0, 10**9),
                                st.integers(0, 255)), max_size=8))
def test_mutated_real_pdfs_absorbed(seed, cut, flips):
    """STRUCTURED mutation fuzzing: real generated PDF payloads,
    truncated at an arbitrary point and byte-flipped at arbitrary
    offsets — this drives the xref-reconstruction / resilient-parse
    recovery paths that random text never reaches. Must never raise,
    must stay deterministic (bit-identical result dict incl. spans)."""
    import random as _random

    from pdf_oxide_ray.gen.transcripts import make_pdf_payload

    payload = make_pdf_payload(_random.Random(seed))
    raw = bytearray(payload.encode("latin-1"))
    raw = raw[: max(1, int(len(raw) * cut))]
    for pos, val in flips:
        raw[pos % len(raw)] = val
    text = bytes(raw).decode("latin-1")
    r1 = extract_payload(text)
    r2 = extract_payload(text)
    assert set(r1) >= REQUIRED_KEYS
    assert r1["status"] in ("ok", "error")
    assert r1 == r2


# A content stream of stray delimiters: each failed operand used to be
# scanned again from every later byte (25 s for 8,000 '(' before the
# per-stream ParseMemo); each bound is over 10x below those old times.
@pytest.mark.parametrize("data,bound_s", [
    (b"(" * 8000, 2.0),
    (b"\\(" * 10_000, 2.0),
    (b"[(" * 8000, 2.0),
    (b"[" * 400 + b"(x) 1 " * 5000 + b"}", 1.0),
], ids=["open_parens", "escaped_parens", "array_strings", "nested_arrays"])
def test_stray_delimiter_floods_parse_in_linear_time(data, bound_s):
    t0 = time.perf_counter()
    assert parse_content_stream(data) == []
    assert time.perf_counter() - t0 < bound_s


def _one_page_pdf(content: bytes) -> str:
    objs = [b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>",
            b"<< /Length %d >>\nstream\n%s\nendstream" % (len(content),
                                                         content),
            b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"]
    out = b"%PDF-1.4\n"
    offsets = []
    for num, body in enumerate(objs, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n%s\nendobj\n" % (num, body)
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
    out += b"".join(b"%010d 00000 n \n" % off for off in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF" % (
        len(objs) + 1, xref)
    return out.decode("latin-1")


def test_page_ending_in_open_parens_extracts_fast():
    """6.9 s before the ParseMemo, for a 4 KB tail of '('."""
    pdf = _one_page_pdf(b"BT /F1 12 Tf 72 700 Td (Hello) Tj ET " + b"(" * 4000)
    t0 = time.perf_counter()
    res = extract_payload(pdf)
    assert time.perf_counter() - t0 < 1.0
    assert res["status"] == "ok"
    assert res["extracted_text"] == "Hello"


def test_nesting_cap_fails_only_the_deep_operand():
    """An operand nested ``MAX_NESTING`` deep parses; one level deeper
    fails alone, and the operators after it keep their operands."""
    def nested(n):
        return b"[" * n + b"1" + b"]" * n

    value = 1
    for _ in range(MAX_NESTING):
        value = [value]
    assert parse_content_stream(nested(MAX_NESTING) + b" Tj") == [
        ("Tj", [value])]
    assert parse_content_stream(nested(MAX_NESTING + 1) + b" (x) Tj") == [
        ("Tj", [b"x"])]


def test_page_ending_in_deep_nesting_keeps_its_text():
    """3,000 '[' after the text raised RecursionError out of the parser,
    and the whole page came back status=error without its text."""
    pdf = _one_page_pdf(b"BT /F1 12 Tf 72 700 Td (Hello) Tj ET " + b"[" * 3000)
    t0 = time.perf_counter()
    res = extract_payload(pdf)
    assert time.perf_counter() - t0 < 1.0
    assert res["status"] == "ok"
    assert res["extracted_text"] == "Hello"


# A run of digits and dots that fails as a number: each later start inside
# it used to be lexed and parsed again (1.26-1.4 s for 10,000 '1.', 0.55 s
# for 20,000 digits); each bound is over 10x below those old times. The
# values are what the byte-by-byte retry gave: the first suffix that parses.
@pytest.mark.parametrize("data,want", [
    (b"1." * 10_000 + b" Tj", [1.0]),
    (b"7" * 20_000 + b" Tj",
     [int("7" * min(20_000, sys.get_int_max_str_digits() or 20_000))]),
], ids=["dot_flood", "digit_run"])
def test_number_floods_parse_in_linear_time(data, want):
    t0 = time.perf_counter()
    assert parse_content_stream(data) == [("Tj", want)]
    assert time.perf_counter() - t0 < 0.05


def test_page_ending_in_number_flood_keeps_its_text():
    """1.36 s before the retry skipped to the first suffix that parses."""
    pdf = _one_page_pdf(b"BT /F1 12 Tf 72 700 Td (Hello) Tj ET " + b"1." * 10_000)
    t0 = time.perf_counter()
    res = extract_payload(pdf)
    assert time.perf_counter() - t0 < 0.1
    assert res["status"] == "ok"
    assert res["extracted_text"] == "Hello"
