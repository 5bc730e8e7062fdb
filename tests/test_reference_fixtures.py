"""Hand-pinned expectations ported from the REFERENCE's own test suite —
independent of this engine's outputs (de-circularizing golden parity).

Every expected value below was transcribed by hand from:
* /root/reference/tests/fixtures/simple.pdf (content-less one-page doc)
* /root/reference/tests/test_python.py:16-120 (Python API expectations)
* /root/reference/src/extractors/text.rs:2660-2830 (mock-span unit tests)
* /root/reference/src/converters/whitespace.rs:330-455 (exact-string
  cleanup expectations, including the doc example at :330-338)

None of these strings were generated by calling this repo's extractors.
"""

import os

import pytest

from pdf_oxide_ray.core.charmode import CharExtractor
from pdf_oxide_ray.core.cleanup import (cleanup_markdown, cleanup_plain_text,
                                        normalize_whitespace,
                                        remove_page_artifacts)
from pdf_oxide_ray.core.document import PdfDocument
from pdf_oxide_ray.core.fonts import FontInfo
from pdf_oxide_ray.core.interpret import (DEFAULT_SPACE_INSERTION_THRESHOLD,
                                          TextExtractor)
from pdf_oxide_ray.core.payload import extract_payload
from pdf_oxide_ray.core.spans_post import _should_insert_space_heuristic


def _build_pdf(objs: dict[int, bytes], header: bytes = b"%PDF-1.4\n") -> bytes:
    """Assemble a well-formed PDF (same layout idea as the reference's
    tests/fixtures/simple.pdf: sequential objects + xref + trailer)."""
    out = bytearray(header)
    offsets = {}
    for num, body in objs.items():
        offsets[num] = len(out)
        out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    size = max(objs) + 1
    out += f"xref\n0 {size}\n0000000000 65535 f \n".encode()
    for num in range(1, size):
        out += f"{offsets[num]:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {size} /Root 1 0 R >>\nstartxref\n"
            f"{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def _contentless_pdf() -> bytes:
    """Twin of the reference's simple.pdf: catalog -> pages -> one page
    with a MediaBox and NO /Contents."""
    return _build_pdf({
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>",
    })


def _hello_world_pdf() -> bytes:
    """Twin of the reference's hello_world.pdf expectation
    (test_python.py:72-81: extract_text must contain 'hello')."""
    content = b"BT /F1 12 Tf 72 720 Td (Hello World) Tj ET"
    return _build_pdf({
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>"),
        4: (f"<< /Length {len(content)} >>\nstream\n".encode()
            + content + b"\nendstream"),
        5: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    })


# ---------------------------------------------------------------------------
# tests/test_python.py API expectations
# ---------------------------------------------------------------------------

def test_simple_pdf_opens_one_empty_page():
    # test_python.py:47-55 (page_count >= 1) pinned exactly for the
    # fixture: exactly one page, and a content-less page extracts to ""
    doc = PdfDocument(_contentless_pdf())
    pages = doc.pages()
    assert len(pages) == 1
    assert doc.extract_text(pages[0]) == ""


def test_simple_pdf_payload_roundtrip_empty():
    res = extract_payload(_contentless_pdf().decode("latin-1"))
    assert res["status"] == "ok"
    assert res["extracted_text"] == ""


def test_hello_world_contains_hello():
    # test_python.py:72-81: case-insensitive 'hello' in the page text
    doc = PdfDocument(_hello_world_pdf())
    text = doc.extract_text(doc.pages()[0])
    assert "hello" in text.lower()
    # pinned exactly: a single Tj with no artifacts is the literal string
    assert text == "Hello World"


def test_hello_world_payload_exact():
    res = extract_payload(_hello_world_pdf().decode("latin-1"))
    assert res["status"] == "ok"
    assert res["extracted_text"] == "Hello World"


# ---------------------------------------------------------------------------
# src/extractors/text.rs mock-stream unit expectations (char mode = the
# reference's TextChar-level tests; span mode for the TJ threshold)
# ---------------------------------------------------------------------------

def _char_extractor() -> CharExtractor:
    ex = CharExtractor()
    # create_test_font (text.rs:2673-2688): Times-Roman, WinAnsi
    ex.add_font("F1", FontInfo(base_font="Times-Roman",
                               encoding=("standard", "WinAnsiEncoding")))
    return ex


def test_extract_simple_text_chars():
    # text.rs test_extract_simple_text: 5 chars H e l l o
    chars = _char_extractor().extract_chars(
        b"BT /F1 12 Tf 100 700 Td (Hello) Tj ET")
    assert [c.char for c in chars] == ["H", "e", "l", "l", "o"]


def test_extract_with_matrix_position():
    # text.rs test_extract_with_matrix: x within [99, 101] at Tm 100 700
    chars = _char_extractor().extract_chars(
        b"BT /F1 12 Tf 1 0 0 1 100 700 Tm (Hi) Tj ET")
    assert [c.char for c in chars] == ["H", "i"]
    assert 99.0 <= chars[0].x <= 101.0
    assert chars[0].y == 700.0


def test_extract_with_tj_array_chars():
    # text.rs test_extract_with_tj_array
    chars = _char_extractor().extract_chars(
        b"BT /F1 12 Tf 0 0 Td [(H)(i)] TJ ET")
    assert [c.char for c in chars] == ["H", "i"]


def test_extract_no_font_identity_mapping():
    # text.rs test_extract_no_font: extracts via identity mapping
    chars = CharExtractor().extract_chars(b"BT /F1 12 Tf (ABC) Tj ET")
    assert [c.char for c in chars] == ["A", "B", "C"]


def test_space_threshold_default_value():
    # text.rs test_space_threshold_default (:2800-2808)
    assert DEFAULT_SPACE_INSERTION_THRESHOLD == -120.0


def test_tj_offset_beyond_threshold_inserts_space():
    # 9.4.4 semantics pinned by the reference's -120 threshold: an offset
    # of -300 (thousandths of em) splits words; -50 does not
    ex = TextExtractor()
    spans = ex.extract_text_spans(
        b"BT /F1 12 Tf 72 720 Td [(A) -300 (B)] TJ ET")
    assert "".join(s.text for s in spans) == "A B"
    ex2 = TextExtractor()
    spans2 = ex2.extract_text_spans(
        b"BT /F1 12 Tf 72 720 Td [(A) -50 (B)] TJ ET")
    assert "".join(s.text for s in spans2) == "AB"


def test_should_insert_space_heuristic_reference_cases():
    # text.rs:2640-2665 (doc comment + match arms)
    assert _should_insert_space_heuristic("then", "The") is True
    assert _should_insert_space_heuristic("HTML", "Parser") is False
    assert _should_insert_space_heuristic("Figure1", "next") is True  # 1->n
    assert _should_insert_space_heuristic("page", "3") is True
    assert _should_insert_space_heuristic("foo", "bar") is False


# ---------------------------------------------------------------------------
# src/converters/whitespace.rs exact-string expectations
# ---------------------------------------------------------------------------

def test_cleanup_plain_text_doc_example():
    # whitespace.rs:330-338 (rustdoc example, exact)
    assert cleanup_plain_text("The  quick  brown  fox\n\n\n\n\njumps  over") \
        == "The quick brown fox\n\n\njumps over"


def test_normalize_whitespace_reduces_excessive_blanks():
    # whitespace.rs:351-357
    out = normalize_whitespace("Line 1\n\n\n\n\n\n\n\nLine 2")
    assert out == "Line 1\n\n\nLine 2"
    assert "\n\n\n\n" not in out


def test_normalize_whitespace_preserves_single_and_double_blanks():
    # whitespace.rs:359-364
    assert normalize_whitespace("A\nB\n\nC\n\n\nD") == "A\nB\n\nC\n\n\nD"


def test_normalize_whitespace_no_blanks_identity():
    # whitespace.rs:366-371
    s = "Line 1\nLine 2\nLine 3"
    assert normalize_whitespace(s) == s


def test_remove_page_artifacts_page_numbers():
    # whitespace.rs:373-383
    out = remove_page_artifacts(
        "Content\n\nPage 1\n\nMore content\n\nPage 2\n\nEnd")
    assert "Content" in out and "More content" in out and "End" in out
    assert "Page 1" not in out and "Page 2" not in out


def test_remove_page_artifacts_dash_style():
    # whitespace.rs:385-391
    out = remove_page_artifacts(
        "Content\n\n- 1 -\n\nMore content\n\n- 2 -\n\nEnd")
    assert "- 1 -" not in out and "- 2 -" not in out


def test_remove_page_artifacts_bracket_style():
    # whitespace.rs:393-399
    out = remove_page_artifacts("Content\n\n[1]\n\nMore\n\n(2)\n\nEnd")
    assert "[1]" not in out and "(2)" not in out


def test_remove_page_artifacts_standalone_numbers():
    # whitespace.rs:401-409
    out = remove_page_artifacts("Content\n\n1\n\nMore\n\n42\n\nEnd")
    assert "\n1\n" not in out and "\n42\n" not in out


def test_remove_page_artifacts_preserves_inline_numbers():
    # whitespace.rs:411-417 (exact identity)
    s = "There are 42 items in the list."
    assert remove_page_artifacts(s) == s


def test_remove_page_artifacts_separators():
    # whitespace.rs:419-425
    out = remove_page_artifacts(
        "Section 1\n\n-----------\n\nSection 2\n\n===========\n\nEnd")
    assert "-----------" not in out and "===========" not in out


def test_cleanup_markdown_full_pipeline():
    # whitespace.rs:427-443
    out = cleanup_markdown("Content\n\n\n\n\n\nPage 1\n\n\n\n\n\n"
                           "More content\n\n-----------\n\n\n\n\nEnd")
    assert "Page 1" not in out
    assert "-----------" not in out
    assert "\n\n\n\n" not in out
    assert "Content" in out and "More content" in out and "End" in out


def test_cleanup_markdown_empty_string():
    # whitespace.rs:445-448
    assert cleanup_markdown("") == ""


def test_cleanup_markdown_no_changes_needed():
    # whitespace.rs:450-455 (exact identity)
    s = "Line 1\n\nLine 2\n\nLine 3"
    assert cleanup_markdown(s) == s


# ---------------------------------------------------------------------------
# tests/test_converters.rs mock-char expectations (markdown + HTML)
# ---------------------------------------------------------------------------

def _mock_char(c, x, y, size=12.0, bold=False):
    from pdf_oxide_ray.core.charmode import TextChar

    return TextChar(char=c, x=x, y=y, width=8.0, height=size,
                    font_name="Times", font_size=size, bold=bold, mcid=None)


def _mock_word(text, x, y, size=12.0, bold=False):
    return [_mock_char(c, x + i * 7.0, y, size, bold)
            for i, c in enumerate(text)]


def test_markdown_simple_document_chars():
    # test_converters.rs:52-67: both words present, no headings when off
    from pdf_oxide_ray.core.markdown import convert_page_chars

    chars = _mock_word("Hello", 0.0, 0.0) + _mock_word("World", 50.0, 0.0)
    out = convert_page_chars(chars, detect_headings_opt=False)
    assert "Hello" in out and "World" in out
    assert "#" not in out


def test_markdown_reading_order_top_to_bottom_chars():
    # test_converters.rs:115-136 (PDF y grows upward: Top has max y)
    from pdf_oxide_ray.core.markdown import convert_page_chars

    chars = (_mock_word("Bottom", 0.0, 100.0) + _mock_word("Top", 0.0, 700.0)
             + _mock_word("Middle", 0.0, 400.0))
    out = convert_page_chars(chars, detect_headings_opt=False)
    assert out.index("Top") < out.index("Middle") < out.index("Bottom")


def test_html_semantic_simple_paragraph():
    # test_converters.rs:167-178: a plain word renders as <p>Hello</p>
    from pdf_oxide_ray.core.html_out import convert_page_semantic
    from pdf_oxide_ray.core.interpret import TextSpan

    span = TextSpan(text="Hello", x=72, y=400, width=40, height=12,
                    font_name="Times", font_size=12.0, bold=False,
                    mcid=None, sequence=0)
    out = convert_page_semantic([span])
    assert "<p>Hello</p>" in out


def test_html_semantic_escapes_specials():
    # test_converters.rs:202-220
    from pdf_oxide_ray.core.html_out import convert_page_semantic
    from pdf_oxide_ray.core.interpret import TextSpan

    span = TextSpan(text="<>&", x=0, y=0, width=21, height=12,
                    font_name="Times", font_size=12.0, bold=False,
                    mcid=None, sequence=0)
    out = convert_page_semantic([span])
    assert "&lt;" in out and "&gt;" in out and "&amp;" in out


def test_html_layout_absolute_positions():
    # test_converters.rs:226-241: layout mode emits absolute positioning
    # with the span's geometry and font size in px
    from pdf_oxide_ray.core.html_out import convert_page_layout
    from pdf_oxide_ray.core.interpret import TextSpan

    span = TextSpan(text="Test", x=100.0, y=200.0, width=28, height=14,
                    font_name="Times", font_size=14.0, bold=False,
                    mcid=None, sequence=0)
    out = convert_page_layout([span])
    assert "<style>" in out
    assert "position: absolute" in out
    assert "left: 100px" in out
    assert "font-size: 14px" in out
    assert "Test" in out


# ---------------------------------------------------------------------------
# tests/test_decoders.rs — the reference's own decoder integration vectors
# ---------------------------------------------------------------------------

def test_ref_decoders_hex_vectors():
    # test_decoders.rs:41-52
    from pdf_oxide_ray.core.decoders import ascii_hex_decode

    assert ascii_hex_decode(b"48656C6C6F20576F726C64") == b"Hello World"
    assert ascii_hex_decode(b"54657374") == b"Test"
    assert ascii_hex_decode(b"414243444546") == b"ABCDEF"


def test_ref_decoders_a85_vectors():
    # test_decoders.rs:56-66: the 'z' zero-group shortcut and "<+U,m"
    from pdf_oxide_ray.core.decoders import ascii85_decode

    assert ascii85_decode(b"z") == b"\x00\x00\x00\x00"
    assert ascii85_decode(b"<+U,m") == b"Test"


def test_ref_decoders_runlength_vectors():
    # test_decoders.rs:83-95: literal run and 257-n repeat run
    from pdf_oxide_ray.core.decoders import run_length_decode

    assert run_length_decode(bytes([2]) + b"ABC") == b"ABC"
    assert run_length_decode(bytes([250]) + b"X") == b"XXXXXXX"


def test_ref_decoders_dct_passthrough():
    # test_decoders.rs:98-105: DCT payload passes through untouched
    from pdf_oxide_ray.core.decoders import decode_stream

    jpeg = b"\xFF\xD8\xFF\xE0\x00\x10JFIF\x00\x01"
    assert decode_stream(jpeg, ["DCTDecode"]) == jpeg


def test_ref_decoders_pipelines():
    # test_decoders.rs:108-135, 243-267: single, hex->flate, and the
    # 3-filter hex->flate->LZW chain; empty filters = identity
    import zlib

    from pdf_oxide_ray.core.decoders import decode_stream
    from tests.test_decoders import _lzw_encode

    assert decode_stream(b"48656C6C6F", ["ASCIIHexDecode"]) == b"Hello"

    original = b"Hello, World!"
    hexed = zlib.compress(original).hex().upper().encode()
    assert decode_stream(hexed, ["ASCIIHexDecode", "FlateDecode"]) \
        == original

    original = b"Complex!"
    chained = zlib.compress(_lzw_encode(original)).hex().upper().encode()
    assert decode_stream(
        chained, ["ASCIIHexDecode", "FlateDecode", "LZWDecode"]) == original

    assert decode_stream(b"No compression here!", []) \
        == b"No compression here!"


def test_ref_decoders_unsupported_filter_errors():
    # test_decoders.rs:138-144
    import pytest as _pytest

    from pdf_oxide_ray.core.decoders import DecodeError, decode_stream

    with _pytest.raises(DecodeError):
        decode_stream(b"test", ["NonExistentFilter"])


# ---------------------------------------------------------------------------
# tests/test_foundation.rs — behavioral parity on the reference's OWN
# fixture file (tests/fixtures/simple.pdf), not a reconstruction
# ---------------------------------------------------------------------------

_REAL_SIMPLE_PDF = "/root/reference/tests/fixtures/simple.pdf"


def _real_simple_doc() -> PdfDocument:
    with open(_REAL_SIMPLE_PDF, "rb") as f:
        return PdfDocument(f.read())


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_foundation_version():
    # test_foundation.rs:17-23: version() == (1, 4)
    assert _real_simple_doc().version == (1, 4)


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_foundation_page_count():
    # test_foundation.rs:25-30
    assert len(_real_simple_doc().pages()) == 1


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_foundation_catalog():
    # test_foundation.rs:32-47: /Type /Catalog with a /Pages reference
    from pdf_oxide_ray.core.objects import Ref

    cat = _real_simple_doc().catalog()
    assert str(cat["Type"]) == "Catalog"
    assert isinstance(cat["Pages"], Ref)


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_foundation_object_graph():
    # test_foundation.rs:49-93: objects 1-3 types, /Count, /MediaBox
    doc = _real_simple_doc()
    obj2 = doc.load_object(2)
    assert str(obj2["Type"]) == "Pages"
    assert obj2["Count"] == 1
    obj3 = doc.load_object(3)
    assert str(obj3["Type"]) == "Page"
    assert "MediaBox" in obj3


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_foundation_object_caching():
    # test_foundation.rs:96+: the second load returns the cached object
    doc = _real_simple_doc()
    a = doc.load_object(1)
    b = doc.load_object(1)
    assert a is b


@pytest.mark.skipif(not os.path.exists(_REAL_SIMPLE_PDF),
                    reason="reference fixture not present")
def test_ref_simple_pdf_extracts_empty():
    # the fixture page has no /Contents: extraction yields "" with ok
    res = extract_payload(
        open(_REAL_SIMPLE_PDF, "rb").read().decode("latin-1"))
    assert res["status"] == "ok"
    assert res["extracted_text"] == ""
