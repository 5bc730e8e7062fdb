"""Interpreter tests: operators -> spans (reference text.rs I1-I5 +
tests/test_converters.rs mock patterns)."""

from pdf_oxide_ray.core.fonts import FontInfo
from pdf_oxide_ray.core.interpret import TextExtractor
from pdf_oxide_ray.core.spans_post import postprocess_spans


def extract(content: bytes, fonts: dict | None = None, post: bool = True,
            **kwargs):
    ex = TextExtractor(**kwargs)
    for name, fi in (fonts or {}).items():
        ex.add_font(name, fi)
    spans = ex.extract_text_spans(content)
    return postprocess_spans(spans) if post else spans


def test_simple_tj():
    spans = extract(b"BT /F1 12 Tf 1 0 0 1 72 720 Tm (Hello) Tj ET")
    assert len(spans) == 1
    assert spans[0].text == "Hello"
    assert spans[0].x == 72.0
    assert spans[0].y == 720.0
    assert spans[0].font_size == 12.0


def test_consecutive_tj_buffered_into_one_span():
    spans = extract(b"BT /F1 12 Tf 72 720 Td (Frag) Tj (ment) Tj ET")
    assert [s.text for s in spans] == ["Fragment"]


def test_td_flushes_buffer():
    spans = extract(b"BT /F1 12 Tf 72 720 Td (one) Tj 0 -20 Td (two) Tj ET")
    assert [s.text for s in spans] == ["one", "two"]
    assert spans[1].y == 700.0


def test_tj_array_space_threshold():
    # -250 < -120 threshold -> space span; -50 > -120 -> no space
    spans = extract(b"BT /F1 12 Tf 72 720 Td [(A) -250 (B)] TJ ET")
    assert [s.text for s in spans] == ["A B"]
    spans = extract(b"BT /F1 12 Tf 72 720 Td [(A) -50 (B)] TJ ET")
    assert len(spans) == 1
    assert "A" in spans[0].text and "B" in spans[0].text
    assert " " not in spans[0].text.replace("A B", "")


def test_custom_space_threshold():
    spans = extract(b"BT /F1 12 Tf 72 720 Td [(A) -100 (B)] TJ ET",
                    space_insertion_threshold=-80.0)
    assert [s.text for s in spans] == ["A B"]


def test_midword_whitespace_string_dropped():
    # [(var) ( ) (ious)] with buffer ending lowercase: space string skipped.
    # The repair probe requires a registered font (reference text.rs:2215-2230
    # yields an empty probe string without one — repair inactive then).
    fi = FontInfo(base_font="Helvetica",
                  encoding=("standard", "WinAnsiEncoding"))
    spans = extract(b"BT /F1 12 Tf 72 720 Td [(var) ( ) (ious)] TJ ET",
                    fonts={"F1": fi})
    assert [s.text for s in spans] == ["various"]
    # without a font the space string flows through (parity)
    spans = extract(b"BT /F1 12 Tf 72 720 Td [(var) ( ) (ious)] TJ ET")
    assert [s.text for s in spans] == ["var ious"]


def test_width_advance_default_font():
    # default glyph width 500/1000 * 12pt = 6pt per char
    spans = extract(b"BT /F1 12 Tf 72 720 Td (AB) Tj ET", post=False)
    assert spans[0].width == 12.0


def test_widths_and_char_spacing():
    fi = FontInfo(widths=[1000.0] * 96, first_char=32, default_width=500.0)
    spans = extract(b"BT /F1 10 Tf 2 Tc 72 720 Td (AB) Tj ET",
                    fonts={"F1": fi}, post=False)
    # (1000*10/1000 + 2) * 2 chars = 24
    assert spans[0].width == 24.0


def test_word_spacing_applies_to_space_only():
    spans = extract(b"BT /F1 10 Tf 4 Tw 72 720 Td (a b) Tj ET", post=False)
    # widths: 3 chars * 5pt + 4 (space) = 19
    assert spans[0].width == 19.0


def test_horizontal_scaling():
    spans = extract(b"BT /F1 10 Tf 50 Tz 72 720 Td (AA) Tj ET", post=False)
    assert spans[0].width == 5.0


def test_tm_scaling_effective_font_size():
    spans = extract(b"BT /F1 12 Tf 2 0 0 2 72 720 Tm (X) Tj ET", post=False)
    assert spans[0].font_size == 24.0


def test_q_restore_state():
    content = (b"BT /F1 12 Tf q /F1 24 Tf Q 72 720 Td (x) Tj ET")
    spans = extract(content, post=False)
    assert spans[0].font_size == 12.0


def test_bold_font_flag():
    fi = FontInfo(base_font="Helvetica-Bold")
    spans = extract(b"BT /F2 12 Tf 72 720 Td (B) Tj ET", fonts={"F2": fi})
    assert spans[0].bold


def test_mcid_tracking():
    content = b"/P << /MCID 7 >> BDC BT /F1 12 Tf 72 720 Td (x) Tj ET EMC"
    spans = extract(content, post=False)
    assert spans[0].mcid == 7


def test_malformed_operators_resilient():
    spans = extract(b"BT /F1 12 Tf 72 720 Td )]}garbage( (ok) Tj ET")
    assert any("ok" in s.text for s in spans)


def test_tstar_uses_leading():
    content = b"BT /F1 12 Tf 14 TL 72 720 Td (a) Tj T* (b) Tj ET"
    spans = extract(content, post=False)
    assert spans[1].y == 706.0


def test_tj_array_that_fails_midway_keeps_its_advance():
    # an integer too large for float() raises inside the array: the
    # operator is skipped from there, the spans it flushed stay, its
    # pending run is dropped, and the text matrix keeps every advance
    # made before it, so the next Tj starts where "B" ended
    big = b"1" + b"0" * 400
    cut = extract(b"BT /F1 10 Tf [(A) -500 (B) " + big + b" (C)] TJ (D) Tj ET",
                  post=False)
    whole = extract(b"BT /F1 10 Tf [(A) -500 (B)] TJ (D) Tj ET", post=False)
    assert [s.text for s in cut] == ["A", " ", "D"]
    assert [s.text for s in whole] == ["A", " ", "B", "D"]
    assert (cut[-1].x, cut[-1].y) == (whole[-1].x, whole[-1].y)
    assert cut[-1].x > whole[-2].x > 0
