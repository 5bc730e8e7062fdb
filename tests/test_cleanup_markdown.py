"""Cleanup (R5) + markdown (R3/L6) tests, mirroring reference
whitespace.rs:347-455 and heading_detector.rs:197-315 test cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.core.cleanup import (
    ARTIFACT_PATTERNS, ARTIFACT_SUBS, RE_BRACKET_PAGE, RE_DASH_PAGE, RE_DASH_SEP, RE_EQUALS_SEP,
    RE_MULTI_NEWLINE, RE_MULTI_SPACE, RE_PAGE_NUM, RE_STANDALONE_NUM,
    cleanup_markdown, cleanup_plain_text, normalize_horizontal_whitespace,
    normalize_whitespace, remove_page_artifacts,
)
from pdf_oxide_ray.core.markdown import (
    H1, H2, H3, SMALL, BODY, classify_block, convert_page_from_spans,
    format_links, clean_reference_spacing, should_insert_bold_marker,
)
from tests.test_spans_assemble import mock_word


def test_normalize_whitespace():
    assert normalize_whitespace("a\n\n\n\n\n\nb") == "a\n\n\nb"
    assert normalize_whitespace("a\n\nb") == "a\n\nb"


def test_remove_page_artifacts():
    text = "Content\nPage 3\n- 4 -\n[5]\n(6)\n17\n-----\n=====\nMore"
    out = remove_page_artifacts(text)
    for artifact in ("Page 3", "- 4 -", "[5]", "(6)", "-----", "====="):
        assert artifact not in out
    assert "Content" in out and "More" in out
    # 4-digit numbers survive (only 1-3 digits are page numbers)
    assert "1234" in remove_page_artifacts("1234")


def test_horizontal_whitespace_preserves_indent():
    assert normalize_horizontal_whitespace("The  quick    fox") == "The quick fox"
    assert normalize_horizontal_whitespace("   lead  in") == "   lead in"


def test_cleanup_plain_text():
    assert cleanup_plain_text("a  b\n\n\n\n\nc  d") == "a b\n\n\nc d"


def test_cleanup_markdown_removes_artifacts_and_blanks():
    out = cleanup_markdown("x\n\n\n\n\nPage 1\n\n\n\n\ny")
    assert "Page 1" not in out
    assert "\n\n\n\n" not in out


# The R5 passes without their no-op checks: each always runs its subs.

def _ref_normalize_whitespace(text: str) -> str:
    return RE_MULTI_NEWLINE.sub("\n\n\n", text)


def _ref_remove_page_artifacts(text: str) -> str:
    text = RE_PAGE_NUM.sub("", text)
    text = RE_DASH_PAGE.sub("", text)
    text = RE_BRACKET_PAGE.sub("", text)
    text = RE_STANDALONE_NUM.sub("", text)
    text = RE_DASH_SEP.sub("", text)
    text = RE_EQUALS_SEP.sub("", text)
    return text


def _ref_normalize_horizontal_whitespace(text: str) -> str:
    out: list[str] = []
    for line in text.split("\n"):
        stripped = line.lstrip(" ")
        lead = len(line) - len(stripped)
        out.append(" " * lead + RE_MULTI_SPACE.sub(" ", stripped))
    if text.endswith("\n") and out and out[-1] == "":
        out.pop()
    return "\n".join(out)


# heavy in what the artifact patterns and the no-op checks look at: line
# breaks re.M and str.split see differently, unicode \s and \d, brackets
_CLEANUP_ALPHABET = [" ", "\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85",
                     "\u2028", "\u3000", *"0123456789", "\u0663", "-", "=",
                     "[", "]", "(", ")", "Page", "x"]
_cleanup_texts = st.lists(st.sampled_from(_CLEANUP_ALPHABET),
                          max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(text=_cleanup_texts)
def test_cleanup_no_op_checks_are_exact(text):
    assert remove_page_artifacts(text) == _ref_remove_page_artifacts(text)
    assert normalize_horizontal_whitespace(text) == \
        _ref_normalize_horizontal_whitespace(text)
    assert normalize_whitespace(text) == _ref_normalize_whitespace(text)
    assert cleanup_plain_text(text) == _ref_normalize_whitespace(
        _ref_normalize_horizontal_whitespace(text))
    assert cleanup_markdown(text) == _ref_normalize_whitespace(
        _ref_remove_page_artifacts(text))


# the characters of the artifact patterns, with a Unicode digit and space
_ARTIFACT_ALPHABET = [*" \n\t\r-=[]()0123456789", "Page", "\u0663", "\u3000"]


@settings(max_examples=2000, deadline=None)
@given(text=st.lists(st.sampled_from(_ARTIFACT_ALPHABET),
                     max_size=30).map("".join))
def test_linear_artifact_subs_equal_the_reference_patterns(text):
    for pattern, (linear, repl) in zip(ARTIFACT_PATTERNS, ARTIFACT_SUBS):
        assert linear.sub(repl, text) == pattern.sub("", text), pattern


def test_heading_rules():
    assert classify_block(24.0, True) == H1
    assert classify_block(18.0, True) == H2
    assert classify_block(16.0, True) == H2
    assert classify_block(14.0, True) == H3
    assert classify_block(14.0, False) == BODY
    assert classify_block(8.0, False) == SMALL
    assert classify_block(12.0, False) == BODY
    assert classify_block(24.0, False) == BODY  # big but not bold


def test_markdown_heading_rendering():
    spans = [mock_word("Title", 72, 730, size=24, bold=True),
             mock_word("Body text here", 72, 700, size=12)]
    md = convert_page_from_spans(spans)
    # reference renders the heading prefix AND the bold wrap (markdown.rs
    # render_line: prefix then bold-run grouping)
    assert md.startswith("# **Title**\n")
    assert "Body text here" in md


def test_markdown_bold_run():
    spans = [mock_word("normal ", 72, 700, width=40),
             mock_word("bold", 115, 700, bold=True, width=25),
             mock_word(" after", 142, 700, width=30)]
    md = convert_page_from_spans(spans)
    assert "**bold**" in md


def test_markdown_no_midword_bold_markers():
    spans = [mock_word("gr", 72, 700, width=10),
             mock_word("I", 82, 700, bold=True, width=5),
             mock_word("d", 87, 700, width=5)]
    md = convert_page_from_spans(spans)
    assert "**" not in md  # would split the word


def test_format_links():
    assert format_links("see https://example.com/x now") == \
        "see [https://example.com/x](https://example.com/x) now"
    assert format_links("mail a@b.co here") == "mail [a@b.co](mailto:a@b.co) here"


def test_clean_reference_spacing():
    assert clean_reference_spacing("21, 23 –25") == "21, 23–25"
    assert clean_reference_spacing("21– 25") == "21–25"
    # both-sides spacing is NOT collapsed: neither reference pattern matches
    # "d – d" (markdown.rs:814-821 comment notwithstanding) — parity kept
    assert clean_reference_spacing("21 – 25") == "21 – 25"


def test_bold_marker_guards():
    assert should_insert_bold_marker(" ", "t")
    assert not should_insert_bold_marker("r", "I")
    assert not should_insert_bold_marker(")", "=")
    assert should_insert_bold_marker(None, "x")
