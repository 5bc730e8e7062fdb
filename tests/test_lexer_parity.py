"""The shared tokenizer against the two parsers it replaced.

``lexer_reference`` holds the object parser and the content-stream parser as
they were when each had its own lexer. On any byte string the new
``parse_object`` and ``parse_content_stream`` must give the same values (with
the same types) and end offsets, or raise the same exception class with the
same message. ``LEXER_PARITY_EXAMPLES`` sets the number of examples."""

import ast
import os
import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.core import content, objects
from pdf_oxide_ray.core.objects import DELIMITERS, WHITESPACE, Ref, Stream
from tests import lexer_reference as ref

_EXAMPLES = int(os.environ.get("LEXER_PARITY_EXAMPLES", "300"))
_CORE = pathlib.Path(objects.__file__).resolve().parent

# PDF tokens, their pieces and the bytes between them
ALPHABET = [
    b"(", b")", b"<", b">", b"[", b"]", b"{", b"}", b"/", b"%", b"#", b"\\",
    b"\\(", b"\\)", b"\\\\", b"\\n", b"\\12", b"\\0", b"\\377", b"\\7(",
    b"0", b"1", b"2", b"9", b"12", b"007", b"+", b"-", b".",
    b"\x00", b"\t", b"\n", b"\x0c", b"\r", b" ", b" ", b"\r\n",
    b"R", b"obj", b"stream", b"endstream", b"BI", b"ID", b"EI",
    b"true", b"false", b"null", b"'", b'"', b"*", b"T*", b"Tj", b"Tf",
    b"<<", b">>", b"/Length", b"/F1", b"a", b"x", b"#20", b"#4", b"@",
    b"\x80",
]


def _canon(v):
    """``v`` with the type of every part spelled out (``True == 1`` and
    ``Name("a") == "a"`` would hide a change)."""
    if isinstance(v, Stream):
        return ("Stream", _canon(v.dict), v.data)
    if isinstance(v, Ref):
        return ("Ref", v.num, v.gen)
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, tuple(_canon(x) for x in v))
    if isinstance(v, dict):
        return ("dict", tuple((type(k).__name__, k, _canon(x))
                              for k, x in v.items()))
    if isinstance(v, float):
        return ("float", repr(v))
    return (type(v).__name__, v)


def _outcome(fn, *args):
    try:
        return ("ok", _canon(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - class and message are the result
        return ("raise", type(exc).__name__, str(exc))


def _pdf_bytes(tokens):
    # nesting stays under 50; the reference's N G R lookahead backtracks
    # exponentially over the '%' bytes of one gap, so their count is capped
    # to keep the reference (not the code under test) fast
    assume(sum(t in (b"[", b"<", b"<<") for t in tokens) < 50)
    assume(tokens.count(b"%") < 12)
    return b"".join(tokens)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=120), st.data())
def test_parse_object_matches_reference(tokens, draw):
    data = _pdf_bytes(tokens)
    pos = draw.draw(st.integers(0, len(data)))
    assert _outcome(objects.parse_object, data, pos) == \
        _outcome(ref.parse_object, data, pos)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=120))
def test_parse_content_stream_matches_reference(tokens):
    data = _pdf_bytes(tokens)
    assert _outcome(content.parse_content_stream, data) == \
        _outcome(ref.parse_content_stream, data)


# runs of digits and dots that fail as numbers, some longer than Python's
# int digit limit: the content parser skips to the first suffix that parses
NUMBER_RUNS = [b"1." * 300, b"12..3.4" * 50 + b"5 6 Td", b"+" + b"3" * 5000,
               b"0" * 4301 + b"1 Tj", b"9" * 4500 + b".", b"." * 40 + b"1",
               b"-1.2.3" * 30 + b"..", b"4.4" + b"4" * 4400 + b" T*"]


@pytest.mark.parametrize("data", NUMBER_RUNS)
def test_number_runs_match_reference(data):
    assert _outcome(content.parse_content_stream, data) == \
        _outcome(ref.parse_content_stream, data)


def test_reference_cases_match():
    for data in [b"1 %x12 R", b"1 0 %R R", b"1 %a1\n%b2 R", b"1 %a1 R\n%bx",
                 b"[1 %c\n 0 %c\n R]", b"<</Length -3>>stream\nabcendstream",
                 b"<</Length -300>>stream\nabcendstream", b"[1 %c\n]",
                 b"[.] Tj", b"[1.2.3] TJ", b"/A#4", b"/#4 ", b"BI /W 1 ID\r\nxEI"]:
        assert _outcome(objects.parse_object, data, 0) == \
            _outcome(ref.parse_object, data, 0), data
        assert _outcome(content.parse_content_stream, data) == \
            _outcome(ref.parse_content_stream, data), data


def _escaped(text: bytes) -> set:
    """The bytes a regex character-class body stands for (escapes only)."""
    out = set()
    for m in re.finditer(rb"\\x([0-9a-fA-F]{2})|\\(.)|(.)", text, re.S):
        if m.group(1):
            out.add(int(m.group(1), 16))
        else:
            c = (m.group(2) or m.group(3))[0]
            out.add({0x74: 9, 0x6E: 10, 0x72: 13, 0x66: 12}.get(c, c)
                    if m.group(2) else c)
    return out


def _pdf_byte_sets(raw: bytes) -> bool:
    """Whether a bytes constant is a set of PDF whitespace or delimiter
    bytes, or holds a regex character class of them."""
    ws, delims = set(WHITESPACE), set(DELIMITERS)
    if (set(raw) <= ws and len(set(raw)) >= 3) or \
            (set(raw) <= delims and len(set(raw)) >= 5):
        return True
    return any(len(s & ws) >= 4 or len(s & delims) >= 5 for s in (
        _escaped(m.group(1))
        for m in re.finditer(rb"(?<!\\)\[\^?((?:\\.|[^\]\\])+)\]", raw)))


def test_one_lexer_in_core():
    """Only core/objects.py writes out the PDF whitespace and delimiter
    bytes: no other kernel module builds a byte set or a bytes regex from
    them (str patterns work on extracted text, not on PDF bytes)."""
    bad = []
    for path in sorted(_CORE.glob("*.py")):
        if path.name == "objects.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, bytes) and \
                    _pdf_byte_sets(node.value):
                bad.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not bad, "PDF byte classes outside objects.py:\n" + "\n".join(bad)
