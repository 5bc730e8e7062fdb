"""Object/lexer layer tests (mirrors reference src/object.rs:352-544 and
parser tests)."""

import re

import pytest

from pdf_oxide_ray.core.objects import (
    Name, ParseError, Ref, Stream, parse_object,
)


def parse(data: bytes):
    obj, _ = parse_object(data, 0)
    return obj


def test_numbers():
    assert parse(b"42") == 42
    assert parse(b"-17") == -17
    assert parse(b"3.14") == 3.14
    assert parse(b"-.5") == -0.5
    assert parse(b"+7") == 7


def test_literal_string_escapes():
    assert parse(rb"(hello)") == b"hello"
    assert parse(rb"(a\nb)") == b"a\nb"
    assert parse(rb"(a\tb)") == b"a\tb"
    assert parse(rb"(a\(b\))") == b"a(b)"
    assert parse(rb"(a\\b)") == b"a\\b"
    assert parse(rb"(\101\102\103)") == b"ABC"
    assert parse(rb"(\53)") == b"+"
    # balanced nested parens need no escape
    assert parse(b"(a(b)c)") == b"a(b)c"
    # line continuation
    assert parse(b"(a\\\nb)") == b"ab"
    # unknown escape -> literal char
    assert parse(rb"(a\qb)") == b"aqb"


def test_hex_string():
    assert parse(b"<48656C6C6F>") == b"Hello"
    assert parse(b"<48 65 6C>") == b"Hel"
    # odd digit padded with 0 (reference parser.rs:517)
    assert parse(b"<484>") == b"H@"


def test_name_with_escapes():
    assert parse(b"/Foo") == Name("Foo")
    assert parse(b"/A#20B") == Name("A B")
    assert parse(b"/Lime#20Green") == Name("Lime Green")


def test_array_and_dict():
    assert parse(b"[1 2 (x) /N]") == [1, 2, b"x", Name("N")]
    d = parse(b"<< /A 1 /B (two) /C [3] >>")
    assert d == {"A": 1, "B": b"two", "C": [3]}


def test_reference_vs_numbers():
    assert parse(b"12 0 R") == Ref(12, 0)
    # two plain ints are not a reference
    assert parse(b"12 0 obj") == 12
    arr = parse(b"[1 0 R 2]")
    assert arr == [Ref(1, 0), 2]


def test_keywords():
    assert parse(b"true") is True
    assert parse(b"false") is False
    assert parse(b"null") is None


def test_stream_with_length():
    s = parse(b"<< /Length 5 >>\nstream\nHello\nendstream")
    assert isinstance(s, Stream)
    assert s.data == b"Hello"
    assert s.dict == {"Length": 5}


def test_stream_without_length_scans_endstream():
    s = parse(b"<< /X 1 >>\nstream\nabcdef\nendstream")
    assert isinstance(s, Stream)
    assert s.data == b"abcdef"


def test_comments_skipped():
    assert parse(b"% a comment\n 42") == 42


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse(b")")


def test_ref_without_space_before_R():
    # malformed-but-accepted "1 0R" (broken writers omit the space);
    # the one-regex ref lookahead must keep the old skip_ws-may-be-empty
    # behavior
    assert parse(b"[1 0R]") == [Ref(1, 0)]
    assert parse(b"[1 0 R]") == [Ref(1, 0)]


def test_ref_lookahead_linear_on_whitespace_runs():
    # regression: a nested (?:ws+|comment)+ alternation backtracked
    # exponentially on an int followed by a long whitespace run that is
    # NOT a reference tail (12.8 s at 28 spaces); must be linear
    import time

    data = b"[5" + b" " * 2000 + b"/Name]"
    t0 = time.perf_counter()
    assert parse(data) == [5, Name("Name")]
    assert time.perf_counter() - t0 < 0.5


def test_ref_with_comment_separators():
    assert parse(b"[1 % c\n 0 % c\n R]") == [Ref(1, 0)]


def test_number_ends_where_a_keyword_starts():
    assert parse_object(b"12Tf", 0) == (12, 2)
    assert parse_object(b"-.5/N", 0) == (-0.5, 3)


def test_comments_inside_containers():
    assert parse_object(b"[1 %c\n 2 %c\n]", 0) == ([1, 2], 13)
    assert parse(b"<< /A %c\n 1 %c\n /B 2 >>") == {"A": 1, "B": 2}


def test_keyword_is_the_whole_regular_run():
    with pytest.raises(ParseError, match=r"^unexpected keyword b'null\.' at 0$"):
        parse(b"null.")
    assert parse_object(b"true)", 0) == (True, 4)
    with pytest.raises(ParseError, match=r"^unexpected keyword b'Tj\.' at 1$"):
        parse(b" Tj.")


def test_bad_numbers():
    with pytest.raises(ParseError, match="^bad number at 0$"):
        parse(b"+")
    # float() rejects these: a ValueError, not a ParseError
    for data in (b"-.", b"1.2.3"):
        with pytest.raises(ValueError, match="could not convert") as exc:
            parse(data)
        assert exc.type is ValueError


def test_reference_tails():
    assert parse_object(b"1 0R", 0) == (Ref(1, 0), 4)
    assert parse_object(b"1 0 R.", 0) == (1, 1)
    assert parse_object(b"1 0 Rx", 0) == (1, 1)
    # a comment in a gap may end anywhere on its line, and the farthest
    # generation that an R follows is taken
    assert parse_object(b"1 %x12 R", 0) == (Ref(1, 2), 8)
    assert parse_object(b"1 0 %R R", 0) == (Ref(1, 0), 8)


def test_ref_lookahead_linear_on_percent_runs():
    # the former backtracking lookahead tried every split of a run of '%'
    # into comments (2^k ways): 40 of them never finished
    import time

    t0 = time.perf_counter()
    assert parse(b"<< /A 1 " + b"%" * 40 + b"\n>>") == {"A": 1}
    assert time.perf_counter() - t0 < 0.5


def test_unterminated_input():
    for data, msg in [(b"<", "unterminated hex string"),
                      (b"(abc", "unterminated literal string"),
                      (b"[1 2", "unterminated array"),
                      (b"<< /A 1", "unterminated dict"),
                      (b"<< 1 2 >>", "dict key is not a name"),
                      (b"<< >>stream\nab", "unterminated stream"),
                      (b"", "eof")]:
        with pytest.raises(ParseError, match=f"^{re.escape(msg)}$"):
            parse(data)


def test_stray_delimiters():
    for b in b")]>{}":
        with pytest.raises(ParseError, match=f"^unexpected byte {b:#x} at 1$"):
            parse(b" " + bytes([b]))
