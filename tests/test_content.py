"""Content-stream parser tests (reference src/content/parser.rs semantics)."""

import pytest

from pdf_oxide_ray.core.content import parse_content_stream
from pdf_oxide_ray.core.objects import Ref


def test_basic_postfix():
    ops = parse_content_stream(b"BT /F1 12 Tf 100 700 Td (Hello) Tj ET")
    names = [o[0] for o in ops]
    assert names == ["BT", "Tf", "Td", "Tj", "ET"]
    assert ops[1][1] == ["F1", 12]
    assert ops[2][1] == [100, 700]
    assert ops[3][1] == [b"Hello"]


def test_tj_array():
    ops = parse_content_stream(b"[(A) -250 (B)] TJ")
    assert ops[0][0] == "TJ"
    assert ops[0][1] == [[b"A", -250, b"B"]]


def test_tstar_and_quotes():
    ops = parse_content_stream(b"T* (x) ' 1 2 (y) \"")
    assert [o[0] for o in ops] == ["T*", "'", '"']


def test_resilient_skip_on_garbage():
    ops = parse_content_stream(b"\x00\x01)]} BT (ok) Tj ET")
    names = [o[0] for o in ops]
    assert "Tj" in names


def test_inline_image():
    ops = parse_content_stream(b"BI /W 2 /H 2 ID \x00\x01\x02\x03 EI (t) Tj")
    assert ops[0][0] == "BI"
    assert ops[0][1][0] == {"W": 2, "H": 2}
    assert ops[1][0] == "Tj"


def test_boolean_operands_not_operators():
    ops = parse_content_stream(b"true false gs")
    assert ops[0] == ("gs", [True, False])


def test_marked_content_with_dict():
    ops = parse_content_stream(b"/Span << /MCID 5 >> BDC (x) Tj EMC")
    assert ops[0][0] == "BDC"
    assert ops[0][1][1] == {"MCID": 5}


def test_number_ends_where_an_operator_starts():
    assert parse_content_stream(b"/F1 12Tf") == [("Tf", ["F1", 12])]


def test_comments_inside_operand_arrays_and_dicts():
    assert parse_content_stream(b"[1 %c\n 2] TJ") == [("TJ", [[1, 2]])]
    # a ']' right after a comment fails the array; its bytes are skipped
    assert parse_content_stream(b"[1 %c\n] TJ") == [("TJ", [])]
    assert parse_content_stream(b"<< /A %c\n 1 >> BDC") == \
        [("BDC", [{"A": 1}])]


def test_keyword_tails():
    # 'null.' and 'true)' keep their operand and drop it at the stray byte
    assert parse_content_stream(b"null. true) Tj. 5 Td") == \
        [("Tj", []), ("Td", [5])]


def test_bad_numbers_are_skipped_byte_by_byte():
    assert parse_content_stream(b"+ -. 1.2.3 7 Td") == [("Td", [2.3, 7])]
    # inside an operand array, float()'s ValueError is not absorbed
    for data in (b"[.] TJ", b"[(a) 1.2.3] TJ"):
        with pytest.raises(ValueError, match="could not convert"):
            parse_content_stream(data)


def test_no_references_at_the_top_level():
    assert parse_content_stream(b"1 0 R 1 0R 1 0 Rx") == \
        [("R", [1, 0]), ("R", [1, 0]), ("Rx", [1, 0])]
    assert parse_content_stream(b"[1 0 R] TJ") == [("R", [1, 0]), ("TJ", [])]
    # nested arrays are objects, and objects read N G R
    assert parse_content_stream(b"[[1 0 R]] TJ") == [("TJ", [[[Ref(1, 0)]]])]


def test_unterminated_input():
    assert parse_content_stream(b"< 1 Td") == [("Td", [1])]
    # no EI: BI is dropped and parsing goes on after it
    assert parse_content_stream(b"BI /W 1 ID xx") == \
        [("ID", ["W", 1]), ("xx", [])]
    assert parse_content_stream(b"BI /W 1 ID xx EI Q") == \
        [("BI", [{"W": 1}, b"xx "]), ("Q", [])]


def test_stray_delimiter_between_operators():
    assert parse_content_stream(b"1 ) 2 ] 3 > 4 { 5 } 6 Td") == \
        [("Td", [6])]
