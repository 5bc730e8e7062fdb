"""PDF object model + tokenizer + recursive-descent parser.

Re-implements (from public PDF 32000-1:2008 semantics) the computation of the
reference's lexer/object-parser pair:

* reference lexer: ``/root/reference/src/lexer.rs:34-468`` (numbers, literal
  ``(...)`` strings with escapes, hex ``<...>`` strings, names with ``#xx``
  escapes, keywords, delimiters)
* reference object parser: ``/root/reference/src/parser.rs:48-560``
  (recursive descent over tokens -> Object; literal-string escape decoding,
  hex decoding)

The object model maps the reference's ``Object`` enum
(``/root/reference/src/object.rs:8-35``) onto Python natives:

=============  ======================================
reference      here
=============  ======================================
Null           ``None``
Boolean        ``bool``
Integer        ``int``
Real           ``float``
String         ``bytes``
Name           ``Name`` (str subclass)
Array          ``list``
Dictionary     ``dict`` (str keys, no leading ``/``)
Stream         ``Stream(dict, data: bytes)``
Reference      ``Ref(num, gen)``
=============  ======================================

All parsing operates on ``bytes`` (PDF is a byte-oriented format; payload
strings are encoded utf-8 before parsing).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

WHITESPACE = b"\x00\t\n\x0c\r "
DELIMITERS = b"()<>[]{}/%"

# C-backed scanners for the hot paths (semantics identical to the byte
# loops they replace; measured ~30% of extraction time was lexing)
_WS_RE = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\r\n]*)+")
_REGULAR_RE = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]*")
_NUM_RE = re.compile(rb"[+-]?[0-9.]*")
# one-shot "ws+ gen ws* R" lookahead for indirect references: replaces a
# skip_ws + parse_number + skip_ws chain that re-parsed the NEXT array
# element for every integer (doubling number parsing in /Widths-style
# int arrays). Comments are legal whitespace here; 'R' must end a token.
# The alternation branches are single-char ws OR a comment (no inner +):
# a nested (?:ws+|...)+ backtracks exponentially on a long whitespace
# run that is NOT followed by 'gen R' (measured 12.8 s at 28 spaces).
# The gen->R separator is * not +, matching the old skip_ws-may-be-empty
# behavior so malformed-but-accepted refs like "1 0R" still parse.
_REF_TAIL_RE = re.compile(
    rb"(?:[\x00\t\n\x0c\r ]|%[^\r\n]*)+([0-9]+)"
    rb"(?:[\x00\t\n\x0c\r ]|%[^\r\n]*)*R"
    rb"(?=[\x00\t\n\x0c\r ()<>\[\]{}/%]|\Z)")
_LIT_SPECIAL_RE = re.compile(rb"[()\\]")
_REGULAR_TABLE = [b not in WHITESPACE and b not in DELIMITERS
                  for b in range(256)]


class Name(str):
    """A PDF name (``/Foo``); stored without the leading slash."""

    __slots__ = ()


class Ref(NamedTuple):
    """Indirect object reference (``N G R``); mirrors ``ObjectRef``
    (``/root/reference/src/object.rs:38-44``)."""

    num: int
    gen: int


@dataclass
class Stream:
    """A PDF stream object: dict + raw (still-encoded) data."""

    dict: dict
    data: bytes


class ParseError(ValueError):
    pass


def _is_regular(b: int) -> bool:
    return _REGULAR_TABLE[b]


def skip_ws(data: bytes, pos: int) -> int:
    """Skip whitespace and ``%`` comments (to end of line). Fast path for
    the overwhelmingly common SINGLE-whitespace separator (space or a
    lone newline) avoids the regex."""
    n = len(data)
    if pos < n and data[pos] in WHITESPACE:
        nxt = pos + 1
        if nxt >= n or (data[nxt] not in WHITESPACE and data[nxt] != 0x25):
            return nxt
    m = _WS_RE.match(data, pos)
    return m.end() if m else pos


def parse_literal_string(data: bytes, pos: int) -> tuple[bytes, int]:
    """Parse ``(...)`` literal string with escapes and balanced parens.

    Escape semantics follow the reference's ``decode_literal_string_escapes``
    (``/root/reference/src/parser.rs:169``): ``\\n \\r \\t \\b \\f \\( \\) \\\\``,
    1-3 digit octal, backslash-newline line continuation, unknown escape ->
    literal char.
    """
    assert data[pos] == 0x28  # '('
    pos += 1
    out = bytearray()
    depth = 1
    n = len(data)
    while pos < n:
        # bulk-copy up to the next special byte ( ) or backslash
        m = _LIT_SPECIAL_RE.search(data, pos)
        if m is None:
            break
        if m.start() > pos:
            out += data[pos:m.start()]
            pos = m.start()
        b = data[pos]
        if b == 0x5C:  # backslash
            pos += 1
            if pos >= n:
                break
            e = data[pos]
            if e == 0x6E:  # n
                out.append(0x0A)
                pos += 1
            elif e == 0x72:  # r
                out.append(0x0D)
                pos += 1
            elif e == 0x74:  # t
                out.append(0x09)
                pos += 1
            elif e == 0x62:  # b
                out.append(0x08)
                pos += 1
            elif e == 0x66:  # f
                out.append(0x0C)
                pos += 1
            elif e in (0x28, 0x29, 0x5C):  # ( ) \
                out.append(e)
                pos += 1
            elif 0x30 <= e <= 0x37:  # octal, 1-3 digits
                val = 0
                cnt = 0
                while pos < n and cnt < 3 and 0x30 <= data[pos] <= 0x37:
                    val = val * 8 + (data[pos] - 0x30)
                    pos += 1
                    cnt += 1
                out.append(val & 0xFF)
            elif e in (0x0A, 0x0D):  # line continuation
                pos += 1
                if e == 0x0D and pos < n and data[pos] == 0x0A:
                    pos += 1
            else:  # unknown escape -> literal
                out.append(e)
                pos += 1
        elif b == 0x28:  # '('
            depth += 1
            out.append(b)
            pos += 1
        elif b == 0x29:  # ')'
            depth -= 1
            if depth == 0:
                return bytes(out), pos + 1
            out.append(b)
            pos += 1
        else:
            out.append(b)
            pos += 1
    raise ParseError("unterminated literal string")


def parse_hex_string(data: bytes, pos: int) -> tuple[bytes, int]:
    """Parse ``<...>`` hex string; odd final digit is padded with 0
    (reference ``decode_hex``, ``/root/reference/src/parser.rs:517``)."""
    assert data[pos] == 0x3C  # '<'
    end = data.find(b">", pos + 1)
    if end < 0:
        raise ParseError("unterminated hex string")
    digits = data[pos + 1 : end].translate(None, WHITESPACE)
    if len(digits) % 2 == 1:
        digits += b"0"
    try:
        return bytes.fromhex(digits.decode("ascii")), end + 1
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad hex string: {exc}") from exc


_NAME_CACHE: dict[bytes, "Name"] = {}


def parse_name(data: bytes, pos: int) -> tuple[Name, int]:
    """Parse ``/Name`` with ``#xx`` escapes (reference lexer name rules,
    ``/root/reference/src/lexer.rs``). Escape-free names are interned in
    a bounded module cache — PDF name vocabulary (/Type /Page /Font ...)
    is tiny and highly repetitive."""
    assert data[pos] == 0x2F  # '/'
    pos += 1
    m = _REGULAR_RE.match(data, pos)
    end = m.end()
    tok = data[pos:end]
    if b"#" not in tok:  # fast path: no escapes
        nm = _NAME_CACHE.get(tok)
        if nm is None:
            nm = Name(tok.decode("latin-1"))
            if len(_NAME_CACHE) < 4096:
                _NAME_CACHE[tok] = nm
        return nm, end
    out = bytearray()
    n = len(data)
    while pos < end:
        b = data[pos]
        if b == 0x23 and pos + 2 < n:  # '#'
            try:
                out.append(int(data[pos + 1 : pos + 3].decode("ascii"), 16))
                pos += 3
                continue
            except ValueError:
                pass
        out.append(b)
        pos += 1
    return Name(out.decode("latin-1")), end


_NUM_CHARS = b"0123456789+-."


def parse_number(data: bytes, pos: int) -> tuple[int | float, int]:
    start = pos
    tok = _NUM_RE.match(data, pos).group()
    pos = start + len(tok)
    if not tok or tok in (b"+", b"-", b"."):
        raise ParseError(f"bad number at {start}")
    if b"." in tok:
        return float(tok), pos
    return int(tok), pos


def parse_object(data: bytes, pos: int) -> tuple[object, int]:
    """Parse one PDF object starting at ``pos`` (after any whitespace).

    Returns ``(object, next_pos)``. Handles ``N G R`` references and
    ``dict + stream`` when the stream keyword follows a dictionary.
    Mirrors the reference recursive-descent parser
    (``/root/reference/src/parser.rs:48``).
    """
    n = len(data)
    if pos < n and data[pos] == 0x20 and \
            (pos + 1 >= n or (data[pos + 1] not in WHITESPACE
                              and data[pos + 1] != 0x25)):
        pos += 1  # single-space fast path
    else:
        m = _WS_RE.match(data, pos)
        if m is not None:
            pos = m.end()
    if pos >= n:
        raise ParseError("eof")
    b = data[pos]

    if b == 0x28:  # (
        return parse_literal_string(data, pos)
    if b == 0x2F:  # /
        return parse_name(data, pos)
    if b == 0x5B:  # [
        pos += 1
        arr: list = []
        while True:
            pos = skip_ws(data, pos)
            if pos >= n:
                raise ParseError("unterminated array")
            if data[pos] == 0x5D:  # ]
                return arr, pos + 1
            obj, pos = parse_object(data, pos)
            arr.append(obj)
    if b == 0x3C:  # < : hex string or dict
        if pos + 1 < n and data[pos + 1] == 0x3C:  # <<
            pos += 2
            d: dict = {}
            while True:
                pos = skip_ws(data, pos)
                if pos + 1 < n and data[pos] == 0x3E and data[pos + 1] == 0x3E:  # >>
                    pos += 2
                    break
                if pos >= n:
                    raise ParseError("unterminated dict")
                if data[pos] != 0x2F:  # keys are always names
                    raise ParseError("dict key is not a name")
                key, pos = parse_name(data, pos)
                val, pos = parse_object(data, pos)
                d[str(key)] = val
            # check for stream keyword
            spos = skip_ws(data, pos)
            if data[spos : spos + 6] == b"stream":
                spos += 6
                if data[spos : spos + 2] == b"\r\n":
                    spos += 2
                elif spos < n and data[spos] in (0x0A, 0x0D):
                    spos += 1
                length = d.get("Length")
                if isinstance(length, int):
                    sdata = data[spos : spos + length]
                    epos = skip_ws(data, spos + length)
                else:
                    end = data.find(b"endstream", spos)
                    if end < 0:
                        raise ParseError("unterminated stream")
                    sdata = data[spos:end]
                    # strip at most one trailing EOL added before endstream
                    if sdata.endswith(b"\r\n"):
                        sdata = sdata[:-2]
                    elif sdata.endswith(b"\n") or sdata.endswith(b"\r"):
                        sdata = sdata[:-1]
                    epos = end
                if data[epos : epos + 9] != b"endstream":
                    # Length mismatch: fall back to scanning
                    end = data.find(b"endstream", spos)
                    if end < 0:
                        raise ParseError("missing endstream")
                    sdata = data[spos:end]
                    if sdata.endswith(b"\r\n"):
                        sdata = sdata[:-2]
                    elif sdata.endswith(b"\n") or sdata.endswith(b"\r"):
                        sdata = sdata[:-1]
                    epos = end
                return Stream(d, bytes(sdata)), epos + 9
            return d, pos
        return parse_hex_string(data, pos)

    if b in _NUM_CHARS:
        num, npos = parse_number(data, pos)
        # possible "N G R" reference
        if isinstance(num, int) and num >= 0:
            m = _REF_TAIL_RE.match(data, npos)
            if m is not None:
                return Ref(num, int(m.group(1))), m.end()
        return num, npos

    # keyword: true / false / null
    if _is_regular(b):
        start = pos
        while pos < n and _is_regular(data[pos]):
            pos += 1
        kw = data[start:pos]
        if kw == b"true":
            return True, pos
        if kw == b"false":
            return False, pos
        if kw == b"null":
            return None, pos
        raise ParseError(f"unexpected keyword {kw!r} at {start}")
    raise ParseError(f"unexpected byte {b:#x} at {pos}")
