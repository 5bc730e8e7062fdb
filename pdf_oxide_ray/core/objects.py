"""PDF object model, the kernel's one tokenizer, and the object parser.

One tokenizer serves both parsers, as the reference lexes PDF bytes once into
one ``Token`` enum (reference ``src/lexer.rs:34``). ``TOKEN`` is one compiled
alternation, stepped once per token: it skips whitespace and comments, its
groups capture numbers, name bodies, keywords and plain literal-string bodies,
and ``m.lastindex`` names the class that matched. ``parse_token`` (the
reference object parser, ``src/parser.rs:48-560``) and
``content.parse_content_stream`` (``src/content/parser.rs:56-91``) both read
it. Each lexical class (whitespace, comment, delimiter, regular byte, number)
is written once below; every other pattern, the ``N G R`` lookahead included,
is built from them.

The object model maps the reference's ``Object`` enum (``src/object.rs:8-35``)
onto Python natives: Null ``None``, Boolean ``bool``, Integer ``int``, Real
``float``, String ``bytes``, Name ``Name`` (a str), Array ``list``,
Dictionary ``dict`` (str keys, no ``/``), Stream ``Stream(dict, data)`` with
the still-encoded data, Reference ``Ref(num, gen)``. All parsing operates on
``bytes``; payload strings are encoded utf-8 first.

A content stream is parsed with one ``ParseMemo``. The content parser skips
one byte after a failed operand and lexes again, so without it every
unterminated string or failed array would be scanned again from each later
byte, which is quadratic. The memo is exact because a parse is a pure
function of the bytes and its start offset: it keeps the failures of arrays
and dictionaries by start, the offsets from which a ``find`` came up empty,
and the literal strings that never close (see ``_unclosed_strings``). One
exception keeps a flood of ``[`` linear: an array that failed for lying
deeper than ``MAX_NESTING`` stays failed in that stream at any depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

WHITESPACE = b"\x00\t\n\x0c\r "
DELIMITERS = b"()<>[]{}/%"


def _byte_class(chars: bytes, negate: bool = False) -> bytes:
    return b"[" + b"^" * negate + re.escape(chars) + b"]"


_WS = _byte_class(WHITESPACE)
_REGULAR = _byte_class(WHITESPACE + DELIMITERS, negate=True)
_BOUNDARY = rb"(?=" + _byte_class(WHITESPACE + DELIMITERS) + rb"|\Z)"
_COMMENT = rb"%[^\r\n]*"
# a comment can end anywhere on its line only where a pattern backtracks
# into it; the possessive gap never does
_GAP = rb"(?:" + _WS + rb"+|" + _COMMENT + rb")*+"
_NUMBER = rb"[+-][0-9.]*|[0-9.]+"
_INTEGER = rb"[+-]?[0-9]++(?!\.)"  # a number with no dot
# content-stream keyword (reference is_operator_start, content/parser.rs:136)
_OPERATOR = rb"[A-Za-z'\"*][A-Za-z0-9'\"*]*"

# what ``m.lastindex`` of a ``TOKEN`` match reports for each token class;
# COMMENT is set (``m.start(COMMENT) >= 0``) when a comment came before it
COMMENT, INT, NUM, NAME, STR, KW, OTHER, ARR, ARR_END, DICT, DICT_END, \
    DELIM = range(1, 13)
TOKEN = re.compile(
    rb"(?:" + _WS + rb"+|(?=(%))" + _COMMENT + rb")*+"
    rb"(?:(" + _INTEGER + rb")|(" + _NUMBER + rb")"
    rb"|/(" + _REGULAR + rb"*)"
    rb"|\(([^()\\]*)\)"                 # literal string without escapes
    rb"|(" + _OPERATOR + rb")"
    rb"|(" + _REGULAR + rb")"           # any other regular byte
    rb"|(\[)|(\])|(<<)|(>>)"
    rb"|(" + _byte_class(DELIMITERS) + rb"))")
_GAP_MATCH = re.compile(_GAP).match
_REGULAR_RUN = re.compile(_REGULAR + rb"*").match
_DIGITS = re.compile(rb"[0-9]+")
_IS_BOUNDARY = re.compile(_BOUNDARY).match
# "ws+ gen ws* R" after a non-negative integer, when no comment sits in the
# gaps; a comment sets group 2 or 3 and hands over to _ref_across_comments
_REF_TAIL = re.compile(
    rb"(?=" + _byte_class(WHITESPACE + b"%") + rb")" + _WS + rb"*+"
    rb"(?:([0-9]++)" + _WS + rb"*+(?:R" + _BOUNDARY + rb"|(%))|(%))")
_EOL = re.compile(rb"(?:\r\n|[\r\n])?").match
_LIT_SPECIAL_RE = re.compile(rb"[()\\]")
_OCTAL = re.compile(rb"[0-7]{1,3}")
_ESCAPES = {0x6E: 0x0A, 0x72: 0x0D, 0x74: 0x09, 0x62: 0x08, 0x66: 0x0C}
# escapes consume the byte after the backslash; octal digits and a CRLF
# continuation's LF are no parens, so this steps like parse_literal_string
_LIT_EVENT = re.compile(rb"\\[\s\S]?|[()]")
# ``ID`` and the one space or EOL byte before inline image data
# (reference content/parser.rs parse_inline_image)
INLINE_ID = re.compile(rb"ID[ \r\n]?")
KEYWORDS = {b"true": True, b"false": False, b"null": None}
# a deeper array or dictionary fails alone instead of overflowing the stack
# (the reference caps object-load recursion at 100, ``src/document.rs:21``)
MAX_NESTING = 100


class Name(str):
    """A PDF name (``/Foo``); stored without the leading slash."""

    __slots__ = ()


class Ref(NamedTuple):
    """Indirect object reference (``N G R``); mirrors ``ObjectRef``
    (``src/object.rs:38-44``)."""

    num: int
    gen: int


@dataclass
class Stream:
    """A PDF stream object: dict + raw (still-encoded) data."""

    dict: dict
    data: bytes


class ParseError(ValueError):
    pass


class ParseMemo:
    """What the failed parses of one content stream showed (see above)."""

    __slots__ = ("failed", "absent", "lit_from", "lit_open")

    def __init__(self) -> None:
        self.failed: dict = {}   # (start, operand) -> ParseError message
        self.absent: dict = {}   # needle -> offset from which find misses
        self.lit_from = -1       # start of the first string that never closed
        self.lit_open: set = set()  # '(' offsets from it that never close


def skip_ws(data: bytes, pos: int) -> int:
    """Skip whitespace and ``%`` comments (to end of line)."""
    if 0 <= pos <= len(data):
        return _GAP_MATCH(data, pos).end()
    # a /Length past either end: past the end stays put, and a negative
    # offset indexes from the end (IndexError below -len(data))
    if pos > 0:
        return pos
    if data[pos] in WHITESPACE and data[pos + 1] not in WHITESPACE + b"%":
        return pos + 1
    return _GAP_MATCH(data, 0).end() or pos


def find(data: bytes, needle: bytes, pos: int, memo: ParseMemo | None) -> int:
    """``data.find(needle, pos)``, remembering a miss: no later start can
    find what an earlier one did not."""
    if memo is None:
        return data.find(needle, pos)
    if pos >= memo.absent.get(needle, pos + 1):
        return -1
    at = data.find(needle, pos)
    if at < 0:
        memo.absent[needle] = pos
    return at


def _unclosed_strings(data: bytes, start: int) -> set:
    """Offsets of the ``(`` bytes from ``start`` on whose literal strings
    run off the end, given that the one at ``start`` does.

    Every ``(`` after ``start`` is a paren or an escaped byte of that scan,
    and the scan is between tokens right after it, so a scan from there runs
    in step with this one at a depth offset: it closes at the first later
    ``)`` that takes this scan's depth below its depth after that ``(``."""
    depth = 0
    lows: list = []    # depth after each ')'
    opens: list = []   # (offset, depth after it, number of ')' before it)
    for m in _LIT_EVENT.finditer(data, start):
        tok = m.group()
        if tok == b")":
            depth -= 1
            lows.append(depth)
        elif tok.endswith(b"("):  # a paren, or an escaped one: no depth
            depth += tok == b"("
            opens.append((m.end() - 1, depth, len(lows)))
    floor = [depth] * (len(lows) + 1)
    for k in range(len(lows) - 1, -1, -1):
        floor[k] = min(lows[k], floor[k + 1])
    return {t for t, d, k in opens if floor[k] >= d}


def parse_literal_string(data: bytes, pos: int,
                         memo: ParseMemo | None = None) -> tuple[bytes, int]:
    """Parse ``(...)`` literal string with escapes and balanced parens.

    Escape semantics follow the reference's ``decode_literal_string_escapes``
    (``src/parser.rs:169``): ``\\n \\r \\t \\b \\f \\( \\) \\\\``,
    1-3 digit octal, backslash-newline line continuation, unknown escape ->
    literal char.
    """
    if memo is not None and pos >= memo.lit_from >= 0 and pos in memo.lit_open:
        raise ParseError("unterminated literal string")
    start = pos
    pos += 1
    out = bytearray()
    depth = 1
    n = len(data)
    while pos < n:
        # bulk-copy up to the next special byte ( ) or backslash
        m = _LIT_SPECIAL_RE.search(data, pos)
        if m is None:
            break
        out += data[pos:m.start()]
        pos = m.start()
        b = data[pos]
        if b == 0x5C:  # backslash
            pos += 1
            if pos >= n:
                break
            e = data[pos]
            if 0x30 <= e <= 0x37:  # octal, 1-3 digits
                o = _OCTAL.match(data, pos)
                out.append(int(o.group(), 8) & 0xFF)
                pos = o.end()
            elif e in (0x0A, 0x0D):  # line continuation
                pos += 1
                if e == 0x0D and pos < n and data[pos] == 0x0A:
                    pos += 1
            else:  # \n \r \t \b \f, else the byte itself
                out.append(_ESCAPES.get(e, e))
                pos += 1
        elif b == 0x28:  # '('
            depth += 1
            out.append(b)
            pos += 1
        else:  # ')'
            depth -= 1
            if depth == 0:
                return bytes(out), pos + 1
            out.append(b)
            pos += 1
    if memo is not None and not 0 <= memo.lit_from < start:
        memo.lit_from = start
        memo.lit_open = _unclosed_strings(data, start)
    raise ParseError("unterminated literal string")


def parse_hex_string(data: bytes, pos: int,
                     memo: ParseMemo | None = None) -> tuple[bytes, int]:
    """Parse ``<...>`` hex string; odd final digit is padded with 0
    (reference ``decode_hex``, ``src/parser.rs:517``)."""
    end = find(data, b">", pos + 1, memo)
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
_KEYS: dict[bytes, str] = {}  # the same, as the plain str of a dict key


def _name(data: bytes, m: re.Match) -> Name:
    """The name of a ``NAME`` token, with ``#xx`` escapes (reference lexer
    name rules, ``src/lexer.rs``). Escape-free names are interned in a
    bounded module cache — PDF name vocabulary (/Type /Page /Font ...) is
    tiny and highly repetitive."""
    tok = m.group(NAME)
    if b"#" not in tok:
        nm = _NAME_CACHE.get(tok)
        if nm is None:
            nm = Name(tok.decode("latin-1"))
            if len(_NAME_CACHE) < 4096:
                _NAME_CACHE[tok] = nm
        return nm
    out = bytearray()
    pos, end = m.span(NAME)
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
    return Name(out.decode("latin-1"))


def number(tok: bytes, start: int) -> int | float:
    """The value of a number token that starts at ``start``."""
    if tok in (b"+", b"-", b"."):
        raise ParseError(f"bad number at {start}")
    return float(tok) if b"." in tok else int(tok)


def _ref_across_comments(data: bytes, pos: int) -> tuple[int, int] | None:
    """(gen, end) of the ``N G R`` lookahead at ``pos`` when a comment sits
    in a gap. The rule is that of a backtracking ``gap+ ([0-9]+) gap* R``,
    where a comment in a gap may end anywhere on its line: every offset up
    to the end of the gap can end it, and the farthest are tried first. So
    the last digit run that is followed by an ``R`` wins; inside a comment
    only its last digit is the generation."""
    far = _GAP_MATCH(data, pos).end()
    runs = [(m.end() - 1, m.end()) for m in _DIGITS.finditer(data, pos, far)]
    m = _DIGITS.match(data, far)
    if m is not None:
        runs.append((far, m.end()))
    for start, end in reversed(runs):
        r_far = _GAP_MATCH(data, end).end()
        r = data.rfind(b"R", end, r_far + 1)
        while r >= 0:
            if _IS_BOUNDARY(data, r + 1):
                return int(data[start:end]), r + 1
            r = data.rfind(b"R", end, r)
    return None


def parse_object(data: bytes, pos: int,
                 memo: ParseMemo | None = None) -> tuple[object, int]:
    """Parse one PDF object starting at ``pos`` (after any whitespace);
    returns ``(object, next_pos)`` as ``parse_token`` does."""
    m = TOKEN.match(data, pos)
    if m is None:
        raise ParseError("eof")
    return parse_token(data, m, memo)


def parse_token(data: bytes, m: re.Match, memo: ParseMemo | None = None,
                operand: bool = False, depth: int = 0) -> tuple[object, int]:
    """The object that starts with the ``TOKEN`` match ``m``, and the offset
    after it (reference ``src/parser.rs:48``). ``N G R`` reads as a
    ``Ref``, and a dictionary followed by ``stream`` as a ``Stream``.

    ``memo`` is the ``ParseMemo`` of a content stream. ``operand`` marks an
    array that is a content-stream operand: an element with no comment
    before it reads its number without the ``N G R`` lookahead (a lone ``.``
    goes to ``float``), and a ``]`` or the end after a comment fails it.
    ``depth`` counts the arrays and dictionaries around ``m``; one at
    ``MAX_NESTING`` fails."""
    i = m.lastindex
    if i == NAME:
        return _name(data, m), m.end()
    if i == INT:
        num = int(m.group(INT))
        if num >= 0:
            tail = _REF_TAIL.match(data, m.end())
            if tail is not None:
                if tail.lastindex == 1:
                    return Ref(num, int(tail.group(1))), tail.end()
                tail = _ref_across_comments(data, m.end())
                if tail is not None:
                    return Ref(num, tail[0]), tail[1]
        return num, m.end()
    if i == NUM:
        return number(m.group(NUM), m.start(NUM)), m.end()
    if i == STR:
        return m.group(STR), m.end()
    if i == ARR or i == DICT:
        start = m.start(i)
        if memo is not None and (start, operand) in memo.failed:
            raise ParseError(memo.failed[start, operand])
        if depth >= MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} at {start}")
        match = TOKEN.match
        pos = m.end()
        try:
            if i == ARR:
                arr: list = []
                while True:
                    m = match(data, pos)
                    if m is None:
                        raise ParseError("unterminated array")
                    i = m.lastindex
                    bare = operand and m.start(COMMENT) < 0
                    if i == ARR_END and (bare or not operand):
                        return arr, m.end()
                    if bare and (i == INT or i == NUM):
                        tok = m.group(i)
                        arr.append(float(tok) if tok == b"."
                                   else number(tok, m.start(i)))
                        pos = m.end()
                        continue
                    obj, pos = parse_token(data, m, memo, False, depth + 1)
                    arr.append(obj)
            d: dict = {}
            while True:
                m = match(data, pos)
                if m is None:
                    raise ParseError("unterminated dict")
                i = m.lastindex
                if i == DICT_END:
                    break
                if i != NAME:
                    raise ParseError("dict key is not a name")
                tok = m.group(NAME)
                key = _KEYS.get(tok)
                if key is None:
                    key = str(_name(data, m))
                    if b"#" not in tok and len(_KEYS) < 4096:
                        _KEYS[tok] = key
                m = match(data, m.end())
                if m is None:
                    raise ParseError("eof")
                d[key], pos = parse_token(data, m, memo, False, depth + 1)
            pos = m.end()
            spos = skip_ws(data, pos)
            if not data.startswith(b"stream", spos):
                return d, pos
            return _stream(data, d, spos + 6, memo)
        except ParseError as exc:
            if memo is not None:
                memo.failed[start, operand] = exc.args[0]
            raise
    if i == KW or i == OTHER:
        start = m.start(i)
        kw = _REGULAR_RUN(data, start).group()
        if kw in KEYWORDS:
            return KEYWORDS[kw], start + len(kw)
        raise ParseError(f"unexpected keyword {kw!r} at {start}")
    start = m.start(i)
    b = data[start]
    if b == 0x28:  # (
        return parse_literal_string(data, start, memo)
    if b == 0x3C:  # <
        return parse_hex_string(data, start, memo)
    raise ParseError(f"unexpected byte {b:#x} at {start}")


def _stream(data: bytes, d: dict, spos: int,
            memo: ParseMemo | None) -> tuple[Stream, int]:
    """The stream whose dictionary ``d`` is followed by ``stream`` ending
    just before ``spos``: ``/Length`` bytes when ``endstream`` follows
    them, else up to ``endstream`` less one trailing EOL."""
    spos = _EOL(data, spos).end()
    length = d.get("Length")
    if isinstance(length, int):
        sdata = data[spos : spos + length]
        epos = skip_ws(data, spos + length)
        if data[epos : epos + 9] == b"endstream":
            return Stream(d, bytes(sdata)), epos + 9
    end = find(data, b"endstream", spos, memo)
    if end < 0:
        raise ParseError("missing endstream" if isinstance(length, int)
                         else "unterminated stream")
    sdata = data[spos:end]
    if sdata.endswith(b"\r\n"):
        sdata = sdata[:-2]
    elif sdata.endswith((b"\n", b"\r")):
        sdata = sdata[:-1]
    return Stream(d, bytes(sdata)), end + 9
