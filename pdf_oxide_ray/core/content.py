"""Content-stream parser (M5).

Re-implements the computation of the reference content-stream parser
(``src/content/parser.rs:56-133``): postfix operand collection -> operator,
resilient single-byte skip on parse failure, and the inline-image
``BI ... ID ... EI`` special case. It steps the object parser's tokenizer
(``objects.TOKEN``, reference ``src/lexer.rs:34``) and reads operands with
``objects.parse_token``, with one ``ParseMemo`` per stream.

Operators are returned as ``(name, operands)`` tuples; the interpreter
(``interpret.py``) dispatches on the name the way the reference dispatches on
its ``Operator`` enum (``src/content/operators.rs:16-451``).
"""

from __future__ import annotations

import sys

from .objects import (ARR, INLINE_ID, INT, KEYWORDS, KW, NUM, OTHER, TOKEN,
                      Name, ParseError, ParseMemo, find, number, parse_object,
                      parse_token)


def _parse_inline_image(data: bytes, pos: int,
                        memo: ParseMemo) -> tuple[tuple, int]:
    """Parse ``BI <dict> ID <binary> EI`` (reference parse_inline_image)."""
    d: dict = {}
    while True:
        m = TOKEN.match(data, pos)
        if m is None:
            raise ParseError("unterminated inline image dict")
        if m.lastindex == KW:
            sep = INLINE_ID.match(data, m.start(KW))
            if sep is not None:
                pos = sep.end()
                break
        key, pos = parse_token(data, m, memo)
        val, pos = parse_object(data, pos, memo)
        if isinstance(key, Name):
            d[str(key)] = val
    end = find(data, b"EI", pos, memo)
    if end < 0:
        raise ParseError("unterminated inline image data")
    return ("BI", [d, data[pos:end]]), end + 2


def _retry_from(data: bytes, start: int, end: int) -> int:
    """Where lexing resumes after the number token ``data[start:end]``
    failed to parse.

    The reference skips one byte after a failed operand and lexes again.
    From every later start inside this token that lexes the token's
    suffix: after an optional sign the token is a maximal run of digits
    and dots. A suffix fails exactly when it holds two or more dots, is a
    lone dot, or is an int longer than Python's digit limit. So this
    returns the first later start whose suffix parses, or ``end``: every
    start it skips would fail in turn and clear the operands. The result
    is the byte-by-byte one, in one step instead of one per byte, which
    was quadratic in the run's length."""
    tail = data[start + 1:end]
    last = tail.rfind(b".")
    if last < 0:
        limit = sys.get_int_max_str_digits() or len(tail)
        return end - min(len(tail), limit)
    one_dot = tail.rfind(b".", 0, last) + 1  # first start with one dot left
    return end if tail[one_dot:] == b"." else start + 1 + one_dot


def parse_content_stream(data: bytes) -> list[tuple[str, list]]:
    """Parse a decoded content stream into ``[(op, operands), ...]``.

    Mirrors the resilience of the reference parser: a byte that can't be
    parsed is skipped and parsing continues
    (``src/content/parser.rs:78-87``); after a failed number it continues
    where those skips would first succeed (``_retry_from``). A keyword is a run of letters, digits
    and ``' " *`` that starts with no digit; ``true``/``false``/``null``
    are operands. Numbers skip ``parse_object``'s ``N G R`` lookahead:
    content streams contain no indirect references (PDF spec 7.8.2).
    """
    ops: list[tuple[str, list]] = []
    operands: list = []
    memo = ParseMemo()
    match = TOKEN.match
    pos = 0
    while True:
        m = match(data, pos)
        if m is None:
            return ops
        i = m.lastindex
        if i == INT or i == NUM:
            try:
                operands.append(number(m.group(i), m.start(i)))
            except ValueError:
                pos = _retry_from(data, m.start(i), m.end(i))
                operands = []
                continue
            pos = m.end()
        elif i == KW:
            kw = m.group(KW)
            pos = m.end()
            if kw in KEYWORDS:
                operands.append(KEYWORDS[kw])
                continue
            if kw == b"BI":
                try:
                    op, pos = _parse_inline_image(data, pos, memo)
                    ops.append(op)
                except ParseError:
                    pass
            else:
                ops.append((kw.decode("latin-1"), operands))
            operands = []
        elif i == OTHER:  # no number, keyword or object starts with it
            pos = m.start(OTHER) + 1
            operands = []
        else:
            try:
                obj, pos = parse_token(data, m, memo, i == ARR)
                operands.append(obj)
            except ParseError:
                pos = m.start(i) + 1
                operands = []
