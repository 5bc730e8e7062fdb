"""Stream filter pipeline (M3).

Re-implements the computation of the reference's decoder chain
(``/root/reference/src/decoders/mod.rs:113-254``): apply filters in order —
FlateDecode, ASCIIHexDecode, ASCII85Decode, LZWDecode, RunLengthDecode,
DCTDecode / CCITTFaxDecode / JBIG2Decode (pass-through; image codecs are out
of scope for text extraction) — followed by PNG/TIFF predictor handling, with
decompression-bomb guards (max 100 MB output, 100:1 expansion ratio;
reference ``/root/reference/src/decoders/mod.rs:46-47,172-195``).
"""

from __future__ import annotations

import base64
import zlib

import numpy as np

from .objects import WHITESPACE

MAX_DECODED_SIZE = 100 * 1024 * 1024  # bytes; reference decoders/mod.rs:46
MAX_EXPANSION_RATIO = 100  # reference decoders/mod.rs:47


class DecodeError(ValueError):
    pass


def _guard(in_len: int, out_len: int) -> None:
    if out_len > MAX_DECODED_SIZE:
        raise DecodeError(f"decoded size {out_len} exceeds cap {MAX_DECODED_SIZE}")
    if in_len > 0 and out_len > in_len * MAX_EXPANSION_RATIO:
        raise DecodeError(f"expansion ratio {out_len}/{in_len} exceeds {MAX_EXPANSION_RATIO}:1")


def flate_decode(data: bytes) -> bytes:
    d = zlib.decompressobj()
    out = d.decompress(data, MAX_DECODED_SIZE + 1)
    _guard(len(data), len(out))
    return out


# exactly the bytes the previous chr(b).strip() loop skipped (str
# whitespace includes \x1c-\x1f, NEL and NBSP beyond the ASCII set)
_HEX_WS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0"


def ascii_hex_decode(data: bytes) -> bytes:
    end = data.find(b">")
    if end >= 0:
        data = data[:end]
    digits = data.translate(None, _HEX_WS)
    if len(digits) % 2 == 1:
        digits += b"0"
    try:
        return bytes.fromhex(digits.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DecodeError(f"ASCIIHexDecode: {exc}") from exc


_A85_POW = np.array([85 ** 4, 85 ** 3, 85 ** 2, 85, 1], dtype=np.uint64)


def ascii85_decode(data: bytes) -> bytes:
    """Vectorized base-85: groups of 5 digits ('!'..'u') become 4
    big-endian bytes via a single uint64 dot-with-powers; a short final
    group is 'u'-padded and truncated, matching RFC-1924-style a85.
    Inputs the vector path can't take byte-for-byte (the 'z' zero-group
    shortcut, out-of-alphabet bytes, >0xFFFFFFFF group overflow, a lone
    trailing digit) fall back to the stdlib decoder so error behavior
    is identical."""
    s = data.strip()
    if s.startswith(b"<~"):
        s = s[2:]
    if s.endswith(b"~>"):
        s = s[:-2]
    s = s.translate(None, WHITESPACE)
    if s and b"z" not in s:
        arr = np.frombuffer(s, dtype=np.uint8)
        if len(arr) % 5 != 1 and not ((arr < 33) | (arr > 117)).any():
            pad = (-len(arr)) % 5
            a = np.full(len(arr) + pad, 117, dtype=np.uint8)
            a[:len(arr)] = arr
            vals = ((a.astype(np.uint64) - 33).reshape(-1, 5)
                    * _A85_POW).sum(axis=1)
            if not (vals > 0xFFFFFFFF).any():
                out = vals.astype(">u4").tobytes()
                if pad:
                    out = out[:-pad]
                _guard(len(data), len(out))
                return out
    try:
        out = base64.a85decode(s)
    except ValueError as exc:
        raise DecodeError(f"ASCII85Decode: {exc}") from exc
    _guard(len(data), len(out))
    return out


def run_length_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        if length == 128:  # EOD
            break
        if length < 128:
            out += data[i + 1 : i + 2 + length]
            i += 2 + length
        else:
            if i + 1 >= n:
                raise DecodeError("RunLengthDecode: truncated run")
            out += bytes([data[i + 1]]) * (257 - length)
            i += 2
        if len(out) > MAX_DECODED_SIZE:
            raise DecodeError("RunLengthDecode output exceeds cap")
    return bytes(out)


def lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """PDF-variant LZW (code width 9-12 bits, clear=256, eod=257)."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    code_width = 9
    prev: bytes | None = None
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= code_width:
            nbits -= code_width
            code = (acc >> nbits) & ((1 << code_width) - 1)
            if code == 256:  # clear table
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                code_width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise DecodeError("LZWDecode: invalid code")
            out += entry
            if len(out) > MAX_DECODED_SIZE:
                raise DecodeError("LZWDecode output exceeds cap")
            prev = entry
            # width bump at next_code >= 511/1023/2047 for EarlyChange=1
            # (the PDF default; pdf.js/pdfminer agree) — bumping one code
            # later desyncs any stream whose table crosses the boundary
            if len(table) + early_change >= (1 << code_width) and code_width < 12:
                code_width += 1
    return bytes(out)


def apply_png_predictor(data: bytes, colors: int, bpc: int, columns: int) -> bytes:
    """PNG predictor post-processing (reference ``src/decoders/predictor.rs``)."""
    bpp = max(1, (colors * bpc) // 8)
    row_len = (columns * colors * bpc + 7) // 8
    out = bytearray()
    prev_row = bytearray(row_len)
    i = 0
    n = len(data)
    while i + 1 + row_len <= n:
        ptype = data[i]
        row = bytearray(data[i + 1 : i + 1 + row_len])
        i += 1 + row_len
        if ptype == 1:  # Sub
            for j in range(bpp, row_len):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ptype == 2:  # Up
            for j in range(row_len):
                row[j] = (row[j] + prev_row[j]) & 0xFF
        elif ptype == 3:  # Average
            for j in range(row_len):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + (left + prev_row[j]) // 2) & 0xFF
        elif ptype == 4:  # Paeth
            for j in range(row_len):
                a = row[j - bpp] if j >= bpp else 0
                b = prev_row[j]
                c = prev_row[j - bpp] if j >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[j] = (row[j] + pred) & 0xFF
        out += row
        prev_row = row
    return bytes(out)


_PASSTHROUGH = {"DCTDecode", "CCITTFaxDecode", "JBIG2Decode", "JPXDecode"}


def decode_stream(data: bytes, filters, parms=None) -> bytes:
    """Apply a filter chain in order (reference ``decoders/mod.rs:113-254``).

    ``filters`` may be a single name, a list of names, or None.
    ``parms`` the matching DecodeParms (dict or list of dicts or None).
    """
    if filters is None:
        return data
    if not isinstance(filters, list):
        filters = [filters]
    if parms is None:
        parms_list = [None] * len(filters)
    elif not isinstance(parms, list):
        parms_list = [parms] + [None] * (len(filters) - 1)
    else:
        parms_list = list(parms) + [None] * (len(filters) - len(parms))

    for f, p in zip(filters, parms_list):
        name = str(f)
        if name in ("FlateDecode", "Fl"):
            data = flate_decode(data)
        elif name in ("ASCIIHexDecode", "AHx"):
            data = ascii_hex_decode(data)
        elif name in ("ASCII85Decode", "A85"):
            data = ascii85_decode(data)
        elif name in ("LZWDecode", "LZW"):
            ec = int(p.get("EarlyChange", 1)) if isinstance(p, dict) else 1
            data = lzw_decode(data, early_change=ec)
        elif name in ("RunLengthDecode", "RL"):
            data = run_length_decode(data)
        elif name in _PASSTHROUGH:
            pass  # image codec payloads pass through untouched
        else:
            raise DecodeError(f"unsupported filter {name}")
        if isinstance(p, dict):
            pred = int(p.get("Predictor", 1) or 1)
            if pred >= 10:
                data = apply_png_predictor(
                    data,
                    colors=int(p.get("Colors", 1) or 1),
                    bpc=int(p.get("BitsPerComponent", 8) or 8),
                    columns=int(p.get("Columns", 1) or 1),
                )
    return data
