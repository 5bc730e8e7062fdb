"""Font model + char->Unicode cascade (M7-M11).

Re-implements the computation of ``/root/reference/src/fonts/font_dict.rs``:

* ``FontInfo`` per-font decode state (``font_dict.rs:19-54``)
* ``FontInfo::from_dict`` (``font_dict.rs:100``): /BaseFont, /Subtype,
  /Encoding (standard name | dict with /BaseEncoding + /Differences),
  /FontDescriptor (FontWeight, Flags, StemV), /Widths + /FirstChar
* char->Unicode cascade ``char_to_unicode`` (``font_dict.rs:624-804``):
  (1) ToUnicode CMap skipping U+FFFD, (2) built-in encodings for symbolic
  fonts (Symbol / ZapfDingbats), (3) /Encoding (standard lookup / custom
  Differences map with ligature expansion / Identity), (4) None
* glyph width lookup (``font_dict.rs:607-617``)
* font-weight cascade ``get_font_weight`` (``font_dict.rs:823-916``)
* glyph-name -> Unicode incl. ``uniXXXX`` / ``uXXXX`` forms
  (``font_dict.rs:985-1015``); the Adobe Glyph List here is a common-subset
  table (reference vendors the full 4,281-entry AGL in
  ``src/fonts/adobe_glyph_list.rs``)
* fallback char map ``fallback_char_to_unicode``
  (``/root/reference/src/extractors/text.rs:183-347``) and multi-byte decode
  ``decode_text_to_unicode`` (``text.rs:353-433``)

The static tables in this module are intended as **actor-init state**: built
once at import, shared by every payload an extraction worker processes.
The bounded ``_CMAP_CACHE`` extends the same idea to parsed ToUnicode
CMaps (keyed by raw stream bytes + filter chain — a pure function of
both), since real corpora draw fonts from a small shared family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmap import parse_tounicode_cmap
from .objects import Stream as _Stream

# ---------------------------------------------------------------------------
# Static encoding tables (built once per worker process)
# ---------------------------------------------------------------------------

# Adobe Glyph List, common subset (full list: adobe.com/devnet AGL; the
# reference vendors all 4,281 entries).  ASCII letters/digits resolve via the
# identity rules below; this table carries the named non-ASCII glyphs that
# appear in /Differences arrays in practice.
AGL_SUBSET: dict[str, str] = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "bullet": "•", "emdash": "—", "endash": "–",
    "quoteleft": "‘", "quoteright": "’",
    "quotedblleft": "“", "quotedblright": "”",
    "ellipsis": "…", "dagger": "†", "daggerdbl": "‡",
    "trademark": "™", "copyright": "©", "registered": "®",
    "degree": "°", "plusminus": "±", "section": "§",
    "paragraph": "¶", "middot": "·", "periodcentered": "·",
    "multiply": "×", "divide": "÷", "fraction": "⁄",
    "Euro": "€", "sterling": "£", "yen": "¥", "cent": "¢",
    "currency": "¤", "florin": "ƒ",
    "fi": "ﬁ", "fl": "ﬂ", "ff": "ﬀ", "ffi": "ﬃ",
    "ffl": "ﬄ",
    "guillemotleft": "«", "guillemotright": "»",
    "guilsinglleft": "‹", "guilsinglright": "›",
    "exclamdown": "¡", "questiondown": "¿",
    "Adieresis": "Ä", "Odieresis": "Ö", "Udieresis": "Ü",
    "adieresis": "ä", "odieresis": "ö", "udieresis": "ü",
    "germandbls": "ß", "aring": "å", "Aring": "Å",
    "aacute": "á", "eacute": "é", "iacute": "í",
    "oacute": "ó", "uacute": "ú", "ntilde": "ñ",
    "agrave": "à", "egrave": "è", "igrave": "ì",
    "ograve": "ò", "ugrave": "ù", "ccedilla": "ç",
    "acircumflex": "â", "ecircumflex": "ê",
    "icircumflex": "î", "ocircumflex": "ô",
    "ucircumflex": "û",
    "alpha": "α", "beta": "β", "gamma": "γ",
    "delta": "δ", "epsilon": "ε", "lambda": "λ",
    "mu": "μ", "pi": "π", "sigma": "σ", "omega": "ω",
    "Gamma": "Γ", "Delta": "Δ", "Theta": "Θ",
    "Lambda": "Λ", "Pi": "Π", "Sigma": "Σ",
    "Omega": "Ω", "theta": "θ", "phi": "φ",
    "minus": "−", "infinity": "∞", "integral": "∫",
    "partialdiff": "∂", "summation": "∑", "product": "∏",
    "radical": "√", "approxequal": "≈", "notequal": "≠",
    "lessequal": "≤", "greaterequal": "≥",
    "arrowleft": "←", "arrowright": "→", "arrowup": "↑",
    "arrowdown": "↓",
}

# Symbol font built-in encoding, common subset
# (reference symbol_encoding_lookup table, font_dict.rs:1421+; full table in
# PDF 32000-1:2008 Annex D.4)
SYMBOL_ENCODING: dict[int, str] = {
    0x20: " ", 0x21: "!", 0x23: "#", 0x25: "%", 0x26: "&", 0x28: "(",
    0x29: ")", 0x2B: "+", 0x2C: ",", 0x2E: ".", 0x2F: "/",
    0x3D: "=", 0x3F: "?",
    0x41: "Α", 0x42: "Β", 0x47: "Γ", 0x44: "Δ",
    0x45: "Ε", 0x5A: "Ζ", 0x48: "Η", 0x51: "Θ",
    0x49: "Ι", 0x4B: "Κ", 0x4C: "Λ", 0x4D: "Μ",
    0x4E: "Ν", 0x58: "Ξ", 0x4F: "Ο", 0x50: "Π",
    0x52: "Ρ", 0x53: "Σ", 0x54: "Τ", 0x55: "Υ",
    0x46: "Φ", 0x43: "Χ", 0x59: "Ψ", 0x57: "Ω",
    0x61: "α", 0x62: "β", 0x67: "γ", 0x64: "δ",
    0x65: "ε", 0x7A: "ζ", 0x68: "η", 0x71: "θ",
    0x69: "ι", 0x6B: "κ", 0x6C: "λ", 0x6D: "μ",
    0x6E: "ν", 0x78: "ξ", 0x6F: "ο", 0x70: "π",
    0x72: "ρ", 0x73: "σ", 0x74: "τ", 0x75: "υ",
    0x66: "φ", 0x63: "χ", 0x79: "ψ", 0x77: "ω",
    0xB1: "±", 0xB4: "×", 0xB8: "÷", 0xB9: "≠",
    0xA3: "≤", 0xB3: "≥", 0xA5: "∞", 0xD6: "√",
    0xB6: "∂", 0xE5: "∑", 0xD5: "∏", 0xF2: "∫",
    0xAE: "→", 0xAC: "←", 0xAD: "↑", 0xAF: "↓",
    0xBB: "≈",
}

# ZapfDingbats built-in encoding, common subset (PDF Annex D.5)
ZAPF_DINGBATS_ENCODING: dict[int, str] = {
    0x20: " ", 0x34: "✔", 0x35: "✖", 0x36: "✗",
    0x6C: "●", 0x6D: "❍", 0x6E: "■", 0x73: "▲",
    0x74: "▼", 0x75: "◆", 0xAA: "❦",
}

_LIGATURE_EXPANSION: dict[str, str] = {
    # reference expand_ligature_char (font_dict.rs): U+FB00-FB06 -> components
    "ﬀ": "ff", "ﬁ": "fi", "ﬂ": "fl",
    "ﬃ": "ffi", "ﬄ": "ffl", "ﬅ": "st", "ﬆ": "st",
}


def glyph_name_to_unicode(glyph_name: str) -> str | None:
    """AGL(-subset) lookup + uniXXXX / uXXXX forms
    (reference font_dict.rs:985-1015)."""
    if glyph_name in AGL_SUBSET:
        return AGL_SUBSET[glyph_name]
    if len(glyph_name) == 1:  # single-char names map to themselves (AGL)
        return glyph_name
    if glyph_name.startswith("uni") and len(glyph_name) == 7:
        try:
            return chr(int(glyph_name[3:], 16))
        except ValueError:
            pass
    if glyph_name.startswith("u") and len(glyph_name) >= 5:
        try:
            return chr(int(glyph_name[1:], 16))
        except ValueError:
            pass
    return None


def _build_encoding_table(codec: str) -> list:
    out = []
    for code in range(256):
        try:
            ch = bytes([code]).decode(codec)
        except (UnicodeDecodeError, ValueError):
            out.append(None)
            continue
        if ord(ch) < 0x20 or 0x7F <= ord(ch) <= 0x9F:
            out.append(None)
        else:
            out.append(ch)
    return out


# per-worker warm state: one 256-entry table per predefined encoding
_ENC_TABLES: dict[str, list] = {
    "WinAnsiEncoding": _build_encoding_table("cp1252"),
    "MacRomanEncoding": _build_encoding_table("mac_roman"),
    "__latin1__": _build_encoding_table("latin-1"),
}


def standard_encoding_lookup(name: str, code: int) -> str | None:
    """Predefined single-byte encodings.

    The reference vendors full WinAnsi/MacRoman/Standard tables
    (``font_dict.rs:1421+``); here WinAnsi == cp1252, MacRoman == mac-roman
    (same mappings, via Python's codecs), Standard/PDFDoc approximate with
    latin-1. ASCII is identical across all of them. Control chars have no
    visible representation -> None.
    """
    if not 0 <= code <= 0xFF:
        return None
    table = _ENC_TABLES.get(name) or _ENC_TABLES["__latin1__"]
    return table[code]


def fallback_char_to_unicode(char_code: int) -> str:
    """reference ``fallback_char_to_unicode`` (text.rs:183-347).

    Every named branch in the reference maps the code to its own code point,
    so the table collapses to: valid BMP (excluding surrogates) -> chr(code),
    else '?'.
    """
    if char_code <= 0xD7FF or 0xE000 <= char_code <= 0xFFFF:
        try:
            return chr(char_code)
        except ValueError:
            return "?"
    return "?"


# ---------------------------------------------------------------------------
# FontInfo
# ---------------------------------------------------------------------------

STANDARD_ENCODING_NAMES = ("StandardEncoding", "WinAnsiEncoding", "MacRomanEncoding",
                           "MacExpertEncoding", "PDFDocEncoding")


# worker-global parsed-CMap cache (see module docstring): key =
# (raw post-decrypt stream bytes, filter chain, decode parms) — the
# decoded CMap is a pure function of exactly that tuple
_CMAP_CACHE: dict = {}
_CMAP_CACHE_MAX = 1024


@dataclass
class FontInfo:
    """Per-font decode state (reference FontInfo, font_dict.rs:19-54)."""

    base_font: str = "Unknown"
    subtype: str = "Unknown"
    # encoding: ("standard", name) | ("custom", {code: unicode_char}) | ("identity",)
    encoding: tuple = ("standard", "StandardEncoding")
    to_unicode: dict[int, str] | None = None
    font_weight: int | None = None
    flags: int | None = None
    stem_v: float | None = None
    widths: list[float] | None = None
    first_char: int | None = None
    last_char: int | None = None
    default_width: float = 500.0
    # lazily built 256-entry decode table (see decode_text_to_unicode)
    _decode_table: list | None = None
    # lazily built 256-entry glyph-width table (see interpret._string_width)
    _width_table: list | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, font_dict: dict, resolve, get_stream_data) -> "FontInfo":
        """Build from a parsed /Font dictionary.

        ``resolve(obj)`` dereferences indirect references;
        ``get_stream_data(obj)`` returns decoded stream bytes or None.
        Mirrors ``FontInfo::from_dict`` (font_dict.rs:100).
        """
        fi = cls()
        fi.base_font = str(resolve(font_dict.get("BaseFont", "Unknown")))
        fi.subtype = str(resolve(font_dict.get("Subtype", "Unknown")))

        desc = resolve(font_dict.get("FontDescriptor"))
        if isinstance(desc, dict):
            fw = resolve(desc.get("FontWeight"))
            if isinstance(fw, (int, float)):
                fi.font_weight = int(fw)
            fl = resolve(desc.get("Flags"))
            if isinstance(fl, (int, float)):
                fi.flags = int(fl)
            sv = resolve(desc.get("StemV"))
            if isinstance(sv, (int, float)):
                fi.stem_v = float(sv)

        enc = resolve(font_dict.get("Encoding"))
        if enc is None:
            fi.encoding = ("standard", "StandardEncoding")
        elif isinstance(enc, str):  # Name
            if enc.startswith("Identity"):
                fi.encoding = ("identity",)
            else:
                fi.encoding = ("standard", str(enc))
        elif isinstance(enc, dict):
            base = str(resolve(enc.get("BaseEncoding", "StandardEncoding")))
            custom: dict[int, str] = {}
            diffs = resolve(enc.get("Differences"))
            if isinstance(diffs, list):
                code = 0
                for item in diffs:
                    item = resolve(item)
                    if isinstance(item, (int, float)):
                        code = int(item)
                    elif isinstance(item, str):
                        ch = glyph_name_to_unicode(str(item))
                        if ch is not None and len(ch) == 1:
                            custom[code] = ch
                        code += 1
            if custom:
                fi.encoding = ("custom", custom, base)
            else:
                fi.encoding = ("standard", base)

        tu = font_dict.get("ToUnicode")
        if tu is not None:
            st = resolve(tu)
            if isinstance(st, _Stream):
                # worker-global CMap cache: corpora reuse a small font
                # family, so the same ToUnicode stream recurs across
                # payloads. Keyed on (raw post-decrypt bytes, filter
                # chain) — decode_stream is a pure function of exactly
                # those inputs — and the parsed dict is read-only, so
                # sharing across documents is safe. Decompression
                # (often ASCII85+Flate) and the regex CMap parse are
                # both skipped on a hit.
                key = (st.data, str(st.dict.get("Filter")),
                       str(st.dict.get("DecodeParms")))
                cm = _CMAP_CACHE.get(key)
                if cm is None:
                    data = get_stream_data(st)
                    if data is not None:
                        cm = parse_tounicode_cmap(data)
                        if len(_CMAP_CACHE) < _CMAP_CACHE_MAX:
                            _CMAP_CACHE[key] = cm
                fi.to_unicode = cm
            else:
                data = get_stream_data(tu)
                if data is not None:
                    fi.to_unicode = parse_tounicode_cmap(data)

        widths = resolve(font_dict.get("Widths"))
        if isinstance(widths, list):
            fi.widths = [float(resolve(w)) for w in widths
                         if isinstance(resolve(w), (int, float))]
        fc = resolve(font_dict.get("FirstChar"))
        if isinstance(fc, (int, float)):
            fi.first_char = int(fc)
        lc = resolve(font_dict.get("LastChar"))
        if isinstance(lc, (int, float)):
            fi.last_char = int(lc)
        return fi

    # -- queries -------------------------------------------------------------

    def get_glyph_width(self, char_code: int) -> float:
        """reference font_dict.rs:607-617."""
        if self.widths is not None and self.first_char is not None:
            idx = char_code - self.first_char
            if 0 <= idx < len(self.widths):
                return self.widths[idx]
        return self.default_width

    def is_symbolic(self) -> bool:
        """reference font_dict.rs:941-954."""
        if self.flags is not None:
            return (self.flags & (1 << 2)) != 0
        low = self.base_font.lower()
        return "symbol" in low or "zapf" in low or "dingbat" in low

    def get_font_weight(self) -> int:
        """Numeric weight 100-900; cascade per font_dict.rs:823-916."""
        if self.font_weight is not None:
            return self.font_weight
        if self.flags is not None and (self.flags & 0x80000) != 0:  # ForceBold
            return 700
        low = self.base_font.lower()
        if "black" in low or "heavy" in low:
            return 900
        if "extrabold" in low or "ultrabold" in low:
            return 800
        if "bold" in low:
            if "semibold" in low or "demibold" in low:
                return 600
            return 700
        if "medium" in low:
            return 500
        if "light" in low:
            if "extralight" in low or "ultralight" in low:
                return 200
            return 300
        if "thin" in low:
            return 100
        if self.stem_v is not None and self.stem_v > 110.0:
            return 700
        return 400

    def is_bold(self) -> bool:
        """FontWeight::is_bold(): weight >= 600
        (reference text_block.rs:75-129)."""
        return self.get_font_weight() >= 600

    def char_to_unicode(self, char_code: int) -> str | None:
        """The decode cascade (reference font_dict.rs:624-804)."""
        # Priority 1: ToUnicode CMap (skip U+FFFD entries)
        if self.to_unicode is not None:
            uni = self.to_unicode.get(char_code)
            if uni is not None and uni != "�":
                return uni

        # Priority 2: built-in encodings for symbolic fonts
        if self.is_symbolic():
            low = self.base_font.lower()
            if "symbol" in low:
                ch = SYMBOL_ENCODING.get(char_code & 0xFF)
                if ch is not None:
                    return ch
            elif "zapf" in low or "dingbat" in low:
                ch = ZAPF_DINGBATS_ENCODING.get(char_code & 0xFF)
                if ch is not None:
                    return ch

        # Priority 3: /Encoding entry
        kind = self.encoding[0]
        if kind == "standard":
            if char_code <= 0xFF:
                ch = standard_encoding_lookup(self.encoding[1], char_code)
                if ch is not None:
                    return ch
        elif kind == "custom":
            custom = self.encoding[1]
            ch = custom.get(char_code & 0xFF)
            if ch is not None:
                if ch in _LIGATURE_EXPANSION:
                    return _LIGATURE_EXPANSION[ch]
                return ch
        elif kind == "identity":
            if not (0xD800 <= char_code <= 0xDFFF):
                try:
                    return chr(char_code)
                except ValueError:
                    pass

        # Priority 4: no mapping (control chars drop to empty)
        return None


# per-worker cache of single-byte decode tables, keyed by font signature
# (fonts are re-parsed per payload but repeat heavily across a corpus —
# the reference's per-document font cache promoted to per-worker state)
_DECODE_TABLE_CACHE: dict = {}
_DECODE_TABLE_CACHE_MAX = 4096


def _font_signature(font: FontInfo):
    enc = font.encoding
    if enc[0] == "custom":
        enc_key = ("custom", tuple(sorted(enc[1].items())), enc[2] if len(enc) > 2 else "")
    else:
        enc_key = enc
    tu = font.to_unicode
    if tu is None:
        tu_key = None
    elif len(tu) <= 256:
        tu_key = tuple(sorted(tu.items()))
    else:
        return None  # big CMap: don't pay the hashing cost
    return (font.base_font, font.subtype, enc_key, tu_key, font.flags,
            font.font_weight, font.stem_v)


def _single_byte_table(font: FontInfo) -> list[str]:
    sig = _font_signature(font)
    if sig is not None:
        cached = _DECODE_TABLE_CACHE.get(sig)
        if cached is not None:
            return cached
    table = []
    for code in range(256):
        s = font.char_to_unicode(code)
        table.append(s if s is not None else fallback_char_to_unicode(code))
    if sig is not None:
        if len(_DECODE_TABLE_CACHE) >= _DECODE_TABLE_CACHE_MAX:
            _DECODE_TABLE_CACHE.clear()
        _DECODE_TABLE_CACHE[sig] = table
    return table


def decode_text_to_unicode(data: bytes, font: FontInfo | None) -> str:
    """Multi-byte decode (reference text.rs:353-433).

    Type0 fonts: 2-byte big-endian codes; simple fonts: 1 byte via a
    cached 256-entry table; no font: Latin-1 passthrough. Cascade misses go
    through fallback_char_to_unicode.
    """
    if font is None:
        return data.decode("latin-1")
    if font.subtype == "Type0" and len(data) >= 2:
        out: list[str] = []
        i = 0
        n = len(data)
        while i < n:
            if i + 1 < n:
                code = (data[i] << 8) | data[i + 1]
                i += 2
            else:
                code = data[i]
                i += 1
            s = font.char_to_unicode(code)
            out.append(s if s is not None else fallback_char_to_unicode(code))
        return "".join(out)
    table = font._decode_table
    if table is None:
        table = _single_byte_table(font)
        font._decode_table = table
    return "".join(map(table.__getitem__, data))
