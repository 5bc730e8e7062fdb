"""Stateful content-stream interpreter (I1-I5): operators -> TextSpans.

Re-implements the computation of the reference's ``TextExtractor``
(``/root/reference/src/extractors/text.rs``):

* operator executor ``execute_operator`` (``text.rs:1179-1919``)
* TJ-array buffering + space heuristic ``process_tj_array``
  (``text.rs:2194-2282``), space-span insertion ``insert_space_as_span``
  (``text.rs:2324-2368``), whitespace-only mid-word split repair
  (``text.rs:2203-2248``)
* position advance math per PDF 9.4.4 ``advance_position_for_string`` /
  ``advance_position_for_offset`` (``text.rs:2285-2321,2371-2385``) and
  ``calculate_tj_buffer_width`` (``text.rs:2149-2183``)
* span flush ``flush_tj_span_buffer`` (``text.rs:2391-2444``)
* Form-XObject recursion with dedupe (``text.rs:1924-2081``)

followed by the within-payload span post-processing in ``spans_post.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .content import parse_content_stream
from .fonts import FontInfo, decode_text_to_unicode
from .graphics import GraphicsStateStack, Matrix, cmyk_to_rgb

DEFAULT_SPACE_INSERTION_THRESHOLD = -120.0  # reference text.rs:44-53


@dataclass(slots=True)
class TextSpan:
    """The central record type (reference TextSpan, text_block.rs:21-43)."""

    text: str
    x: float
    y: float
    width: float
    height: float
    font_name: str
    font_size: float
    bold: bool
    mcid: int | None
    sequence: int


class _TjBuffer:
    """reference TjBuffer (text.rs:104-161): the run of Tj strings that
    make one span (a TJ array keeps its run in locals)."""

    __slots__ = ("text", "unicode", "start_matrix", "font_name", "font_size",
                 "char_space", "word_space", "horizontal_scaling", "mcid")

    def __init__(self, state, mcid):
        self.text = bytearray()
        self.unicode: list[str] = []
        self.start_matrix: Matrix = state.text_matrix
        self.font_name = state.font_name
        self.font_size = state.font_size
        self.char_space = state.char_space
        self.word_space = state.word_space
        self.horizontal_scaling = state.horizontal_scaling
        self.mcid = mcid

    def is_empty(self) -> bool:
        return not self.text

    def append(self, data: bytes, fonts: dict[str, FontInfo]) -> None:
        self.text += data
        font = fonts.get(self.font_name) if self.font_name else None
        self.unicode.append(decode_text_to_unicode(data, font))

    @property
    def unicode_text(self) -> str:
        return "".join(self.unicode)


class TextExtractor:
    """Span-mode content-stream interpreter."""

    def __init__(self, space_insertion_threshold: float = DEFAULT_SPACE_INSERTION_THRESHOLD,
                 xobject_loader=None):
        self.space_insertion_threshold = space_insertion_threshold
        self.fonts: dict[str, FontInfo] = {}
        self.spans: list[TextSpan] = []
        self.state_stack = GraphicsStateStack()
        self.current_mcid: int | None = None
        self.tj_span_buffer: _TjBuffer | None = None
        self.span_sequence_counter = 0
        self.processed_xobjects: set = set()
        # xobject_loader(name) -> (content_bytes, fonts_dict, ref_key) | None
        self.xobject_loader = xobject_loader
        self._xobject_depth = 0

    def add_font(self, name: str, font: FontInfo) -> None:
        self.fonts[name] = font

    # -- main entry ----------------------------------------------------------

    def extract_text_spans(self, content_stream: bytes) -> list[TextSpan]:
        """reference extract_text_spans (text.rs:614-641); post-processing
        (sort/dedup/merge) is applied by the caller via spans_post."""
        self.spans = []
        self.span_sequence_counter = 0
        self._run(parse_content_stream(content_stream))
        self._flush_tj_span_buffer()
        return self.spans

    # -- operator dispatch ---------------------------------------------------

    def _run(self, ops: list[tuple[str, list]]) -> None:
        """Execute each ``(op, operands)`` through its ``_HANDLERS`` entry.
        An operator that raises is skipped, as in the reference. BT/ET/
        BMC/path/shading/inline-image ops have no entry: no action
        (reference text.rs:1866-1877 and the catch-all arm)."""
        handlers = _HANDLERS
        for op, args in ops:
            handler = handlers.get(op)
            if handler is not None:
                try:
                    handler(self, args)
                except Exception:  # noqa: BLE001 - resilient per-operator skip
                    continue

    def _op_Tj(self, args: list) -> None:
        if args and isinstance(args[-1], bytes):
            data = args[-1]
            if self.tj_span_buffer is None:
                self.tj_span_buffer = _TjBuffer(self.state_stack.current(),
                                                self.current_mcid)
            self.tj_span_buffer.append(data, self.fonts)
            self._advance_position_for_string(data)

    def _op_TJ(self, args: list) -> None:
        if args and isinstance(args[-1], list):
            self._process_tj_array(args[-1])

    def _op_Tf(self, args: list) -> None:
        if len(args) >= 2:
            cur = self.state_stack.current()
            cur.font_name = str(args[0])
            cur.font_size = float(args[1])

    def _op_Tm(self, args: list) -> None:
        if len(args) >= 6:
            self._flush_tj_span_buffer()
            cur = self.state_stack.current()
            m = Matrix(*(float(v) for v in args[:6]))
            cur.text_matrix = m
            cur.text_line_matrix = m

    def _op_Td(self, args: list) -> None:
        if len(args) >= 2:
            self._flush_tj_span_buffer()
            _next_line(self.state_stack.current(), float(args[0]),
                       float(args[1]))

    def _op_TD(self, args: list) -> None:
        if len(args) >= 2:
            self._flush_tj_span_buffer()
            cur = self.state_stack.current()
            cur.leading = -float(args[1])
            _next_line(cur, float(args[0]), float(args[1]))

    def _op_T_star(self, args: list) -> None:
        self._flush_tj_span_buffer()
        cur = self.state_stack.current()
        _next_line(cur, 0.0, -cur.leading)

    def _op_quote(self, args: list) -> None:
        # reference Quote arm (text.rs:1333): newline + char-mode show;
        # in span mode the shown text is NOT added to spans (parity),
        # but the text matrix still advances past it (show_text runs in
        # the reference) so later spans on the line get a fresh x.
        if args:
            cur = self.state_stack.current()
            _next_line(cur, 0.0, -cur.leading)
            if isinstance(args[-1], bytes):
                self._advance_position_for_string(args[-1])

    def _op_dquote(self, args: list) -> None:
        if len(args) >= 3:
            cur = self.state_stack.current()
            cur.word_space = float(args[0])
            cur.char_space = float(args[1])
            _next_line(cur, 0.0, -cur.leading)
            if isinstance(args[-1], bytes):
                self._advance_position_for_string(args[-1])

    def _op_q(self, args: list) -> None:
        self.state_stack.save()

    def _op_Q(self, args: list) -> None:
        self.state_stack.restore()

    def _op_cm(self, args: list) -> None:
        if len(args) >= 6:
            cur = self.state_stack.current()
            m = Matrix(*(float(v) for v in args[:6]))
            cur.ctm = cur.ctm.multiply(m)

    def _op_cmyk(self, args: list, fill: bool) -> None:
        if len(args) >= 4:
            cur = self.state_stack.current()
            c, m_, y, kk = (float(v) for v in args[:4])
            if fill:
                cur.fill_color_cmyk = (c, m_, y, kk)
                cur.fill_color_rgb = cmyk_to_rgb(c, m_, y, kk)
            else:
                cur.stroke_color_cmyk = (c, m_, y, kk)
                cur.stroke_color_rgb = cmyk_to_rgb(c, m_, y, kk)

    def _op_color_space(self, args: list, fill: bool) -> None:
        if args:
            cur = self.state_stack.current()
            if fill:
                cur.fill_color_space = str(args[0])
                cur.fill_color_rgb = (0.0, 0.0, 0.0)
                cur.fill_color_cmyk = None
            else:
                cur.stroke_color_space = str(args[0])
                cur.stroke_color_rgb = (0.0, 0.0, 0.0)
                cur.stroke_color_cmyk = None

    def _op_BDC(self, args: list) -> None:
        if len(args) >= 2 and isinstance(args[1], dict):
            mcid = args[1].get("MCID")
            if isinstance(mcid, int):
                self.current_mcid = mcid

    def _op_EMC(self, args: list) -> None:
        self.current_mcid = None

    def _op_Do(self, args: list) -> None:
        if args:
            self._process_xobject(str(args[0]))

    def _set_color_components(self, args: list, fill: bool) -> None:
        comps = [float(v) for v in args if isinstance(v, (int, float))]
        cur = self.state_stack.current()
        space = cur.fill_color_space if fill else cur.stroke_color_space
        rgb = None
        if space in ("DeviceGray", "CalGray") and len(comps) == 1:
            rgb = (comps[0],) * 3
        elif space in ("DeviceRGB", "CalRGB") and len(comps) == 3:
            rgb = tuple(comps)
        elif space == "Lab" and len(comps) == 3:
            lum = comps[0] / 100.0
            rgb = (lum, lum, lum)
        elif space == "DeviceCMYK" and len(comps) == 4:
            rgb = cmyk_to_rgb(*comps)
        elif len(comps) == 1:  # Separation/DeviceN tint: approximate gray
            v = 1.0 - comps[0]
            rgb = (v, v, v)
        if rgb is not None:
            if fill:
                cur.fill_color_rgb = rgb
            else:
                cur.stroke_color_rgb = rgb

    # -- TJ machinery --------------------------------------------------------

    def _process_tj_array(self, array: list) -> None:
        """reference process_tj_array (text.rs:2194-2282). Tf/q/Q/Tm can't
        occur inside a TJ array, so the state, the font and the text
        matrix's a-d are loop invariants: the matrix advances as local
        ``e``/``f`` floats, and a buffer is its start position, its bytes
        and its decoded pieces."""
        state = self.state_stack.current()
        name = state.font_name
        # the probe decode and advance font, and the flushed span's font
        font = self.fonts.get(name or "")
        span_font = self.fonts.get(name) if name else None
        bold = span_font.is_bold() if span_font is not None else False
        size, cs, ws = state.font_size, state.char_space, state.word_space
        hs = state.horizontal_scaling
        tm = state.text_matrix
        a, b, d, e, f = tm.a, tm.b, tm.d, tm.e, tm.f
        d_abs = abs(d) or 1.0
        eff_size = size * abs(d)
        threshold = self.space_insertion_threshold
        mcid = self.current_mcid
        width = self._string_width
        start_e, start_f = e, f
        raw = bytearray()
        pieces: list[str] = []
        last = ""  # the buffer's last decoded character
        try:
            for element in array:
                if isinstance(element, bytes):
                    if font:
                        decoded = decode_text_to_unicode(element, font)
                        # mid-word whitespace-only show-string repair
                        if decoded and not decoded.strip() \
                                and last.islower():
                            adv = width(element, font, size, cs, ws,
                                        hs) / d_abs
                            e, f = e + adv * a, f + adv * b
                            continue
                    else:
                        decoded = decode_text_to_unicode(element, span_font)
                    raw += element
                    pieces.append(decoded)
                    if decoded:
                        last = decoded[-1]
                    adv = width(element, font, size, cs, ws, hs) / d_abs
                    e, f = e + adv * a, f + adv * b
                elif isinstance(element, (int, float)):
                    offset = float(element)
                    if offset < threshold:
                        if raw:
                            self._add_span("".join(pieces), start_e,
                                           start_f, width(bytes(raw),
                                                          span_font, size,
                                                          cs, ws, hs),
                                           eff_size, name, bold, mcid)
                        # reference insert_space_as_span (text.rs:2324-2368)
                        space_width = ((250.0 * size / 1000.0 + ws)
                                       * hs / 100.0)
                        self._add_span(" ", e, f, space_width, eff_size,
                                       name, False, mcid)
                        adv = space_width / d_abs
                        e, f = e + adv * a, f + adv * b
                        start_e, start_f = e, f
                        raw = bytearray()
                        pieces = []
                        last = ""
                    # reference text.rs:2371-2385
                    e += -offset / 1000.0 * size * hs / 100.0
            if raw:
                self._add_span("".join(pieces), start_e, start_f,
                               width(bytes(raw), span_font, size, cs, ws,
                                     hs),
                               eff_size, name, bold, mcid)
        finally:
            state.text_matrix = Matrix(a, b, tm.c, d, e, f)

    def _add_span(self, text: str, x: float, y: float, width: float,
                  eff_size: float, font_name: str | None, bold: bool,
                  mcid: int | None) -> None:
        self.spans.append(TextSpan(
            text, x, y, width, eff_size, font_name or "Unknown", eff_size,
            bold, mcid, self.span_sequence_counter))
        self.span_sequence_counter += 1

    def _string_width(self, text: bytes, font, font_size: float,
                      char_space: float, word_space: float,
                      hscale: float) -> float:
        """PDF 9.4.4 width sum (reference text.rs:2285-2321 loop). Fast path
        when every glyph has the same width (no /Widths array)."""
        n = len(text)
        if n == 0:
            return 0.0
        n_spaces = text.count(0x20) if word_space != 0.0 else 0
        if font is None or font.widths is None:
            gw = 500.0 if font is None else font.default_width
            glyph_sum = gw * n
        else:
            wt = font._width_table
            if wt is None:
                wt = [font.get_glyph_width(i) for i in range(256)]
                font._width_table = wt
            glyph_sum = sum(map(wt.__getitem__, text))
        total = (glyph_sum * font_size / 1000.0 + char_space * n
                 + word_space * n_spaces)
        return total * hscale / 100.0

    def _advance_position_for_string(self, text: bytes) -> None:
        """reference text.rs:2285-2321."""
        state = self.state_stack.current()
        font = self.fonts.get(state.font_name) if state.font_name else None
        total = self._string_width(text, font, state.font_size,
                                   state.char_space, state.word_space,
                                   state.horizontal_scaling)
        tm = state.text_matrix
        d_abs = abs(tm.d) or 1.0
        adv = total / d_abs
        state.text_matrix = Matrix(tm.a, tm.b, tm.c, tm.d,
                                   tm.e + adv * tm.a, tm.f + adv * tm.b)

    def _flush_tj_span_buffer(self) -> None:
        """reference flush_tj_span_buffer (text.rs:2391-2444); the width is
        reference text.rs:2149-2183 (same formula as advance)."""
        buf, self.tj_span_buffer = self.tj_span_buffer, None
        if buf is None or buf.is_empty():
            return
        font = self.fonts.get(buf.font_name) if buf.font_name else None
        self._add_span(
            buf.unicode_text, buf.start_matrix.e, buf.start_matrix.f,
            self._string_width(bytes(buf.text), font, buf.font_size,
                               buf.char_space, buf.word_space,
                               buf.horizontal_scaling),
            buf.font_size * abs(buf.start_matrix.d), buf.font_name,
            font.is_bold() if font is not None else False, buf.mcid)

    # -- XObjects ------------------------------------------------------------

    def _process_xobject(self, name: str) -> None:
        """Form-XObject recursion with dedupe (reference text.rs:1924-2081)."""
        if self.xobject_loader is None or self._xobject_depth >= 10:
            return
        try:
            loaded = self.xobject_loader(name)
        except Exception:  # noqa: BLE001 - absorb per-XObject errors
            return
        if loaded is None:
            return
        content, xfonts, ref_key = loaded
        if ref_key in self.processed_xobjects:
            return
        self.processed_xobjects.add(ref_key)
        saved_fonts = self.fonts
        if xfonts:
            merged = dict(self.fonts)
            merged.update(xfonts)
            self.fonts = merged
        self._xobject_depth += 1
        try:
            self.state_stack.save()
            self._run(parse_content_stream(content))
            self._flush_tj_span_buffer()
            self.state_stack.restore()
        finally:
            self._xobject_depth -= 1
            self.fonts = saved_fonts


def _next_line(state, tx: float, ty: float) -> None:
    """Td/TD/T*/'/\" line move: Tlm = T(tx, ty) x Tlm, Tm = Tlm."""
    state.text_line_matrix = state.text_line_matrix.multiply(
        Matrix.translation(tx, ty))
    state.text_matrix = state.text_line_matrix


def _set_state(attr: str, conv):
    def handler(self: TextExtractor, args: list) -> None:
        if args:
            setattr(self.state_stack.current(), attr, conv(args[0]))
    return handler


def _set_rgb(attr: str, n: int):
    def handler(self: TextExtractor, args: list) -> None:
        if len(args) >= n:
            rgb = tuple(float(v) for v in args[:n])
            setattr(self.state_stack.current(), attr,
                    rgb if n == 3 else rgb * 3)
    return handler


# operator name -> handler (reference execute_operator, text.rs:1179-1919)
_HANDLERS = {
    "Tj": TextExtractor._op_Tj,
    "TJ": TextExtractor._op_TJ,
    "Tf": TextExtractor._op_Tf,
    "Tm": TextExtractor._op_Tm,
    "Td": TextExtractor._op_Td,
    "TD": TextExtractor._op_TD,
    "T*": TextExtractor._op_T_star,
    "'": TextExtractor._op_quote,
    '"': TextExtractor._op_dquote,
    "Tc": _set_state("char_space", float),
    "Tw": _set_state("word_space", float),
    "Tz": _set_state("horizontal_scaling", float),
    "TL": _set_state("leading", float),
    "Ts": _set_state("text_rise", float),
    "Tr": _set_state("render_mode", int),
    "q": TextExtractor._op_q,
    "Q": TextExtractor._op_Q,
    "cm": TextExtractor._op_cm,
    "rg": _set_rgb("fill_color_rgb", 3),
    "RG": _set_rgb("stroke_color_rgb", 3),
    "g": _set_rgb("fill_color_rgb", 1),
    "G": _set_rgb("stroke_color_rgb", 1),
    "k": lambda self, args: self._op_cmyk(args, True),
    "K": lambda self, args: self._op_cmyk(args, False),
    "cs": lambda self, args: self._op_color_space(args, True),
    "CS": lambda self, args: self._op_color_space(args, False),
    "sc": lambda self, args: self._set_color_components(args, True),
    "scn": lambda self, args: self._set_color_components(args, True),
    "SC": lambda self, args: self._set_color_components(args, False),
    "SCN": lambda self, args: self._set_color_components(args, False),
    "BDC": TextExtractor._op_BDC,
    "EMC": TextExtractor._op_EMC,
    "Do": TextExtractor._op_Do,
}
