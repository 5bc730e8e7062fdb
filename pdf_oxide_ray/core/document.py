"""Mini PDF document layer (S1-S6): open -> pages -> content -> fonts -> text.

Re-implements the computation of the reference's document lifecycle for the
in-memory, per-turn payload case:

* S1 document open: ``%PDF-x.y`` header, locate + parse xref, parse trailer,
  fall back to full-buffer object-scan reconstruction when the xref is
  missing / corrupt / suspiciously small (<5 entries)
  (``/root/reference/src/document.rs:95-168``)
* S2 classic xref table parse + startxref scan
  (``/root/reference/src/xref.rs:182-225``)
* S3 xref reconstruction: scan whole buffer for ``N G obj`` markers
  (``/root/reference/src/xref_reconstruction.rs:58``,
  ``document.rs:103-152,364-432``)
* S5 lazy object load + cache with cycle detection
  (``document.rs:463``, recursion cap ``:21``)
* page-tree descent with attribute inheritance (Resources/MediaBox)
  (``document.rs:1290-1320``)
* S6 page content assembly: /Contents single stream | array | direct;
  decode each; join with ``\\n`` (``document.rs:1960-2037``)
* font loading from /Resources /Font (``document.rs:2040-2097``)
* EP2 ``extract_text`` = spans -> P1-P3 -> R1 (``document.rs:1653-1718``)
* EP1 ``to_markdown`` = spans -> R3 (``document.rs:2136-2188``); page joins
  ``\\n---\\n\\n`` (markdown, ``:2317-2333``) / ``\\n\\n---\\n\\n`` (plain text,
  ``:2366-2382``)

Differences from the reference (documented): no encryption (M4), no xref
*streams* (payload corpus uses classic tables), object cache is per-payload
(payloads are single-conversation-turn sized).
"""

from __future__ import annotations

import re

from .assemble import assemble_text
from .decoders import decode_stream
from .fonts import FontInfo
from .interpret import TextExtractor, TextSpan
from .markdown import convert_page_from_spans
from .objects import ParseError, Ref, Stream, parse_object, skip_ws
from .spans_post import postprocess_spans

MAX_RESOLVE_DEPTH = 100  # reference document.rs:21
_OBJ_MARKER = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_XREF_SUBSECTION_RE = re.compile(rb"(\d+)\s+(\d+)")
_XREF_ENTRY_RE = re.compile(rb"(\d{10})\s+(\d{5})\s+([nf])")


class PdfError(ValueError):
    pass


class PdfDocument:
    """An in-memory PDF-shaped payload document."""

    def __init__(self, data: bytes):
        self.data = data
        self.xref: dict[int, int] = {}  # obj num -> byte offset
        # PDF 1.5 compressed objects: obj num -> (objstm num, index in stm)
        self.xref_compressed: dict[int, tuple[int, int]] = {}
        self.trailer: dict = {}
        self._cache: dict[int, object] = {}
        self._objstm_cache: dict[int, dict[int, object]] = {}
        self._resolving: set[int] = set()
        self._open()

    # -- S1/S2/S3: open ------------------------------------------------------

    def _open(self) -> None:
        head = self.data.lstrip()
        if not head[:5].startswith(b"%PDF-"):
            raise PdfError("missing %PDF header")
        # header version "%PDF-M.m" (reference parse_header,
        # document.rs:2775-2818: single digits, '.' separator); unlike
        # the reference we don't fail extraction on a malformed or
        # out-of-range version — version stays None and parsing proceeds
        self.version: tuple[int, int] | None = None
        if len(head) >= 8 and head[6:7] == b"." and \
                head[5:6].isdigit() and head[7:8].isdigit():
            major, minor = head[5] - 0x30, head[7] - 0x30
            if major <= 2 and not (major == 0 and minor == 0):
                self.version = (major, minor)
        ok = False
        try:
            ok = self._parse_xref_chain()
        except (ParseError, PdfError, ValueError):
            ok = False
        # reference: reconstruct when parse failed or table suspiciously
        # small (<5 entries) (document.rs:103-152)
        if not ok or len(self.xref) + len(self.xref_compressed) < 5:
            reconstructed = self._reconstruct_xref()
            if reconstructed:
                self.xref.update(reconstructed)
            if not self.trailer:
                self._find_trailer_by_scan()
        if not self.xref:
            raise PdfError("no objects found")
        self._init_encryption()

    def _init_encryption(self) -> None:
        """M4: build the security handler when the trailer carries
        /Encrypt; decryption is applied in load_object (decrypt BEFORE
        defilter, reference object.rs:187-260)."""
        self._enc = None
        self._enc_obj_num: int | None = None
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is None:
            return
        from .encryption import EncryptionHandler

        if isinstance(enc_ref, Ref):
            self._enc_obj_num = enc_ref.num
        enc_dict = self.resolve(enc_ref)
        if not isinstance(enc_dict, dict):
            return
        ids = self.trailer.get("ID")
        file_id = ids[0] if (isinstance(ids, list) and ids
                             and isinstance(ids[0], bytes)) else b""
        self._enc = EncryptionHandler(enc_dict, file_id)
        # anything cached before the handler existed is still ciphertext
        self._cache.clear()
        self._objstm_cache.clear()

    def _decrypt_tree(self, obj, num: int, gen: int = 0):
        if isinstance(obj, bytes):
            return self._enc.decrypt(obj, num, gen)
        if isinstance(obj, list):
            return [self._decrypt_tree(x, num, gen) for x in obj]
        if isinstance(obj, Stream):
            return Stream(self._decrypt_tree(obj.dict, num, gen),
                          self._enc.decrypt(obj.data, num, gen))
        if isinstance(obj, dict):
            return {k: self._decrypt_tree(v, num, gen)
                    for k, v in obj.items()}
        return obj

    def _parse_xref_chain(self) -> bool:
        tail = self.data[-256:]
        m = None
        for m in re.finditer(rb"startxref\s+(\d+)", tail):
            pass
        if m is None:
            return False
        offset = int(m.group(1))
        seen = set()
        while offset and offset not in seen:
            seen.add(offset)
            offset = self._parse_xref_section(offset)
        return bool(self.xref)

    def _parse_xref_section(self, offset: int) -> int | None:
        data = self.data
        pos = skip_ws(data, offset)
        if data[pos : pos + 4] != b"xref":
            # PDF 1.5: the offset may point at a cross-reference STREAM
            # object instead of a classic table (xref.rs xref-stream path)
            if _OBJ_MARKER.match(data, pos):
                return self._parse_xref_stream(pos)
            raise ParseError("bad xref offset")
        pos += 4
        while True:
            pos = skip_ws(data, pos)
            if data[pos : pos + 7] == b"trailer":
                pos += 7
                tr, _ = parse_object(data, pos)
                if isinstance(tr, dict):
                    for k, v in tr.items():
                        self.trailer.setdefault(k, v)
                    prev = tr.get("Prev")
                    return int(prev) if isinstance(prev, (int, float)) else None
                return None
            m = _XREF_SUBSECTION_RE.match(data, pos)
            if not m:
                return None
            start, count = int(m.group(1)), int(m.group(2))
            pos = m.end()
            pos = skip_ws(data, pos)
            for i in range(count):
                entry = data[pos : pos + 18]
                # fast path: the spec's fixed 20-byte record
                # "NNNNNNNNNN GGGGG n\r\n" — plain slicing, no regex
                if len(entry) == 18 and entry[10] == 0x20 \
                        and entry[16] == 0x20 and entry[17] in (0x6E, 0x66):
                    if entry[17] == 0x6E:  # 'n'
                        self.xref.setdefault(start + i, int(entry[:10]))
                    pos += 18
                else:
                    em = _XREF_ENTRY_RE.match(data, pos)
                    if not em:
                        raise ParseError("bad xref entry")
                    if em.group(3) == b"n":
                        self.xref.setdefault(start + i, int(em.group(1)))
                    pos = em.end()
                pos = skip_ws(data, pos)

    def _parse_xref_stream(self, pos: int) -> int | None:
        """S2 PDF 1.5 xref stream (reference xref.rs xref-stream support):
        /W field widths, /Index subsections, row types 0 free / 1 offset /
        2 (objstm, idx). Trailer keys live on the stream dict."""
        from .decoders import decode_stream

        m = _OBJ_MARKER.match(self.data, pos)
        obj, _ = parse_object(self.data, m.end())
        if not isinstance(obj, Stream) or str(obj.dict.get("Type")) != "XRef":
            raise ParseError("not an xref stream")
        d = obj.dict
        w = d.get("W")
        if not (isinstance(w, list) and len(w) >= 3):
            raise ParseError("bad /W")
        w0, w1, w2 = (int(x) for x in w[:3])
        size = int(d.get("Size", 0))
        index = d.get("Index")
        if not isinstance(index, list):
            index = [0, size]
        raw = decode_stream(obj.data, d.get("Filter"), d.get("DecodeParms"))
        row_len = w0 + w1 + w2
        rpos = 0

        def field(width: int, p: int) -> int:
            return int.from_bytes(raw[p : p + width], "big") if width else 0

        for k in range(0, len(index) - 1, 2):
            start, count = int(index[k]), int(index[k + 1])
            for i in range(count):
                if rpos + row_len > len(raw):
                    break
                t = field(w0, rpos) if w0 else 1
                f1 = field(w1, rpos + w0)
                f2 = field(w2, rpos + w0 + w1)
                num = start + i
                if t == 1:
                    self.xref.setdefault(num, f1)
                elif t == 2 and num not in self.xref_compressed:
                    self.xref_compressed.setdefault(num, (f1, f2))
                rpos += row_len
        for key, val in d.items():
            if key not in ("W", "Index", "Filter", "DecodeParms", "Length",
                           "Type"):
                self.trailer.setdefault(key, val)
        prev = d.get("Prev")
        return int(prev) if isinstance(prev, (int, float)) else None

    def _load_objstm(self, stm_num: int) -> dict[int, object]:
        """S4 object streams (reference objstm.rs:58-86): decode, read the
        N (num, offset) header pairs from /First, parse each object."""
        cached = self._objstm_cache.get(stm_num)
        if cached is not None:
            return cached
        parsed: dict[int, object] = {}
        self._objstm_cache[stm_num] = parsed  # guard against cycles
        stm = self.load_object(stm_num)
        if not isinstance(stm, Stream) or str(stm.dict.get("Type")) != "ObjStm":
            return parsed
        data = self.get_stream_data(stm)
        if data is None:
            return parsed
        n = int(self.resolve(stm.dict.get("N", 0)) or 0)
        first = int(self.resolve(stm.dict.get("First", 0)) or 0)
        pos = 0
        pairs: list[tuple[int, int]] = []
        for _ in range(n):
            try:
                num, pos = parse_object(data, pos)
                off, pos = parse_object(data, pos)
                pairs.append((int(num), int(off)))
            except (ParseError, TypeError, ValueError):
                break
        for num, off in pairs:
            try:
                obj, _ = parse_object(data, first + off)
                parsed[num] = obj
            except ParseError:
                continue
        return parsed

    def _reconstruct_xref(self) -> dict[int, int]:
        """S3: scan for ``N G obj`` markers (xref_reconstruction.rs:58)."""
        table: dict[int, int] = {}
        for m in _OBJ_MARKER.finditer(self.data):
            table[int(m.group(1))] = m.start()
        return table

    def _find_trailer_by_scan(self) -> None:
        i = self.data.rfind(b"trailer")
        if i >= 0:
            try:
                tr, _ = parse_object(self.data, i + 7)
                if isinstance(tr, dict):
                    self.trailer = tr
                    return
            except ParseError:
                pass
        # last resort: find the object with /Type /Catalog
        for num in self.xref:
            obj = self.load_object(num)
            if isinstance(obj, dict) and str(obj.get("Type")) == "Catalog":
                self.trailer = {"Root": Ref(num, 0)}
                return

    # -- S5: object load -----------------------------------------------------

    def load_object(self, num: int):
        if num in self._cache:
            return self._cache[num]
        if num in self._resolving or len(self._resolving) > MAX_RESOLVE_DEPTH:
            return None  # cycle / depth cap (reference document.rs:21,463)
        offset = self.xref.get(num)
        if offset is None:
            comp = self.xref_compressed.get(num)
            if comp is not None:
                obj = self._load_objstm(comp[0]).get(num)
                self._cache[num] = obj
                return obj
            return None
        self._resolving.add(num)
        try:
            m = _OBJ_MARKER.match(self.data, skip_ws(self.data, offset))
            if not m:
                # offset may point slightly off; scan forward a little
                m = _OBJ_MARKER.search(self.data, offset, offset + 64)
                if not m:
                    return None
            obj, _ = parse_object(self.data, m.end())
            if getattr(self, "_enc", None) is not None \
                    and num != self._enc_obj_num:
                obj = self._decrypt_tree(obj, num)
            self._cache[num] = obj
            return obj
        except ParseError:
            return None
        finally:
            self._resolving.discard(num)

    def resolve(self, obj, depth: int = 0):
        while isinstance(obj, Ref) and depth < MAX_RESOLVE_DEPTH:
            obj = self.load_object(obj.num)
            depth += 1
        return obj

    def get_stream_data(self, obj) -> bytes | None:
        """Decode a stream object's data through its filter chain."""
        obj = self.resolve(obj)
        if not isinstance(obj, Stream):
            return None
        filters = self.resolve(obj.dict.get("Filter"))
        parms = self.resolve(obj.dict.get("DecodeParms"))
        return decode_stream(obj.data, filters, parms)

    # -- pages ---------------------------------------------------------------

    def catalog(self) -> dict:
        root = self.resolve(self.trailer.get("Root"))
        if isinstance(root, dict):
            return root
        for num in sorted(self.xref):
            obj = self.load_object(num)
            if isinstance(obj, dict) and str(obj.get("Type")) == "Catalog":
                return obj
        raise PdfError("no catalog")

    def pages(self) -> list[dict]:
        """Page-tree descent with Resources inheritance
        (document.rs:1290-1320); recursion cap 50 (:1188)."""
        out: list[dict] = []

        def walk(node, inherited: dict, depth: int) -> None:
            if depth > 50:
                return
            node = self.resolve(node)
            if not isinstance(node, dict):
                return
            ntype = str(node.get("Type", ""))
            inh = dict(inherited)
            for key in ("Resources", "MediaBox", "CropBox", "Rotate"):
                if key in node:
                    inh[key] = node[key]
            if ntype == "Pages" or (ntype != "Page" and "Kids" in node):
                kids = self.resolve(node.get("Kids"))
                if isinstance(kids, list):
                    for kid in kids:
                        walk(kid, inh, depth + 1)
            elif ntype == "Page":
                page = dict(node)
                for key, val in inh.items():
                    page.setdefault(key, val)
                out.append(page)

        cat = self.catalog()
        walk(cat.get("Pages"), {}, 0)
        if not out:
            # damaged page tree: collect any /Type /Page objects in order
            for num in sorted(self.xref):
                obj = self.load_object(num)
                if isinstance(obj, dict) and str(obj.get("Type")) == "Page":
                    out.append(obj)
        return out

    # -- S6: content + fonts -------------------------------------------------

    def get_page_content_data(self, page: dict) -> bytes:
        """reference document.rs:1960-2037 (join multiple streams with \\n)."""
        contents = self.resolve(page.get("Contents"))
        parts: list[bytes] = []
        if isinstance(contents, list):
            for item in contents:
                data = self.get_stream_data(item)
                if data is not None:
                    parts.append(data)
        elif isinstance(contents, Stream):
            data = self.get_stream_data(contents)
            if data is not None:
                parts.append(data)
        return b"\n".join(parts)

    def load_fonts(self, page: dict) -> dict[str, FontInfo]:
        """reference document.rs:2040-2097."""
        fonts: dict[str, FontInfo] = {}
        res = self.resolve(page.get("Resources"))
        if not isinstance(res, dict):
            return fonts
        fdict = self.resolve(res.get("Font"))
        if not isinstance(fdict, dict):
            return fonts
        for name, fobj in fdict.items():
            fobj = self.resolve(fobj)
            if isinstance(fobj, dict):
                try:
                    fonts[name] = FontInfo.from_dict(
                        fobj, self.resolve, self.get_stream_data)
                except Exception:  # noqa: BLE001 - absorb per-font errors
                    continue
        return fonts

    def _xobject_loader(self, page: dict):
        """Build an xobject_loader callback for the interpreter (I4)."""
        res = self.resolve(page.get("Resources"))
        xdict = self.resolve(res.get("XObject")) if isinstance(res, dict) else None
        if not isinstance(xdict, dict):
            return None

        def loader(name: str):
            raw = xdict.get(name)
            ref_key = raw if isinstance(raw, Ref) else name
            xobj = self.resolve(raw)
            if not isinstance(xobj, Stream):
                return None
            subtype = str(self.resolve(xobj.dict.get("Subtype", "")))
            if subtype == "Image":
                return None  # image XObjects skipped (text.rs:2041)
            data = self.get_stream_data(xobj)
            if data is None:
                return None
            xres = self.resolve(xobj.dict.get("Resources"))
            xfonts: dict[str, FontInfo] = {}
            if isinstance(xres, dict):
                fdict = self.resolve(xres.get("Font"))
                if isinstance(fdict, dict):
                    for fname, fobj in fdict.items():
                        fobj = self.resolve(fobj)
                        if isinstance(fobj, dict):
                            try:
                                xfonts[fname] = FontInfo.from_dict(
                                    fobj, self.resolve, self.get_stream_data)
                            except Exception:  # noqa: BLE001
                                continue
            return data, xfonts, ref_key

        return loader

    # -- EP1/EP2 -------------------------------------------------------------

    def extract_spans(self, page: dict,
                      space_threshold: float | None = None) -> list[TextSpan]:
        """reference extract_spans (document.rs:1927-1954): content ->
        interpreter -> P1-P3."""
        content = self.get_page_content_data(page)
        kwargs = {}
        if space_threshold is not None:
            kwargs["space_insertion_threshold"] = space_threshold
        extractor = TextExtractor(xobject_loader=self._xobject_loader(page), **kwargs)
        for name, font in self.load_fonts(page).items():
            extractor.add_font(name, font)
        spans = extractor.extract_text_spans(content)
        return postprocess_spans(spans)

    def structure_tree(self):
        """Tagged-PDF structure tree, parsed once and cached (reference
        structure_tree(), parser.rs:31). None for untagged PDFs."""
        if not hasattr(self, "_struct_tree"):
            from .structure import parse_structure_tree

            try:
                self._struct_tree = parse_structure_tree(self)
            except Exception:  # noqa: BLE001 - malformed tree -> untagged path
                self._struct_tree = None
        return self._struct_tree

    def extract_text(self, page: dict, page_index: int = 0) -> str:
        """EP2 (document.rs:1653-1718): structure-tree order for Tagged
        PDFs (R2), geometric order otherwise (R1)."""
        tree = self.structure_tree()
        spans = self.extract_spans(page)
        if not spans:
            return ""
        if tree is not None:
            from .structure import (extract_text_structure_order,
                                    traverse_structure_tree)

            ordered = traverse_structure_tree(tree, page_index)
            return extract_text_structure_order(spans, ordered)
        return assemble_text(spans)

    def to_markdown(self, page: dict) -> str:
        """EP1 (document.rs:2136-2188), span path."""
        spans = self.extract_spans(page)
        return convert_page_from_spans(spans)

    def extract_text_all(self) -> str:
        """to_plain_text_all joins with '\\n\\n---\\n\\n' (document.rs:2366-2382);
        extract_text per page."""
        return "\n\n---\n\n".join(self.extract_text(p, i)
                                  for i, p in enumerate(self.pages()))

    def to_markdown_all(self) -> str:
        """document.rs:2317-2333."""
        return "\n---\n\n".join(self.to_markdown(p) for p in self.pages())
