"""Byte-sized extract batches: ``ExtractTurns`` takes a whole block and
yields one table per ``BATCH_BYTES`` of ``text`` payload, in row order;
``extract_dataset`` makes one extract call per input block."""

import math
import random

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.core import payload
from pdf_oxide_ray.core.payload import extract_payload
from pdf_oxide_ray.gen.transcripts import SPAN_TYPE, make_turn_payload
from pdf_oxide_ray.stages import extract
from pdf_oxide_ray.stages.extract import (BATCH_BYTES, ExtractTurns,
                                          _unchanged_plain, byte_slices)


def _block(texts: list[str | None], conv: str = "c0") -> pa.Table:
    n = len(texts)
    return pa.table({
        "conv_id": pa.array([conv] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(texts, pa.large_string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": pa.array(range(n), pa.timestamp("us")),
    })


def _payload_bytes(tbl: pa.Table) -> int:
    return pc.sum(pc.binary_length(tbl.column("text"))).as_py() or 0


def _sentence_turns(n: int, size: int) -> list[str]:
    return [(f"turn {i} " + "lorem ipsum " * size)[:size] for i in range(n)]


def test_mixed_block_matches_per_row_extract_in_order(monkeypatch):
    rng = random.Random(7)
    texts = [make_turn_payload(rng)[1] for _ in range(60)]
    kinds = {extract_payload(t)["kind"] for t in texts}
    assert {"pdf", "html", "plain"} <= kinds
    # one-sentence turns (the plain-turn pass) and nulls, spread through
    texts += _sentence_turns(20, 60) + [None] * 4 + ["Page 3", ""]
    rng.shuffle(texts)
    block = _block(texts)
    marked = _unchanged_plain(block.column("text"))
    assert 20 <= marked.sum() < len(texts)
    want = [extract_payload(text or "") for text in texts]
    # a small budget so the block comes out as several tables, then a
    # one-byte budget that cuts each payload off alone (empty ones join in)
    for budget in (_payload_bytes(block) // 5, 1):
        monkeypatch.setattr(extract, "BATCH_BYTES", budget)
        tables = list(ExtractTurns()(block))
        sizes = [t.num_rows for t in tables]
        assert sizes == [b - a for a, b in byte_slices(block.column("text"))]
        assert len(sizes) > 1
        assert budget > 1 or sizes.count(1) > len(texts) // 2
        # the one-byte budget mixes marked-only and per-row-only tables,
        # which concatenate only with one schema
        got = pa.concat_tables(tables)
        assert got.column("turn_idx").to_pylist() == list(range(len(texts)))
        assert got.column("conv_id").equals(block.column("conv_id"))
        for i, res in enumerate(want):
            for col in ("kind", "extracted_text", "markdown", "status",
                        "error"):
                assert got.column(col)[i].as_py() == res[col], (i, col)
            # compared through the column type (float32 span geometry)
            assert got.column("spans")[i] == pa.scalar(
                res["spans"], pa.list_(SPAN_TYPE)), i
            assert got.column("n_chars")[i].as_py() == \
                len(res["extracted_text"])
            assert got.column("n_spans")[i].as_py() == len(res["spans"])


# fragments that sit at the edge of each condition of the plain-turn mask:
# page artifacts, the PDF and HTML sniffs, line breaks Python's re.M does
# and does not see, Unicode spaces and digits (Python's \s and \d are
# Unicode), and letters in and out of "Page"
_EDGE_FRAGMENTS = ["Page 12", "Page", "- 3 -", "[4]", "(7)", "-----", "=====",
                   "%PDF", "%PDF-1.4", "<<<", "<", "<p>", ">", "\n", "\r",
                   "\x0b", "\x0c", "\u2028", "\u00a0", "\u3000", "\u0663",
                   "\u0661\u0662", " ", "  ", "\t", "a", "e", "g", "P", "x",
                   "B", "Hello world", "12", "7", "-", "=", ""]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.lists(st.sampled_from(_EDGE_FRAGMENTS), max_size=6).map("".join),
    st.text(max_size=12), st.none()), max_size=20))
def test_marked_turns_extract_to_themselves(texts):
    marked = _unchanged_plain(pa.array(texts, pa.large_string()))
    assert len(marked) == len(texts)
    for text, mark in zip(texts, marked):
        if mark:
            assert text is not None
            res = extract_payload(text)
            assert (res["kind"], res["status"]) == ("plain", "ok"), text
            assert res["extracted_text"] == text == res["markdown"]


def test_plain_turn_mask_edges():
    texts = ["Hello world", "Page 3", "Page 3 x", "- 3 -", "[4]", "a", "x",
             "two  spaces", "line\nbreak", "trailing\n", "%PDF-1.4 x",
             "a < b < c < d", "a < b", "\u0663 x", None, ""]
    got = _unchanged_plain(pa.chunked_array([pa.array(texts[:8]),
                                             pa.array(texts[8:])]))
    assert got.tolist() == [True, False, True, False, False, False, True,
                            False, False, False, False, False, True, True,
                            False, False]


def test_one_sentence_turns_skip_the_per_row_loop(monkeypatch):
    calls = []
    monkeypatch.setattr(extract, "extract_payload",
                        lambda *a, **k: calls.append(a))
    block = _block(_sentence_turns(2000, 60))
    for wm in (True, False):
        out = pa.concat_tables(ExtractTurns(want_markdown=wm)(block))
        assert calls == []
        assert out.column("extracted_text").to_pylist() == \
            block.column("text").to_pylist()
        assert out.column("markdown").to_pylist() == \
            (block.column("text").to_pylist() if wm else [""] * 2000)
        assert set(out.column("kind").to_pylist()) == {"plain"}
        dur = out.column("duration_us").to_numpy()
        assert dur.sum() > 0 and dur.max() - dur.min() <= 1


def test_keep_spans_false_builds_no_span_records(monkeypatch):
    rng = random.Random(7)
    texts = [make_turn_payload(rng)[1] for _ in range(60)]
    block = _block(texts)
    kept = pa.concat_tables(ExtractTurns()(block))

    def no_records(*args, **kwargs):
        raise AssertionError("span records built with keep_spans=False")

    monkeypatch.setattr(payload, "spans_to_records", no_records)
    dropped = pa.concat_tables(ExtractTurns(keep_spans=False)(block))
    assert set(kept.column("kind").to_pylist()) == {"pdf", "html", "plain"}
    assert pc.sum(kept.column("n_spans")).as_py() > 0
    for name in kept.column_names:
        if name not in ("spans", "duration_us"):
            assert dropped.column(name).equals(kept.column(name)), name
    assert dropped.column("spans").to_pylist() == [[]] * len(texts)


def test_short_turns_come_out_as_one_table():
    block = _block(_sentence_turns(1000, 60))
    tables = list(ExtractTurns(want_markdown=False, keep_spans=False)(block))
    assert len(tables) == 1
    assert tables[0].num_rows == 1000


def test_turn_over_budget_comes_out_alone(monkeypatch):
    monkeypatch.setattr(extract, "BATCH_BYTES", 1000)
    texts = _sentence_turns(3, 300) + ["x " * 1500] + _sentence_turns(3, 300)
    tables = list(ExtractTurns(want_markdown=False)(_block(texts)))
    rows = [t.column("turn_idx").to_pylist() for t in tables]
    assert rows == [[0, 1, 2], [3], [4, 5, 6]]


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.one_of(st.integers(0, 400), st.none()),
                      max_size=80),
       budget=st.integers(1, 1000))
def test_no_slice_passes_budget_unless_single_row(sizes, budget):
    texts = pa.array([None if s is None else "a" * s for s in sizes],
                     pa.large_string())
    nbytes = [s or 0 for s in sizes]
    old = extract.BATCH_BYTES
    extract.BATCH_BYTES = budget
    try:
        slices = byte_slices(texts)
    finally:
        extract.BATCH_BYTES = old
    if not sizes:
        assert slices == [(0, 0)]
        return
    # the slices cover every row once, in order
    assert slices[0][0] == 0 and slices[-1][1] == len(sizes)
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    for start, stop in slices:
        taken = sum(nbytes[start:stop])
        assert stop > start
        assert taken <= budget or stop - start == 1
        # greedy: the next row would have passed the budget
        if stop < len(sizes):
            assert taken + nbytes[stop] > budget


def test_tables_stay_within_budget(monkeypatch):
    rng = random.Random(3)
    texts = [make_turn_payload(rng)[1] for _ in range(40)]
    block = _block(texts)
    monkeypatch.setattr(extract, "BATCH_BYTES", 4096)
    tables = list(ExtractTurns(want_markdown=False)(block))
    assert sum(t.num_rows for t in tables) == len(texts)
    for t in tables:
        n = t.num_rows
        rows = t.column("turn_idx").to_pylist()
        taken = _payload_bytes(block.take(pa.array(rows)))
        assert taken <= extract.BATCH_BYTES or n == 1


def test_zero_row_block_gives_one_empty_table_with_schema():
    block = _block(["hello"]).slice(0, 0)
    tables = list(ExtractTurns()(block))
    assert len(tables) == 1
    assert tables[0].num_rows == 0
    want = ExtractTurns()(_block(["hello"]))
    assert tables[0].schema == next(want).schema


def test_extract_dataset_keeps_one_output_block_per_input_block(ray_session):
    import ray.data as rd

    from pdf_oxide_ray.pipelines.flagship import extract_dataset

    blocks = [_block(_sentence_turns(40, 60), conv=f"c{i}") for i in range(3)]
    out = extract_dataset(rd.from_arrow(blocks), want_markdown=False,
                          keep_spans=False).materialize()
    assert out.num_blocks() == 3
    assert out.count() == 120


def test_output_blocks_hold_few_chunks(ray_session):
    import ray
    import ray.data as rd

    from pdf_oxide_ray.pipelines.flagship import extract_dataset

    # 1200 turns of 900 B: just over one budget per block
    blocks = [_block(_sentence_turns(1200, 900), conv=f"c{i}")
              for i in range(3)]
    assert all(_payload_bytes(b) > BATCH_BYTES for b in blocks)
    out = extract_dataset(rd.from_arrow(blocks), want_markdown=False,
                          keep_spans=False).materialize()
    block_bytes = {b.column("conv_id")[0].as_py(): _payload_bytes(b)
                   for b in blocks}
    got = [ray.get(ref) for ref in out.to_arrow_refs()]
    assert len(got) == 3
    for tbl in got:
        assert tbl.num_rows == 1200
        conv = tbl.column("conv_id")[0].as_py()
        limit = math.ceil(block_bytes[conv] / BATCH_BYTES) + 1
        for name in tbl.column_names:
            assert tbl.column(name).num_chunks <= limit, (conv, name)

