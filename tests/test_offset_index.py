"""Positional conversation offsets (``state/offset_index.py``) against a
running sum written here, over random splits of random rows into blocks:
blocks without rows, conversations split across blocks, error rows and
rows that share a ``(conv_id, turn_idx)`` key."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_oxide_ray.state.offset_index import annotate_blocks

SEP = 2

rows_st = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "hot"]),
                             st.integers(0, 5),          # turn_idx
                             st.integers(0, 300),        # n_chars
                             st.booleans()),             # error row
                   max_size=60)


def _running_sums(rows) -> list[tuple[int, int]]:
    """(turn_offset, conv_turns) of each row: its conversation's turns in
    (turn_idx, row) order, each after the text and separator of the turns
    before it. Rows that share a key each get their own offset."""
    convs: dict[str, list] = {}
    for i, (conv, tidx, n, _) in enumerate(rows):
        convs.setdefault(conv, []).append((tidx, i, n))
    want = [None] * len(rows)
    for turns in convs.values():
        offset = 0
        for _, i, n in sorted(turns):
            want[i] = (offset, len(turns))
            offset += n + SEP
    return want


def _block(rows) -> pa.Table:
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": pa.array(["x" * r[2] for r in rows], pa.large_string()),
        "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        "status": pa.array(["error" if r[3] else "ok" for r in rows]),
    })


@settings(max_examples=40, deadline=None)
@given(rows_st, st.lists(st.integers(0, 60), max_size=6), st.booleans())
def test_offsets_match_running_sum_over_any_block_split(ray_session, rows,
                                                        cuts, bare):
    """``bare``: the blocks without rows have no columns either, as Ray
    can make them."""
    ray = ray_session
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    blocks = [_block(rows[a:b]) if a < b or not bare else pa.table({})
              for a, b in zip(bounds, bounds[1:])]
    annotated, skinny = annotate_blocks([ray.put(b) for b in blocks], SEP)
    kept = [b for b in blocks if b.num_rows]
    assert len(annotated) == len(kept)
    if not kept:
        assert skinny is None
        return
    outs = ray.get(annotated)
    for block, out in zip(kept, outs):  # each block annotated in place
        assert out.select(block.column_names).equals(block)
    out = pa.concat_tables(outs)
    got = list(zip(out.column("turn_offset").to_pylist(),
                   out.column("conv_turns").to_pylist()))
    assert got == _running_sums(rows)
    assert skinny.column("status").to_pylist() == \
        ["error" if r[3] else "ok" for r in rows]


def test_shared_keys_get_their_own_offsets(ray_session):
    """Two rows with one key, in different blocks: each is placed after
    the other rows before it in block order, not at one shared offset."""
    ray = ray_session
    rows = [("c", 0, 10, False), ("c", 1, 5, False), ("c", 1, 7, True),
            ("c", 2, 1, False)]
    annotated, _ = annotate_blocks(
        [ray.put(_block(rows[:2])), ray.put(_block(rows[2:]))], SEP)
    out = pa.concat_tables(ray.get(annotated))
    assert out.column("turn_offset").to_pylist() == [0, 12, 19, 28]
    assert out.column("conv_turns").to_pylist() == [4] * 4
