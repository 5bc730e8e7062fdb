"""Conversation offsets by block position: every flagship row gets
``turn_offset``, its text's character offset in the ``TURN_SEPARATOR``-joined
conversation text, and ``conv_turns``.

The offsets need only the skinny columns ``(conv_id, turn_idx, n_chars)``,
~24 B/turn. ``annotate_blocks`` works on the blocks of a materialized
Dataset, by position:

1. one task per block selects the skinny columns (and ``status``, for the
   job's error count), and the driver concatenates them in block order;
2. ``compute_offsets_table`` sorts them by ``(conv_id, turn_idx)``, takes
   one segmented prefix sum and returns each row's figures in the skinny
   table's row order, so row ``i`` of block ``b`` is row ``start_b + i``;
3. one task per block appends its slice of the figures to the block it
   came from.

No key is hashed or looked up, and the extracted text, markdown and spans
never leave their node. A hot conversation costs its turn count, not its
payload bytes. The tasks keep Ray's default of one CPU: a zero-CPU task
can start one more worker process.

The driver's time and memory bound the corpus this serves; the measured
cost and what lies beyond it are in SCALE.md.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

SKINNY = ["conv_id", "turn_idx", "n_chars", "status"]


@ray.remote
def _skinny(block: pa.Table) -> pa.Table:
    # a block with no rows may have no columns either
    return block.select(SKINNY) if block.num_rows else pa.table({})


@ray.remote
def _annotate(block: pa.Table, offsets: np.ndarray,
              turns: np.ndarray) -> pa.Table:
    block = block.append_column("turn_offset", pa.array(offsets, pa.int64()))
    return block.append_column("conv_turns", pa.array(turns, pa.int32()))


def compute_offsets_table(skinny: pa.Table, sep_len: int) -> dict:
    """``offsets`` (int64) and ``turns`` (int32) of every row of ``skinny``,
    in its row order: a row's offset is the summed ``n_chars + sep_len`` of
    the turns before it in its conversation, sorted by ``turn_idx``. The
    sort is stable, so rows that share a ``(conv_id, turn_idx)`` key keep
    their order and each gets its own offset."""
    codes = pc.dictionary_encode(
        skinny.column("conv_id").combine_chunks(),
        null_encoding="encode").indices.to_numpy()
    order = np.lexsort((skinny.column("turn_idx").to_numpy(), codes))
    sizes = skinny.column("n_chars").to_numpy().astype(np.int64)[order] \
        + sep_len
    before = np.cumsum(sizes) - sizes
    # sorted by code, each conversation is one run starting at its first
    counts = np.bincount(codes)
    first = np.cumsum(counts) - counts
    offsets = np.empty(len(order), np.int64)
    offsets[order] = before - before[first][codes[order]]
    return {"offsets": offsets, "turns": counts[codes].astype(np.int32)}


def annotate_blocks(refs: list,
                    sep_len: int) -> tuple[list, pa.Table | None]:
    """Refs of the blocks ``refs`` with ``turn_offset`` and ``conv_turns``
    appended, in the same order, and the gathered skinny table (``None``
    when no block has rows). Blocks without rows are left out: they hold
    nothing to write. ``compute_offsets_table`` is looked up at call time,
    so that a tracer can rebind it in this module."""
    parts = ray.get([_skinny.remote(ref) for ref in refs])
    kept = [(ref, part) for ref, part in zip(refs, parts) if part.num_rows]
    if not kept:
        return [], None
    skinny = pa.concat_tables([part for _, part in kept],
                              promote_options="default")
    result = compute_offsets_table(skinny, sep_len)
    out, start = [], 0
    for ref, part in kept:
        end = start + part.num_rows
        out.append(_annotate.remote(ref, result["offsets"][start:end],
                                    result["turns"][start:end]))
        start = end
    return out, skinny
