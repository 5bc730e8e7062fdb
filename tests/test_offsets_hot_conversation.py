"""Conversation offsets on a skewed corpus: one 10^5-turn conversation
and ~50 cold ones, shuffled across blocks, through the flagship's offsets
path (``annotate_blocks``: per-block skinny gather, driver-side
``compute_offsets_table``, per-block annotate), checked against a
per-conversation running sum written here."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from pdf_oxide_ray.stages.assembly import TURN_SEPARATOR
from pdf_oxide_ray.state.offset_index import annotate_blocks

HOT_TURNS = 100_000


def _skewed_table(seed: int = 7) -> pa.Table:
    rng = np.random.RandomState(seed)
    convs = ["hot000"] * HOT_TURNS
    tidx = list(range(HOT_TURNS))
    for c in range(50):
        n = int(rng.randint(1, 12))
        convs += [f"cold{c:03d}"] * n
        tidx += list(range(n))
    order = rng.permutation(len(convs))
    return pa.table({
        "conv_id": pa.array([convs[i] for i in order]),
        "turn_idx": pa.array(np.asarray(tidx)[order], pa.int32()),
        "n_chars": pa.array(rng.randint(0, 400, len(convs)), pa.int64()),
        "status": pa.array(["ok"] * len(convs)),
    })


def _running_sums(tbl: pa.Table) -> dict:
    """(conv_id, turn_idx) -> (turn_offset, conv_turns), one conversation
    at a time in turn order."""
    turns: dict[str, list] = {}
    for c, t, n in zip(tbl.column("conv_id").to_pylist(),
                       tbl.column("turn_idx").to_pylist(),
                       tbl.column("n_chars").to_pylist()):
        turns.setdefault(c, []).append((t, n))
    want = {}
    for c, rows in turns.items():
        offset = 0
        for t, n in sorted(rows):
            want[(c, t)] = (offset, len(rows))
            offset += n + len(TURN_SEPARATOR)
    return want


def test_hot_conversation_offsets_match_running_sum(ray_session):
    ray = ray_session
    tbl = _skewed_table()
    ds = rd.from_arrow(tbl).repartition(8).materialize()
    annotated, _ = annotate_blocks(ds.to_arrow_refs(), len(TURN_SEPARATOR))
    out = pa.concat_tables(ray.get(annotated))

    assert out.num_rows == tbl.num_rows
    want = _running_sums(tbl)
    got = {(c, t): (o, n) for c, t, o, n in zip(
        out.column("conv_id").to_pylist(), out.column("turn_idx").to_pylist(),
        out.column("turn_offset").to_pylist(),
        out.column("conv_turns").to_pylist())}
    assert got == want
    assert want[("hot000", HOT_TURNS - 1)][1] == HOT_TURNS
