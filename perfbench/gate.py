"""Correctness gate for one flagship job's output directory."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_oxide_ray.stages.assembly import TURN_SEPARATOR

from perfbench.workloads import prefix_offsets

REFERENCE = ["kind", "extracted_text", "markdown", "spans", "status"]
READ = ["conv_id", "turn_idx", *REFERENCE, "n_chars", "turn_offset",
        "conv_turns", "duration_us"]


def read_output(out_dir: Path) -> pa.Table:
    files = sorted(Path(out_dir).rglob("*.parquet"))
    table = pa.concat_tables(pq.read_table(f, columns=READ) for f in files)
    return table.sort_by([("conv_id", "ascending"),
                          ("turn_idx", "ascending")])


def _differs(got: pa.ChunkedArray, want: pa.ChunkedArray) -> np.ndarray:
    if got.equals(want):
        return np.zeros(len(want), bool)
    if pa.types.is_list(want.type):
        g, w = got.to_pylist(), want.to_pylist()
        return np.fromiter((a != b for a, b in zip(g, w)), bool, len(w))
    return ~pc.fill_null(pc.equal(got, want), False).to_numpy(
        zero_copy_only=False)


def failed_turns(out: pa.Table, expected: pa.Table) -> tuple[int, list[str]]:
    """Turns that fail the gate, and what failed. On every turn: ``n_chars``
    is the length of ``extracted_text``, and ``turn_offset``/``conv_turns``
    equal an independent prefix sum of ``n_chars`` over the turns sorted by
    (conv_id, turn_idx). On the sampled turns: the reference output. A turn
    with ``status=error`` fails too. With the wrong row count or keys,
    every turn fails."""
    n = expected.num_rows
    if out.num_rows != n:
        return n, [f"rows {out.num_rows} != {n}"]
    if not (out.column("conv_id").equals(expected.column("conv_id"))
            and out.column("turn_idx").equals(expected.column("turn_idx"))):
        return n, ["conv_id/turn_idx keys"]
    checks = {}
    n_chars = out.column("n_chars").to_numpy()
    checks["n_chars"] = n_chars != pc.utf8_length(
        out.column("extracted_text")).to_numpy()
    offsets, conv_turns = prefix_offsets(
        np.asarray(out.column("conv_id").to_pylist(), dtype=object),
        n_chars, len(TURN_SEPARATOR))
    checks["turn_offset"] = out.column("turn_offset").to_numpy() != offsets
    checks["conv_turns"] = out.column("conv_turns").to_numpy() != conv_turns
    sampled = expected.column("sampled").to_numpy(zero_copy_only=False)
    sample_out = out.filter(pa.array(sampled))
    sample_want = expected.filter(pa.array(sampled))
    for name in REFERENCE:
        got = sample_out.column(name).cast(sample_want.schema.field(name).type)
        bad = np.zeros(n, bool)
        bad[sampled] = _differs(got, sample_want.column(name))
        checks[name] = bad
    checks["status=error"] = pc.equal(out.column("status"), "error").to_numpy(
        zero_copy_only=False)
    failed = np.zeros(n, bool)
    for bad in checks.values():
        failed |= bad
    return int(failed.sum()), [f"{k}: {int(v.sum())} turns"
                               for k, v in checks.items() if v.any()]
