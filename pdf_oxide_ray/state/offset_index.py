"""Conversation offsets: every flagship row gets ``turn_offset``, its
text's character offset in the ``TURN_SEPARATOR``-joined conversation text,
and ``conv_turns``.

The offsets need only the skinny columns ``(conv_id, turn_idx, n_chars)``,
~24 B/turn, so the driver gathers them, sorts by ``(conv_id, turn_idx)``
and takes one segmented prefix sum (``compute_offsets_table``). The lookup
goes back to the workers as one ``ray.put``, and
``AnnotateOffsetsBroadcast`` annotates the fat rows in place: the extracted
text, markdown and spans never cross an exchange. A hot conversation costs
its turn count, not its payload bytes.

The driver's time and memory bound the corpus this serves; the measured
cost and what lies beyond it are in SCALE.md.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def _row_keys(conv, tidx) -> np.ndarray:
    """Vectorized 64-bit (conv_id, turn_idx) key: pandas' SipHash-based
    string hash (fixed default key -> identical across processes) mixed
    with the turn index. Collision bound: n^2 / 2^64 pairs — ~1e-6 at 5M
    turns."""
    import pandas as pd

    conv_h = pd.util.hash_array(np.asarray(conv, dtype=object))
    t = np.asarray(tidx, dtype=np.uint64)
    return conv_h * np.uint64(0x9E3779B97F4A7C15) + t


def compute_offsets_table(skinny: pa.Table, sep_len: int) -> dict:
    """Vectorized groupby(conv_id)-sort(turn_idx)-prefix-sum over a driver-
    side skinny table. Returns numpy arrays (sorted key -> offset/turns):
    these ride ``ray.put`` as zero-copy plasma buffers, so workers map them
    without deserialization (a python dict costs each worker ~1s of pickle
    at 132k entries — measured anti-scaling with worker count)."""
    conv = np.asarray(skinny.column("conv_id").to_pandas())
    tidx = skinny.column("turn_idx").to_numpy()
    nch = skinny.column("n_chars").to_numpy().astype(np.int64)
    order = np.lexsort((tidx, conv))
    conv_s, tidx_s, sizes = conv[order], tidx[order], nch[order] + sep_len
    new_grp = np.empty(len(conv_s), dtype=bool)
    new_grp[0:1] = True
    new_grp[1:] = conv_s[1:] != conv_s[:-1]
    csum = np.concatenate(([0], np.cumsum(sizes[:-1])))
    grp_base = np.maximum.accumulate(np.where(new_grp, csum, 0))
    starts = csum - grp_base
    grp_ids = np.cumsum(new_grp) - 1
    counts = np.bincount(grp_ids)
    conv_turns = counts[grp_ids]

    keys = _row_keys(conv_s, tidx_s)
    key_order = np.argsort(keys, kind="stable")
    return {
        "keys": keys[key_order],
        "offsets": starts[key_order].astype(np.int64),
        "turns": conv_turns[key_order].astype(np.int32),
    }


class AnnotateOffsetsBroadcast:
    """map_batches task fn: attach (turn_offset, conv_turns) to fat rows.
    The numpy lookup arrays ride a ``ray.put`` ObjectRef — zero-copy plasma
    read per worker; per-batch lookup is a vectorized searchsorted."""

    def __init__(self, lookup_ref):
        self.lookup_ref = lookup_ref
        self._lookup = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._lookup is None:
            self._lookup = ray.get(self.lookup_ref)
        lk = self._lookup
        conv = np.asarray(batch.column("conv_id").to_pandas())
        tidx = batch.column("turn_idx").to_numpy()
        keys = _row_keys(conv, tidx)
        pos = np.searchsorted(lk["keys"], keys)
        pos = np.minimum(pos, len(lk["keys"]) - 1)
        found = lk["keys"][pos] == keys
        offs = np.where(found, lk["offsets"][pos], -1)
        turns = np.where(found, lk["turns"][pos], 0).astype(np.int32)
        batch = batch.append_column("turn_offset", pa.array(offs, pa.int64()))
        return batch.append_column("conv_turns", pa.array(turns, pa.int32()))
