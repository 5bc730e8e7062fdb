"""The one commit protocol of every resumable writer (north rule).

Ray Data gives task retries, not job-level resume (SURVEY.md §4, §7). Every
writer under ``pipelines/`` and ``sources/`` commits through this module:
``replace_dir`` swaps a fresh copy of a directory in from a hidden temp dir,
``add_files`` moves new files into one a file at a time (only for a writer
whose rerun skips what is already there: a crash part way leaves some in
place), ``write_json`` writes a manifest atomically and ``read_json`` reads
a missing or torn one as ``None``. The rule: a partition with no complete
manifest does not exist. So the manifest is written last, after the stats
it records are read back (``committed_stats``, ``partition_rows``), a
rebuild with other parameters removes the old one first
(``reuse_manifest``), and a writer that finds none writes from scratch; a
temp dir a crash left behind is cleared by the next attempt.

Partitioned outputs hold ``part_id=N/`` directories, each committed with a
``_manifest.json`` carrying lineage (input fragment list), row/error counts,
an order-insensitive content hash and throughput.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time

MANIFEST_NAME = "_manifest.json"
_PART_DIR = re.compile(r"part_id=\d+")


def _tmp_path(path: str) -> str:
    head, name = os.path.split(os.path.normpath(path))
    return os.path.join(head, f".{name}.tmp")


def _fresh_tmp_dir(path: str) -> str:
    tmp = _tmp_path(path)
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)  # what a crashed attempt left behind
    return tmp


def replace_dir(path: str, write) -> None:
    """Commit a new copy of directory ``path``: ``write(tmp)`` fills a fresh
    temp dir, which then takes the place of the old copy."""
    tmp = _fresh_tmp_dir(path)
    write(tmp)
    os.makedirs(tmp, exist_ok=True)  # a write of no rows makes no dir
    if os.path.isdir(path) and os.listdir(path):
        shutil.rmtree(path)  # rename replaces only an empty directory
    os.replace(tmp, path)


def add_files(path: str, write) -> None:
    """Append to directory ``path``: ``write(tmp)`` fills a fresh temp dir,
    whose files then move into ``path`` one by one at the same relative
    paths."""
    tmp = _fresh_tmp_dir(path)
    write(tmp)
    for root, _, files in os.walk(tmp):
        dest = os.path.join(path, os.path.relpath(root, tmp))
        os.makedirs(dest, exist_ok=True)
        for name in sorted(files):
            os.replace(os.path.join(root, name), os.path.join(dest, name))
    shutil.rmtree(tmp, ignore_errors=True)


def write_json(path: str, obj: dict) -> None:
    """Atomic write: temp file + fsync + rename (a same-directory rename is
    atomic on POSIX), so a reader sees the old file or the new one."""
    tmp = _tmp_path(path)
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_json(path: str) -> dict | None:
    """The JSON object at ``path``; ``None`` when the file is missing, torn
    or holds no object."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def reuse_manifest(path: str, **params) -> dict | None:
    """The manifest at ``path`` if it records ``params``, else ``None``;
    any other manifest there is removed, because the rebuild that follows
    changes the files it describes and a crash part way must leave no
    manifest rather than a stale one."""
    man = read_json(path)
    if man is not None and all(man.get(k) == v for k, v in params.items()):
        return man
    if os.path.lexists(path):
        os.remove(path)
    return None


def partition_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part_id={part_id}")


def commit_partition(out_dir: str, part_id: int, ds, *,
                     inputs: list[str], t0: float) -> dict:
    """Commit Dataset ``ds`` as partition ``part_id``: its rows through
    ``replace_dir``, then the manifest, with the counts read back from the
    committed files and the wall seconds since ``perf_counter`` ``t0``."""
    pdir = partition_dir(out_dir, part_id)
    replace_dir(pdir, ds.write_parquet)
    stats = committed_stats(pdir)
    wall = time.perf_counter() - t0
    manifest = {
        "status": "complete",
        "part_id": part_id,
        "inputs": inputs,
        **stats,
        "wall_sec": round(wall, 3),
        "rows_per_sec": round(stats["rows"] / wall, 1) if wall > 0 else None,
        "written_unix": time.time(),
    }
    write_json(os.path.join(pdir, MANIFEST_NAME), manifest)
    return manifest


def read_manifests(out_dir: str) -> list[dict]:
    """The manifests of the committed partitions under ``out_dir``."""
    if not os.path.isdir(out_dir):
        return []
    mans = (read_json(os.path.join(out_dir, name, MANIFEST_NAME))
            for name in sorted(os.listdir(out_dir))
            if _PART_DIR.fullmatch(name))
    return [m for m in mans if m and m.get("status") == "complete"]


def committed_stats(path: str) -> dict:
    """``rows``, ``errors``, ``n_chars`` and ``content_hash`` of the rows
    committed at ``path``, from one Ray pass over at most three columns.
    ``content_hash`` is the order-insensitive sum of the ``row_hash``
    column masked to 63 bits, and 0 when the files carry no such column."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    names = pads.dataset(path).schema.names
    cols = [c for c in ("status", "n_chars", "row_hash") if c in names]
    if not cols:  # no files: an empty partition
        return {"rows": 0, "errors": 0, "n_chars": 0, "content_hash": 0}

    def per_block(b: pa.Table) -> pa.Table:
        h = b.column("row_hash").to_numpy() if "row_hash" in cols else []
        return pa.table({
            "rows": [b.num_rows],
            "errors": [pc.sum(pc.equal(b.column("status"), "error"))
                       .as_py() or 0],
            "n_chars": [int(np.sum(b.column("n_chars").to_numpy()))],
            "content_hash": [int(np.sum(h, dtype=np.uint64))]})

    sums = rd.read_parquet(path, columns=cols) \
        .map_batches(per_block, batch_format="pyarrow").to_pandas().sum()
    stats = {k: int(v) for k, v in sums.items()}
    stats["content_hash"] &= (1 << 63) - 1
    return stats


def partition_rows(path: str) -> dict[str, int]:
    """Rows under each ``key=value`` subdirectory of ``path``, by value,
    from parquet metadata alone (no data read)."""
    import pyarrow.dataset as pads

    if not os.path.isdir(path):
        return {}
    out = {}
    for name in sorted(os.listdir(path)):
        _, sep, value = name.partition("=")
        if sep and not name.startswith("."):
            out[value] = sum(f.count_rows() for f in
                             pads.dataset(os.path.join(path, name))
                             .get_fragments())
    return out
