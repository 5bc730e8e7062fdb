"""Seeded benchmark workloads and their expected outputs.

Each workload is a Parquet transcripts file built from ``--seed`` with the
``pdf_oxide_ray.gen.transcripts`` generators, plus an ``expected.parquet``
holding every turn's key and, for a seeded sample of turns, what an
in-process ``core.payload.extract_payload`` gives.

Generation runs in a child process (``python3 perfbench/workloads.py ...``)
so that its memory never shows in the benchmark process's peak RSS. Results
are cached under ``.perfbench_cache/`` in the checkout, keyed by workload,
seed and generator version; the version hashes the sources that decide the
bytes (this file, the transcript generator and the extraction kernel).

The reference is computed by the kernel under test, so by itself it would
follow any change to the kernel's output. ``digests.json`` pins it: a sha256
of each workload's input rows and of its sampled reference output, for the
seeds in ``DIGEST_SEEDS``, computed at the commit that added the file. A run
checks its own seed's digests, or those of ``CANARY_SEED`` for a seed
without any. After a deliberate change to the kernel's output or to the
generator, rewrite the file with ``python3 perfbench/workloads.py
--write-digests`` and say why in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from pdf_oxide_ray.core.payload import extract_payload  # noqa: E402
from pdf_oxide_ray.gen import transcripts as gen  # noqa: E402

GENERATOR_VERSION = 1
CACHE_DIR = ROOT / ".perfbench_cache"
DIGESTS = Path(__file__).resolve().with_name("digests.json")
DIGEST_SEEDS = range(64)
CANARY_SEED = 0
BASE_TS_US = 1_700_000_000_000_000
WARMUP_ROWS = 32
# turns per workload whose full output is compared with the reference; the
# row count, keys, n_chars and offsets are checked on every turn
REFERENCE_TURNS = 600


@dataclass(frozen=True)
class Workload:
    name: str
    turns: int
    keep_spans: bool
    want_markdown: bool

    @property
    def job_kwargs(self) -> dict:
        return {"keep_spans": self.keep_spans,
                "want_markdown": self.want_markdown}


# Sizes are fixed turn counts, so every seed gives the same amount of work
# and the run-to-run spread measures the system, not the draw. Each job
# takes 2-4 s on one CPU, so a run fits several jobs.
WORKLOADS = {
    "mix_full": Workload("mix_full", 2400, keep_spans=True,
                         want_markdown=True),
    "chat_hot": Workload("chat_hot", 40000, keep_spans=True,
                         want_markdown=True),
}


@dataclass(frozen=True)
class Paths:
    input: Path
    warmup: Path
    expected: Path
    meta: Path


# -- row generators ---------------------------------------------------------
# Each yields (conv_id, turn_idx, role, text, tool, ts_us) rows.

def _row(conv_index: int, t: int, text: str) -> tuple:
    role = ("user", "assistant", "tool")[t % 3]
    return (f"conv{conv_index:06d}", t, role, text,
            "extractor" if role == "tool" else "",
            BASE_TS_US + conv_index * 3_600_000_000 + t * 30_000_000)


def _mix_full(seed: int, turns: int):
    """The production corpus: ``conv_rows`` with its 60/30/10 pdf/html/plain
    mix and 1% of conversations at 50x the median length."""
    for i in itertools.count():
        yield from gen.conv_rows(i, seed)


def _chat_hot(seed: int, turns: int):
    """One-sentence chat turns; three conversations hold thousands of turns
    each (about a quarter of all turns) and the rest are short."""
    rng = random.Random(f"chat_hot:{seed}")
    hot = [rng.randint(turns // 16, turns // 8) for _ in range(3)]
    i = 0
    while True:
        n = hot[i] if i < len(hot) else max(1, int(rng.gauss(6, 2)))
        for t in range(n):
            # the first line of a plain payload is always one sentence
            yield _row(i, t, gen.make_plain_payload(rng).split("\n", 1)[0])
        i += 1


_ROWS = {"mix_full": _mix_full, "chat_hot": _chat_hot}


def generate_rows(name: str, seed: int, turns: int | None = None) -> list:
    """The first ``turns`` rows of the workload (its fixed size by default);
    the last conversation is cut where the count is reached."""
    n = WORKLOADS[name].turns if turns is None else turns
    return list(itertools.islice(_ROWS[name](seed, n), n))


def transcripts_table(rows: list, seed: int) -> pa.Table:
    """Rows in a seed-stable shuffled order, so the job must restore it."""
    order = np.random.RandomState(seed).permutation(len(rows))
    cols = list(zip(*(rows[j] for j in order)))
    return pa.table({
        "conv_id": pa.array(cols[0], pa.string()),
        "turn_idx": pa.array(cols[1], pa.int32()),
        "role": pa.array(cols[2], pa.string()),
        "text": pa.array(cols[3], pa.string()),
        "tool": pa.array(cols[4], pa.string()),
        "ts": pa.array(cols[5], pa.timestamp("us")),
    }, schema=gen.TRANSCRIPT_SCHEMA)


# -- expected output --------------------------------------------------------

def reference_output(text: str, wl: Workload) -> dict:
    res = extract_payload(text, want_markdown=wl.want_markdown)
    if not wl.keep_spans:
        res["spans"] = []
    return res


def prefix_offsets(conv_ids: np.ndarray, n_chars: np.ndarray,
                   sep_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and conversation sizes for turns already sorted by
    (conv_id, turn_idx): each turn starts after the text and separator of
    every earlier turn of its conversation."""
    _, first, inverse, counts = np.unique(
        conv_ids, return_index=True, return_inverse=True, return_counts=True)
    sizes = n_chars.astype(np.int64) + sep_len
    before = np.cumsum(sizes) - sizes
    return before - before[first][inverse], counts[inverse].astype(np.int32)


def expected_table(table: pa.Table, wl: Workload, seed: int) -> pa.Table:
    """Every turn's key, sorted by (conv_id, turn_idx), and for a seeded
    sample of REFERENCE_TURNS turns (``sampled``) the reference output."""
    keys = table.select(["conv_id", "turn_idx", "text"]).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = keys.num_rows
    sampled = np.zeros(n, bool)
    sampled[np.random.default_rng(seed).choice(
        n, min(n, REFERENCE_TURNS), replace=False)] = True
    texts = keys.column("text").to_pylist()
    res = [reference_output(t, wl) if s else None
           for t, s in zip(texts, sampled)]

    def col(key, typ):
        return pa.array([r[key] if r else None for r in res], typ)

    return pa.table({
        "conv_id": keys.column("conv_id"),
        "turn_idx": keys.column("turn_idx"),
        "sampled": pa.array(sampled),
        "kind": col("kind", pa.string()),
        "extracted_text": col("extracted_text", pa.large_string()),
        "markdown": col("markdown", pa.large_string()),
        "spans": col("spans", pa.list_(gen.SPAN_TYPE)),
        "status": col("status", pa.string()),
    })


def _sha256(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True, default=str)
                          .encode()).hexdigest()[:16]


def digests(table: pa.Table, expected: pa.Table) -> dict[str, str]:
    """sha256 (first 16 hex digits) of the input rows and of the sampled
    reference rows, over their JSON, so it does not depend on the Parquet or
    Arrow version."""
    sample = expected.filter(expected.column("sampled")).drop_columns(
        ["sampled"])
    return {"input": _sha256(table.to_pylist()),
            "output": _sha256(sample.to_pylist())}


# -- cache ------------------------------------------------------------------

def _source_hash() -> str:
    h = hashlib.sha256(str(GENERATOR_VERSION).encode())
    pkg = ROOT / "pdf_oxide_ray"
    files = [Path(__file__), pkg / "gen" / "transcripts.py",
             *sorted((pkg / "core").glob("*.py"))]
    for f in files:
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def cache_dir(name: str, seed: int) -> Path:
    return CACHE_DIR / "workloads" / f"{name}-s{seed}-g{_source_hash()}"


def build(name: str, seed: int, out: Path) -> None:
    """Write input.parquet, warmup.parquet, expected.parquet and
    meta.json (payload bytes and digests) to ``out`` (atomically: a temp
    dir renamed into place)."""
    wl = WORKLOADS[name]
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    table = transcripts_table(generate_rows(name, seed), seed)
    expected = expected_table(table, wl, seed)
    pq.write_table(table, tmp / "input.parquet")
    pq.write_table(table.slice(0, WARMUP_ROWS), tmp / "warmup.parquet")
    pq.write_table(expected, tmp / "expected.parquet")
    meta = {"input_bytes": sum(len(t.encode()) for t in
                               table.column("text").to_pylist()),
            **digests(table, expected)}
    (tmp / "meta.json").write_text(json.dumps(meta))
    try:
        tmp.rename(out)
    except OSError:  # another run finished the same key first
        shutil.rmtree(tmp, ignore_errors=True)


def ensure(name: str, seed: int) -> Paths:
    """Cached workload files, generated in a child process when missing."""
    out = cache_dir(name, seed)
    if not (out / "meta.json").exists():
        out.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", name, "--seed", str(seed),
                        "--out", str(out)], check=True)
    return Paths(out / "input.parquet", out / "warmup.parquet",
                 out / "expected.parquet", out / "meta.json")


def reference_problems(name: str, seed: int) -> list[str]:
    """How the built input and reference of ``seed`` (or, for a seed with
    no digests, of CANARY_SEED) differ from ``digests.json``."""
    pinned = json.loads(DIGESTS.read_text())[name]
    if str(seed) not in pinned:
        seed = CANARY_SEED
    meta = json.loads(ensure(name, seed).meta.read_text())
    what = {"input": "the generated input", "output": "the reference output"}
    return [f"{what[k]} of {name} seed {seed} differs from {DIGESTS.name}"
            for k in what if meta[k] != pinned[str(seed)][k]]


def write_digests() -> None:
    DIGESTS.write_text(json.dumps({
        name: {str(seed): {k: v for k, v in json.loads(
            ensure(name, seed).meta.read_text()).items() if k != "input_bytes"}
            for seed in DIGEST_SEEDS}
        for name in WORKLOADS}, indent=1) + "\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-digests", action="store_true",
                    help=f"write {DIGESTS.name} for seeds in DIGEST_SEEDS")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()
    if a.write_digests:
        write_digests()
    elif None in (a.workload, a.seed, a.out):
        ap.error("--workload, --seed and --out are required")
    else:
        build(a.workload, a.seed, a.out)
