"""Production flagship job (run_flagship_job): golden text parity,
offsets against an independent prefix sum, error accounting, and the
incremental ingest job."""

import glob
import os
import shutil

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from pdf_oxide_ray.gen.cache import golden_path, transcripts_path
from pdf_oxide_ray.pipelines.flagship import run_flagship_job
from pdf_oxide_ray.stages.assembly import TURN_SEPARATOR


def _normalize(df):
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_job_matches_golden_and_prefix_sum(ray_session, tmp_path):
    path = transcripts_path("sf0.001", with_golden=True)
    out = str(tmp_path / "job")
    shutil.rmtree(out, ignore_errors=True)
    summary = run_flagship_job(path, out)
    job = _normalize(pads.dataset(out).to_table().to_pandas())
    golden = _normalize(pq.read_table(golden_path("sf0.001")).to_pandas())
    assert summary["rows"] == len(job) == len(golden)
    assert summary["errors"] == 0
    for col in ("conv_id", "turn_idx", "extracted_text", "markdown"):
        assert (job[col] == golden[col]).all(), col
    assert (job["status"] == "ok").all()
    assert (job["n_chars"] == job["extracted_text"].str.len()).all()

    # offsets: per-conversation exclusive prefix sum of n_chars + separator
    sizes = job["n_chars"] + len(TURN_SEPARATOR)
    want_offset = sizes.groupby(job["conv_id"]).cumsum() - sizes
    want_turns = job.groupby("conv_id")["turn_idx"].transform("size")
    assert (job["turn_offset"] == want_offset).all()
    assert (job["conv_turns"] == want_turns).all()


def test_job_counts_poison_rows_without_failing(ray_session, tmp_path):
    """Pipeline-level error accounting: garbage payloads flow through the
    whole phased job as status='error' rows and are counted in the
    summary; the job itself never fails."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_oxide_ray.gen.transcripts import TRANSCRIPT_SCHEMA

    n_good, n_poison = 30, 7
    rows = []
    for i in range(n_good):
        rows.append(("convA", i, "user", "plain text line", "",
                     1_700_000_000_000_000 + i))
    for i in range(n_poison):
        rows.append(("convB", i, "user",
                     "%PDF-1.7\n\x00\xff garbage \\ ( <."
                     + "x" * 50, "", 1_700_000_100_000_000 + i))
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([r[4] for r in rows]),
        "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
    }, schema=TRANSCRIPT_SCHEMA)
    src = str(tmp_path / "poison.parquet")
    pq.write_table(tbl, src)

    out = str(tmp_path / "out")
    summary = run_flagship_job(src, out, keep_spans=False)
    assert summary["rows"] == n_good + n_poison
    got = pads.dataset(out).to_table().to_pandas()
    assert len(got) == n_good + n_poison
    # poison rows are error-status but fully annotated
    poison = got[got["conv_id"] == "convB"]
    assert (poison["turn_offset"] >= 0).all()
    assert summary["errors"] == int((got["status"] == "error").sum())


def test_rerun_into_same_dir_raises(ray_session, tmp_path):
    """A second job into a directory that holds files raises before it
    writes, and the first job's rows stay as they were."""
    path = transcripts_path("sf0.001", with_golden=True)
    out = str(tmp_path / "job")
    summary = run_flagship_job(path, out, keep_spans=False)
    before = pads.dataset(out).to_table()
    with pytest.raises(FileExistsError):
        run_flagship_job(path, out, keep_spans=False)
    after = pads.dataset(out).to_table()
    assert after.num_rows == summary["rows"]
    assert after.equals(before)


def _row_groups(out_dir):
    """The row counts of each written file's row groups, sorted: blocks
    finish in any order."""
    out = []
    for f in glob.glob(os.path.join(out_dir, "*.parquet")):
        md = pq.ParquetFile(f).metadata
        out.append([md.row_group(g).num_rows
                    for g in range(md.num_row_groups)])
    return sorted(out)


def test_row_groups_repeat_across_runs(ray_session, tmp_path):
    """The files and row groups follow the data (the extract's output
    tables and ``MIN_ROWS_PER_FILE``), not run timing."""
    path = transcripts_path("sf0.001", with_golden=True)
    runs = []
    for i in range(2):
        run_flagship_job(path, str(tmp_path / f"job{i}"))
        runs.append(_row_groups(str(tmp_path / f"job{i}")))
    assert runs[0] == runs[1] == [[888]]


def test_parallel_generation_byte_identical():
    """generate_transcripts_parallel must reproduce the sequential tables
    exactly (Table.equals) — the corpus is a deterministic artifact."""
    from pdf_oxide_ray.gen.transcripts import (generate_transcripts,
                                               generate_transcripts_parallel)

    a, ga = generate_transcripts(520, seed=5)
    b, gb = generate_transcripts_parallel(520, seed=5, processes=4)
    assert a.equals(b)
    assert ga.equals(gb)


def test_incremental_ingest_day2(ray_session, tmp_path):
    """Day-2 ingestion: first ingest keeps everything; re-ingesting the
    SAME corpus drops every non-error turn as a duplicate; a corpus
    with fresh content appends only the new turns."""
    import json
    import os

    import pyarrow.parquet as pq

    from pdf_oxide_ray.gen.transcripts import write_corpus
    from pdf_oxide_ray.pipelines.ingest import run_incremental_ingest

    c1 = tmp_path / "c1"
    write_corpus(str(c1), n_convs=12, seed=101)
    out = str(tmp_path / "corpus_out")

    s1 = run_incremental_ingest(str(c1 / "transcripts.parquet"), out,
                                keep_spans=False)
    assert s1["part_id"] == 0
    # the increment self-dedups too, so kept <= seen (identical plain
    # payloads can repeat within one corpus)
    assert 0 < s1["rows_kept"] <= s1["rows_seen"]
    assert s1["rows_dropped"] == s1["rows_seen"] - s1["rows_kept"]
    m0 = json.load(open(os.path.join(out, "part_id=0",
                                     "_manifest.json")))
    assert m0["status"] == "complete" and m0["rows"] == s1["rows_kept"]

    # identical shard again: everything non-error is a duplicate
    s2 = run_incremental_ingest(str(c1 / "transcripts.parquet"), out,
                                keep_spans=False)
    assert s2["part_id"] == 1
    t1 = pq.read_table(os.path.join(out, "part_id=0"),
                       columns=["status"])
    n_err = sum(1 for s in t1.column("status").to_pylist()
                if s == "error")
    assert s2["rows_kept"] == n_err  # only error rows re-enter
    assert s2["rows_dropped"] == s2["rows_seen"] - n_err

    # a different seed brings genuinely new content
    c2 = tmp_path / "c2"
    write_corpus(str(c2), n_convs=6, seed=202)
    s3 = run_incremental_ingest(str(c2 / "transcripts.parquet"), out,
                                keep_spans=False)
    assert s3["part_id"] == 2
    assert s3["rows_kept"] > 0
    total = 0
    for i in range(3):
        m = json.load(open(os.path.join(out, f"part_id={i}",
                                        "_manifest.json")))
        assert m["status"] == "complete"
        total += m["rows"]
    assert total == s1["rows_kept"] + s2["rows_kept"] + s3["rows_kept"]
