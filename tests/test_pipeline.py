"""Ray pipeline tests: flagship parity vs golden, ordering, resumable
partitioned extraction (the driver-contract correctness layer)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from pdf_oxide_ray.gen.cache import golden_path, transcripts_path
from pdf_oxide_ray.state.manifest import read_manifests


@pytest.fixture(scope="module")
def corpus(ray_session):
    return transcripts_path("sf0.001", with_golden=True)


def test_flagship_parity_and_ordering(ray_session, corpus):
    from pdf_oxide_ray.pipelines.flagship import run_flagship

    out = run_flagship(corpus).to_pandas()
    golden = pq.read_table(golden_path("sf0.001")).to_pandas()
    assert len(out) == len(golden)
    assert (out["status"] == "ok").all()

    merged = out.merge(
        golden[["conv_id", "turn_idx", "extracted_text", "markdown"]],
        on=["conv_id", "turn_idx"], suffixes=("", "_gold"))
    assert len(merged) == len(out)
    assert (merged["extracted_text"] == merged["extracted_text_gold"]).all()
    assert (merged["markdown"] == merged["markdown_gold"]).all()

    # stable turn ordering within each conversation (north rule)
    for _, grp in out.groupby("conv_id", sort=False):
        idx = grp["turn_idx"].tolist()
        assert idx == sorted(idx)

    # offsets: separator-joined concatenation positions
    g0 = out[out["conv_id"] == out["conv_id"].iloc[0]]
    expected = 0
    for _, row in g0.iterrows():
        assert row["turn_offset"] == expected
        expected += row["n_chars"] + 2  # TURN_SEPARATOR len


def test_spans_parity(ray_session, corpus):
    from pdf_oxide_ray.pipelines.flagship import extract_dataset, read_transcripts

    out = extract_dataset(read_transcripts(corpus)).to_pandas()
    golden = pq.read_table(golden_path("sf0.001")).to_pandas()
    gmap = {(r.conv_id, r.turn_idx): r.spans for r in golden.itertuples()}
    checked = 0
    for r in out.itertuples():
        gold_spans = gmap[(r.conv_id, r.turn_idx)]
        assert len(r.spans) == len(gold_spans)
        for got, want in zip(r.spans, gold_spans):
            assert got["text"] == want["text"]
            assert got["seq"] == want["seq"]
            checked += 1
    assert checked > 100


def test_partitioned_extraction_resume(ray_session, corpus, tmp_path):
    from pdf_oxide_ray.pipelines.flagship import run_extraction_partitioned

    out_dir = str(tmp_path / "extracted")
    s1 = run_extraction_partitioned(corpus, out_dir, num_shards=4,
                                    keep_spans=False)
    assert s1["skipped"] == 0
    assert s1["rows"] == 888
    manifests = read_manifests(out_dir)
    assert len(manifests) == 4
    assert sum(m["rows"] for m in manifests) == 888
    assert all(m["status"] == "complete" for m in manifests)

    # rerun skips everything
    s2 = run_extraction_partitioned(corpus, out_dir, num_shards=4,
                                    keep_spans=False)
    assert s2["skipped"] == 4
    assert s2["rows"] == 0

    # invalidate one shard -> only that one reruns, content hash identical
    old = json.load(open(os.path.join(out_dir, "part_id=2", "_manifest.json")))
    os.remove(os.path.join(out_dir, "part_id=2", "_manifest.json"))
    s3 = run_extraction_partitioned(corpus, out_dir, num_shards=4,
                                    keep_spans=False)
    assert s3["skipped"] == 3
    new = [m for m in s3["shards"] if m["part_id"] == 2][0]
    assert new["content_hash"] == old["content_hash"]
    assert new["rows"] == old["rows"]

    # shards partition the corpus: all rows present exactly once
    total = pq.read_table(out_dir).num_rows if False else sum(
        pq.read_table(os.path.join(out_dir, d)).num_rows
        for d in os.listdir(out_dir) if d.startswith("part_id="))
    assert total == 888


def test_poison_rows_do_not_fail_job(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from pdf_oxide_ray.pipelines.flagship import extract_dataset

    bad = pa.table({
        "conv_id": ["c1", "c1", "c2"],
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "role": ["user"] * 3,
        "text": ["%PDF-1.7\n garbage \x00\x01", None,
                 "<html><body><p>fine</p></body></html>"],
        "tool": [""] * 3,
        "ts": pa.array([0, 1, 2], pa.timestamp("us")),
    })
    out = extract_dataset(rd.from_arrow(bad)).to_pandas()
    assert len(out) == 3
    assert (out["status"] == "error").sum() <= 1  # garbage pdf may error
    assert (out[out["conv_id"] == "c2"]["status"] == "ok").all()


def test_jsonl_source_parity(ray_session, corpus, tmp_path):
    """JSONL transcripts must extract identically to the parquet source
    (read_transcripts casts JSON-inferred dtypes back to
    TRANSCRIPT_SCHEMA: int64 turn_idx -> int32, epoch-us ts ->
    timestamp[us])."""
    import pandas as pd

    from pdf_oxide_ray.pipelines.flagship import (extract_dataset,
                                                  read_transcripts)

    tbl = pq.read_table(corpus)
    df = tbl.to_pandas().head(200)
    jdf = df.copy()
    jdf["ts"] = jdf["ts"].astype("int64")  # epoch microseconds
    src = tmp_path / "transcripts.jsonl"
    jdf.to_json(src, orient="records", lines=True, force_ascii=False)

    ds = read_transcripts(str(src))
    schema = ds.schema()
    assert schema.base_schema.field("turn_idx").type == "int32"
    assert str(schema.base_schema.field("ts").type) == "timestamp[us]"

    cols = ["conv_id", "turn_idx", "extracted_text", "markdown", "n_chars"]
    got = (extract_dataset(ds).to_pandas()[cols]
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))

    import ray.data as rd
    ref_ds = rd.from_arrow(pq.read_table(corpus).slice(0, 200))
    want = (extract_dataset(ref_ds).to_pandas()[cols]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_read_transcripts_routing_edges(ray_session, tmp_path):
    """Directory-of-.json sources route to the JSON reader, and a glob
    matching mixed formats raises instead of misreading."""
    import pandas as pd
    import pyarrow as pa

    from pdf_oxide_ray.pipelines.flagship import read_transcripts

    df = pd.DataFrame({"conv_id": ["c"], "turn_idx": [0],
                       "role": ["user"], "text": ["hello"], "tool": [""],
                       "ts": [1_700_000_000_000_000]})
    d = tmp_path / "jsondir"
    d.mkdir()
    df.to_json(d / "part0.json", orient="records", lines=True)
    got = read_transcripts(str(d)).to_pandas()
    assert len(got) == 1 and got["turn_idx"].dtype == "int32"

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    df.to_json(mixed / "a.jsonl", orient="records", lines=True)
    pq.write_table(pa.table({"text": ["x"]}), mixed / "b.parquet")
    with pytest.raises(ValueError, match="mixed parquet/JSONL"):
        read_transcripts(str(mixed / "*"))
