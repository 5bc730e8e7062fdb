"""JSONL documents source (`sources/jsonl_docs.py`): schema mapping,
stable derived doc ids, row-level error absorption for malformed
lines, blank-line skipping, the one-pass partitioned ingest sink,
and the CLI entry point."""

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest

from pdf_oxide_ray.sources.jsonl_docs import (ingest_jsonl_dir,
                                              read_jsonl_docs)


def _write_jsonl(path, lines):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")
    return path


GOOD = [json.dumps({"text": "hello world", "lang": "en",
                    "source": "web"}),
        json.dumps({"text": "zweite zeile", "lang": "de",
                    "source": "web", "doc_id": 77}),
        json.dumps({"text": "no metadata at all"})]
BAD = ["{not json at all",
       json.dumps(["a", "list", "not", "object"]),
       json.dumps({"lang": "en"}),          # missing text
       json.dumps({"text": 123})]           # non-string text


def test_read_jsonl_schema_and_errors(ray_session, tmp_path):
    p = _write_jsonl(tmp_path / "in" / "a.jsonl",
                     GOOD + ["", "   "] + BAD)
    out = read_jsonl_docs(str(tmp_path / "in")).to_pandas()
    ok = out[out["status"] == "ok"]
    err = out[out["status"] == "error"]
    assert len(ok) == 3 and len(err) == 4  # blanks skipped silently
    assert list(out.columns) == ["doc_id", "text", "lang", "source",
                                 "n_chars", "status", "error"]
    by_text = ok.set_index("text")
    assert int(by_text.loc["zweite zeile", "doc_id"]) == 77
    assert by_text.loc["no metadata at all", "lang"] == ""
    assert (ok["n_chars"] == ok["text"].str.len()).all()
    assert (ok["doc_id"] >= 0).all()  # 63-bit derived ids
    assert err["error"].str.len().gt(0).all()


def test_derived_ids_stable_across_runs(ray_session, tmp_path):
    p1 = _write_jsonl(tmp_path / "r1" / "a.jsonl", GOOD)
    p2 = _write_jsonl(tmp_path / "r2" / "a.jsonl", GOOD)
    a = read_jsonl_docs(p1).to_pandas().sort_values("text")
    b = read_jsonl_docs(p2).to_pandas().sort_values("text")
    assert a["doc_id"].tolist() == b["doc_id"].tolist()


def test_ingest_one_pass_partitioned(ray_session, tmp_path):
    _write_jsonl(tmp_path / "in" / "a.jsonl", GOOD)
    _write_jsonl(tmp_path / "in" / "b.jsonl", BAD + [GOOD[0]])
    out = str(tmp_path / "docs")
    summary = ingest_jsonl_dir(str(tmp_path / "in"), out)
    assert summary == {"rows": 4, "errors": 4}
    good = pads.dataset(os.path.join(out, "status=ok")) \
        .to_table().to_pandas()
    assert len(good) == 4
    assert "hello world" in set(good["text"])
    quarantined = pads.dataset(os.path.join(out, "status=error")) \
        .to_table().to_pandas()
    assert len(quarantined) == 4
    assert quarantined["error"].str.len().gt(0).all()
    # Ray's read_parquet hashes file schemas; pandas metadata breaks that
    for frag in pads.dataset(out).get_fragments():
        assert b"pandas" not in (frag.physical_schema.metadata or {}), \
            frag.path


def test_cli_ingest_jsonl(tmp_path):
    _write_jsonl(tmp_path / "in" / "a.jsonl", GOOD + BAD[:1])
    out = str(tmp_path / "docs")
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    r = subprocess.run(
        [sys.executable, "-m", "pdf_oxide_ray.cli", "ingest-jsonl",
         "--input", str(tmp_path / "in"), "--output", out],
        capture_output=True, text=True, cwd="/root/repo", env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["rows"] == 3 and summary["errors"] == 1


def test_out_of_range_and_bool_ids_become_error_rows():
    """An id outside int64 or a JSON bool is one error row; the other
    rows of the batch survive."""
    from pdf_oxide_ray.sources.jsonl_docs import _parse_lines

    lines = [json.dumps({"text": "too wide", "doc_id": 2 ** 70}),
             json.dumps({"text": "a bool", "doc_id": True}),
             json.dumps({"text": "valid", "doc_id": 5})]
    out = _parse_lines(pd.DataFrame({"text": lines}))
    assert out["status"].tolist() == ["error", "error", "ok"]
    assert out["doc_id"].tolist() == [-1, -1, 5]
    assert out["error"].iloc[0] and out["error"].iloc[1]
