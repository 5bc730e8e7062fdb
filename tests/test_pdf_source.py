"""File-based PDF source (sources/pdf_files): a directory of raw .pdf
files must flow through the SAME extraction stage as the parquet
flagship and produce identical per-payload results."""

import os
import random

import pyarrow.parquet as pq

from pdf_oxide_ray.core.payload import extract_payload
from pdf_oxide_ray.gen.transcripts import make_pdf_payload
from pdf_oxide_ray.sources.pdf_files import extract_pdf_dir, read_pdf_files


def _write_pdf_dir(tmp_path, n=10, seed=7) -> dict[str, str]:
    rng = random.Random(seed)
    d = tmp_path / "pdfs"
    os.makedirs(d, exist_ok=True)
    payloads = {}
    for i in range(n):
        p = make_pdf_payload(rng)
        fp = str(d / f"doc_{i:03d}.pdf")
        with open(fp, "wb") as f:
            f.write(p.encode("latin-1"))
        payloads[fp] = p
    # one malformed file: must yield a row (error or fallback), never raise
    bad = str(d / "doc_bad.pdf")
    with open(bad, "wb") as f:
        f.write(b"%PDF-1.4 garbage \xff\xfe truncated")
    payloads[bad] = "%PDF-1.4 garbage \xff\xfe truncated".encode(
        "latin-1").decode("latin-1")
    # and one zero-byte file: flows through as an empty payload row
    empty = str(d / "doc_empty.pdf")
    open(empty, "wb").close()
    payloads[empty] = ""
    return payloads


def test_read_pdf_files_schema_and_paths(ray_session, tmp_path):
    payloads = _write_pdf_dir(tmp_path)
    ds = read_pdf_files(str(tmp_path / "pdfs"))
    df = ds.to_pandas()
    assert len(df) == len(payloads)
    assert set(df.columns) == {"conv_id", "turn_idx", "role", "text"}
    got = dict(zip(df["conv_id"], df["text"]))
    for path, payload in payloads.items():
        assert got[path] == payload, path


def test_extract_pdf_dir_matches_single_process(ray_session, tmp_path):
    payloads = _write_pdf_dir(tmp_path)
    out = extract_pdf_dir(str(tmp_path / "pdfs"),
                          keep_spans=False).to_pandas()
    assert len(out) == len(payloads)
    by_path = out.set_index("conv_id")
    n_err = 0
    for path, payload in payloads.items():
        row = by_path.loc[path]
        ref = extract_payload(payload)
        assert row["extracted_text"] == ref["extracted_text"], path
        assert row["markdown"] == ref["markdown"], path
        assert row["status"] == ref["status"], path
        if row["status"] == "error":
            n_err += 1
    # the malformed file flowed through as a row, not an exception
    assert "doc_bad.pdf" in "".join(by_path.index)
    # and the well-formed ones extracted successfully
    assert (by_path["status"] == "ok").sum() >= len(payloads) - 1


def test_extract_pdf_dir_writes_parquet(ray_session, tmp_path):
    _write_pdf_dir(tmp_path, n=4)
    out_dir = str(tmp_path / "out")
    extract_pdf_dir(str(tmp_path / "pdfs"),
                    keep_spans=False).write_parquet(out_dir)
    back = pq.read_table(out_dir)
    assert back.num_rows == 6  # 4 pdfs + malformed + zero-byte
    assert "extracted_text" in back.column_names


def test_cli_extract_pdfs(tmp_path):
    """`extract-pdfs` subcommand as a subprocess (owns its Ray session,
    like the other CLI surfaces)."""
    import json
    import subprocess
    import sys

    _write_pdf_dir(tmp_path, n=5)
    out_dir = str(tmp_path / "cli_out")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run():
        return subprocess.run(
            [sys.executable, "-m", "pdf_oxide_ray.cli", "extract-pdfs",
             "--input", str(tmp_path / "pdfs"), "--output", out_dir,
             "--no-spans"],
            capture_output=True, text=True, cwd=repo, timeout=300)

    res = run()
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["rows"] == 7  # 5 pdfs + malformed + zero-byte
    assert summary["errors"] == 1  # the malformed file, as a row
    before = pq.read_table(out_dir)

    # a rerun into the same output raises instead of appending 7 more rows
    res = run()
    assert res.returncode != 0
    assert "FileExistsError" in res.stderr
    assert pq.read_table(out_dir).equals(before)
