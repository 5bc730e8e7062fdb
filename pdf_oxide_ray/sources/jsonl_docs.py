"""JSONL documents source: a directory / glob / list of ``.jsonl``
files -> Ray Dataset in the ``documents`` table schema — the standard
interchange format of web-scale text corpora (Common Crawl
derivatives, exported curation runs), which the parquet-first query
families did not cover as a source until now.

Design (Ray-Data-first, mirrors ``sources/pdf_files.py``):

* ``ray.data.read_text(paths)`` streams LINES as blocks — Ray
  parallelizes at file/block granularity, so a directory of thousands
  of shards scans without a driver-side loop.
* One ``map_batches`` parses each line with ROW-LEVEL ERROR
  ABSORPTION (the extraction kernel's contract): a malformed line
  yields ``status='error'`` with the parse message, never a task
  failure — a 100 TB crawl always has corrupt shards, and a killed
  job is the wrong failure mode.
* Field mapping: ``text`` (required; missing -> error row), ``lang``
  / ``source`` (optional, default ``''``), ``doc_id`` (optional
  int64; a bool or an int outside int64 -> error row; when absent, a
  STABLE 63-bit id derives from blake2b(source, '\\x1f', text) so reruns
  and re-partitions assign identical ids — no counter crosses blocks).
* ``ingest_jsonl_dir`` writes the standard documents parquet layout
  (sharded ``write_parquet``) into a new output with one directory swap
  (``state/manifest.replace_dir``); an output holding files raises.

100 TB: no stage materializes the corpus; lines flow block -> parse
-> parquet with streaming backpressure; there is no wide step.
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd

DOC_COLUMNS = ["doc_id", "text", "lang", "source", "n_chars",
               "status", "error"]


def _parse_lines(batch: pd.DataFrame) -> pd.DataFrame:
    ids, texts, langs, sources, nch, status, err = \
        [], [], [], [], [], [], []
    for line in batch["text"]:
        s = (line or "").strip()
        if not s:
            continue  # blank lines are skippable, not errors
        try:
            obj = json.loads(s)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            text = obj.get("text")
            if not isinstance(text, str):
                raise ValueError("missing/non-string 'text' field")
            lang = str(obj.get("lang") or "")
            source = str(obj.get("source") or "")
            doc_id = obj.get("doc_id")
            if isinstance(doc_id, bool) or (
                    isinstance(doc_id, int)
                    and not -(1 << 63) <= doc_id < (1 << 63)):
                raise ValueError(f"'doc_id' {doc_id!r} is not an int64")
            if not isinstance(doc_id, int):
                h = hashlib.blake2b(
                    (source + "\x1f" + text).encode("utf-8"),
                    digest_size=8).digest()
                doc_id = int.from_bytes(h, "big") >> 1  # 63-bit
            ids.append(doc_id)
            texts.append(text)
            langs.append(lang)
            sources.append(source)
            nch.append(len(text))
            status.append("ok")
            err.append("")
        except (ValueError, json.JSONDecodeError) as exc:
            ids.append(-1)
            texts.append("")
            langs.append("")
            sources.append("")
            nch.append(0)
            status.append("error")
            err.append(str(exc)[:200])
    return pd.DataFrame({
        "doc_id": pd.Series(ids, dtype="int64"),
        "text": pd.Series(texts, dtype=object),
        "lang": pd.Series(langs, dtype=object),
        "source": pd.Series(sources, dtype=object),
        "n_chars": pd.Series(nch, dtype="int64"),
        "status": pd.Series(status, dtype=object),
        "error": pd.Series(err, dtype=object)})


def read_jsonl_docs(paths: str | list[str]):
    """Directory / glob / explicit list of .jsonl files -> Dataset in
    the documents schema plus (status, error) — malformed lines become
    status='error' rows."""
    import ray.data as rd

    return rd.read_text(paths) \
        .map_batches(_parse_lines, batch_format="pandas")


def ingest_jsonl_dir(paths: str | list[str], output: str) -> dict:
    """Parse a JSONL corpus and write the standard documents parquet
    layout in ONE streaming pass: rows partition by ``status`` (good
    docs under ``status=ok/``, quarantined lines with their error
    message under ``status=error/``), so nothing is materialized and
    the corpus is read once. ``output`` must not exist yet or be
    empty; the documents appear there all at once, when the write is
    complete. Row/error counts come from parquet METADATA after the
    write (no data re-read). Returns {'rows': ok_rows, 'errors':
    error_rows}."""
    from ..pipelines.ann_index import _strip_pandas_meta
    from ..state.manifest import partition_rows, replace_dir

    if os.path.isdir(output) and os.listdir(output):
        raise FileExistsError(
            f"{output} already holds files; ingest into a new directory")
    # rag_prep and training_prep read these files back through Ray, which
    # cannot hash a schema that carries pandas metadata
    docs = read_jsonl_docs(paths) \
        .map_batches(_strip_pandas_meta, batch_format="pyarrow")
    replace_dir(output, lambda tmp: docs.write_parquet(
        tmp, partition_cols=["status"]))
    counts = partition_rows(output)
    return {"rows": counts.get("ok", 0), "errors": counts.get("error", 0)}
